// Crash recovery (DESIGN.md §9): the durable Snapshot store, server
// checkpoint/WAL restore, client cold restarts, and the kill/restart fault
// events in the simulation — including the recovery-equivalence contract
// (a zero-downtime crash+restore run is byte-identical to an uninterrupted
// one) and the thread-count determinism of WAL replay.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "mobieyes/core/server.h"
#include "mobieyes/core/snapshot.h"
#include "mobieyes/net/codec.h"
#include "mobieyes/net/message.h"
#include "mobieyes/sim/simulation.h"
#include "test_harness.h"

namespace mobieyes {
namespace {

net::Message VelocityMessage(ObjectId oid, double vx, uint32_t seq) {
  net::VelocityChangeReport report;
  report.oid = oid;
  report.state.pos = {10.0 + vx, 20.0};
  report.state.vel = {vx, 0.5};
  report.state.tm = 30.0;
  net::Message message = net::MakeMessage(report);
  message.seq = seq;
  return message;
}

// --- Snapshot store ---------------------------------------------------------

TEST(SnapshotTest, WalDropsNewestRecordsAtCapacity) {
  core::Snapshot store;
  store.wal_limit = 3;
  for (uint32_t k = 0; k < 5; ++k) {
    store.Append(1, VelocityMessage(1, 0.1 * k, k + 1));
  }
  ASSERT_EQ(store.wal.size(), 3u);
  EXPECT_EQ(store.wal_dropped, 2u);
  // The *prefix* survives: dropping the newest keeps the log replayable.
  EXPECT_EQ(store.wal[0].message.seq, 1u);
  EXPECT_EQ(store.wal[2].message.seq, 3u);

  store.Install({0xAA, 0xBB});
  EXPECT_TRUE(store.wal.empty());
  EXPECT_EQ(store.wal_dropped, 0u);
  EXPECT_EQ(store.checkpoint.size(), 2u);
}

// --- Server checkpoint / restore -------------------------------------------

core::MobiEyesOptions HardenedTestOptions() {
  return core::HardenedOptions(core::MobiEyesOptions{}, /*time_step=*/30.0,
                               /*lease_ticks=*/16);
}

// Restoring checkpoint + WAL on a fresh server must reproduce the crashed
// server's protocol state: SQT rows, result sets, FOT kinematics and the
// dedup windows (checked indirectly through QueryResult equality).
TEST(ServerRestoreTest, RestoreReproducesServerState) {
  std::vector<test::ObjectSpec> specs;
  for (int k = 0; k < 12; ++k) {
    specs.push_back(test::ObjectSpec({5.0 + 7.0 * k, 40.0},
                                     {0.02 * (k % 5), 0.01 * (k % 3)},
                                     /*max_speed_in=*/0.05));
  }
  core::MobiEyesOptions options = HardenedTestOptions();
  test::MiniDeployment d(specs, options);
  core::Snapshot store;
  store.wal_limit = 4096;
  d.server().set_durable_store(&store);

  ASSERT_TRUE(d.server().InstallQuery(0, 15.0, 0.5).ok());
  ASSERT_TRUE(d.server().InstallQuery(4, 10.0, 0.5).ok());
  d.TickN(3);
  d.server().Checkpoint();
  ASSERT_TRUE(d.server().InstallQuery(7, 12.0, 0.5).ok());
  d.TickN(5);  // uplinks since the checkpoint land in the WAL
  ASSERT_GT(store.wal.size(), 0u);

  core::MobiEyesServer restored(d.grid(), d.layout(), d.bmap(), d.network(),
                                options);
  size_t replayed = 0;
  Status status = restored.Restore(store, &replayed);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(replayed, store.wal.size());

  EXPECT_EQ(restored.query_count(), d.server().query_count());
  // The clock is not WAL-logged: the restored server lags at the last
  // image's time until its first AdvanceTime.
  EXPECT_LE(restored.now(), d.server().now());
  for (QueryId qid = 0; qid < 3; ++qid) {
    const core::MobiEyesServer::SqtEntry* live = d.server().FindQuery(qid);
    const core::MobiEyesServer::SqtEntry* back = restored.FindQuery(qid);
    ASSERT_NE(live, nullptr);
    ASSERT_NE(back, nullptr);
    EXPECT_EQ(back->focal_oid, live->focal_oid);
    EXPECT_EQ(back->curr_cell.i, live->curr_cell.i);
    EXPECT_EQ(back->curr_cell.j, live->curr_cell.j);
    EXPECT_EQ(back->mon_region.i_lo, live->mon_region.i_lo);
    EXPECT_EQ(back->mon_region.i_hi, live->mon_region.i_hi);
    EXPECT_EQ(back->mon_region.j_lo, live->mon_region.j_lo);
    EXPECT_EQ(back->mon_region.j_hi, live->mon_region.j_hi);
    EXPECT_DOUBLE_EQ(back->expires_at, live->expires_at);
    EXPECT_DOUBLE_EQ(back->lease_renew_at, live->lease_renew_at);
    EXPECT_EQ(back->result, live->result);
    const core::MobiEyesServer::FotEntry* live_focal =
        d.server().FindFocal(live->focal_oid);
    const core::MobiEyesServer::FotEntry* back_focal =
        restored.FindFocal(live->focal_oid);
    ASSERT_NE(live_focal, nullptr);
    ASSERT_NE(back_focal, nullptr);
    EXPECT_DOUBLE_EQ(back_focal->state.pos.x, live_focal->state.pos.x);
    EXPECT_DOUBLE_EQ(back_focal->state.vel.x, live_focal->state.vel.x);
    EXPECT_DOUBLE_EQ(back_focal->state.tm, live_focal->state.tm);
    EXPECT_EQ(back_focal->queries, live_focal->queries);
  }
}

// A corrupt checkpoint image must fail cleanly (Status, not a crash or an
// out-of-bounds RQI write), whatever byte it is cut at.
TEST(ServerRestoreTest, RestoreRejectsTruncatedImages) {
  std::vector<test::ObjectSpec> specs;
  for (int k = 0; k < 6; ++k) {
    specs.push_back(test::ObjectSpec({10.0 + 12.0 * k, 55.0}));
  }
  core::MobiEyesOptions options = HardenedTestOptions();
  test::MiniDeployment d(specs, options);
  core::Snapshot store;
  d.server().set_durable_store(&store);
  ASSERT_TRUE(d.server().InstallQuery(1, 14.0, 0.5).ok());
  d.TickN(2);
  // A tracked uplink from object 5, the highest oid, makes the image close
  // with six dedup windows: a u32 count, then 12 bytes per oid.
  net::Message tracked = net::MakeMessage(net::ResultBitmapReport{5, {}, 0});
  tracked.seq = 1;
  d.server().OnUplink(5, tracked);
  d.server().Checkpoint();
  ASSERT_FALSE(store.checkpoint.empty());

  const std::vector<uint8_t> image = store.checkpoint;
  // Truncation to zero bytes is "no checkpoint at all": a legal cold
  // restore, not corruption.
  {
    core::Snapshot empty;
    core::MobiEyesServer fresh(d.grid(), d.layout(), d.bmap(), d.network(),
                               options);
    EXPECT_TRUE(fresh.Restore(empty).ok());
    EXPECT_EQ(fresh.query_count(), 0u);
  }
  for (size_t len = 1; len < image.size(); ++len) {
    core::Snapshot corrupt;
    corrupt.checkpoint.assign(image.begin(), image.begin() + len);
    core::MobiEyesServer fresh(d.grid(), d.layout(), d.bmap(), d.network(),
                               options);
    EXPECT_FALSE(fresh.Restore(corrupt).ok())
        << "accepted image truncated to " << len << " bytes";
  }
  core::Snapshot bad_magic;
  bad_magic.checkpoint = image;
  bad_magic.checkpoint[0] ^= 0xFF;
  core::MobiEyesServer fresh(d.grid(), d.layout(), d.bmap(), d.network(),
                             options);
  EXPECT_FALSE(fresh.Restore(bad_magic).ok());

  // A version-1 image (8-entry dedup rings) is refused by name.
  core::Snapshot old_version;
  old_version.checkpoint = image;
  old_version.checkpoint[4] = 1;
  old_version.checkpoint[5] = 0;
  const Status refused = fresh.Restore(old_version);
  EXPECT_NE(refused.message().find("version 1"), std::string::npos)
      << refused.ToString();
  EXPECT_NE(refused.message().find("version 2"), std::string::npos)
      << refused.ToString();

  // A dedup window count larger than the bytes left is refused before
  // anything is allocated for it.
  constexpr uint32_t kWindows = 6;
  const size_t count_at = image.size() - sizeof(uint32_t) - kWindows * 12;
  uint32_t stored = 0;
  std::memcpy(&stored, image.data() + count_at, sizeof(stored));
  ASSERT_EQ(stored, kWindows);
  for (uint32_t count : {kWindows + 1, UINT32_MAX}) {
    core::Snapshot oversized;
    oversized.checkpoint = image;
    std::memcpy(oversized.checkpoint.data() + count_at, &count, sizeof(count));
    core::MobiEyesServer server(d.grid(), d.layout(), d.bmap(), d.network(),
                                options);
    EXPECT_FALSE(server.Restore(oversized).ok()) << count << " windows";
  }
}

// A WAL record is checked before anything replays. A cell change or a
// reconcile naming a cell outside the grid would index the RQI out of range,
// and a sender with no client would index the dedup windows out of range,
// so each refuses the whole store and leaves the fresh server empty.
TEST(ServerRestoreTest, RestoreRejectsWalRecordsOutsideTheTables) {
  std::vector<test::ObjectSpec> specs;
  for (int k = 0; k < 6; ++k) {
    specs.push_back(test::ObjectSpec({10.0 + 12.0 * k, 55.0}));
  }
  core::MobiEyesOptions options = HardenedTestOptions();
  test::MiniDeployment d(specs, options);
  core::Snapshot store;
  store.wal_limit = 4096;
  d.server().set_durable_store(&store);
  ASSERT_TRUE(d.server().InstallQuery(1, 14.0, 0.5).ok());
  d.TickN(2);
  d.server().Checkpoint();
  // One valid record of each checked kind, from object 2.
  const size_t cell_change = store.wal.size();
  store.Append(2, net::MakeMessage(net::CellChangeReport{2, {2, 5}, {3, 5}}));
  const size_t reconcile = store.wal.size();
  net::LqtReconcileRequest request;
  request.oid = 2;
  request.cell = {3, 5};
  store.Append(2, net::MakeMessage(request));
  {
    core::MobiEyesServer fresh(d.grid(), d.layout(), d.bmap(), d.network(),
                               options);
    ASSERT_TRUE(fresh.Restore(store).ok());
  }

  const geo::CellCoord outside{3, -1000};
  auto cell_change_of = [](core::WalRecord* record) -> net::CellChangeReport& {
    return std::get<net::CellChangeReport>(record->message.payload);
  };
  const std::vector<
      std::tuple<const char*, size_t, std::function<void(core::WalRecord*)>>>
      cases = {
          {"prev_cell", cell_change,
           [&](core::WalRecord* r) { cell_change_of(r).prev_cell = outside; }},
          {"new_cell", cell_change,
           [&](core::WalRecord* r) { cell_change_of(r).new_cell = outside; }},
          {"reconcile cell", reconcile,
           [&](core::WalRecord* r) {
             std::get<net::LqtReconcileRequest>(r->message.payload).cell =
                 outside;
           }},
          {"sender", reconcile, [](core::WalRecord* r) { r->from = 99; }},
      };
  for (const auto& [name, index, patch] : cases) {
    for (int shards : {1, 4}) {
      core::Snapshot corrupt = store;
      patch(&corrupt.wal[index]);
      core::MobiEyesOptions restore_options = options;
      restore_options.sharding.num_shards = shards;
      core::MobiEyesServer fresh(d.grid(), d.layout(), d.bmap(), d.network(),
                                 restore_options);
      size_t replayed = 0;
      const Status status = fresh.Restore(corrupt, &replayed);
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
          << name << ", " << shards << " shards: " << status.ToString();
      EXPECT_EQ(replayed, 0u) << name << ", " << shards << " shards";
      EXPECT_EQ(fresh.query_count(), 0u) << name << ", " << shards
                                         << " shards";
    }
  }
}

// A checkpoint naming a cell outside the grid, for a focal object or for a
// query's current cell, is refused like a monitoring region outside it:
// the heat map charges both cells without a bounds check.
TEST(ServerRestoreTest, RestoreRejectsCellsOutsideTheGrid) {
  std::vector<test::ObjectSpec> specs;
  for (int k = 0; k < 6; ++k) {
    specs.push_back(test::ObjectSpec({10.0 + 12.0 * k, 55.0}));
  }
  core::MobiEyesOptions options = HardenedTestOptions();
  test::MiniDeployment d(specs, options);
  core::Snapshot store;
  d.server().set_durable_store(&store);
  ASSERT_TRUE(d.server().InstallQuery(1, 14.0, 0.5).ok());
  d.TickN(2);
  d.server().Checkpoint();
  const core::MobiEyesServer::FotEntry* focal = d.server().FindFocal(1);
  const core::MobiEyesServer::SqtEntry* query = d.server().FindQuery(0);
  ASSERT_NE(focal, nullptr);
  ASSERT_NE(query, nullptr);
  ASSERT_EQ(focal->queries.size(), 1u);

  // Image layout: a 24-byte header and the FOT count, then the only FOT
  // row (oid, 40 bytes of kinematics, max speed, cell, a one-query list),
  // then the SQT count and the only SQT row (qid, focal oid, 17 bytes of
  // region, filter threshold, current cell).
  constexpr size_t kFocalCell = 28 + 8 + 40 + 8;
  constexpr size_t kQueryCell = kFocalCell + 8 + 4 + 8 + 4 + 8 + 8 + 17 + 8;
  auto cell_bytes = [](const geo::CellCoord& cell) {
    std::vector<uint8_t> bytes;
    net::ByteWriter(&bytes).Cell(cell);
    return bytes;
  };
  for (const auto& [offset, live] :
       {std::pair{kFocalCell, focal->cell},
        std::pair{kQueryCell, query->curr_cell}}) {
    const auto at = store.checkpoint.begin() + static_cast<ptrdiff_t>(offset);
    ASSERT_EQ(std::vector<uint8_t>(at, at + 8), cell_bytes(live))
        << "offset " << offset;
    const std::vector<uint8_t> outside = cell_bytes({live.i, -1000});
    for (int shards : {1, 4}) {
      core::Snapshot corrupt;
      corrupt.checkpoint = store.checkpoint;
      std::copy(outside.begin(), outside.end(),
                corrupt.checkpoint.begin() + static_cast<ptrdiff_t>(offset));
      core::MobiEyesOptions restore_options = options;
      restore_options.sharding.num_shards = shards;
      core::MobiEyesServer fresh(d.grid(), d.layout(), d.bmap(), d.network(),
                                 restore_options);
      EXPECT_FALSE(fresh.Restore(corrupt).ok())
          << "cell at offset " << offset << ", " << shards << " shards";
    }
  }
}

// A checkpoint image holding exactly these FOT and SQT rows and no dedup
// windows, laid out as ShardRouter::EncodeImage writes one.
struct ImageRows {
  Seconds now = 0.0;
  QueryId next_qid = 0;
  std::vector<std::pair<ObjectId, core::FotEntry>> fot;
  std::vector<core::SqtEntry> sqt;
};

std::vector<uint8_t> EncodeRows(const ImageRows& rows) {
  std::vector<uint8_t> image;
  net::ByteWriter w(&image);
  w.U32(0x4d6f4349);  // "MoCI"
  w.U16(2);
  w.U16(0);
  w.F64(rows.now);
  w.I64(rows.next_qid);
  w.U32(static_cast<uint32_t>(rows.fot.size()));
  for (const auto& [oid, focal] : rows.fot) {
    w.I64(oid);
    w.State(focal.state);
    w.F64(focal.max_speed);
    w.Cell(focal.cell);
    w.U32(static_cast<uint32_t>(focal.queries.size()));
    for (QueryId qid : focal.queries) w.I64(qid);
  }
  w.U32(static_cast<uint32_t>(rows.sqt.size()));
  for (const core::SqtEntry& query : rows.sqt) {
    w.I64(query.qid);
    w.I64(query.focal_oid);
    w.Region(query.region);
    w.F64(query.filter_threshold);
    w.Cell(query.curr_cell);
    w.Range(query.mon_region);
    w.F64(query.expires_at);
    w.F64(query.lease_renew_at);
    std::vector<ObjectId> result(query.result.begin(), query.result.end());
    std::sort(result.begin(), result.end());
    w.U32(static_cast<uint32_t>(result.size()));
    for (ObjectId oid : result) w.I64(oid);
  }
  w.U32(0);  // dedup windows
  return image;
}

// The FOT and the SQT name each other: a FOT row lists the queries bound to
// its object, and a query names its focal object. An image where they
// disagree would make a later handler look up a row that is not there, or
// hand out a query id twice, so Restore refuses it before any RQI row is
// added and leaves the server as it was.
TEST(ServerRestoreTest, RestoreRejectsImagesWhoseFotAndSqtDisagree) {
  std::vector<test::ObjectSpec> specs;
  for (int k = 0; k < 6; ++k) {
    specs.push_back(test::ObjectSpec({10.0 + 12.0 * k, 55.0}));
  }
  const core::MobiEyesOptions options;  // no tracked uplinks, no windows
  test::MiniDeployment d(specs, options);
  core::Snapshot store;
  d.server().set_durable_store(&store);
  ASSERT_TRUE(d.server().InstallQuery(1, 14.0, 0.5).ok());
  ASSERT_TRUE(d.server().InstallQuery(1, 8.0, 0.5).ok());
  ASSERT_TRUE(d.server().InstallQuery(3, 10.0, 0.5).ok());
  d.TickN(2);
  d.server().Checkpoint();

  ImageRows live;
  live.now = d.server().now();
  live.next_qid = 3;
  for (ObjectId oid : {1, 3}) {
    ASSERT_NE(d.server().FindFocal(oid), nullptr);
    live.fot.emplace_back(oid, *d.server().FindFocal(oid));
  }
  for (QueryId qid = 0; qid < 3; ++qid) {
    ASSERT_NE(d.server().FindQuery(qid), nullptr);
    live.sqt.push_back(*d.server().FindQuery(qid));
  }
  ASSERT_EQ(live.fot[0].second.queries, (std::vector<QueryId>{0, 1}));
  ASSERT_EQ(EncodeRows(live), store.checkpoint);

  using Patch = std::function<void(ImageRows*)>;
  const std::vector<std::pair<const char*, Patch>> cases = {
      {"query id at the counter", [](ImageRows* r) { r->next_qid = 2; }},
      {"negative query id",
       [](ImageRows* r) {
         r->sqt[0].qid = -1;
         r->fot[0].second.queries[0] = -1;
       }},
      {"query id repeats", [](ImageRows* r) { r->sqt[1].qid = 0; }},
      {"focal object repeats", [](ImageRows* r) { r->fot[1].first = 1; }},
      {"list names a query the SQT lacks",
       [](ImageRows* r) { r->fot[0].second.queries[1] = 7; }},
      {"list names another object's query",
       [](ImageRows* r) { r->fot[0].second.queries.push_back(2); }},
      {"list names a query twice",
       [](ImageRows* r) { r->fot[0].second.queries.push_back(0); }},
      {"query's focal object has no FOT row",
       [](ImageRows* r) { r->sqt[2].focal_oid = 4; }},
      {"query's focal object does not list it",
       [](ImageRows* r) { r->fot[0].second.queries.pop_back(); }},
  };
  for (int shards : {1, 4}) {
    core::MobiEyesOptions restore_options = options;
    restore_options.sharding.num_shards = shards;
    {
      core::Snapshot valid;
      valid.checkpoint = EncodeRows(live);
      core::MobiEyesServer fresh(d.grid(), d.layout(), d.bmap(), d.network(),
                                 restore_options);
      ASSERT_TRUE(fresh.Restore(valid).ok()) << shards << " shards";
      EXPECT_EQ(fresh.query_count(), 3u);
    }
    for (const auto& [name, patch] : cases) {
      ImageRows rows = live;
      patch(&rows);
      core::Snapshot corrupt;
      corrupt.checkpoint = EncodeRows(rows);
      core::MobiEyesServer fresh(d.grid(), d.layout(), d.bmap(), d.network(),
                                 restore_options);
      const Status status = fresh.Restore(corrupt);
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
          << name << ", " << shards << " shards: " << status.ToString();
      EXPECT_EQ(fresh.query_count(), 0u) << name << ", " << shards;
      EXPECT_EQ(fresh.FindFocal(1), nullptr) << name << ", " << shards;
      EXPECT_TRUE(fresh.QueriesForCell(live.sqt[0].curr_cell).empty())
          << name << ", " << shards << " shards";
    }
  }
}

// An install or removal through the server API has no uplink for the WAL
// to log, so a server with a store checkpoints after each. A removal after
// the last checkpoint stays removed on restore.
TEST(ServerRestoreTest, ApiRemovalSurvivesRestore) {
  std::vector<test::ObjectSpec> specs;
  for (int k = 0; k < 6; ++k) {
    specs.push_back(test::ObjectSpec({10.0 + 12.0 * k, 55.0}));
  }
  core::MobiEyesOptions options = HardenedTestOptions();
  test::MiniDeployment d(specs, options);
  core::Snapshot store;
  store.wal_limit = 4096;
  d.server().set_durable_store(&store);
  auto kept = d.server().InstallQuery(1, 14.0, 0.5);
  auto removed = d.server().InstallQuery(4, 10.0, 0.5);
  ASSERT_TRUE(kept.ok());
  ASSERT_TRUE(removed.ok());
  d.TickN(3);
  d.server().Checkpoint();
  d.TickN(2);
  ASSERT_TRUE(d.server().RemoveQuery(*removed).ok());
  EXPECT_TRUE(store.wal.empty());
  d.TickN(2);

  core::MobiEyesServer restored(d.grid(), d.layout(), d.bmap(), d.network(),
                                options);
  ASSERT_TRUE(restored.Restore(store).ok());
  EXPECT_EQ(restored.query_count(), d.server().query_count());
  EXPECT_NE(restored.FindQuery(*kept), nullptr);
  EXPECT_EQ(restored.FindQuery(*removed), nullptr);
  EXPECT_EQ(restored.FindFocal(4), nullptr);
  EXPECT_EQ(restored.QueryResult(*kept)->size(),
            d.server().QueryResult(*kept)->size());
}

// A finite duration reaches the image, which the wire request could not
// carry: the restored query expires when the live one does.
TEST(ServerRestoreTest, ApiInstallKeepsItsExpiryAcrossRestore) {
  std::vector<test::ObjectSpec> specs;
  for (int k = 0; k < 6; ++k) {
    specs.push_back(test::ObjectSpec({10.0 + 12.0 * k, 55.0}));
  }
  core::MobiEyesOptions options = HardenedTestOptions();
  test::MiniDeployment d(specs, options);
  core::Snapshot store;
  store.wal_limit = 4096;
  d.server().set_durable_store(&store);
  d.TickN(2);  // the server clock reads 60 s
  auto qid = d.server().InstallQuery(1, 14.0, 0.5, /*duration=*/60.0);
  ASSERT_TRUE(qid.ok());
  EXPECT_TRUE(store.wal.empty());
  ASSERT_NE(d.server().FindQuery(*qid), nullptr);
  const Seconds expires_at = d.server().FindQuery(*qid)->expires_at;
  EXPECT_DOUBLE_EQ(expires_at, d.server().now() + 60.0);
  d.Tick();

  core::MobiEyesServer restored(d.grid(), d.layout(), d.bmap(), d.network(),
                                options);
  ASSERT_TRUE(restored.Restore(store).ok());
  ASSERT_NE(restored.FindQuery(*qid), nullptr);
  EXPECT_DOUBLE_EQ(restored.FindQuery(*qid)->expires_at, expires_at);
  d.Tick();
  restored.AdvanceTime(d.server().now());
  EXPECT_EQ(d.server().FindQuery(*qid), nullptr);
  EXPECT_EQ(restored.FindQuery(*qid), nullptr);
}

// --- Simulation-level recovery ---------------------------------------------

sim::SimulationConfig SmallCrashConfig() {
  sim::SimulationConfig config;
  config.params.num_objects = 300;
  config.params.num_queries = 40;
  config.params.velocity_changes_per_step = 40;
  config.params.area_square_miles = 10000.0;  // 100 x 100
  config.params.seed = 11;
  config.mode = sim::SimMode::kMobiEyesEager;
  config.measure_error = true;
  config.warmup_steps = 2;
  config.mobieyes =
      core::HardenedOptions(config.mobieyes, config.params.time_step);
  config.obs.enable_metrics = true;
  config.obs.sample_stride = 1;
  return config;
}

std::string RunAndReport(const sim::SimulationConfig& config, int steps,
                         sim::RunMetrics* metrics_out,
                         std::vector<std::set<ObjectId>>* results_out) {
  auto simulation = sim::Simulation::Make(config);
  EXPECT_TRUE(simulation.ok()) << simulation.status().ToString();
  if (!simulation.ok()) return {};
  (*simulation)->Run(steps);
  if (metrics_out != nullptr) *metrics_out = (*simulation)->metrics();
  if (results_out != nullptr) {
    for (QueryId qid : (*simulation)->installed_queries()) {
      auto result = (*simulation)->server()->QueryResult(qid);
      EXPECT_TRUE(result.ok());
      results_out->push_back(result.ok()
                                 ? std::set<ObjectId>(result->begin(),
                                                      result->end())
                                 : std::set<ObjectId>{});
    }
  }
  return (*simulation)->ObservabilityJson(/*include_timing=*/false);
}

// The recovery-equivalence contract: at drop 0, a run that crashes and
// restores the server within the same step (zero downtime) must be
// indistinguishable — byte-identical deterministic report, identical final
// query results — from a run that never crashed.
TEST(SimulationCrashTest, InstantRestoreIsByteIdenticalToUninterruptedRun) {
  sim::SimulationConfig plain = SmallCrashConfig();
  sim::SimulationConfig crashed = SmallCrashConfig();
  crashed.faults.server_crash_step = 6;
  crashed.faults.server_recovery_steps = 0;
  crashed.checkpoint_stride = 1;

  sim::RunMetrics plain_metrics;
  sim::RunMetrics crash_metrics;
  std::vector<std::set<ObjectId>> plain_results;
  std::vector<std::set<ObjectId>> crash_results;
  std::string plain_json = RunAndReport(plain, 10, &plain_metrics,
                                        &plain_results);
  std::string crash_json = RunAndReport(crashed, 10, &crash_metrics,
                                        &crash_results);

  EXPECT_EQ(crash_metrics.server_crashes, 1);
  EXPECT_FALSE(plain_json.empty());
  EXPECT_EQ(plain_json, crash_json);
  EXPECT_EQ(plain_results, crash_results);
  EXPECT_EQ(plain_metrics.network.uplink_messages,
            crash_metrics.network.uplink_messages);
  EXPECT_EQ(plain_metrics.network.downlink_messages,
            crash_metrics.network.downlink_messages);
  EXPECT_EQ(plain_metrics.agreement_sum, crash_metrics.agreement_sum);
}

// A crash with real downtime loses the in-flight traffic of the dark window
// (counted as undeliverable, not dropped), and the restored server must
// reconverge with the oracle at drop 0.
TEST(SimulationCrashTest, ReconvergesAfterDowntime) {
  sim::SimulationConfig config = SmallCrashConfig();
  config.faults.server_crash_step = 8;
  config.faults.server_recovery_steps = 3;
  config.checkpoint_stride = 4;

  auto simulation = sim::Simulation::Make(config);
  ASSERT_TRUE(simulation.ok()) << simulation.status().ToString();
  (*simulation)->Run(30);
  sim::RunMetrics metrics = (*simulation)->metrics();
  EXPECT_EQ(metrics.server_crashes, 1);
  EXPECT_GE(metrics.checkpoints_taken, 2);
  // Uplinks sent into the dark window are undeliverable-by-reason, never
  // silently folded into the drop counters.
  using Reason = net::NetworkStats::UndeliverableReason;
  EXPECT_GT(metrics.network.undeliverable_by_reason[static_cast<size_t>(
                Reason::kServerDown)],
            0u);
  EXPECT_EQ(metrics.network.uplink_dropped, 0u);
  EXPECT_GE((*simulation)->CurrentAccuracy().agreement, 0.95);
}

// Recovery still works when the crash happens under 10% message loss: the
// protocol ends near the accuracy an uninterrupted lossy run achieves.
TEST(SimulationCrashTest, RecoversUnderMessageLoss) {
  sim::SimulationConfig config = SmallCrashConfig();
  config.faults.uplink_drop_rate = 0.1;
  config.faults.downlink_drop_rate = 0.1;
  config.faults.server_crash_step = 8;
  config.faults.server_recovery_steps = 3;
  config.checkpoint_stride = 4;

  auto simulation = sim::Simulation::Make(config);
  ASSERT_TRUE(simulation.ok()) << simulation.status().ToString();
  (*simulation)->Run(30);
  EXPECT_EQ((*simulation)->metrics().server_crashes, 1);
  EXPECT_GE((*simulation)->CurrentAccuracy().agreement, 0.85);
}

// Lifecycle matching discipline under fire (DESIGN.md §12): with drops,
// duplicates, client cold-restarts and a server crash all active, every
// stamp must be accounted for — resolved, cancelled or still pending at
// export — never silently leaked, and duplicate terminal events must not
// inflate the resolved counts past the stamped ones. The heat map must
// survive the same run: the restored server charges it again, and the
// export does not depend on the shard count.
TEST(SimulationCrashTest, LifecycleAccountingSurvivesFaultsAndCrash) {
  sim::SimulationConfig config = SmallCrashConfig();
  config.faults.uplink_drop_rate = 0.15;
  config.faults.downlink_drop_rate = 0.15;
  config.faults.duplicate_rate = 0.1;
  config.faults.client_restart_rate = 0.02;
  config.faults.server_crash_step = 8;
  config.faults.server_recovery_steps = 2;
  config.checkpoint_stride = 4;
  config.obs.enable_lifecycle = true;
  config.obs.enable_heatmap = true;

  auto simulation = sim::Simulation::Make(config);
  ASSERT_TRUE(simulation.ok()) << simulation.status().ToString();
  // After 2 warmup steps, the crash lands in measured step 6 and the
  // restore in measured step 8, the 9th.
  (*simulation)->Run(9);
  ASSERT_NE((*simulation)->server(), nullptr);
  const obs::HeatMap* heatmap = (*simulation)->heatmap();
  ASSERT_NE(heatmap, nullptr);
  const uint64_t uplinks_at_restore =
      heatmap->ChannelSum(obs::HeatMap::kUplinks);
  EXPECT_GT(uplinks_at_restore, 0u);
  (*simulation)->Run(15);
  const obs::LifecycleTracker* lifecycle = (*simulation)->lifecycle();
  ASSERT_NE(lifecycle, nullptr);
  for (int k = 0; k < obs::LifecycleTracker::kNumKinds; ++k) {
    const auto kind = static_cast<obs::LifecycleTracker::Kind>(k);
    EXPECT_EQ(lifecycle->stamped(kind),
              lifecycle->resolved(kind) + lifecycle->cancelled(kind) +
                  lifecycle->pending(kind))
        << obs::LifecycleTracker::KindName(kind);
    EXPECT_LE(lifecycle->resolved(kind), lifecycle->stamped(kind))
        << obs::LifecycleTracker::KindName(kind);
  }
  // The run exercised real rounds, and the crash kinds both fired and
  // closed: the server restored and the protocol reconverged.
  EXPECT_GT(lifecycle->resolved(obs::LifecycleTracker::kUplinkAck), 0u);
  EXPECT_EQ(lifecycle->resolved(obs::LifecycleTracker::kCrashRestore), 1u);
  // Reconvergence either completed (resolved) or is still honestly pending
  // under this fault pressure; the stamp fired either way.
  EXPECT_EQ(lifecycle->stamped(obs::LifecycleTracker::kCrashReconverge), 1u);
  // The drop/dup pressure is real: some rounds were retried or cancelled.
  EXPECT_GT(lifecycle->restamped(obs::LifecycleTracker::kUplinkAck) +
                lifecycle->cancelled(obs::LifecycleTracker::kUplinkAck),
            0u);
  // RestoreServer re-wired the heat map: uplinks kept landing after the
  // restore step.
  EXPECT_GT(heatmap->ChannelSum(obs::HeatMap::kUplinks), uplinks_at_restore);
  EXPECT_GT(heatmap->ChannelSum(obs::HeatMap::kResidency), 0u);

  // The same crash run on 4 shards exports the same heat map, byte for
  // byte.
  sim::SimulationConfig sharded_config = config;
  sharded_config.mobieyes.sharding.num_shards = 4;
  auto sharded = sim::Simulation::Make(sharded_config);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  (*sharded)->Run(24);
  EXPECT_EQ((*sharded)->metrics().server_crashes, 1);
  (*simulation)->FlushHeatmap();
  (*sharded)->FlushHeatmap();
  EXPECT_EQ((*sharded)->heatmap()->ToJson(), heatmap->ToJson());
}

// A cold-restarted client rebuilds its LQT through the reconciliation path:
// after a few post-restart steps it matches the LQT of the same client in
// an undisturbed twin run.
TEST(SimulationCrashTest, ClientRestartRebuildsLqt) {
  constexpr ObjectId kRestarted = 5;
  sim::SimulationConfig twin = SmallCrashConfig();
  sim::SimulationConfig restart = SmallCrashConfig();
  restart.faults.forced_restart_oid = kRestarted;
  restart.faults.forced_restart_step = 8;

  auto twin_sim = sim::Simulation::Make(twin);
  auto restart_sim = sim::Simulation::Make(restart);
  ASSERT_TRUE(twin_sim.ok());
  ASSERT_TRUE(restart_sim.ok());
  (*twin_sim)->Run(30);
  (*restart_sim)->Run(30);
  EXPECT_EQ((*restart_sim)->metrics().client_restarts, 1);

  auto qids = [](sim::Simulation& run) {
    std::set<QueryId> out;
    for (const auto& entry : run.fleet()->lqt(kRestarted)) {
      out.insert(entry.qid);
    }
    return out;
  };
  std::set<QueryId> twin_qids = qids(**twin_sim);
  std::set<QueryId> restart_qids = qids(**restart_sim);
  EXPECT_FALSE(twin_qids.empty());
  EXPECT_EQ(restart_qids, twin_qids);
  EXPECT_EQ((*restart_sim)->fleet()->has_mq(kRestarted),
            (*twin_sim)->fleet()->has_mq(kRestarted));
}

// When the WAL overflows (tiny budget, sparse checkpoints) the restore is
// stale by design; leases + reconciliation must still close the gap.
TEST(SimulationCrashTest, WalOverflowStillConverges) {
  sim::SimulationConfig config = SmallCrashConfig();
  config.faults.server_crash_step = 10;
  config.faults.server_recovery_steps = 2;
  config.checkpoint_stride = 0;  // baseline checkpoint only
  config.wal_limit = 16;

  auto simulation = sim::Simulation::Make(config);
  ASSERT_TRUE(simulation.ok()) << simulation.status().ToString();
  (*simulation)->Run(40);
  sim::RunMetrics metrics = (*simulation)->metrics();
  EXPECT_EQ(metrics.server_crashes, 1);
  EXPECT_GT(metrics.wal_records_dropped, 0u);
  EXPECT_EQ(metrics.wal_records_replayed, 16u);
  EXPECT_GE((*simulation)->CurrentAccuracy().agreement, 0.95);
}

// The drop counter covers the whole run, not one checkpoint window: each
// periodic checkpoint zeroes Snapshot::wal_dropped, so the run metric must
// fold every window in before that happens. The run is fault-free, so each
// uplink the network carries is offered to the WAL, and a window logs at
// most wal_limit of them.
TEST(SimulationCrashTest, WalDropCounterSpansCheckpointWindows) {
  sim::SimulationConfig config = SmallCrashConfig();
  config.warmup_steps = 0;
  config.checkpoint_stride = 2;
  config.wal_limit = 8;
  auto simulation = sim::Simulation::Make(config);
  ASSERT_TRUE(simulation.ok()) << simulation.status().ToString();

  constexpr int kSteps = 7;  // the last window is still open at the end
  uint64_t offered = 0;
  uint64_t logged = 0;
  uint64_t window = 0;
  for (int step = 0; step < kSteps; ++step) {
    (*simulation)->Run(1);
    const uint64_t total = (*simulation)->metrics().network.uplink_messages;
    window += total - offered;
    offered = total;
    if ((step + 1) % config.checkpoint_stride == 0) {
      logged += std::min<uint64_t>(window, config.wal_limit);
      window = 0;
    }
  }
  logged += std::min<uint64_t>(window, config.wal_limit);

  sim::RunMetrics metrics = (*simulation)->metrics();
  EXPECT_EQ(metrics.checkpoints_taken, kSteps / config.checkpoint_stride);
  EXPECT_EQ(metrics.server_crashes, 0);
  ASSERT_GT(offered, logged);
  EXPECT_EQ(metrics.wal_records_dropped, offered - logged);
}

// WAL replay is part of the sweep determinism contract: crash-recovery
// cells must produce byte-identical deterministic reports for any worker
// count.
TEST(SimulationCrashTest, WalReplayIsThreadCountInvariant) {
  std::vector<bench::SweepJob> jobs;
  for (int stride : {1, 4}) {
    bench::SweepJob job;
    sim::SimulationConfig& config = job.config;
    config.params.num_objects = 200;
    config.params.num_queries = 20;
    config.params.velocity_changes_per_step = 20;
    config.params.area_square_miles = 10000.0;
    config.params.seed = 23;
    config.mode = sim::SimMode::kMobiEyesEager;
    config.warmup_steps = 2;
    config.measure_error = true;
    config.checkpoint_stride = stride;
    config.wal_limit = 64;
    config.faults.server_crash_step = 8;
    config.faults.server_recovery_steps = 2;
    config.faults.client_restart_rate = 0.01;
    config.mobieyes =
        core::HardenedOptions(config.mobieyes, config.params.time_step);
    job.steps = 16;
    jobs.push_back(job);
  }
  bench::SweepObsOptions obs;
  obs.metrics = true;
  obs.sample_stride = 1;
  std::vector<bench::SweepCellResult> serial =
      bench::RunSweepObserved(jobs, 1, obs);
  std::vector<bench::SweepCellResult> parallel =
      bench::RunSweepObserved(jobs, 4, obs);
  ASSERT_EQ(serial.size(), jobs.size());
  for (size_t k = 0; k < jobs.size(); ++k) {
    EXPECT_EQ(serial[k].metrics.server_crashes, 1) << "job " << k;
    EXPECT_EQ(serial[k].metrics.wal_records_replayed,
              parallel[k].metrics.wal_records_replayed)
        << "job " << k;
    EXPECT_EQ(serial[k].metrics.client_restarts,
              parallel[k].metrics.client_restarts)
        << "job " << k;
    EXPECT_FALSE(serial[k].metrics_json.empty()) << "job " << k;
    EXPECT_EQ(serial[k].metrics_json, parallel[k].metrics_json)
        << "job " << k;
  }
}

}  // namespace
}  // namespace mobieyes

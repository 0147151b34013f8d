// Shard backplane (DESIGN.md §13): framing, the socket link, the step-batch
// and state-sync codecs, and end-to-end process-transport runs against real
// mobieyes_shardd daemons. The daemon-backed tests skip (not fail) when the
// binary is not discoverable, so the suite still passes on a stripped
// install tree.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "mobieyes/common/random.h"

#include "mobieyes/core/options.h"
#include "mobieyes/core/server.h"
#include "mobieyes/core/server_shard.h"
#include "mobieyes/core/shard_daemon.h"
#include "mobieyes/core/shard_supervisor.h"
#include "mobieyes/geo/grid.h"
#include "mobieyes/net/backplane.h"
#include "mobieyes/net/framing.h"
#include "mobieyes/sim/simulation.h"

namespace mobieyes {
namespace {

using core::ServerShard;
using core::ShardMap;
using core::ShardSupervisor;
using core::StepBatchBuilder;
using net::Frame;
using net::FrameDecoder;
using net::FrameKind;
using net::PeerLink;

TEST(Framing, RoundTrip) {
  Frame frame;
  frame.kind = FrameKind::kStepBatch;
  frame.shard = 3;
  frame.flags = 7;
  frame.step = 42;
  frame.payload = {1, 2, 3, 4, 5};

  std::vector<uint8_t> wire;
  EncodeFrame(frame, &wire);
  ASSERT_EQ(wire.size(), net::kFrameHeaderBytes + frame.payload.size());

  FrameDecoder decoder;
  std::vector<Frame> out;
  decoder.Feed(wire.data(), wire.size(), &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].kind, FrameKind::kStepBatch);
  EXPECT_EQ(out[0].shard, 3);
  EXPECT_EQ(out[0].flags, 7);
  EXPECT_EQ(out[0].step, 42);
  EXPECT_EQ(out[0].payload, frame.payload);
  EXPECT_EQ(decoder.pending_bytes(), 0u);
}

TEST(Framing, ChecksumRejectsCorruptedPayload) {
  Frame frame;
  frame.kind = FrameKind::kStepBatch;
  frame.step = 7;
  frame.payload = {10, 20, 30, 40};
  std::vector<uint8_t> wire;
  EncodeFrame(frame, &wire);

  // Pristine wire decodes; the same wire with one payload bit flipped must
  // be rejected by the FNV-1a payload checksum, not delivered corrupted.
  std::vector<uint8_t> corrupted = wire;
  corrupted[net::kFrameHeaderBytes + 1] ^= 0x08;
  FrameDecoder decoder;
  std::vector<Frame> out;
  decoder.Feed(corrupted.data(), corrupted.size(), &out);
  EXPECT_TRUE(out.empty());
  EXPECT_GE(decoder.stats().checksum_mismatch, 1u);
  // The stream recovers: the pristine copy decodes after the bad one.
  decoder.Feed(wire.data(), wire.size(), &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].payload, frame.payload);
}

// --- Backplane addresses and chaos specs ------------------------------------

TEST(BackplaneAddressTest, RejectsOverlongUdsPath) {
  // One byte past sizeof(sockaddr_un::sun_path) (terminator included) must
  // fail with a clear error, never a silent truncation to a wrong socket.
  const std::string path = "/tmp/" + std::string(sizeof(sockaddr_un{}.sun_path), 'x');
  net::Backplane backplane;
  Status st = backplane.Listen("uds:" + path);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("too long"), std::string::npos)
      << st.ToString();
  int fd = -1;
  st = net::BackplaneConnect("uds:" + path, /*timeout_ms=*/0,
                             /*retry_sleep_ms=*/0, &fd);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("too long"), std::string::npos)
      << st.ToString();
}

TEST(BackplaneAddressTest, RejectsSchemesOtherThanUds) {
  for (const char* address : {"tcp:127.0.0.1:0", "udp:/tmp/x", "/tmp/x"}) {
    net::Backplane backplane;
    Status st = backplane.Listen(address);
    EXPECT_FALSE(st.ok()) << address;
    EXPECT_NE(st.ToString().find("unknown address scheme"), std::string::npos)
        << st.ToString();
    int fd = -1;
    EXPECT_FALSE(net::BackplaneConnect(address, /*timeout_ms=*/0,
                                       /*retry_sleep_ms=*/0, &fd)
                     .ok())
        << address;
  }
}

TEST(BackplaneFaultSpecTest, ParsesEveryField) {
  net::BackplaneFaultPlan plan;
  ASSERT_TRUE(net::ParseBackplaneFaultSpec(
                  "drop=0.1,delay=0.2:3,trunc=0.05,flip=0.01,kill=8:1,"
                  "kill=12:0,seed=9",
                  &plan)
                  .ok());
  EXPECT_DOUBLE_EQ(plan.drop_rate, 0.1);
  EXPECT_DOUBLE_EQ(plan.delay_rate, 0.2);
  EXPECT_EQ(plan.max_delay_steps, 3);
  EXPECT_DOUBLE_EQ(plan.truncate_rate, 0.05);
  EXPECT_DOUBLE_EQ(plan.flip_rate, 0.01);
  ASSERT_EQ(plan.kills.size(), 2u);
  EXPECT_EQ(plan.kills[0], (std::pair<int64_t, int>{8, 1}));
  EXPECT_EQ(plan.kills[1], (std::pair<int64_t, int>{12, 0}));
  EXPECT_EQ(plan.seed, 9u);
  EXPECT_TRUE(plan.active());

  net::BackplaneFaultPlan empty;
  EXPECT_FALSE(empty.active());
}

TEST(BackplaneFaultSpecTest, RejectsMalformedSpecs) {
  for (const char* spec :
       {"drop=1.5", "drop=-0.1", "delay=0.2:0", "bogus=1", "kill=5",
        "kill=-1:0", "kill=5:-1", "drop", "=0.1"}) {
    net::BackplaneFaultPlan plan;
    EXPECT_FALSE(net::ParseBackplaneFaultSpec(spec, &plan).ok())
        << "accepted: " << spec;
  }
}

// --- Respawn backoff ---------------------------------------------------------

TEST(RespawnBackoffTest, StaysWithinBoundsAcrossSeeds) {
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    Rng rng(seed);
    for (int attempts = 1; attempts <= 24; ++attempts) {
      int64_t steps =
          ShardSupervisor::RespawnBackoffSteps(attempts, /*base_steps=*/2,
                                               /*max_steps=*/16, &rng);
      EXPECT_GE(steps, 2) << "seed=" << seed << " attempts=" << attempts;
      EXPECT_LE(steps, 16) << "seed=" << seed << " attempts=" << attempts;
    }
  }
  // Degenerate configs: max below base collapses to base, and the first
  // attempt with jitter still cannot exceed the cap.
  Rng rng(3);
  for (int attempts = 1; attempts <= 8; ++attempts) {
    EXPECT_EQ(ShardSupervisor::RespawnBackoffSteps(attempts, 4, 1, &rng), 4);
    EXPECT_EQ(ShardSupervisor::RespawnBackoffSteps(attempts, 1, 1, &rng), 1);
  }
}

// --- PeerLink over a socketpair ---------------------------------------------

Frame TestFrame(FrameKind kind, int64_t step, size_t payload_bytes) {
  Frame frame;
  frame.kind = kind;
  frame.step = step;
  frame.payload.assign(payload_bytes,
                       static_cast<uint8_t>(step & 0xff));
  return frame;
}

TEST(PeerLinkTest, SendReceiveAndEof) {
  int sv[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  PeerLink a;
  PeerLink b;
  a.Adopt(sv[0]);
  b.Adopt(sv[1]);

  for (int64_t step = 0; step < 3; ++step) {
    ASSERT_TRUE(a.Send(TestFrame(FrameKind::kStepBatch, step, 100),
                       /*max_queue_bytes=*/1u << 20));
  }
  std::vector<Frame> received;
  // Non-blocking on both ends: flush and drain until all three arrive.
  for (int spin = 0; spin < 1000 && received.size() < 3; ++spin) {
    ASSERT_TRUE(a.Flush());
    ASSERT_TRUE(b.Receive(&received));
  }
  ASSERT_EQ(received.size(), 3u);
  for (int64_t step = 0; step < 3; ++step) {
    EXPECT_EQ(received[static_cast<size_t>(step)].step, step);
    EXPECT_EQ(received[static_cast<size_t>(step)].payload.size(), 100u);
  }
  EXPECT_EQ(a.stats().frames_sent, 3u);
  EXPECT_EQ(b.stats().frames_received, 3u);
  EXPECT_EQ(b.stats().bytes_received, a.stats().bytes_sent);

  // EOF: closing one end must surface as Receive() == false, link closed.
  a.Close();
  bool alive = true;
  for (int spin = 0; spin < 1000 && alive; ++spin) {
    alive = b.Receive(&received);
  }
  EXPECT_FALSE(alive);
  EXPECT_FALSE(b.connected());
}

TEST(PeerLinkTest, BoundedQueueDropsWhenPeerStalls) {
  int sv[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  PeerLink a;
  a.Adopt(sv[0]);  // sv[1] never read: the kernel buffer eventually fills

  const size_t kQueueCap = 64u << 10;
  bool dropped = false;
  for (int k = 0; k < 256 && !dropped; ++k) {
    dropped = !a.Send(TestFrame(FrameKind::kStateSync, k, 256u << 10),
                      kQueueCap);
  }
  EXPECT_TRUE(dropped);
  EXPECT_GT(a.stats().send_drops, 0u);
  // The queue never exceeds the cap: that is the non-blocking guarantee.
  EXPECT_LE(a.queued_bytes(),
            kQueueCap + net::kFrameHeaderBytes + (256u << 10));
  a.Close();
  close(sv[1]);
}

// --- Step-batch and state-sync codecs ---------------------------------------

struct ShardPair {
  geo::Grid grid = *geo::Grid::Make(geo::Rect{0, 0, 100, 100}, 10.0);
  core::ShardingOptions options;
  std::unique_ptr<ShardMap> map;
  std::unique_ptr<ServerShard> authority;
  std::unique_ptr<ServerShard> replica;

  explicit ShardPair(int shards = 2) {
    options.num_shards = shards;
    map = std::make_unique<ShardMap>(grid, options);
    authority = std::make_unique<ServerShard>(0, grid, *map);
    replica = std::make_unique<ServerShard>(0, grid, *map);
  }
};

TEST(StepBatchTest, RqiOpsReplicate) {
  ShardPair pair;
  StepBatchBuilder builder;
  EXPECT_TRUE(builder.empty());

  geo::CellRange r1{1, 3, 0, 2};
  geo::CellRange r2{4, 6, 4, 6};
  pair.authority->RqiAdd(7, r1);
  pair.authority->RqiAdd(8, r2);
  builder.RqiOp(true, 7, r1);
  builder.RqiOp(true, 8, r2);
  EXPECT_EQ(builder.op_count(), 2u);

  std::vector<uint8_t> payload = builder.Finish();
  EXPECT_TRUE(builder.empty());
  uint32_t applied = 0;
  ASSERT_TRUE(core::ApplyStepBatch(payload.data(), payload.size(),
                                   pair.replica.get(), &applied)
                  .ok());
  EXPECT_EQ(applied, 2u);
  EXPECT_EQ(pair.replica->StateDigest(), pair.authority->StateDigest());

  // Removal must re-converge the digest too.
  pair.authority->RqiRemove(7, r1);
  builder.RqiOp(false, 7, r1);
  payload = builder.Finish();
  ASSERT_TRUE(core::ApplyStepBatch(payload.data(), payload.size(),
                                   pair.replica.get(), nullptr)
                  .ok());
  EXPECT_EQ(pair.replica->StateDigest(), pair.authority->StateDigest());
}

TEST(StepBatchTest, MalformedBatchFailsCleanly) {
  ShardPair pair;
  // A count prefix promising more ops than the bytes deliver.
  std::vector<uint8_t> bogus = {0xff, 0xff, 0x00, 0x00, 0x03};
  uint32_t applied = 0;
  EXPECT_FALSE(core::ApplyStepBatch(bogus.data(), bogus.size(),
                                    pair.replica.get(), &applied)
                   .ok());
  // Truncations of a valid batch must also fail, never crash.
  StepBatchBuilder builder;
  builder.RqiOp(true, 11, geo::CellRange{0, 2, 0, 2});
  std::vector<uint8_t> payload = builder.Finish();
  for (size_t len = 0; len < payload.size(); ++len) {
    core::ApplyStepBatch(payload.data(), len, pair.replica.get(), nullptr)
        .ok();  // outcome length-dependent; must not crash
  }
}

TEST(ShardConfigCodecTest, RoundTripsAndRejectsMalformedPayloads) {
  core::ShardConfig config;
  config.universe = geo::Rect{0, 0, 100, 100};
  config.alpha = 10.0;
  config.sharding.num_shards = 4;

  // Five f64 fields and the shard count: the whole partition, since the
  // row-band formula needs nothing else.
  std::vector<uint8_t> payload;
  core::EncodeShardConfig(config, &payload);
  ASSERT_EQ(payload.size(), 5 * sizeof(double) + sizeof(uint32_t));
  core::ShardConfig back;
  ASSERT_TRUE(
      core::DecodeShardConfig(payload.data(), payload.size(), &back).ok());
  EXPECT_EQ(back.universe.w, 100.0);
  EXPECT_EQ(back.alpha, 10.0);
  EXPECT_EQ(back.sharding.num_shards, 4);

  // Truncations and trailing bytes must fail the decode.
  for (size_t len = 0; len < payload.size(); ++len) {
    core::ShardConfig scratch;
    EXPECT_FALSE(core::DecodeShardConfig(payload.data(), len, &scratch).ok())
        << "len " << len;
  }
  payload.push_back(0);
  EXPECT_FALSE(
      core::DecodeShardConfig(payload.data(), payload.size(), &back).ok());
}

// A hello payload as the supervisor reads it: framed, sent, decoded.
std::vector<uint8_t> OverTheWire(std::vector<uint8_t> payload) {
  Frame hello;
  hello.kind = FrameKind::kHello;
  hello.shard = 1;
  hello.payload = std::move(payload);
  std::vector<uint8_t> wire;
  net::EncodeFrame(hello, &wire);
  FrameDecoder decoder;
  std::vector<Frame> frames;
  decoder.Feed(wire.data(), wire.size(), &frames);
  EXPECT_EQ(frames.size(), 1u);
  if (frames.empty()) return {};
  EXPECT_EQ(frames[0].kind, FrameKind::kHello);
  return frames[0].payload;
}

TEST(HelloCheckTest, AcceptsOnlyThisBuildsVersion) {
  std::vector<uint8_t> current;
  core::EncodeHello(&current);
  ASSERT_EQ(current.size(), sizeof(core::kHelloVersion));
  std::vector<uint8_t> payload = OverTheWire(current);
  EXPECT_TRUE(core::CheckHello(payload.data(), payload.size()).ok());

  // A daemon from the previous digest definition names both versions.
  const uint32_t old_version = core::kHelloVersion - 1;
  std::vector<uint8_t> old(sizeof(old_version));
  std::memcpy(old.data(), &old_version, sizeof(old_version));
  old = OverTheWire(old);
  Status st = core::CheckHello(old.data(), old.size());
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find(std::to_string(old_version)), std::string::npos)
      << st.message();
  EXPECT_NE(st.message().find(std::to_string(core::kHelloVersion)),
            std::string::npos)
      << st.message();

  EXPECT_FALSE(core::CheckHello(nullptr, 0).ok());
  for (size_t len = 1; len < payload.size(); ++len) {
    EXPECT_FALSE(core::CheckHello(payload.data(), len).ok()) << "len " << len;
  }
  payload.push_back(0);
  EXPECT_FALSE(core::CheckHello(payload.data(), payload.size()).ok());
}

TEST(StateSyncTest, RoundTripPreservesDigest) {
  ShardPair pair;
  pair.authority->RqiAdd(1, geo::CellRange{0, 9, 0, 9});
  pair.authority->RqiAdd(2, geo::CellRange{2, 4, 2, 4});
  pair.authority->RqiAdd(3, geo::CellRange{5, 5, 5, 5});

  std::vector<uint8_t> image;
  pair.authority->EncodeStateSync(&image);
  ASSERT_FALSE(image.empty());
  ASSERT_TRUE(pair.replica->LoadStateSync(image.data(), image.size()).ok());
  EXPECT_EQ(pair.replica->StateDigest(), pair.authority->StateDigest());

  // The loaded RQI slice answers cell lookups identically on owned cells.
  for (int32_t y = 0; y < 10; ++y) {
    for (int32_t x = 0; x < 10; ++x) {
      geo::CellCoord cell{x, y};
      if (!pair.authority->OwnsCell(cell)) continue;
      EXPECT_EQ(pair.replica->QueriesForCell(cell),
                pair.authority->QueriesForCell(cell));
    }
  }

  // Truncations must fail the load, never crash or half-apply silently.
  for (size_t len = 0; len < image.size(); len += 7) {
    ServerShard fresh(0, pair.grid, *pair.map);
    EXPECT_FALSE(fresh.LoadStateSync(image.data(), len).ok());
  }
}

// --- End-to-end over real daemons -------------------------------------------

sim::SimulationConfig ProcessConfig(int shards) {
  sim::SimulationConfig config;
  config.params.num_objects = 1200;
  config.params.num_queries = 80;
  config.params.velocity_changes_per_step = 120;
  config.mode = sim::SimMode::kMobiEyesEager;
  config.warmup_steps = 2;
  config.mobieyes =
      core::HardenedOptions(config.mobieyes, config.params.time_step);
  config.mobieyes.sharding.num_shards = shards;
  return config;
}

std::vector<std::vector<ObjectId>> ResultsOf(sim::Simulation* simulation) {
  std::vector<std::vector<ObjectId>> results;
  core::MobiEyesServer* server = simulation->server();
  for (QueryId qid : simulation->installed_queries()) {
    std::vector<ObjectId> sorted;
    const core::MobiEyesServer::SqtEntry* entry =
        server == nullptr ? nullptr : server->FindQuery(qid);
    if (entry != nullptr) {
      sorted.assign(entry->result.begin(), entry->result.end());
      std::sort(sorted.begin(), sorted.end());
    }
    results.push_back(std::move(sorted));
  }
  return results;
}

TEST(ProcessTransportTest, MatchesInProcessByteForByte) {
  if (ShardSupervisor::FindShardd("").empty()) {
    GTEST_SKIP() << "mobieyes_shardd not found";
  }
  sim::SimulationConfig inproc = ProcessConfig(4);
  inproc.obs.enable_heatmap = true;
  sim::SimulationConfig process = inproc;
  process.shard_transport = sim::SimulationConfig::ShardTransport::kProcess;

  auto a = sim::Simulation::Make(inproc);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  auto b = sim::Simulation::Make(process);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ASSERT_NE((*b)->supervisor(), nullptr);
  EXPECT_EQ((*a)->supervisor(), nullptr);

  (*a)->Run(10);
  (*b)->Run(10);

  // The transport mirrors, it never decides: deterministic exports and the
  // final result sets must be byte-identical to the in-process run.
  EXPECT_EQ((*a)->ObservabilityJson(/*include_timing=*/false),
            (*b)->ObservabilityJson(/*include_timing=*/false));
  ASSERT_NE((*a)->heatmap(), nullptr);
  ASSERT_NE((*b)->heatmap(), nullptr);
  EXPECT_EQ((*a)->heatmap()->ToJson(), (*b)->heatmap()->ToJson());
  EXPECT_EQ(ResultsOf((*a).get()), ResultsOf((*b).get()));

  // Every replica kept pace: acks verified, no timeouts, no mismatches.
  sim::RunMetrics metrics = (*b)->metrics();
  EXPECT_GT(metrics.backplane_frames_sent, 0);
  EXPECT_GT(metrics.backplane_rtt_samples, 0);
  EXPECT_EQ(metrics.backplane_digest_mismatches, 0);
  EXPECT_EQ(metrics.backplane_rpc_timeouts, 0);
  EXPECT_EQ(metrics.shard_restarts, 0);
}

TEST(ProcessTransportTest, KilledDaemonRejoinsAndReconverges) {
  if (ShardSupervisor::FindShardd("").empty()) {
    GTEST_SKIP() << "mobieyes_shardd not found";
  }
  sim::SimulationConfig inproc = ProcessConfig(4);
  inproc.measure_error = true;
  inproc.checkpoint_stride = 4;
  sim::SimulationConfig config = inproc;
  config.shard_transport = sim::SimulationConfig::ShardTransport::kProcess;
  config.shard_kill_step = 8;
  config.shard_kill_index = 1;

  auto reference = sim::Simulation::Make(inproc);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  (*reference)->Run(20);
  auto simulation = sim::Simulation::Make(config);
  ASSERT_TRUE(simulation.ok()) << simulation.status().ToString();
  (*simulation)->Run(20);

  // The router dispatched every uplink while the daemon was dead, so the
  // killed run answers exactly like the in-process one.
  EXPECT_EQ(ResultsOf((*reference).get()), ResultsOf((*simulation).get()));
  sim::RunMetrics metrics = (*simulation)->metrics();
  EXPECT_GE(metrics.shard_restarts, 1);
  EXPECT_EQ(metrics.backplane_digest_mismatches, 0);
  EXPECT_EQ(metrics.uplinks_dropped, 0);
  EXPECT_GE((*simulation)->CurrentAccuracy().agreement, 0.95);

  // After the run the backplane settles: every daemon up, queues empty.
  ASSERT_NE((*simulation)->supervisor(), nullptr);
  EXPECT_TRUE((*simulation)->supervisor()->Quiesce(5000).ok());
  // The rejoin took one state sync beyond the four initial handshakes (log
  // replay on top is workload-dependent: the log is empty when no RQI op
  // touched the shard since the last checkpoint capture). The respawned
  // daemon rejoins in wall time, so its sync can go out after the last
  // step; Quiesce is what waits for it.
  EXPECT_GE((*simulation)->supervisor()->stats().syncs_sent, 5u);
  EXPECT_TRUE((*simulation)->supervisor()->AllAvailable());
  EXPECT_EQ((*simulation)->supervisor()->down_shards(), 0);
}

TEST(ProcessTransportTest, KillShardOnDeadShardIsANoOp) {
  if (ShardSupervisor::FindShardd("").empty()) {
    GTEST_SKIP() << "mobieyes_shardd not found";
  }
  sim::SimulationConfig config = ProcessConfig(2);
  config.shard_transport = sim::SimulationConfig::ShardTransport::kProcess;
  auto simulation = sim::Simulation::Make(config);
  ASSERT_TRUE(simulation.ok()) << simulation.status().ToString();
  (*simulation)->Run(4);

  ShardSupervisor* supervisor = (*simulation)->supervisor();
  ASSERT_NE(supervisor, nullptr);
  ASSERT_TRUE(supervisor->Quiesce(5000).ok());
  supervisor->KillShard(1);
  EXPECT_EQ(supervisor->down_shards(), 1);
  const core::SupervisorStats after_first = supervisor->stats();
  // Killing an already-dead shard must change nothing: no signal, no second
  // death bookkeeping, no crash.
  supervisor->KillShard(1);
  supervisor->KillShard(1);
  EXPECT_EQ(supervisor->down_shards(), 1);
  EXPECT_EQ(supervisor->stats().restarts, after_first.restarts);
  EXPECT_EQ(supervisor->stats().failovers, after_first.failovers);
  // Out-of-range shard indexes are ignored too.
  supervisor->KillShard(-1);
  supervisor->KillShard(99);
  EXPECT_EQ(supervisor->down_shards(), 1);
}

// --- Authority mode (DESIGN.md §14) -----------------------------------------

sim::SimulationConfig AuthorityConfig(int shards) {
  sim::SimulationConfig config = ProcessConfig(shards);
  config.shard_transport = sim::SimulationConfig::ShardTransport::kProcess;
  config.shard_authority = true;
  return config;
}

TEST(AuthorityModeTest, MatchesInProcessByteForByte) {
  if (ShardSupervisor::FindShardd("").empty()) {
    GTEST_SKIP() << "mobieyes_shardd not found";
  }
  // The acceptance bar: two shard counts, fault-free, and the daemons —
  // not the mirror — answered the scans.
  for (int shards : {2, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    sim::SimulationConfig inproc = ProcessConfig(shards);
    inproc.obs.enable_heatmap = true;
    sim::SimulationConfig authority = AuthorityConfig(shards);
    authority.obs.enable_heatmap = true;

    auto a = sim::Simulation::Make(inproc);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    auto b = sim::Simulation::Make(authority);
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    (*a)->Run(10);
    (*b)->Run(10);

    EXPECT_EQ((*a)->ObservabilityJson(/*include_timing=*/false),
              (*b)->ObservabilityJson(/*include_timing=*/false));
    EXPECT_EQ((*a)->heatmap()->ToJson(), (*b)->heatmap()->ToJson());
    EXPECT_EQ(ResultsOf((*a).get()), ResultsOf((*b).get()));

    sim::RunMetrics metrics = (*b)->metrics();
    EXPECT_GT(metrics.backplane_scans_remote, 0u);
    EXPECT_GT(metrics.backplane_scan_rtt_samples, 0u);
    EXPECT_EQ(metrics.backplane_digest_mismatches, 0u);
    EXPECT_EQ(metrics.backplane_failovers, 0u);
    // Every shard got its clean initial cutover to daemon authority.
    EXPECT_GE(metrics.backplane_cutovers,
              static_cast<uint64_t>(shards));
    EXPECT_EQ(metrics.uplinks_dropped, 0u);
  }
}

TEST(AuthorityModeTest, SigkillFailsOverSameStepWithoutDroppingUplinks) {
  if (ShardSupervisor::FindShardd("").empty()) {
    GTEST_SKIP() << "mobieyes_shardd not found";
  }
  // Reference run: same seed, in-process. The SIGKILLed authority run must
  // still produce these exact result sets — failover to the warm mirror is
  // invisible to the query pipeline.
  sim::SimulationConfig inproc = ProcessConfig(4);
  inproc.measure_error = true;
  auto a = sim::Simulation::Make(inproc);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  (*a)->Run(20);

  sim::SimulationConfig config = AuthorityConfig(4);
  config.measure_error = true;
  config.checkpoint_stride = 4;
  config.shard_kill_step = 8;
  config.shard_kill_index = 1;
  auto b = sim::Simulation::Make(config);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  (*b)->Run(20);

  EXPECT_EQ(ResultsOf((*a).get()), ResultsOf((*b).get()));

  sim::RunMetrics metrics = (*b)->metrics();
  // The death was noticed and authority revoked mid-step (failover), the
  // daemon respawned, resynced and took authority back (cutover beyond the
  // four initial grants).
  EXPECT_GE(metrics.backplane_failovers, 1u);
  EXPECT_GE(metrics.shard_restarts, 1);
  EXPECT_GE(metrics.backplane_cutovers, 5u);
  // The mirror served scans while the daemon was gone; the daemons served
  // scans before and after.
  EXPECT_GT(metrics.backplane_scans_local, 0u);
  EXPECT_GT(metrics.backplane_scans_remote, 0u);
  EXPECT_EQ(metrics.uplinks_dropped, 0u);
  EXPECT_GE((*b)->CurrentAccuracy().agreement, 0.95);

  ASSERT_NE((*b)->supervisor(), nullptr);
  EXPECT_TRUE((*b)->supervisor()->Quiesce(5000).ok());
  EXPECT_TRUE((*b)->supervisor()->AllAvailable());
}

TEST(AuthorityModeTest, ChaosRunReconvergesWithoutLosingUplinks) {
  if (ShardSupervisor::FindShardd("").empty()) {
    GTEST_SKIP() << "mobieyes_shardd not found";
  }
  sim::SimulationConfig inproc = ProcessConfig(4);
  inproc.measure_error = true;
  auto a = sim::Simulation::Make(inproc);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  (*a)->Run(20);

  sim::SimulationConfig config = AuthorityConfig(4);
  config.measure_error = true;
  config.checkpoint_stride = 4;
  ASSERT_TRUE(net::ParseBackplaneFaultSpec(
                  "drop=0.1,delay=0.15:2,trunc=0.03,flip=0.03,kill=10:2,"
                  "seed=5",
                  &config.backplane_fault)
                  .ok());
  auto b = sim::Simulation::Make(config);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  (*b)->Run(20);

  // Chaos corrupts the backplane, never the answer: result sets identical
  // to the untouched in-process run, full oracle agreement, and not one
  // uplink lost.
  EXPECT_EQ(ResultsOf((*a).get()), ResultsOf((*b).get()));
  sim::RunMetrics metrics = (*b)->metrics();
  EXPECT_GT(metrics.backplane_chaos_frames, 0u);
  EXPECT_EQ(metrics.backplane_chaos_kills, 1u);
  EXPECT_EQ(metrics.uplinks_dropped, 0u);
  EXPECT_GE((*b)->CurrentAccuracy().agreement, 0.95);

  // The backplane itself settles after the storm.
  ASSERT_NE((*b)->supervisor(), nullptr);
  EXPECT_TRUE((*b)->supervisor()->Quiesce(5000).ok());
  EXPECT_TRUE((*b)->supervisor()->AllAvailable());
}

}  // namespace
}  // namespace mobieyes

// The client fleet's once-per-broadcast delivery (DESIGN.md §16): the
// relevance check skips only receptions the full handler would ignore, the
// per-object LQT signature stays exact on every mutation path, a nested
// delivery is seen by later receivers of the same broadcast, skipped
// receptions are still charged, and whole deployments behave byte for byte
// as if every covered object ran its handler.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <sstream>
#include <span>
#include <string>
#include <vector>

#include "mobieyes/common/random.h"
#include "mobieyes/core/client_fleet.h"
#include "mobieyes/net/message.h"
#include "mobieyes/net/network.h"
#include "mobieyes/sim/simulation.h"
#include "test_harness.h"

namespace mobieyes::core {
namespace {

using geo::CellRange;
using geo::Point;
using geo::Vec2;
using net::MakeMessage;
using net::Message;
using net::MessageType;
using net::QueryInfo;
using test::MiniDeployment;
using test::ObjectSpec;

// Everything OnDownlink may change at one client, plus the network's
// traffic counters: a skipped handler must change none of it.
std::string Fingerprint(MiniDeployment& deployment, ObjectId oid) {
  std::ostringstream out;
  out.precision(17);
  const ClientFleet& fleet = deployment.fleet();
  const size_t pending = deployment.client(oid).pending_uplinks();
  out << fleet.has_mq(oid) << '|' << pending << '|';
  for (const ClientFleet::LqtEntry& e : fleet.lqt(oid)) {
    out << e.qid << ',' << e.focal_oid << ',' << e.is_target << ',';
    out << e.focal.pos.x << ',' << e.focal.pos.y << ',';
    out << e.focal.vel.x << ',' << e.focal.vel.y << ',' << e.focal.tm << ',';
    out << e.region.radius << ',' << e.filter_threshold << ',';
    out << e.mon_region.i_lo << ',' << e.mon_region.i_hi << ',';
    out << e.mon_region.j_lo << ',' << e.mon_region.j_hi << ',';
    out << e.focal_max_speed << ',' << e.ptm << ',' << e.lease_expires_at;
    out << ';';
  }
  const net::NetworkStats& stats = deployment.network().stats();
  out << '|' << net::NetworkStatsJson(stats);
  for (uint64_t count : stats.messages_by_type) out << ',' << count;
  return out.str();
}

// Test-only reference delivery: the full handler at every covered object,
// as the network delivered broadcasts before the fleet.
class FullDelivery : public net::BroadcastReceiver {
 public:
  explicit FullDelivery(ClientFleet& fleet) : fleet_(&fleet) {}
  void OnBroadcast(const Message& message,
                   std::span<const ObjectId> receivers) override {
    for (ObjectId oid : receivers) fleet_->client(oid).OnDownlink(message);
  }

 private:
  ClientFleet* fleet_;
};

// The fleet's signatures against a fresh recomputation from each LQT.
void ExpectSignaturesExact(MiniDeployment& deployment, const char* path) {
  ClientFleet& fleet = deployment.fleet();
  for (const MobiEyesClient& client : fleet.clients()) {
    uint64_t recomputed = 0;
    for (const ClientFleet::LqtEntry& entry : fleet.lqt(client.oid())) {
      recomputed |= LqtQidKey(entry.qid) | LqtFocalKey(entry.focal_oid);
    }
    EXPECT_EQ(fleet.lqt_signature(client.oid()), recomputed)
        << "after " << path << ", object " << client.oid();
  }
}

QueryInfo InfoFor(MiniDeployment& deployment, QueryId qid) {
  const auto* entry = deployment.server().FindQuery(qid);
  EXPECT_NE(entry, nullptr);
  const auto* focal = deployment.server().FindFocal(entry->focal_oid);
  EXPECT_NE(focal, nullptr);
  QueryInfo info;
  info.qid = entry->qid;
  info.focal_oid = entry->focal_oid;
  info.focal = focal->state;
  info.region = entry->region;
  info.filter_threshold = entry->filter_threshold;
  info.mon_region = entry->mon_region;
  info.focal_max_speed = focal->max_speed;
  return info;
}

// --- (a) The relevance check is exact --------------------------------------

// A random query description aimed at the deployment's own corner cases:
// qids and focals drawn from live queries and from nowhere, self-focal
// queries, filter thresholds equal to or one ulp below an object's
// attribute, and monitoring regions whose edges sit on an object's cell.
QueryInfo RandomInfo(Rng& rng, MiniDeployment& deployment,
                     const std::vector<QueryId>& live) {
  const mobility::World& world = deployment.world();
  const size_t objects = world.object_count();
  QueryInfo info;
  info.qid = !live.empty() && rng.NextBernoulli(0.6)
                 ? live[rng.NextUint64(live.size())]
                 : static_cast<QueryId>(900 + rng.NextUint64(6));
  info.focal_oid = static_cast<ObjectId>(rng.NextUint64(objects));
  info.focal.pos = Point{rng.NextDouble(0, 100), rng.NextDouble(0, 100)};
  info.focal.vel = Vec2{rng.NextDouble(-0.1, 0.1), rng.NextDouble(-0.1, 0.1)};
  info.focal.tm = world.now();
  info.region = geo::QueryRegion::MakeCircle(rng.NextDouble(1.0, 6.0));
  const auto attr_from = static_cast<ObjectId>(rng.NextUint64(objects));
  const double attr = world.attr(attr_from);
  switch (rng.NextUint64(3)) {
    case 0:
      info.filter_threshold = attr;
      break;
    case 1:
      info.filter_threshold = std::nextafter(attr, -1.0);
      break;
    default:
      info.filter_threshold = 1.0;
      break;
  }
  const auto cell_from = static_cast<ObjectId>(rng.NextUint64(objects));
  const geo::CellCoord c = world.cell(cell_from);
  info.mon_region.i_lo = c.i - static_cast<int32_t>(rng.NextUint64(2));
  info.mon_region.i_hi = c.i + static_cast<int32_t>(rng.NextUint64(2));
  info.mon_region.j_lo = c.j - static_cast<int32_t>(rng.NextUint64(2));
  info.mon_region.j_hi = c.j + static_cast<int32_t>(rng.NextUint64(2));
  info.focal_max_speed = rng.NextDouble(0.0, 0.05);
  return info;
}

Message RandomBroadcast(Rng& rng, MiniDeployment& deployment,
                        const std::vector<QueryId>& live) {
  const size_t objects = deployment.world().object_count();
  const auto infos = [&](size_t max) {
    std::vector<QueryInfo> queries;
    const size_t count = 1 + rng.NextUint64(max);
    for (size_t k = 0; k < count; ++k) {
      queries.push_back(RandomInfo(rng, deployment, live));
    }
    return queries;
  };
  switch (rng.NextUint64(5)) {
    case 0: {
      net::VelocityChangeBroadcast broadcast;
      // Mostly focals of live queries, so LQT hits are common.
      const size_t focals = rng.NextBernoulli(0.7) ? 4 : objects;
      broadcast.focal_oid = static_cast<ObjectId>(rng.NextUint64(focals));
      broadcast.state.pos = Point{50, 50};
      broadcast.state.vel = Vec2{0.01, 0};
      broadcast.state.tm = deployment.world().now();
      broadcast.carries_query_info = rng.NextBernoulli(0.5);
      if (broadcast.carries_query_info) broadcast.queries = infos(3);
      return MakeMessage(std::move(broadcast));
    }
    case 1:
      return MakeMessage(net::QueryUpdateBroadcast{infos(3)});
    case 2:
      return MakeMessage(net::QueryInstallBroadcast{infos(3)});
    case 3: {
      net::QueryRemoveBroadcast broadcast;
      const size_t count = 1 + rng.NextUint64(3);
      for (size_t k = 0; k < count; ++k) {
        broadcast.qids.push_back(RandomInfo(rng, deployment, live).qid);
      }
      return MakeMessage(std::move(broadcast));
    }
    default: {
      const auto to = static_cast<ObjectId>(rng.NextUint64(4));
      return MakeMessage(net::PositionVelocityRequest{to});
    }
  }
}

// Whenever the fleet's check says "skip", running the full handler anyway
// changes nothing: not the LQT, hasMQ, pending uplinks nor the network's
// counters. Between checks the broadcast is delivered for real and the
// deployment ticks, so LQTs grow, shrink, cross cells, expire and restart;
// signatures must equal a fresh recomputation throughout.
TEST(ClientFleetTest, SkippedReceptionsAreExactNoOps) {
  Rng placement(20261017);
  std::vector<ObjectSpec> specs;
  for (int k = 0; k < 48; ++k) {
    Point pos{placement.NextDouble(5, 95), placement.NextDouble(5, 95)};
    if (k % 4 == 0) {
      // Every fourth object sits exactly on a cell corner.
      pos = Point{10.0 * (1 + k % 9), 10.0 * (1 + k / 9 % 9)};
    }
    const Vec2 vel{placement.NextDouble(-0.1, 0.1),
                   placement.NextDouble(-0.1, 0.1)};
    specs.emplace_back(pos, vel, 0.15, placement.NextDouble(0.0, 1.0));
  }
  MobiEyesOptions options;
  options.enable_reliable_uplink = true;
  options.lease_duration = 45.0;  // entries lapse after three quiet ticks
  MiniDeployment deployment(specs, options);
  std::vector<QueryId> live;
  for (ObjectId focal = 0; focal < 4; ++focal) {
    auto qid = deployment.server().InstallQuery(focal, 12.0, 1.0);
    ASSERT_TRUE(qid.ok());
    live.push_back(*qid);
  }
  ExpectSignaturesExact(deployment, "install");
  // Handlers may uplink; keep the server out of the loop so a delivery's
  // consequences stay at the client under test.
  deployment.network().set_server_handler([](ObjectId, const Message&) {});

  Rng rng(99);
  std::map<MessageType, std::array<int, 2>> verdicts;  // {skip, deliver}
  std::vector<ObjectId> everyone;
  for (ObjectId oid = 0; oid < static_cast<ObjectId>(specs.size()); ++oid) {
    everyone.push_back(oid);
  }
  for (int round = 0; round < 400; ++round) {
    const Message message = RandomBroadcast(rng, deployment, live);
    const char* type_name = net::MessageTypeName(message.type);
    for (ObjectId oid : everyone) {
      const bool may_affect = deployment.fleet().MayAffect(message, oid);
      ++verdicts[message.type][may_affect ? 1 : 0];
      if (may_affect) continue;
      const std::string before = Fingerprint(deployment, oid);
      deployment.client(oid).OnDownlink(message);
      ASSERT_EQ(Fingerprint(deployment, oid), before)
          << "round " << round << ": skipped " << type_name
          << " changed object " << oid;
    }
    deployment.fleet().OnBroadcast(message, everyone);
    ExpectSignaturesExact(deployment, "a broadcast");
    if (round % 8 == 7) {
      deployment.Tick();  // cell crossings and lease expiry
      ExpectSignaturesExact(deployment, "a tick");
    }
    if (round % 50 == 49) {
      deployment.fleet().Reset(everyone[rng.NextUint64(everyone.size())]);
      ExpectSignaturesExact(deployment, "Reset");
    }
  }
  // Every broadcast type saw both verdicts, so neither side is vacuous;
  // other types are always delivered.
  for (MessageType type : {MessageType::kVelocityChangeBroadcast,
                           MessageType::kQueryUpdateBroadcast,
                           MessageType::kQueryInstallBroadcast,
                           MessageType::kQueryRemoveBroadcast}) {
    EXPECT_GT(verdicts[type][0], 0) << net::MessageTypeName(type);
    EXPECT_GT(verdicts[type][1], 0) << net::MessageTypeName(type);
  }
  EXPECT_EQ(verdicts[MessageType::kPositionVelocityRequest][0], 0);
}

// The three install tests at their boundaries, for each type that installs.
TEST(ClientFleetTest, InstallabilityBoundariesDecideDelivery) {
  // Object 1 sits on the corner of cell (5, 5) with attribute 0.5.
  MiniDeployment deployment({{Point{25, 25}}, {Point{50, 50}, {}, 1.0, 0.5}});
  ClientFleet& fleet = deployment.fleet();
  QueryInfo info;
  info.qid = 7;
  info.focal_oid = 0;
  info.region = geo::QueryRegion::MakeCircle(3.0);
  info.filter_threshold = 0.5;
  info.mon_region = CellRange{5, 6, 5, 6};
  using Wrap = Message (*)(const QueryInfo&);
  const Wrap install = [](const QueryInfo& query) {
    return MakeMessage(net::QueryInstallBroadcast{{query}});
  };
  const Wrap lazy_velocity = [](const QueryInfo& query) {
    net::VelocityChangeBroadcast broadcast;
    broadcast.focal_oid = query.focal_oid;
    broadcast.carries_query_info = true;
    broadcast.queries = {query};
    return MakeMessage(std::move(broadcast));
  };
  for (Wrap wrap : {install, lazy_velocity}) {
    EXPECT_TRUE(fleet.MayAffect(wrap(info), 1));  // attr == threshold
    QueryInfo strict = info;
    strict.filter_threshold = std::nextafter(0.5, 0.0);
    EXPECT_FALSE(fleet.MayAffect(wrap(strict), 1));
    QueryInfo edge = info;
    edge.mon_region = CellRange{3, 5, 3, 5};  // ends on the object's cell
    EXPECT_TRUE(fleet.MayAffect(wrap(edge), 1));
    QueryInfo beside = info;
    beside.mon_region = CellRange{3, 4, 3, 5};  // one column short
    EXPECT_FALSE(fleet.MayAffect(wrap(beside), 1));
    QueryInfo own = info;
    own.focal_oid = 1;  // never a target of its own query
    EXPECT_FALSE(fleet.MayAffect(wrap(own), 1));
  }
  // Eager velocity relays never install: without the focal in the LQT the
  // broadcast is a no-op even where the query would be installable.
  net::VelocityChangeBroadcast eager;
  eager.focal_oid = 0;
  EXPECT_FALSE(fleet.MayAffect(MakeMessage(eager), 1));
  deployment.client(1).OnDownlink(install(info));
  ASSERT_EQ(deployment.fleet().lqt_size(1), 1u);
  EXPECT_TRUE(fleet.MayAffect(MakeMessage(eager), 1));
  const Message remove_held = MakeMessage(net::QueryRemoveBroadcast{{7}});
  const Message remove_other = MakeMessage(net::QueryRemoveBroadcast{{8}});
  EXPECT_TRUE(fleet.MayAffect(remove_held, 1));
  EXPECT_FALSE(fleet.MayAffect(remove_other, 1));
}

// The signature follows each LQT mutation path of the protocol.
TEST(ClientFleetTest, SignatureTracksEveryMutationPath) {
  MobiEyesOptions options;
  options.lease_duration = 30.0;  // entries lapse after two quiet ticks
  std::vector<ObjectSpec> specs(3, ObjectSpec(Point{55, 55}));
  specs[1].pos = Point{57, 55};
  specs[2].pos = Point{53, 54};
  MiniDeployment deployment(specs, options);
  ClientFleet& fleet = deployment.fleet();
  EXPECT_EQ(fleet.lqt_signature(1), 0u);

  auto qid = deployment.server().InstallQuery(0, 4.0, 1.0);
  ASSERT_TRUE(qid.ok());
  ASSERT_EQ(deployment.fleet().lqt_size(1), 1u);
  EXPECT_NE(fleet.lqt_signature(1), 0u);
  ExpectSignaturesExact(deployment, "install");
  const QueryInfo info = InfoFor(deployment, *qid);

  // Update whose monitoring region moved away: the stale entry drops.
  QueryInfo moved = info;
  moved.mon_region = CellRange{0, 0, 0, 0};
  deployment.client(1).OnDownlink(
      MakeMessage(net::QueryUpdateBroadcast{{moved}}));
  EXPECT_EQ(deployment.fleet().lqt_size(1), 0u);
  ExpectSignaturesExact(deployment, "update-stale removal");

  deployment.client(1).OnDownlink(
      MakeMessage(net::QueryInstallBroadcast{{info}}));
  ASSERT_EQ(deployment.fleet().lqt_size(1), 1u);
  deployment.client(1).OnDownlink(
      MakeMessage(net::QueryRemoveBroadcast{{*qid}}));
  EXPECT_EQ(deployment.fleet().lqt_size(1), 0u);
  ExpectSignaturesExact(deployment, "remove broadcast");

  // Cell crossing out of the monitoring region.
  deployment.client(1).OnDownlink(
      MakeMessage(net::QueryInstallBroadcast{{info}}));
  deployment.world().SetObjectState(1, Point{85, 85}, Vec2{});
  deployment.Tick();
  EXPECT_EQ(deployment.fleet().lqt_size(1), 0u);
  ExpectSignaturesExact(deployment, "cell crossing");

  // Lease expiry: a query the server never heard of is never refreshed.
  QueryInfo orphan = info;
  orphan.qid = 4242;
  deployment.client(2).OnDownlink(
      MakeMessage(net::QueryInstallBroadcast{{orphan}}));
  ASSERT_TRUE(deployment.fleet().IsTargetOf(2, 4242).has_value());
  deployment.TickN(3);
  EXPECT_FALSE(deployment.fleet().IsTargetOf(2, 4242).has_value());
  ExpectSignaturesExact(deployment, "lease expiry");

  fleet.Reset(2);
  EXPECT_EQ(fleet.lqt_signature(2), 0u);
  ExpectSignaturesExact(deployment, "Reset");
}

// --- (b) Re-entrancy ---------------------------------------------------------

// Returns object 2's LQT size after an outer broadcast in whose middle
// object 1's uplink installs a query at object 2: 0 when the outer update
// still reached object 2 and dropped that query.
size_t NestedInstallScenario(bool deliver_to_every_receiver) {
  // Focal 0 with receiver 1 in cell (5, 5); receiver 2 with focal 3 in cell
  // (7, 5). Coverage order is cell order: 0, 1, then 2, 3.
  std::vector<ObjectSpec> specs(4, ObjectSpec(Point{55, 55}));
  specs[1].pos = Point{57, 55};
  specs[2].pos = Point{77, 55};
  specs[3].pos = Point{75, 55};
  MiniDeployment deployment(specs);
  FullDelivery full(deployment.fleet());
  if (deliver_to_every_receiver) {
    deployment.network().set_broadcast_receiver(&full);
  }
  auto first = deployment.server().InstallQuery(0, 4.0, 1.0);
  EXPECT_TRUE(first.ok());
  deployment.Tick();  // object 1 becomes a target of the first query
  EXPECT_EQ(deployment.fleet().IsTargetOf(1, *first), std::optional(true));

  // Object 1's stale-removal report makes the server install a query of
  // focal 3, whose install broadcast reaches object 2 nested inside the
  // outer broadcast below.
  const QueryId nested_qid = *first + 1;
  bool installed = false;
  deployment.network().set_server_handler(
      [&](ObjectId from, const Message& message) {
        deployment.server().OnUplink(from, message);
        if (from == 1 && !installed) {
          installed = true;
          auto qid = deployment.server().InstallQuery(3, 4.0, 1.0);
          EXPECT_TRUE(qid.ok());
          EXPECT_EQ(*qid, nested_qid);
          EXPECT_EQ(deployment.fleet().lqt_size(2), 1u);
        }
      });
  // The outer broadcast moves both queries' monitoring regions away from
  // objects 1 and 2. At object 2's turn it holds the nested query, so the
  // update must reach it and drop the entry; a relevance check taken for
  // the whole list up front would have skipped object 2.
  QueryInfo away = InfoFor(deployment, *first);
  away.mon_region = CellRange{0, 0, 0, 0};
  QueryInfo nested_away = away;
  nested_away.qid = nested_qid;
  nested_away.focal_oid = 3;
  const Message update =
      MakeMessage(net::QueryUpdateBroadcast{{away, nested_away}});
  net::BaseStation station{99, geo::Circle{Point{66, 55}, 15.0}};
  deployment.network().Broadcast(station, update);
  EXPECT_TRUE(installed);
  EXPECT_EQ(deployment.fleet().lqt_size(1), 0u);
  ExpectSignaturesExact(deployment, "nested delivery");
  return deployment.fleet().lqt_size(2);
}

TEST(ClientFleetTest, NestedDeliveryReachesLaterReceiverOfSameBroadcast) {
  EXPECT_EQ(NestedInstallScenario(/*deliver_to_every_receiver=*/true), 0u);
  EXPECT_EQ(NestedInstallScenario(/*deliver_to_every_receiver=*/false), 0u);
}

// --- (d) Fig. 9 charging -----------------------------------------------------

TEST(ClientFleetTest, SkippedReceptionsAreStillCharged) {
  MiniDeployment deployment(std::vector<ObjectSpec>(3, Point{55, 55}));
  const Message remove = MakeMessage(net::QueryRemoveBroadcast{{12345}});
  const uint64_t bytes = net::WireSizeBytes(remove);
  net::BaseStation station{5, geo::Circle{Point{55, 55}, 10.0}};
  deployment.network().Broadcast(station, remove);

  const net::NetworkStats& stats = deployment.network().stats();
  EXPECT_EQ(stats.broadcast_receptions, 3u);
  EXPECT_EQ(stats.reception_bytes, 3 * bytes);
  // No handler ran: every covered object was skipped.
  EXPECT_EQ(deployment.fleet().skipped_receptions(), 3u);
}

// --- (c) Differential against full delivery ---------------------------------

struct StepRecord {
  std::string stats;
  // Per object: one-to-one downlink bytes received, then uplink bytes sent.
  // Broadcast receptions are in `stats`.
  std::vector<uint64_t> object_bytes;
  std::vector<size_t> lqt_sizes;
  std::vector<std::vector<ObjectId>> results;
};

std::vector<StepRecord> RunRecorded(const sim::SimulationConfig& config,
                                    bool reference, int steps,
                                    uint64_t* skipped) {
  auto made = sim::Simulation::Make(config);
  EXPECT_TRUE(made.ok()) << made.status().ToString();
  sim::Simulation& sim = **made;
  FullDelivery full(*sim.fleet());
  if (reference) sim.network().set_broadcast_receiver(&full);
  std::vector<uint64_t> rx_bytes(sim.fleet()->clients().size());
  std::vector<uint64_t> tx_bytes(rx_bytes.size());
  sim.network().set_observer(
      [&](net::Direction direction, int64_t party, const Message& message) {
        if (direction == net::Direction::kBroadcast) return;
        auto& bytes =
            direction == net::Direction::kUplink ? tx_bytes : rx_bytes;
        bytes.at(static_cast<size_t>(party)) += net::WireSizeBytes(message);
      });
  // Setup's install storm ran through the fleet in both runs.
  const uint64_t setup_skips = sim.fleet()->skipped_receptions();
  std::vector<QueryId> qids = sim.installed_queries();
  std::vector<StepRecord> records;
  for (int step = 0; step < steps; ++step) {
    if (step == 2 || step == 5) {
      // Installs mid-run, some short-lived, so install and remove
      // broadcasts run under both deliveries too.
      for (ObjectId focal = 10; focal < 16; ++focal) {
        const Seconds life = focal % 2 == 0 ? 60.0 : kNeverExpires;
        auto qid = sim.server()->InstallQuery(focal + step, 3.0, 0.8, life);
        if (qid.ok()) qids.push_back(*qid);
      }
    }
    sim.Run(1);
    StepRecord record;
    const net::NetworkStats& stats = sim.network().stats();
    record.stats = net::NetworkStatsJson(stats);
    for (size_t k = 0; k < net::kNumMessageTypes; ++k) {
      record.stats += ',' + std::to_string(stats.messages_by_type[k]);
      record.stats += '/' + std::to_string(stats.dropped_by_type[k]);
    }
    record.stats += ',' + std::to_string(stats.reception_bytes);
    for (const MobiEyesClient& client : sim.fleet()->clients()) {
      const ObjectId oid = client.oid();
      record.lqt_sizes.push_back(sim.fleet()->lqt_size(oid));
      record.object_bytes.push_back(rx_bytes[static_cast<size_t>(oid)]);
      record.object_bytes.push_back(tx_bytes[static_cast<size_t>(oid)]);
    }
    for (QueryId qid : qids) {
      auto result = sim.server()->QueryResult(qid);
      std::vector<ObjectId> sorted;
      if (result.ok()) sorted.assign(result->begin(), result->end());
      std::sort(sorted.begin(), sorted.end());
      record.results.push_back(std::move(sorted));
    }
    records.push_back(std::move(record));
  }
  *skipped = sim.fleet()->skipped_receptions() - setup_skips;
  return records;
}

void ExpectFleetMatchesFullDelivery(const sim::SimulationConfig& config) {
  constexpr int kSteps = 12;
  uint64_t fleet_skips = 0;
  uint64_t reference_skips = 0;
  auto fleet = RunRecorded(config, /*reference=*/false, kSteps, &fleet_skips);
  auto full = RunRecorded(config, /*reference=*/true, kSteps,
                          &reference_skips);
  ASSERT_EQ(fleet.size(), full.size());
  for (size_t step = 0; step < fleet.size(); ++step) {
    EXPECT_EQ(fleet[step].stats, full[step].stats) << "step " << step;
    EXPECT_EQ(fleet[step].object_bytes, full[step].object_bytes)
        << "step " << step;
    EXPECT_EQ(fleet[step].lqt_sizes, full[step].lqt_sizes) << "step " << step;
    EXPECT_EQ(fleet[step].results, full[step].results) << "step " << step;
  }
  // The fleet really skipped handlers; the reference skipped none.
  EXPECT_GT(fleet_skips, 0u);
  EXPECT_EQ(reference_skips, 0u);
}

sim::SimulationConfig DifferentialConfig() {
  sim::SimulationConfig config;
  config.params.num_objects = 5000;
  config.params.num_queries = 120;
  config.params.velocity_changes_per_step = 500;
  config.params.area_square_miles = 5000.0;
  config.params.seed = 2026;
  config.warmup_steps = 0;  // every step runs under the delivery under test
  return config;
}

TEST(ClientFleetDifferentialTest, EagerMatchesFullDelivery) {
  ExpectFleetMatchesFullDelivery(DifferentialConfig());
}

TEST(ClientFleetDifferentialTest, HardenedLazyUnderFaultsMatchesFullDelivery) {
  sim::SimulationConfig config = DifferentialConfig();
  config.mode = sim::SimMode::kMobiEyesLazy;
  config.mobieyes.enable_safe_period = true;
  const Seconds step = config.params.time_step;
  config.mobieyes = HardenedOptions(config.mobieyes, step, 4);
  config.faults.uplink_drop_rate = 0.05;
  config.faults.downlink_drop_rate = 0.05;
  config.faults.delay_rate = 0.05;
  config.faults.max_delay_steps = 2;
  config.faults.duplicate_rate = 0.05;
  config.faults.disconnect_rate = 0.05;
  config.faults.disconnect_period_steps = 6;
  config.faults.disconnect_duration_steps = 2;
  config.faults.client_restart_rate = 0.002;
  ExpectFleetMatchesFullDelivery(config);
}

}  // namespace
}  // namespace mobieyes::core

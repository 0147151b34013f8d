// System-level property tests: invariants of the distributed protocol that
// must hold at every step of a randomized simulation, across parameter
// settings (TEST_P over alpha and propagation mode).

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "mobieyes/sim/simulation.h"

namespace mobieyes {
namespace {

using sim::SimMode;
using sim::Simulation;
using sim::SimulationConfig;

class ProtocolPropertyTest
    : public ::testing::TestWithParam<std::tuple<double, SimMode>> {
 protected:
  SimulationConfig Config() const {
    SimulationConfig config;
    config.mode = std::get<1>(GetParam());
    config.params.alpha = std::get<0>(GetParam());
    config.params.num_objects = 250;
    config.params.num_queries = 25;
    config.params.velocity_changes_per_step = 25;
    config.params.area_square_miles = 10000.0;
    config.params.base_station_side = 20.0;
    config.params.seed = 31337;
    return config;
  }
};

// Every LQT entry of every client must (a) belong to a live query, (b) have
// a monitoring region that covers the client's current grid cell, (c) be
// installed only on objects satisfying the filter, and (d) never be the
// client's own query.
TEST_P(ProtocolPropertyTest, LqtEntriesAreExactlyJustified) {
  auto simulation = Simulation::Make(Config());
  ASSERT_TRUE(simulation.ok()) << simulation.status().ToString();
  Simulation& sim = **simulation;
  ASSERT_NE(sim.fleet(), nullptr);
  for (int round = 0; round < 6; ++round) {
    sim.Run(2);
    for (size_t oid = 0; oid < sim.world().object_count(); ++oid) {
      const auto& me = sim.world().object(static_cast<ObjectId>(oid));
      for (const auto& entry : sim.fleet()->lqt(static_cast<ObjectId>(oid))) {
        const auto* sqt = sim.server()->FindQuery(entry.qid);
        ASSERT_NE(sqt, nullptr) << "LQT references dead query " << entry.qid;
        EXPECT_TRUE(entry.mon_region.Contains(me.cell))
            << "object " << oid << " keeps query " << entry.qid
            << " outside its monitoring region";
        EXPECT_LE(me.attr, entry.filter_threshold);
        EXPECT_NE(sqt->focal_oid, static_cast<ObjectId>(oid));
      }
    }
  }
}

// Under eager propagation the client-side monitoring regions must agree
// with the server's SQT for every installed entry (the server is the
// source of truth for region geometry).
TEST_P(ProtocolPropertyTest, ClientRegionsMatchServerUnderEager) {
  if (std::get<1>(GetParam()) != SimMode::kMobiEyesEager) {
    GTEST_SKIP() << "lazy propagation tolerates stale regions by design";
  }
  auto simulation = Simulation::Make(Config());
  ASSERT_TRUE(simulation.ok());
  Simulation& sim = **simulation;
  sim.Run(10);
  for (size_t oid = 0; oid < sim.world().object_count(); ++oid) {
    for (const auto& entry : sim.fleet()->lqt(static_cast<ObjectId>(oid))) {
      const auto* sqt = sim.server()->FindQuery(entry.qid);
      ASSERT_NE(sqt, nullptr);
      EXPECT_EQ(entry.mon_region, sqt->mon_region)
          << "object " << oid << " query " << entry.qid;
    }
  }
}

// Reported result members always satisfy the query filter and are never
// the focal object (false members would violate user-visible semantics even
// transiently).
TEST_P(ProtocolPropertyTest, ResultsRespectFilterAndSelfExclusion) {
  auto simulation = Simulation::Make(Config());
  ASSERT_TRUE(simulation.ok());
  Simulation& sim = **simulation;
  for (int round = 0; round < 5; ++round) {
    sim.Run(2);
    for (size_t k = 0; k < sim.installed_queries().size(); ++k) {
      const auto& spec = sim.query_specs()[k];
      auto result = sim.server()->QueryResult(sim.installed_queries()[k]);
      ASSERT_TRUE(result.ok());
      for (ObjectId member : *result) {
        EXPECT_NE(member, spec.focal_oid);
        EXPECT_LE(sim.world().object(member).attr, spec.filter_threshold);
      }
    }
  }
}

// Under eager propagation the result error vs the oracle stays small at
// every sampled instant, not just on average.
TEST_P(ProtocolPropertyTest, EagerErrorBoundedEveryStep) {
  if (std::get<1>(GetParam()) != SimMode::kMobiEyesEager) {
    GTEST_SKIP();
  }
  auto simulation = Simulation::Make(Config());
  ASSERT_TRUE(simulation.ok());
  Simulation& sim = **simulation;
  for (int round = 0; round < 8; ++round) {
    sim.Run(1);
    EXPECT_LT(sim.CurrentResultError(), 0.25) << "round " << round;
  }
}

// Message counters are internally consistent: broadcasts are a subset of
// downlinks, and receptions are charged in bytes.
TEST_P(ProtocolPropertyTest, NetworkAccountingConsistent) {
  auto simulation = Simulation::Make(Config());
  ASSERT_TRUE(simulation.ok());
  Simulation& sim = **simulation;
  sim.Run(6);
  const auto& stats = sim.network().stats();
  EXPECT_LE(stats.broadcast_messages, stats.downlink_messages);
  EXPECT_EQ(stats.total_messages(),
            stats.uplink_messages + stats.downlink_messages);
  // Broadcast receptions imply received bytes were charged to objects.
  if (stats.broadcast_receptions > 0) {
    EXPECT_GT(stats.reception_bytes, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AlphaAndMode, ProtocolPropertyTest,
    ::testing::Combine(::testing::Values(2.0, 5.0, 10.0),
                       ::testing::Values(SimMode::kMobiEyesEager,
                                         SimMode::kMobiEyesLazy)),
    [](const auto& info) {
      std::string mode = std::get<1>(info.param) == SimMode::kMobiEyesEager
                             ? "Eager"
                             : "Lazy";
      return "Alpha" +
             std::to_string(static_cast<int>(std::get<0>(info.param))) +
             mode;
    });

}  // namespace
}  // namespace mobieyes

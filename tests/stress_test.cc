// Scale / soak tests: larger populations and longer horizons than the unit
// tests, with end-state invariant checks. Kept to a few seconds of runtime.

#include <gtest/gtest.h>

#include "mobieyes/sim/simulation.h"

namespace mobieyes {
namespace {

using sim::SimMode;
using sim::Simulation;
using sim::SimulationConfig;

TEST(StressTest, LargeEagerDeploymentStaysConsistent) {
  SimulationConfig config;
  config.mode = SimMode::kMobiEyesEager;
  config.params.num_objects = 5000;
  config.params.num_queries = 500;
  config.params.velocity_changes_per_step = 500;
  config.params.seed = 777;
  config.measure_error = false;
  auto simulation = Simulation::Make(config);
  ASSERT_TRUE(simulation.ok()) << simulation.status().ToString();
  Simulation& sim = **simulation;
  sim.Run(15);

  // Spot-check protocol invariants over the full population at the end.
  for (size_t oid = 0; oid < sim.world().object_count(); ++oid) {
    const auto& me = sim.world().object(static_cast<ObjectId>(oid));
    for (const auto& entry : sim.fleet()->lqt(static_cast<ObjectId>(oid))) {
      ASSERT_TRUE(entry.mon_region.Contains(me.cell));
      ASSERT_NE(sim.server()->FindQuery(entry.qid), nullptr);
    }
  }
  // Accuracy after 15 steps of churn stays tight under EQP.
  EXPECT_LT(sim.CurrentResultError(), 0.08);
  EXPECT_GT(sim.metrics().network.total_messages(), 0u);
}

TEST(StressTest, LongLazyRunRemainsBounded) {
  SimulationConfig config;
  config.mode = SimMode::kMobiEyesLazy;
  config.params.num_objects = 1500;
  config.params.num_queries = 150;
  config.params.velocity_changes_per_step = 150;
  config.params.area_square_miles = 40000.0;
  config.params.seed = 778;
  config.measure_error = true;
  auto simulation = Simulation::Make(config);
  ASSERT_TRUE(simulation.ok());
  (*simulation)->Run(100);  // 50 simulated minutes
  sim::RunMetrics metrics = (*simulation)->metrics();
  // Lazy propagation must not accumulate error over time.
  EXPECT_LT(metrics.AverageError(), 0.3);
  // LQT sizes stay bounded (no leak of stale entries).
  EXPECT_LT(metrics.AverageLqtSize(), 20.0);
}

TEST(StressTest, HotspotWorkloadRunsAllModes) {
  for (SimMode mode : {SimMode::kMobiEyesEager, SimMode::kObjectIndex,
                       SimMode::kQueryIndex}) {
    SimulationConfig config;
    config.mode = mode;
    config.params.num_objects = 1000;
    config.params.num_queries = 100;
    config.params.velocity_changes_per_step = 100;
    config.params.object_distribution = sim::ObjectDistribution::kHotspot;
    config.params.seed = 779;
    auto simulation = Simulation::Make(config);
    ASSERT_TRUE(simulation.ok()) << sim::SimModeName(mode);
    (*simulation)->Run(5);
    EXPECT_GT((*simulation)->metrics().network.total_messages(), 0u);
  }
}

TEST(StressTest, MixedShapeWorkloadStaysAccurate) {
  SimulationConfig config;
  config.mode = SimMode::kMobiEyesEager;
  config.params.num_objects = 1200;
  config.params.num_queries = 120;
  config.params.velocity_changes_per_step = 120;
  config.params.rect_query_fraction = 0.5;  // half rectangles, half circles
  config.params.seed = 781;
  config.measure_error = true;
  auto simulation = Simulation::Make(config);
  ASSERT_TRUE(simulation.ok()) << simulation.status().ToString();
  (*simulation)->Run(12);
  EXPECT_LT((*simulation)->metrics().AverageError(), 0.1);
}

TEST(StressTest, BaselinesRejectRectangularQueries) {
  SimulationConfig config;
  config.mode = SimMode::kObjectIndex;
  config.params.num_objects = 100;
  config.params.num_queries = 20;
  config.params.rect_query_fraction = 1.0;
  auto simulation = Simulation::Make(config);
  EXPECT_FALSE(simulation.ok());
  EXPECT_EQ(simulation.status().code(), StatusCode::kInvalidArgument);
}

TEST(StressTest, ManyQueriesPerFocalGroupingSoak) {
  // Extreme skew: 40 queries all bound to a handful of focal objects.
  SimulationConfig config;
  config.mode = SimMode::kMobiEyesEager;
  config.params.num_objects = 50;  // tiny pool: heavy grouping
  config.params.num_queries = 40;
  config.params.velocity_changes_per_step = 10;
  config.params.area_square_miles = 2500.0;
  config.params.seed = 780;
  config.measure_error = true;
  auto simulation = Simulation::Make(config);
  ASSERT_TRUE(simulation.ok());
  (*simulation)->Run(30);
  EXPECT_LT((*simulation)->metrics().AverageError(), 0.15);
}

}  // namespace
}  // namespace mobieyes

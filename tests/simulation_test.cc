#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "mobieyes/sim/simulation.h"

namespace mobieyes::sim {
namespace {

SimulationConfig SmallConfig(SimMode mode) {
  SimulationConfig config;
  config.mode = mode;
  config.params.num_objects = 300;
  config.params.num_queries = 30;
  config.params.velocity_changes_per_step = 30;
  config.params.area_square_miles = 10000.0;  // 100 x 100
  config.params.alpha = 10.0;
  config.params.base_station_side = 20.0;
  config.params.seed = 99;
  config.warmup_steps = 2;
  return config;
}

TEST(SimulationTest, MakeValidatesParams) {
  SimulationConfig config = SmallConfig(SimMode::kMobiEyesEager);
  config.params.alpha = -1.0;
  EXPECT_FALSE(Simulation::Make(config).ok());
}

class SimulationModeTest : public ::testing::TestWithParam<SimMode> {};

TEST_P(SimulationModeTest, RunsAndAccumulatesMetrics) {
  auto simulation = Simulation::Make(SmallConfig(GetParam()));
  ASSERT_TRUE(simulation.ok()) << simulation.status().ToString();
  (*simulation)->Run(5);
  RunMetrics metrics = (*simulation)->metrics();
  EXPECT_EQ(metrics.steps, 5);
  EXPECT_DOUBLE_EQ(metrics.simulated_seconds, 150.0);
  EXPECT_EQ(metrics.objects, 300);
  EXPECT_GT(metrics.network.total_messages(), 0u);
  EXPECT_GT(metrics.MessagesPerSecond(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, SimulationModeTest,
    ::testing::Values(SimMode::kMobiEyesEager, SimMode::kMobiEyesLazy,
                      SimMode::kObjectIndex, SimMode::kQueryIndex,
                      SimMode::kNaive, SimMode::kCentralOptimal),
    [](const auto& info) {
      std::string name = SimModeName(info.param);
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name;
    });

TEST(SimulationTest, MobiEyesModesPopulateServerAndClients) {
  auto simulation = Simulation::Make(SmallConfig(SimMode::kMobiEyesEager));
  ASSERT_TRUE(simulation.ok());
  EXPECT_NE((*simulation)->server(), nullptr);
  EXPECT_NE((*simulation)->client(0), nullptr);
  EXPECT_EQ((*simulation)->object_index(), nullptr);
  EXPECT_EQ((*simulation)->installed_queries().size(), 30u);
  EXPECT_EQ((*simulation)->server()->query_count(), 30u);
}

TEST(SimulationTest, BaselineModesPopulateProcessors) {
  auto object_index =
      Simulation::Make(SmallConfig(SimMode::kObjectIndex));
  ASSERT_TRUE(object_index.ok());
  EXPECT_NE((*object_index)->object_index(), nullptr);
  EXPECT_EQ((*object_index)->server(), nullptr);

  auto query_index = Simulation::Make(SmallConfig(SimMode::kQueryIndex));
  ASSERT_TRUE(query_index.ok());
  EXPECT_NE((*query_index)->query_index(), nullptr);
}

TEST(SimulationTest, ServerLoadMeasuredPerMode) {
  for (SimMode mode : {SimMode::kMobiEyesEager, SimMode::kObjectIndex,
                       SimMode::kQueryIndex}) {
    auto simulation = Simulation::Make(SmallConfig(mode));
    ASSERT_TRUE(simulation.ok());
    (*simulation)->Run(3);
    EXPECT_GT((*simulation)->metrics().server_seconds, 0.0)
        << SimModeName(mode);
  }
}

TEST(SimulationTest, NaiveSendsOneUplinkPerMovingObjectPerStep) {
  auto simulation = Simulation::Make(SmallConfig(SimMode::kNaive));
  ASSERT_TRUE(simulation.ok());
  (*simulation)->Run(4);
  RunMetrics metrics = (*simulation)->metrics();
  // Every object has a nonzero velocity after workload generation, so each
  // sends exactly one position report per step.
  EXPECT_EQ(metrics.network.uplink_messages, 4u * 300u);
  EXPECT_EQ(metrics.network.downlink_messages, 0u);
}

TEST(SimulationTest, CentralOptimalSendsFewerUplinksThanNaive) {
  auto naive = Simulation::Make(SmallConfig(SimMode::kNaive));
  auto central = Simulation::Make(SmallConfig(SimMode::kCentralOptimal));
  ASSERT_TRUE(naive.ok());
  ASSERT_TRUE(central.ok());
  (*naive)->Run(5);
  (*central)->Run(5);
  EXPECT_LT((*central)->metrics().network.uplink_messages,
            (*naive)->metrics().network.uplink_messages);
}

TEST(SimulationTest, LqtSizesOnlyTrackedForMobiEyes) {
  auto mobieyes = Simulation::Make(SmallConfig(SimMode::kMobiEyesEager));
  ASSERT_TRUE(mobieyes.ok());
  (*mobieyes)->Run(3);
  EXPECT_GT((*mobieyes)->metrics().AverageLqtSize(), 0.0);

  auto naive = Simulation::Make(SmallConfig(SimMode::kNaive));
  ASSERT_TRUE(naive.ok());
  (*naive)->Run(3);
  EXPECT_EQ((*naive)->metrics().AverageLqtSize(), 0.0);
}

TEST(SimulationTest, DeterministicAcrossRunsWithSameSeed) {
  auto run = [](SimMode mode) {
    auto simulation = Simulation::Make(SmallConfig(mode));
    EXPECT_TRUE(simulation.ok());
    (*simulation)->Run(5);
    return (*simulation)->metrics();
  };
  RunMetrics a = run(SimMode::kMobiEyesEager);
  RunMetrics b = run(SimMode::kMobiEyesEager);
  EXPECT_EQ(a.network.uplink_messages, b.network.uplink_messages);
  EXPECT_EQ(a.network.downlink_messages, b.network.downlink_messages);
  EXPECT_EQ(a.lqt_size_sum, b.lqt_size_sum);
}

TEST(SimulationTest, ErrorMeasurementProducesSamples) {
  SimulationConfig config = SmallConfig(SimMode::kMobiEyesLazy);
  config.measure_error = true;
  auto simulation = Simulation::Make(config);
  ASSERT_TRUE(simulation.ok());
  (*simulation)->Run(4);
  RunMetrics metrics = (*simulation)->metrics();
  EXPECT_EQ(metrics.error_samples, 4);
  EXPECT_GE(metrics.AverageError(), 0.0);
  EXPECT_LE(metrics.AverageError(), 1.0);
}

TEST(SimulationTest, PowerMetricRequiresByteTracking) {
  auto simulation = Simulation::Make(SmallConfig(SimMode::kMobiEyesEager));
  ASSERT_TRUE(simulation.ok());
  (*simulation)->Run(3);
  net::RadioEnergyModel radio;
  EXPECT_GT((*simulation)->metrics().AveragePowerMilliwatts(radio), 0.0);
}

TEST(SimulationTest, WarmupStepsExcludedFromMetrics) {
  SimulationConfig config = SmallConfig(SimMode::kNaive);
  config.warmup_steps = 5;
  auto simulation = Simulation::Make(config);
  ASSERT_TRUE(simulation.ok());
  EXPECT_EQ((*simulation)->metrics().steps, 0);
  EXPECT_EQ((*simulation)->metrics().network.total_messages(), 0u);
  (*simulation)->Run(2);
  EXPECT_EQ((*simulation)->metrics().steps, 2);
  EXPECT_EQ((*simulation)->metrics().network.uplink_messages, 2u * 300u);
}

}  // namespace
}  // namespace mobieyes::sim

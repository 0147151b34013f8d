// Tests for the safe-period optimization (§4.2): objects far from a query's
// region skip evaluations for the worst-case closing time, without ever
// missing a containment change.

#include <gtest/gtest.h>

#include "test_harness.h"

namespace mobieyes::core {
namespace {

using geo::Point;
using geo::Vec2;
using test::MiniDeployment;
using test::ObjectSpec;

core::MobiEyesOptions WithSafePeriod(bool enabled) {
  core::MobiEyesOptions options;
  options.enable_safe_period = enabled;
  return options;
}

TEST(SafePeriodTest, FarObjectSkipsEvaluations) {
  // Object 18 miles from the focal, radius 4, both slow (0.01 mi/s): the
  // worst-case closing time is (18 - 4 - 0.2) / 0.02 = 690 s = 23 steps.
  MiniDeployment deployment(
      {
          {Point{50, 50}, Vec2{}, 0.01},
          {Point{68, 50}, Vec2{}, 0.01},
      },
      WithSafePeriod(true), /*alpha=*/30.0);
  ASSERT_TRUE(deployment.server().InstallQuery(0, 4.0, 1.0).ok());
  deployment.TickN(10);
  // One real evaluation (the first), the rest skipped.
  EXPECT_EQ(deployment.fleet().queries_evaluated(), 1u);
  EXPECT_EQ(deployment.fleet().safe_period_skips(), 9u);
}

TEST(SafePeriodTest, NearObjectEvaluatesEveryStep) {
  MiniDeployment deployment(
      {
          {Point{50, 50}, Vec2{}, 0.1},
          {Point{53, 50}, Vec2{}, 0.1},  // inside the region
      },
      WithSafePeriod(true), /*alpha=*/30.0);
  ASSERT_TRUE(deployment.server().InstallQuery(0, 4.0, 1.0).ok());
  deployment.TickN(5);
  EXPECT_EQ(deployment.fleet().queries_evaluated(), 5u);
  EXPECT_EQ(deployment.fleet().safe_period_skips(), 0u);
}

TEST(SafePeriodTest, NeverMissesContainmentChange) {
  // Adversarial case: both objects close head-on at their maximum speeds —
  // exactly the worst case the safe period assumes.
  MiniDeployment deployment(
      {
          {Point{40, 50}, Vec2{0.05, 0.0}, 0.05},   // focal at max speed
          {Point{70, 50}, Vec2{-0.05, 0.0}, 0.05},  // target at max speed
      },
      WithSafePeriod(true), /*alpha=*/50.0);
  auto qid = deployment.server().InstallQuery(0, 4.0, 1.0);
  ASSERT_TRUE(qid.ok());

  MiniDeployment baseline(
      {
          {Point{40, 50}, Vec2{0.05, 0.0}, 0.05},
          {Point{70, 50}, Vec2{-0.05, 0.0}, 0.05},
      },
      WithSafePeriod(false), /*alpha=*/50.0);
  auto baseline_qid = baseline.server().InstallQuery(0, 4.0, 1.0);
  ASSERT_TRUE(baseline_qid.ok());

  // Gap shrinks 3 miles/step from 30; it first dips under radius 4 within
  // 9 steps. Safe-period runs must agree with exhaustive evaluation at
  // every step.
  for (int step = 0; step < 12; ++step) {
    deployment.Tick();
    baseline.Tick();
    ASSERT_EQ(deployment.server().QueryResult(*qid)->contains(1),
              baseline.server().QueryResult(*baseline_qid)->contains(1))
        << "divergence at step " << step;
  }
  EXPECT_GT(deployment.fleet().safe_period_skips(), 0u);
  EXPECT_LT(deployment.fleet().queries_evaluated(),
            baseline.fleet().queries_evaluated());
}

TEST(SafePeriodTest, StationaryObjectsSkipForever) {
  MiniDeployment deployment(
      {
          {Point{20, 20}, Vec2{}, 0.0},  // zero max speed: can never move
          {Point{40, 20}, Vec2{}, 0.0},
      },
      WithSafePeriod(true), /*alpha=*/30.0);
  ASSERT_TRUE(deployment.server().InstallQuery(0, 4.0, 1.0).ok());
  deployment.TickN(20);
  // With zero closing speed the safe period is unbounded: one initial
  // evaluation, then skips.
  EXPECT_EQ(deployment.fleet().queries_evaluated(), 1u);
  EXPECT_EQ(deployment.fleet().safe_period_skips(), 19u);
}

TEST(SafePeriodTest, DisabledMeansNoSkips) {
  MiniDeployment deployment(
      {
          {Point{20, 20}, Vec2{}, 0.01},
          {Point{80, 80}, Vec2{}, 0.01},
      },
      WithSafePeriod(false), /*alpha=*/100.0);
  ASSERT_TRUE(deployment.server().InstallQuery(0, 2.0, 1.0).ok());
  deployment.TickN(10);
  EXPECT_EQ(deployment.fleet().safe_period_skips(), 0u);
  EXPECT_EQ(deployment.fleet().queries_evaluated(), 10u);
}

TEST(SafePeriodTest, VelocityBroadcastDoesNotInvalidateSafety) {
  // The focal changes direction repeatedly; the safe period is based on
  // maximum speeds, so results must still match a no-safe-period run.
  std::vector<ObjectSpec> specs = {
      {Point{30, 50}, Vec2{0.03, 0.0}, 0.05},
      {Point{60, 50}, Vec2{-0.02, 0.01}, 0.05},
  };
  MiniDeployment with_sp(specs, WithSafePeriod(true), /*alpha=*/50.0);
  MiniDeployment without_sp(specs, WithSafePeriod(false), /*alpha=*/50.0);
  auto qid_a = with_sp.server().InstallQuery(0, 5.0, 1.0);
  auto qid_b = without_sp.server().InstallQuery(0, 5.0, 1.0);
  ASSERT_TRUE(qid_a.ok());
  ASSERT_TRUE(qid_b.ok());
  for (int step = 0; step < 15; ++step) {
    if (step == 5) {
      // Sudden direction change of the focal (within max speed).
      with_sp.world().SetObjectState(0, with_sp.world().object(0).pos,
                                     Vec2{0.05, 0.0});
      without_sp.world().SetObjectState(0, without_sp.world().object(0).pos,
                                        Vec2{0.05, 0.0});
    }
    with_sp.Tick();
    without_sp.Tick();
    ASSERT_EQ(with_sp.server().QueryResult(*qid_a)->contains(1),
              without_sp.server().QueryResult(*qid_b)->contains(1))
        << "divergence at step " << step;
  }
}

}  // namespace
}  // namespace mobieyes::core

// Tests for lazy query propagation (§3.5): non-focal objects stay silent on
// cell crossings and pick up missed queries from expanded velocity-change
// broadcasts, trading result freshness for uplink traffic.

#include <gtest/gtest.h>

#include "test_harness.h"

namespace mobieyes::core {
namespace {

using geo::Point;
using geo::Vec2;
using test::MiniDeployment;
using test::ObjectSpec;

core::MobiEyesOptions Lazy() {
  core::MobiEyesOptions options;
  options.propagation = core::PropagationMode::kLazy;
  return options;
}

core::MobiEyesOptions Eager() { return core::MobiEyesOptions{}; }

TEST(LazyPropagationTest, NonFocalCellCrossingSendsNoUplink) {
  std::vector<ObjectSpec> specs = {
      {Point{15, 85}, Vec2{0.1, 0.0}},  // plain object crossing cells
  };
  MiniDeployment lazy(specs, Lazy());
  MiniDeployment eager(specs, Eager());
  lazy.TickN(3);   // crosses x=20, x=25... (alpha=10: crossing at 20, 30)
  eager.TickN(3);
  EXPECT_EQ(lazy.network().stats().uplink_messages, 0u);
  EXPECT_GT(eager.network().stats().uplink_messages, 0u);
}

TEST(LazyPropagationTest, FocalStillReportsCellCrossings) {
  MiniDeployment deployment(
      {
          {Point{18, 50}, Vec2{0.1, 0.0}},  // focal crossing x=20
          {Point{22, 50}},
      },
      Lazy());
  auto qid = deployment.server().InstallQuery(0, 3.0, 1.0);
  ASSERT_TRUE(qid.ok());
  deployment.Tick();  // focal at 21: crossed into cell (2,5)
  const auto* entry = deployment.server().FindQuery(*qid);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->curr_cell, (geo::CellCoord{2, 5}));
}

TEST(LazyPropagationTest, MissedQueryInstalledOnVelocityBroadcast) {
  MiniDeployment deployment(
      {
          {Point{55, 55}},                   // focal
          {Point{75, 55}, Vec2{-0.2, 0.0}},  // enters region silently
      },
      Lazy());
  auto qid = deployment.server().InstallQuery(0, 4.0, 1.0);
  ASSERT_TRUE(qid.ok());
  EXPECT_EQ(deployment.fleet().lqt_size(1), 0u);

  deployment.Tick();  // object at 69: cell (6,5), inside region — but lazy:
  EXPECT_EQ(deployment.fleet().lqt_size(1), 0u);  // not installed yet

  // The focal changes velocity; the expanded broadcast reaches the region
  // and the object finally installs the query.
  deployment.world().SetObjectState(0, Point{55, 55}, Vec2{0.01, 0.0});
  deployment.Tick();
  EXPECT_EQ(deployment.fleet().lqt_size(1), 1u);
}

TEST(LazyPropagationTest, MissedQueryInstalledOnFocalCellChange) {
  MiniDeployment deployment(
      {
          {Point{58, 55}, Vec2{0.1, 0.0}},   // focal, crosses x=60
          {Point{75, 55}, Vec2{-0.2, 0.0}},  // enters region silently
      },
      Lazy());
  auto qid = deployment.server().InstallQuery(0, 4.0, 1.0);
  ASSERT_TRUE(qid.ok());
  deployment.Tick();
  // Focal crossed into cell (6,5): the QueryUpdateBroadcast over the union
  // region lets the newcomer install.
  EXPECT_EQ(deployment.fleet().lqt_size(1), 1u);
}

TEST(LazyPropagationTest, LazyResultsEventuallyAgreeWithEager) {
  std::vector<ObjectSpec> specs = {
      {Point{50, 50}, Vec2{0.02, 0.0}},
      {Point{56, 50}, Vec2{-0.02, 0.0}},
      {Point{44, 50}, Vec2{0.01, 0.01}},
  };
  MiniDeployment lazy(specs, Lazy());
  MiniDeployment eager(specs, Eager());
  auto qid_lazy = lazy.server().InstallQuery(0, 5.0, 1.0);
  auto qid_eager = eager.server().InstallQuery(0, 5.0, 1.0);
  ASSERT_TRUE(qid_lazy.ok());
  ASSERT_TRUE(qid_eager.ok());
  // No cell crossings away from queries here, so lazy matches eager.
  for (int step = 0; step < 8; ++step) {
    lazy.Tick();
    eager.Tick();
    ASSERT_EQ(*lazy.server().QueryResult(*qid_lazy),
              *eager.server().QueryResult(*qid_eager))
        << "step " << step;
  }
}

TEST(LazyPropagationTest, LazyCanTransientlyMissTargets) {
  // A fast object sweeps into the query region between focal updates: under
  // lazy propagation it is invisible to the query until the next broadcast,
  // which is exactly the Fig. 2 error source.
  MiniDeployment lazy(
      {
          {Point{55, 55}},                   // focal, stationary
          {Point{78, 55}, Vec2{-0.25, 0.0}},  // 7.5 miles/step
      },
      Lazy());
  auto qid = lazy.server().InstallQuery(0, 6.0, 1.0);
  ASSERT_TRUE(qid.ok());

  lazy.TickN(3);  // object at 55.5: well inside radius 6
  EXPECT_DOUBLE_EQ(lazy.world().object(1).pos.x, 55.5);
  // ...but it never installed the query, so the result misses it.
  EXPECT_EQ(lazy.fleet().lqt_size(1), 0u);
  EXPECT_FALSE(lazy.server().QueryResult(*qid)->contains(1));
}

TEST(LazyPropagationTest, UplinkSavingsVsEager) {
  // Many plain objects crossing cells: lazy eliminates their reports.
  std::vector<ObjectSpec> specs;
  specs.push_back({Point{50, 50}});  // focal, stationary
  for (int k = 0; k < 20; ++k) {
    specs.push_back(
        {Point{5.0 + 4.0 * k, 15.0}, Vec2{0.1, 0.0}});  // cross cells often
  }
  MiniDeployment lazy(specs, Lazy());
  MiniDeployment eager(specs, Eager());
  ASSERT_TRUE(lazy.server().InstallQuery(0, 3.0, 1.0).ok());
  ASSERT_TRUE(eager.server().InstallQuery(0, 3.0, 1.0).ok());
  lazy.network().ResetStats();
  eager.network().ResetStats();
  lazy.TickN(5);
  eager.TickN(5);
  EXPECT_LT(lazy.network().stats().uplink_messages,
            eager.network().stats().uplink_messages);
}

}  // namespace
}  // namespace mobieyes::core

// Tests for the query grouping optimization (§4.1): groupable queries (same
// focal object) share velocity-change broadcasts and report results through
// per-group bitmaps; evaluation short-circuits smaller radii when the object
// is outside a larger one.

#include <gtest/gtest.h>

#include "test_harness.h"

namespace mobieyes::core {
namespace {

using geo::Point;
using geo::Vec2;
using test::MiniDeployment;
using test::ObjectSpec;

core::MobiEyesOptions WithGrouping(bool enabled) {
  core::MobiEyesOptions options;
  options.enable_query_grouping = enabled;
  return options;
}

TEST(GroupingTest, MatchingRegionsShareOneVelocityBroadcast) {
  // Three queries on the same focal with radii mapping to the same
  // monitoring region (all < alpha = 10 -> same 3x3 block).
  std::vector<ObjectSpec> specs = {
      {Point{55, 55}},  // focal
      {Point{58, 55}},  // monitoring object
  };
  MiniDeployment grouped(specs, WithGrouping(true));
  MiniDeployment ungrouped(specs, WithGrouping(false));
  for (auto* deployment : {&grouped, &ungrouped}) {
    ASSERT_TRUE(deployment->server().InstallQuery(0, 2.0, 1.0).ok());
    ASSERT_TRUE(deployment->server().InstallQuery(0, 3.0, 1.0).ok());
    ASSERT_TRUE(deployment->server().InstallQuery(0, 4.0, 1.0).ok());
    deployment->network().ResetStats();
    // Trigger a significant velocity change on the focal.
    deployment->world().SetObjectState(0, Point{55, 55}, Vec2{0.05, 0.0});
    deployment->Tick();
  }
  // Grouped: one broadcast per (focal, monitoring region) pair; ungrouped:
  // one per query.
  EXPECT_LT(grouped.network().stats().broadcast_messages,
            ungrouped.network().stats().broadcast_messages);
  EXPECT_GE(ungrouped.network().stats().broadcast_messages, 3u);
}

TEST(GroupingTest, BitmapReportCarriesWholeGroup) {
  MiniDeployment deployment({
      {Point{55, 55}},  // focal
      {Point{58, 55}},  // object: distance 3
  });
  auto qid_small = deployment.server().InstallQuery(0, 2.0, 1.0);
  auto qid_large = deployment.server().InstallQuery(0, 4.0, 1.0);
  ASSERT_TRUE(qid_small.ok());
  ASSERT_TRUE(qid_large.ok());

  deployment.fleet().Tick();  // evaluate at distance 3
  // Inside radius 4, outside radius 2 — one grouped report fixed both.
  EXPECT_TRUE(deployment.server().QueryResult(*qid_large)->contains(1));
  EXPECT_FALSE(deployment.server().QueryResult(*qid_small)->contains(1));
}

TEST(GroupingTest, GroupedAndUngroupedResultsAgree) {
  std::vector<ObjectSpec> specs = {
      {Point{50, 50}, Vec2{0.02, 0.01}},
      {Point{53, 50}, Vec2{-0.02, 0.0}},
      {Point{47, 52}, Vec2{0.0, -0.03}},
      {Point{58, 45}, Vec2{-0.01, 0.02}},
  };
  MiniDeployment grouped(specs, WithGrouping(true));
  MiniDeployment ungrouped(specs, WithGrouping(false));
  std::vector<QueryId> qids_grouped;
  std::vector<QueryId> qids_ungrouped;
  for (double radius : {2.0, 3.5, 5.0}) {
    qids_grouped.push_back(*grouped.server().InstallQuery(0, radius, 1.0));
    qids_ungrouped.push_back(
        *ungrouped.server().InstallQuery(0, radius, 1.0));
  }
  for (int step = 0; step < 12; ++step) {
    grouped.Tick();
    ungrouped.Tick();
    for (size_t k = 0; k < qids_grouped.size(); ++k) {
      auto result_grouped = grouped.server().QueryResult(qids_grouped[k]);
      auto result_ungrouped =
          ungrouped.server().QueryResult(qids_ungrouped[k]);
      ASSERT_TRUE(result_grouped.ok());
      ASSERT_TRUE(result_ungrouped.ok());
      ASSERT_EQ(*result_grouped, *result_ungrouped)
          << "step " << step << " query " << k;
    }
  }
}

TEST(GroupingTest, LqtKeepsGroupsSortedByRadiusDescending) {
  MiniDeployment deployment({
      {Point{55, 55}},  // focal A
      {Point{45, 55}},  // focal B
      {Point{52, 55}},  // object monitoring both
  });
  ASSERT_TRUE(deployment.server().InstallQuery(0, 2.0, 1.0).ok());
  ASSERT_TRUE(deployment.server().InstallQuery(1, 5.0, 1.0).ok());
  ASSERT_TRUE(deployment.server().InstallQuery(0, 4.0, 1.0).ok());
  ASSERT_TRUE(deployment.server().InstallQuery(1, 3.0, 1.0).ok());

  const auto& lqt = deployment.fleet().lqt(2);
  ASSERT_EQ(lqt.size(), 4u);
  for (size_t k = 1; k < lqt.size(); ++k) {
    if (lqt[k].focal_oid == lqt[k - 1].focal_oid) {
      EXPECT_LE(lqt[k].region.MaxReach(), lqt[k - 1].region.MaxReach());
    } else {
      EXPECT_GT(lqt[k].focal_oid, lqt[k - 1].focal_oid);
    }
  }
}

TEST(GroupingTest, SkewedQueryDistributionStillCorrect) {
  // Many queries on one focal object (the skew §4.1 targets).
  MiniDeployment deployment({
      {Point{55, 55}},
      {Point{57, 55}},
  });
  std::vector<QueryId> qids;
  for (int k = 0; k < 10; ++k) {
    auto qid = deployment.server().InstallQuery(0, 1.0 + 0.5 * k, 1.0);
    ASSERT_TRUE(qid.ok());
    qids.push_back(*qid);
  }
  deployment.Tick();
  // Object 1 is 2 miles away: exactly queries with radius >= 2 contain it.
  for (int k = 0; k < 10; ++k) {
    double radius = 1.0 + 0.5 * k;
    EXPECT_EQ(deployment.server().QueryResult(qids[k])->contains(1),
              radius >= 2.0)
        << "radius " << radius;
  }
}

// A group larger than one 64-bit bitmap: every flip still reaches the
// server, whether the client reports it from evaluation (one group, split
// into 64-query chunks) or from dropping the entries on a cell crossing.
TEST(GroupingTest, FlipsOfMoreThanSixtyFourQueriesAreAllReported) {
  constexpr int kQueries = 65;
  MiniDeployment deployment({
      {Point{55, 55}},  // focal
      {Point{57, 55}},  // object: distance 2, inside every region
  });
  std::vector<QueryId> qids;
  for (int k = 0; k < kQueries; ++k) {
    auto qid = deployment.server().InstallQuery(0, 3.0 + 0.01 * k, 1.0);
    ASSERT_TRUE(qid.ok());
    qids.push_back(*qid);
  }
  ASSERT_EQ(deployment.fleet().lqt_size(1), static_cast<size_t>(kQueries));
  auto count_containing = [&] {
    int count = 0;
    for (QueryId qid : qids) {
      count += deployment.server().QueryResult(qid)->contains(1) ? 1 : 0;
    }
    return count;
  };

  deployment.Tick();
  EXPECT_EQ(count_containing(), kQueries) << "entered";

  // Still in the focal's cell, but outside every region.
  deployment.world().SetObjectState(1, Point{59.9, 55}, {});
  deployment.Tick();
  EXPECT_EQ(count_containing(), 0) << "left by evaluation";

  deployment.world().SetObjectState(1, Point{57, 55}, {});
  deployment.Tick();
  ASSERT_EQ(count_containing(), kQueries) << "re-entered";

  // Off the monitoring regions: the entries are dropped and reported.
  deployment.world().SetObjectState(1, Point{85, 55}, {});
  deployment.Tick();
  EXPECT_EQ(deployment.fleet().lqt_size(1), 0u);
  EXPECT_EQ(count_containing(), 0) << "left by cell crossing";
}

}  // namespace
}  // namespace mobieyes::core

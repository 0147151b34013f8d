#include <gtest/gtest.h>

#include "test_harness.h"

namespace mobieyes::core {
namespace {

using geo::CellCoord;
using geo::Point;
using geo::Vec2;
using test::MiniDeployment;
using test::ObjectSpec;

TEST(ServerTest, InstallQueryPopulatesServerState) {
  MiniDeployment deployment({
      {Point{55, 55}},  // focal
      {Point{57, 55}},  // inside region & monitoring region
      {Point{5, 5}},    // far away
  });
  auto qid = deployment.server().InstallQuery(0, 4.0, 1.0);
  ASSERT_TRUE(qid.ok()) << qid.status().ToString();

  const auto* entry = deployment.server().FindQuery(*qid);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->focal_oid, 0);
  EXPECT_EQ(entry->region, geo::QueryRegion::MakeCircle(4.0));
  EXPECT_EQ(entry->curr_cell, (CellCoord{5, 5}));
  // Radius 4 < alpha 10: the 3x3 block around the focal cell.
  EXPECT_EQ(entry->mon_region.CellCount(), 9);

  const auto* focal = deployment.server().FindFocal(0);
  ASSERT_NE(focal, nullptr);
  EXPECT_EQ(focal->queries.size(), 1u);
  EXPECT_DOUBLE_EQ(focal->state.pos.x, 55.0);

  // RQI registered over the monitoring region.
  EXPECT_EQ(deployment.server().QueriesForCell(CellCoord{5, 5}).size(), 1u);
  EXPECT_TRUE(deployment.server().QueriesForCell(CellCoord{0, 0}).empty());
}

TEST(ServerTest, InstallQuerySetsClientState) {
  MiniDeployment deployment({
      {Point{55, 55}},
      {Point{57, 55}},
      {Point{5, 5}},
  });
  auto qid = deployment.server().InstallQuery(0, 4.0, 1.0);
  ASSERT_TRUE(qid.ok());
  EXPECT_TRUE(deployment.fleet().has_mq(0));
  // Nearby object installed the query; distant object did not; the focal
  // object never monitors its own query.
  EXPECT_EQ(deployment.fleet().lqt_size(1), 1u);
  EXPECT_EQ(deployment.fleet().lqt_size(2), 0u);
  EXPECT_EQ(deployment.fleet().lqt_size(0), 0u);
}

TEST(ServerTest, InstallQueryRejectsNonPositiveRadius) {
  MiniDeployment deployment({ObjectSpec(Point{50, 50})});
  EXPECT_FALSE(deployment.server().InstallQuery(0, 0.0, 1.0).ok());
  EXPECT_FALSE(deployment.server().InstallQuery(0, -2.0, 1.0).ok());
}

TEST(ServerTest, InstallQueryForUnknownObjectFails) {
  MiniDeployment deployment({ObjectSpec(Point{50, 50})});
  // Object 9 does not exist, so the position request goes unanswered.
  auto qid = deployment.server().InstallQuery(9, 4.0, 1.0);
  EXPECT_EQ(qid.status().code(), StatusCode::kNotFound);
}

TEST(ServerTest, SecondQuerySameFocalSkipsPositionRequest) {
  MiniDeployment deployment({{Point{50, 50}}, {Point{52, 50}}});
  ASSERT_TRUE(deployment.server().InstallQuery(0, 3.0, 1.0).ok());
  uint64_t downlinks_before = deployment.network().stats().downlink_messages;
  uint64_t uplinks_before = deployment.network().stats().uplink_messages;
  ASSERT_TRUE(deployment.server().InstallQuery(0, 4.0, 1.0).ok());
  // No PositionVelocityRequest round trip this time: only the focal
  // notification and the install broadcast go out.
  EXPECT_EQ(deployment.network().stats().uplink_messages, uplinks_before);
  EXPECT_GE(deployment.network().stats().downlink_messages,
            downlinks_before + 2);
  const auto* focal = deployment.server().FindFocal(0);
  ASSERT_NE(focal, nullptr);
  EXPECT_EQ(focal->queries.size(), 2u);
}

TEST(ServerTest, ResultMaintainedDifferentially) {
  MiniDeployment deployment({
      {Point{55, 55}},                      // focal, stationary
      {Point{57, 55}, Vec2{0.01, 0.0}},     // target drifting away
  });
  auto qid = deployment.server().InstallQuery(0, 4.0, 1.0);
  ASSERT_TRUE(qid.ok());

  deployment.Tick();  // object 1 at 57.3: inside radius 4
  auto result = deployment.server().QueryResult(*qid);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->contains(1));

  // Drift out of the region: 57 + 0.01*30*k > 59 after ~7 steps.
  deployment.TickN(10);
  result = deployment.server().QueryResult(*qid);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->contains(1));
}

TEST(ServerTest, QueryResultUnknownIdIsNotFound) {
  MiniDeployment deployment({ObjectSpec(Point{50, 50})});
  EXPECT_EQ(deployment.server().QueryResult(123).status().code(),
            StatusCode::kNotFound);
}

TEST(ServerTest, RemoveQueryClearsServerAndClients) {
  MiniDeployment deployment({{Point{55, 55}}, {Point{57, 55}}});
  auto qid = deployment.server().InstallQuery(0, 4.0, 1.0);
  ASSERT_TRUE(qid.ok());
  ASSERT_EQ(deployment.fleet().lqt_size(1), 1u);

  ASSERT_TRUE(deployment.server().RemoveQuery(*qid).ok());
  EXPECT_EQ(deployment.server().FindQuery(*qid), nullptr);
  EXPECT_EQ(deployment.server().FindFocal(0), nullptr);
  EXPECT_FALSE(deployment.fleet().has_mq(0));
  EXPECT_EQ(deployment.fleet().lqt_size(1), 0u);
  EXPECT_TRUE(deployment.server().QueriesForCell(CellCoord{5, 5}).empty());
  EXPECT_EQ(deployment.server().RemoveQuery(*qid).code(),
            StatusCode::kNotFound);
}

TEST(ServerTest, VelocityChangeRelayedToMonitoringRegion) {
  MiniDeployment deployment({
      {Point{55, 55}, Vec2{0.0, 0.0}},  // focal
      {Point{65, 55}},                  // inside monitoring region
  });
  auto qid = deployment.server().InstallQuery(0, 4.0, 1.0);
  ASSERT_TRUE(qid.ok());

  // Give the focal a velocity kick; after one tick it drifts 3 miles from
  // the predicted (stationary) position, beyond Δ = 0.2.
  deployment.world().SetObjectState(0, Point{55, 55}, Vec2{0.1, 0.0});
  deployment.Tick();

  // The server's FOT reflects the new vector...
  const auto* focal = deployment.server().FindFocal(0);
  ASSERT_NE(focal, nullptr);
  EXPECT_DOUBLE_EQ(focal->state.vel.x, 0.1);
  // ...and so does the monitoring object's LQT entry.
  const auto& lqt = deployment.fleet().lqt(1);
  ASSERT_EQ(lqt.size(), 1u);
  EXPECT_DOUBLE_EQ(lqt[0].focal.vel.x, 0.1);
}

TEST(ServerTest, FocalCellChangeMovesMonitoringRegion) {
  MiniDeployment deployment({
      {Point{58, 55}, Vec2{0.1, 0.0}},  // focal moving right, crosses x=60
      {Point{45, 55}},                  // behind: leaves the region
      {Point{75, 55}},                  // ahead: enters the region
  });
  auto qid = deployment.server().InstallQuery(0, 4.0, 1.0);
  ASSERT_TRUE(qid.ok());
  EXPECT_EQ(deployment.fleet().lqt_size(1), 1u);
  EXPECT_EQ(deployment.fleet().lqt_size(2), 0u);

  deployment.Tick();  // focal reaches x=61: cell (6,5)

  const auto* entry = deployment.server().FindQuery(*qid);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->curr_cell, (CellCoord{6, 5}));
  EXPECT_EQ(entry->mon_region.i_lo, 5);
  EXPECT_EQ(entry->mon_region.i_hi, 7);
  // Object behind lost the query; the one ahead installed it.
  EXPECT_EQ(deployment.fleet().lqt_size(1), 0u);
  EXPECT_EQ(deployment.fleet().lqt_size(2), 1u);
}

TEST(ServerTest, NonFocalCellChangeGetsNewQueriesEagerly) {
  MiniDeployment deployment({
      {Point{55, 55}},                   // focal, stationary
      {Point{72, 55}, Vec2{-0.1, 0.0}},  // approaching from outside
  });
  auto qid = deployment.server().InstallQuery(0, 4.0, 1.0);
  ASSERT_TRUE(qid.ok());
  EXPECT_EQ(deployment.fleet().lqt_size(1), 0u);

  deployment.Tick();  // object 1 at x=69: cell (6,5), inside the region
  EXPECT_EQ(deployment.fleet().lqt_size(1), 1u);
}

TEST(ServerTest, ServerLoadTimerAccumulates) {
  MiniDeployment deployment({{Point{55, 55}}, {Point{57, 55}}});
  ASSERT_TRUE(deployment.server().InstallQuery(0, 4.0, 1.0).ok());
  deployment.TickN(3);
  EXPECT_GT(deployment.server().load_seconds(), 0.0);
  deployment.server().ResetLoadTimer();
  EXPECT_EQ(deployment.server().load_seconds(), 0.0);
}

TEST(ServerTest, MultipleQueriesDistinctIds) {
  MiniDeployment deployment({{Point{50, 50}}, {Point{20, 20}}});
  auto qid_a = deployment.server().InstallQuery(0, 3.0, 1.0);
  auto qid_b = deployment.server().InstallQuery(1, 3.0, 1.0);
  auto qid_c = deployment.server().InstallQuery(0, 5.0, 0.5);
  ASSERT_TRUE(qid_a.ok());
  ASSERT_TRUE(qid_b.ok());
  ASSERT_TRUE(qid_c.ok());
  EXPECT_NE(*qid_a, *qid_b);
  EXPECT_NE(*qid_a, *qid_c);
  EXPECT_EQ(deployment.server().query_count(), 3u);
}

}  // namespace
}  // namespace mobieyes::core

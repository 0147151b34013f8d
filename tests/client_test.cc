#include <gtest/gtest.h>

#include "mobieyes/net/message.h"
#include "test_harness.h"

namespace mobieyes::core {
namespace {

using geo::Point;
using geo::Vec2;
using test::MiniDeployment;
using test::ObjectSpec;

TEST(ClientTest, TargetFlipReportedOnEntry) {
  MiniDeployment deployment({
      {Point{55, 55}},                   // focal
      {Point{62, 55}, Vec2{-0.1, 0.0}},  // approaching target
  });
  auto qid = deployment.server().InstallQuery(0, 4.0, 1.0);
  ASSERT_TRUE(qid.ok());
  EXPECT_EQ(deployment.fleet().IsTargetOf(1, *qid), std::optional<bool>(false));

  deployment.Tick();  // x=59: inside radius 4
  EXPECT_EQ(deployment.fleet().IsTargetOf(1, *qid), std::optional<bool>(true));
  EXPECT_TRUE(deployment.server().QueryResult(*qid)->contains(1));
}

TEST(ClientTest, NoReportWithoutChange) {
  MiniDeployment deployment({
      {Point{55, 55}},  // focal, stationary
      {Point{57, 55}},  // target, stationary inside region
  });
  auto qid = deployment.server().InstallQuery(0, 4.0, 1.0);
  ASSERT_TRUE(qid.ok());
  deployment.Tick();  // first evaluation: flips to target, one report
  uint64_t uplinks_after_first = deployment.network().stats().uplink_messages;
  deployment.TickN(5);  // nothing changes: no further reports
  EXPECT_EQ(deployment.network().stats().uplink_messages,
            uplinks_after_first);
}

TEST(ClientTest, FilterBlocksInstallation) {
  MiniDeployment deployment({
      {Point{55, 55}},                 // focal
      {Point{57, 55}, {}, 1.0, 0.9},   // attr 0.9 > threshold 0.5
      {Point{53, 55}, {}, 1.0, 0.3},   // attr 0.3 <= 0.5
  });
  auto qid = deployment.server().InstallQuery(0, 4.0, 0.5);
  ASSERT_TRUE(qid.ok());
  EXPECT_EQ(deployment.fleet().lqt_size(1), 0u);
  EXPECT_EQ(deployment.fleet().lqt_size(2), 1u);
  deployment.Tick();
  auto result = deployment.server().QueryResult(*qid);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->contains(1));
  EXPECT_TRUE(result->contains(2));
}

TEST(ClientTest, DeadReckoningSuppressesRedundantReports) {
  // A focal object moving with a constant velocity vector never drifts from
  // its own prediction, so it sends no velocity-change reports.
  MiniDeployment deployment({
      {Point{20, 20}, Vec2{0.05, 0.0}},  // focal, constant velocity
      {Point{23, 20}, Vec2{0.05, 0.0}},  // target moving in lockstep
  });
  auto qid = deployment.server().InstallQuery(0, 5.0, 1.0);
  ASSERT_TRUE(qid.ok());
  deployment.Tick();  // initial flip report from object 1
  uint64_t uplinks = deployment.network().stats().uplink_messages;
  deployment.TickN(3);  // constant motion, no cell crossing before x=30
  EXPECT_EQ(deployment.network().stats().uplink_messages, uplinks);
}

TEST(ClientTest, DeadReckoningFiresOnVelocityChange) {
  MiniDeployment deployment({
      {Point{25, 25}},  // focal, initially stationary
      {Point{28, 25}},
  });
  ASSERT_TRUE(deployment.server().InstallQuery(0, 5.0, 1.0).ok());
  deployment.Tick();
  uint64_t uplinks = deployment.network().stats().uplink_messages;

  // Kick the focal: 0.05 mi/s * 30 s = 1.5 miles of drift > Δ = 0.2.
  deployment.world().SetObjectState(0, deployment.world().object(0).pos,
                                    Vec2{0.05, 0.0});
  deployment.Tick();
  EXPECT_GT(deployment.network().stats().uplink_messages, uplinks);
  const auto* focal = deployment.server().FindFocal(0);
  ASSERT_NE(focal, nullptr);
  EXPECT_DOUBLE_EQ(focal->state.vel.x, 0.05);
}

TEST(ClientTest, PredictionKeepsResultExactUnderConstantVelocity) {
  // Target evaluates against the *predicted* focal position; with constant
  // focal velocity the prediction is exact, so containment matches ground
  // truth each step.
  MiniDeployment deployment({
      {Point{20, 50}, Vec2{0.05, 0.0}},  // focal moving right
      {Point{26, 50}},                   // stationary object in its path
  });
  auto qid = deployment.server().InstallQuery(0, 3.0, 1.0);
  ASSERT_TRUE(qid.ok());

  deployment.Tick();  // focal at 21.5, distance 4.5 > 3
  EXPECT_FALSE(deployment.server().QueryResult(*qid)->contains(1));
  deployment.TickN(2);  // focal at 24.5, distance 1.5 <= 3
  EXPECT_TRUE(deployment.server().QueryResult(*qid)->contains(1));
  deployment.TickN(4);  // focal at 30.5 — crossed a cell; still 4.5 > 3
  EXPECT_FALSE(deployment.server().QueryResult(*qid)->contains(1));
}

TEST(ClientTest, LeavingMonitoringRegionDropsAndReports) {
  MiniDeployment deployment({
      {Point{55, 55}},                  // focal
      {Point{56, 55}, Vec2{0.2, 0.0}},  // target speeding away
  });
  auto qid = deployment.server().InstallQuery(0, 4.0, 1.0);
  ASSERT_TRUE(qid.ok());
  // Force an immediate in-region evaluation so the object is a target.
  deployment.fleet().Tick();
  ASSERT_TRUE(deployment.server().QueryResult(*qid)->contains(1));

  // 0.2 mi/s * 30 s = 6 miles per tick; after 3 ticks x=74, cell (7,5) —
  // outside the monitoring region columns [4,6].
  deployment.TickN(3);
  EXPECT_EQ(deployment.fleet().lqt_size(1), 0u);
  EXPECT_FALSE(deployment.server().QueryResult(*qid)->contains(1));
}

TEST(ClientTest, ReenteringRegionReinstallsEagerly) {
  MiniDeployment deployment({
      {Point{55, 55}},                   // focal
      {Point{75, 55}, Vec2{-0.15, 0.0}},  // sweeping through the region
  });
  auto qid = deployment.server().InstallQuery(0, 4.0, 1.0);
  ASSERT_TRUE(qid.ok());
  EXPECT_EQ(deployment.fleet().lqt_size(1), 0u);

  deployment.Tick();  // x=70.5, cell (7,5): still outside
  EXPECT_EQ(deployment.fleet().lqt_size(1), 0u);
  deployment.Tick();  // x=66, cell (6,5): inside region -> installed
  EXPECT_EQ(deployment.fleet().lqt_size(1), 1u);
  deployment.TickN(2);  // x=57: inside the circle
  EXPECT_TRUE(deployment.server().QueryResult(*qid)->contains(1));
}

TEST(ClientTest, BoundaryContainmentIsInclusive) {
  MiniDeployment deployment({
      {Point{50, 50}},
      {Point{54, 50}},  // exactly on the radius-4 boundary
  });
  auto qid = deployment.server().InstallQuery(0, 4.0, 1.0);
  ASSERT_TRUE(qid.ok());
  deployment.fleet().Tick();
  EXPECT_EQ(deployment.fleet().IsTargetOf(1, *qid), std::optional<bool>(true));
}

TEST(ClientTest, IsTargetOfUnknownQueryIsNullopt) {
  MiniDeployment deployment({ObjectSpec(Point{50, 50})});
  EXPECT_EQ(deployment.fleet().IsTargetOf(0, 99), std::nullopt);
}

TEST(ClientTest, ProcessingCountersTrackEvaluations) {
  MiniDeployment deployment({
      {Point{55, 55}},
      {Point{57, 55}},
  });
  ASSERT_TRUE(deployment.server().InstallQuery(0, 4.0, 1.0).ok());
  deployment.TickN(4);
  EXPECT_EQ(deployment.fleet().queries_evaluated(), 4u);
  EXPECT_GT(deployment.fleet().processing_seconds(), 0.0);
  deployment.fleet().ResetCounters();
  EXPECT_EQ(deployment.fleet().queries_evaluated(), 0u);
  EXPECT_EQ(deployment.fleet().processing_seconds(), 0.0);
}

// After any LQT erase, the next fleet tick leaves the LQT slab within twice
// its live rows plus a fixed slack, and its buffers within a fixed multiple
// of that, on every path that erases rows: otherwise the slab keeps room
// for the largest LQTs the fleet ever held, and its memory grows with the
// length of the run.
TEST(ClientTest, EveryLqtErasePathGivesCapacityBack) {
  MobiEyesOptions options;
  options.lease_duration = 30.0;  // an unrefreshed entry lapses after 60 s
  MiniDeployment deployment({{Point{55, 55}}, {Point{5, 5}}}, options);
  ClientFleet& fleet = deployment.fleet();
  MobiEyesClient& client = deployment.client(0);
  const LqtSlab& slab = fleet.slab();
  const geo::CellRange everywhere{0, 9, 0, 9};
  const geo::CellRange home{5, 5, 5, 5};  // object 0's cell only
  // Large enough that neither the slack nor the capacity the slab keeps
  // for a steady state can absorb a burst.
  constexpr int kBurst = 16 * static_cast<int>(LqtSlab::kCompactionSlack);

  QueryId next_qid = 1;
  auto info_for = [](QueryId qid, const geo::CellRange& mon_region) {
    net::QueryInfo info;
    info.qid = qid;
    info.focal_oid = 1;
    info.region = geo::QueryRegion::MakeCircle(4.0);
    info.mon_region = mon_region;
    return info;
  };
  // Installs a burst of queries bound to object 1 through one broadcast.
  auto install_burst = [&](const geo::CellRange& mon_region) {
    net::QueryInstallBroadcast broadcast;
    for (int k = 0; k < kBurst; ++k) {
      broadcast.queries.push_back(info_for(next_qid++, mon_region));
    }
    client.OnDownlink(net::MakeMessage(broadcast));
    ASSERT_GE(slab.slab_capacity(), static_cast<size_t>(kBurst));
  };
  auto expect_bound = [&](const char* path) {
    fleet.Tick();  // compaction runs between object turns
    const size_t bound = 2 * slab.live_rows() + LqtSlab::kCompactionSlack;
    EXPECT_LE(slab.slab_rows(), bound) << path;
    EXPECT_LE(slab.slab_capacity(), 2 * LqtSlab::kKeptCapacity * bound)
        << path;  // two buffers
  };

  install_burst(everywhere);  // qids 1..kBurst
  net::QueryRemoveBroadcast remove;
  for (QueryId qid = 1; qid <= kBurst - 4; ++qid) remove.qids.push_back(qid);
  client.OnDownlink(net::MakeMessage(remove));
  ASSERT_EQ(fleet.lqt_size(0), 4u);
  expect_bound("remove broadcast");

  install_burst(everywhere);
  net::QueryUpdateBroadcast update;  // their regions moved off this cell
  for (QueryId qid = kBurst + 1; qid <= 2 * kBurst; ++qid) {
    update.queries.push_back(info_for(qid, geo::CellRange{0, 0, 0, 0}));
  }
  client.OnDownlink(net::MakeMessage(update));
  ASSERT_EQ(fleet.lqt_size(0), 4u);
  expect_bound("stale update entries");

  install_burst(home);
  deployment.world().SetObjectState(0, Point{65, 55}, {});
  fleet.Tick();  // object 0 crosses into cell (6, 5)
  ASSERT_EQ(fleet.lqt_size(0), 4u);
  expect_bound("cell crossing");

  install_burst(everywhere);
  deployment.TickN(2);  // 60 s without a refresh: every lease lapses
  ASSERT_EQ(fleet.lqt_size(0), 0u);
  expect_bound("lease expiry");

  install_burst(everywhere);
  fleet.Reset(0);
  ASSERT_EQ(fleet.lqt_size(0), 0u);
  expect_bound("reset");
}

}  // namespace
}  // namespace mobieyes::core

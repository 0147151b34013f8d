// Robustness of the moving-object client against out-of-order, duplicate
// and stale protocol messages — conditions a real wireless deployment
// produces routinely.

#include <gtest/gtest.h>

#include "mobieyes/net/message.h"
#include "test_harness.h"

namespace mobieyes::core {
namespace {

using geo::Point;
using geo::Vec2;
using net::MakeMessage;
using net::QueryInfo;
using test::MiniDeployment;
using test::ObjectSpec;

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

TEST(ClientRobustnessTest, DuplicateInstallBroadcastIsIdempotent) {
  MiniDeployment deployment({{Point{55, 55}}, {Point{57, 55}}});
  auto qid = deployment.server().InstallQuery(0, 4.0, 1.0);
  ASSERT_TRUE(qid.ok());
  ASSERT_EQ(deployment.fleet().lqt_size(1), 1u);

  net::QueryInstallBroadcast duplicate;
  duplicate.queries.push_back(InfoFor(deployment, *qid));
  deployment.client(1).OnDownlink(MakeMessage(duplicate));
  deployment.client(1).OnDownlink(MakeMessage(duplicate));
  EXPECT_EQ(deployment.fleet().lqt_size(1), 1u);
}

TEST(ClientRobustnessTest, VelocityBroadcastForUnknownFocalIsIgnored) {
  MiniDeployment deployment({ObjectSpec(Point{55, 55})});
  net::VelocityChangeBroadcast broadcast;
  broadcast.focal_oid = 999;  // never installed
  broadcast.state = net::FocalState{Point{1, 1}, Vec2{1, 1}, 0.0};
  deployment.client(0).OnDownlink(MakeMessage(broadcast));
  EXPECT_EQ(deployment.fleet().lqt_size(0), 0u);
}

TEST(ClientRobustnessTest, UpdateBroadcastForUninstalledQueryInstallsIfDue) {
  // A QueryUpdateBroadcast can be the first a client hears of a query (it
  // entered the union region exactly as the focal moved). It must install.
  MiniDeployment deployment({{Point{55, 55}}, {Point{57, 55}}});
  auto qid = deployment.server().InstallQuery(0, 4.0, 1.0);
  ASSERT_TRUE(qid.ok());

  net::QueryUpdateBroadcast update;
  update.queries.push_back(InfoFor(deployment, *qid));
  // Forget the entry first to simulate the missed install.
  net::QueryRemoveBroadcast forget;
  forget.qids.push_back(*qid);
  deployment.client(1).OnDownlink(MakeMessage(forget));
  ASSERT_EQ(deployment.fleet().lqt_size(1), 0u);
  deployment.client(1).OnDownlink(MakeMessage(update));
  EXPECT_EQ(deployment.fleet().lqt_size(1), 1u);
}

TEST(ClientRobustnessTest, RemoveBroadcastForUnknownQueryIsIgnored) {
  MiniDeployment deployment({ObjectSpec(Point{55, 55})});
  net::QueryRemoveBroadcast remove;
  remove.qids = {123, 456};
  deployment.client(0).OnDownlink(MakeMessage(remove));  // no crash
  EXPECT_EQ(deployment.fleet().lqt_size(0), 0u);
}

TEST(ClientRobustnessTest, UplinkTypesOnDownlinkAreIgnored) {
  MiniDeployment deployment({ObjectSpec(Point{55, 55})});
  // A confused medium delivers an uplink-only payload to a client.
  deployment.client(0).OnDownlink(
      MakeMessage(net::CellChangeReport{0, {0, 0}, {1, 1}}));
  deployment.client(0).OnDownlink(
      MakeMessage(net::PositionReport{0, Point{1, 1}}));
  EXPECT_EQ(deployment.fleet().lqt_size(0), 0u);
  EXPECT_FALSE(deployment.fleet().has_mq(0));
}

TEST(ClientRobustnessTest, InstallOutsideMonitoringRegionIsRejected) {
  MiniDeployment deployment({{Point{55, 55}}, {Point{5, 5}}});
  auto qid = deployment.server().InstallQuery(0, 4.0, 1.0);
  ASSERT_TRUE(qid.ok());
  // Deliver the install directly to the far-away client: its cell is not
  // covered, so it must discard the message (paper §3.3).
  net::QueryInstallBroadcast broadcast;
  broadcast.queries.push_back(InfoFor(deployment, *qid));
  deployment.client(1).OnDownlink(MakeMessage(broadcast));
  EXPECT_EQ(deployment.fleet().lqt_size(1), 0u);
}

TEST(ClientRobustnessTest, RepeatedFocalNotificationsAreStable) {
  MiniDeployment deployment({ObjectSpec(Point{55, 55})});
  deployment.client(0).OnDownlink(MakeMessage(net::FocalNotification{0, 5}));
  EXPECT_TRUE(deployment.fleet().has_mq(0));
  deployment.client(0).OnDownlink(MakeMessage(net::FocalNotification{0, 6}));
  EXPECT_TRUE(deployment.fleet().has_mq(0));
  deployment.client(0).OnDownlink(
      MakeMessage(net::FocalNotification{0, kInvalidQueryId}));
  EXPECT_FALSE(deployment.fleet().has_mq(0));
}

TEST(ClientRobustnessTest, AckForUnknownSequenceIsIgnored) {
  core::MobiEyesOptions options;
  options.enable_reliable_uplink = true;
  MiniDeployment deployment({ObjectSpec(Point{55, 55})}, options);
  // A stray (or very late) ack must not crash or disturb tracking state.
  deployment.client(0).OnDownlink(MakeMessage(net::UplinkAck{0, 99}));
  EXPECT_EQ(deployment.client(0).pending_uplinks(), 0u);
}

TEST(ClientRobustnessTest, AckWithoutReliableUplinkIsIgnored) {
  MiniDeployment deployment({ObjectSpec(Point{55, 55})});
  deployment.client(0).OnDownlink(MakeMessage(net::UplinkAck{0, 1}));
  EXPECT_EQ(deployment.client(0).pending_uplinks(), 0u);
  EXPECT_EQ(deployment.fleet().lqt_size(0), 0u);
}

TEST(ClientRobustnessTest, ReconcileRequestOnDownlinkIsIgnored) {
  MiniDeployment deployment({ObjectSpec(Point{55, 55})});
  net::LqtReconcileRequest request;
  request.oid = 0;
  request.known_qids = {1, 2};
  deployment.client(0).OnDownlink(MakeMessage(request));  // uplink-only type
  EXPECT_EQ(deployment.fleet().lqt_size(0), 0u);
}

TEST(ClientRobustnessTest, ServerIgnoresUnknownUplinks) {
  MiniDeployment deployment({ObjectSpec(Point{55, 55})});
  // Reports referencing unknown objects/queries must not corrupt state.
  deployment.server().OnUplink(
      9, MakeMessage(net::VelocityChangeReport{
             9, net::FocalState{Point{1, 1}, Vec2{}, 0.0}}));
  deployment.server().OnUplink(
      9, MakeMessage(net::CellChangeReport{9, {0, 0}, {1, 1}}));
  net::ResultBitmapReport report;
  report.oid = 9;
  report.qids = {77};
  report.bitmap = 1;
  deployment.server().OnUplink(9, MakeMessage(report));
  EXPECT_EQ(deployment.server().query_count(), 0u);
  // Downlink-only types on the uplink are ignored too.
  deployment.server().OnUplink(
      9, MakeMessage(net::FocalNotification{9, 1}));
  EXPECT_EQ(deployment.server().FindFocal(9), nullptr);
}

}  // namespace
}  // namespace mobieyes::core

// Fault-injection network layer and protocol hardening: deterministic
// drops/delays/duplicates/outages/disconnects, the ack+retry uplink path,
// soft-state lease re-broadcasts, reconciliation after disconnects, and the
// end-to-end accuracy-under-loss guarantee the hardened protocol ships.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "mobieyes/net/fault_injection.h"
#include "mobieyes/net/message.h"
#include "mobieyes/net/network.h"
#include "mobieyes/sim/simulation.h"
#include "test_harness.h"

namespace mobieyes::net {
namespace {

using geo::Point;
using geo::Vec2;
using test::MiniDeployment;
using test::ObjectSpec;

uint64_t DroppedOfType(const NetworkStats& stats, MessageType type) {
  return stats.dropped_by_type[static_cast<size_t>(type)];
}

// --- FaultyNetwork unit behavior --------------------------------------------

TEST(FaultInjectionTest, InactivePlanInjectsNothing) {
  FaultPlan plan;
  EXPECT_FALSE(plan.active());
  plan.uplink_drop_rate = 0.5;
  EXPECT_TRUE(plan.active());
}

TEST(FaultInjectionTest, FaultsStartOnlyAfterFirstAdvanceStep) {
  FaultPlan plan;
  plan.uplink_drop_rate = 1.0;
  FaultyNetwork network(plan);
  int server_heard = 0;
  network.set_server_handler(
      [&](ObjectId, const Message&) { ++server_heard; });

  // Before the clock starts (setup time) everything passes through.
  network.SendUplink(0, MakeMessage(PositionReport{0, Point{1, 1}}));
  EXPECT_EQ(server_heard, 1);
  EXPECT_EQ(network.stats().uplink_dropped, 0u);

  network.AdvanceStep(0);
  network.SendUplink(0, MakeMessage(PositionReport{0, Point{1, 1}}));
  EXPECT_EQ(server_heard, 1);
  EXPECT_EQ(network.stats().uplink_dropped, 1u);
  // Dropped messages never reached the medium.
  EXPECT_EQ(network.stats().uplink_messages, 1u);
  EXPECT_EQ(DroppedOfType(network.stats(), MessageType::kPositionReport), 1u);
}

TEST(FaultInjectionTest, DelayDefersDeliveryUntilDueStep) {
  FaultPlan plan;
  plan.delay_rate = 1.0;
  plan.max_delay_steps = 1;  // every message is delayed by exactly one step
  FaultyNetwork network(plan);
  int received = 0;
  network.RegisterClient(7, [&](const Message&) { ++received; });
  network.AdvanceStep(0);

  EXPECT_TRUE(network.SendDownlinkTo(7, MakeMessage(FocalNotification{7, 1})));
  EXPECT_EQ(received, 0);  // in flight
  network.AdvanceStep(1);
  EXPECT_EQ(received, 1);
  EXPECT_EQ(network.stats().delayed_messages, 1u);
  EXPECT_EQ(network.stats().downlink_messages, 1u);
}

TEST(FaultInjectionTest, DuplicateDeliversTwice) {
  FaultPlan plan;
  plan.duplicate_rate = 1.0;
  FaultyNetwork network(plan);
  int received = 0;
  network.RegisterClient(3, [&](const Message&) { ++received; });
  network.AdvanceStep(0);

  network.SendDownlinkTo(3, MakeMessage(FocalNotification{3, 1}));
  EXPECT_EQ(received, 2);
  EXPECT_EQ(network.stats().duplicated_messages, 1u);
  // Both copies count as transmissions on the medium.
  EXPECT_EQ(network.stats().downlink_messages, 2u);
}

TEST(FaultInjectionTest, OutageSilencesBroadcastsWhole) {
  FaultPlan plan;
  plan.outage_period_steps = 1;  // duration == period: permanently dark
  plan.outage_duration_steps = 1;
  FaultyNetwork network(plan);
  test::BroadcastRecorder recorder;
  network.set_broadcast_receiver(&recorder);
  network.set_coverage_query(
      [](const geo::Circle&, const std::function<void(ObjectId)>& fn) {
        fn(0);
      });
  BaseStation station{0, geo::Circle{Point{50, 50}, 30.0}};
  // Before the fault clock starts the station is lit and 0 hears it.
  network.Broadcast(station, MakeMessage(QueryRemoveBroadcast{{1}}));
  EXPECT_EQ(recorder.deliveries(0), 1);
  network.ResetStats();
  network.AdvanceStep(0);
  EXPECT_TRUE(network.InOutage(0, 0));

  network.Broadcast(station, MakeMessage(QueryRemoveBroadcast{{1}}));
  EXPECT_EQ(recorder.deliveries(0), 1);
  EXPECT_EQ(network.stats().broadcast_dropped, 1u);
  EXPECT_EQ(network.stats().broadcast_messages, 0u);
  EXPECT_EQ(network.stats().broadcast_receptions, 0u);
}

TEST(FaultInjectionTest, ForcedDisconnectWindowCutsBothDirections) {
  FaultPlan plan;
  plan.forced_disconnect_oid = 4;
  plan.forced_disconnect_from = 1;
  plan.forced_disconnect_until = 3;
  FaultyNetwork network(plan);
  int uplinks = 0;
  int downlinks = 0;
  network.set_server_handler([&](ObjectId, const Message&) { ++uplinks; });
  network.RegisterClient(4, [&](const Message&) { ++downlinks; });

  EXPECT_FALSE(network.IsDisconnected(4, 0));
  EXPECT_TRUE(network.IsDisconnected(4, 1));
  EXPECT_TRUE(network.IsDisconnected(4, 2));
  EXPECT_FALSE(network.IsDisconnected(4, 3));
  EXPECT_FALSE(network.IsDisconnected(5, 1));  // other objects unaffected

  network.AdvanceStep(1);
  network.SendUplink(4, MakeMessage(PositionReport{4, Point{1, 1}}));
  EXPECT_FALSE(network.SendDownlinkTo(4, MakeMessage(FocalNotification{4, 1})));
  EXPECT_EQ(uplinks, 0);
  EXPECT_EQ(downlinks, 0);
  EXPECT_EQ(network.stats().uplink_dropped, 1u);
  // A downlink into a disconnected endpoint is a dead-endpoint loss, kept
  // apart from the injected link drops.
  EXPECT_EQ(network.stats().downlink_dropped, 0u);
  EXPECT_EQ(network.stats().undeliverable_by_reason[static_cast<size_t>(
                NetworkStats::UndeliverableReason::kReceiverDisconnected)],
            1u);
  EXPECT_GE(network.stats().disconnect_events, 1u);

  network.AdvanceStep(3);  // window over
  network.SendUplink(4, MakeMessage(PositionReport{4, Point{1, 1}}));
  EXPECT_TRUE(network.SendDownlinkTo(4, MakeMessage(FocalNotification{4, 1})));
  EXPECT_EQ(uplinks, 1);
  EXPECT_EQ(downlinks, 1);
}

TEST(FaultInjectionTest, UndeliverableDownlinkReturnsFalseAndCounts) {
  WirelessNetwork network;  // plain network: a routing failure, not a fault
  EXPECT_FALSE(network.SendDownlinkTo(9, MakeMessage(FocalNotification{9, 1})));
  EXPECT_EQ(network.stats().undeliverable_downlinks, 1u);
  // The transmission itself still happened and is counted.
  EXPECT_EQ(network.stats().downlink_messages, 1u);

  int received = 0;
  network.RegisterClient(9, [&](const Message&) { ++received; });
  EXPECT_TRUE(network.SendDownlinkTo(9, MakeMessage(FocalNotification{9, 1})));
  EXPECT_EQ(received, 1);
  EXPECT_EQ(network.stats().undeliverable_downlinks, 1u);
}

// --- Determinism ------------------------------------------------------------

// A FaultyNetwork whose plan can fire but never does must leave traffic
// exactly as the plain network would: same deliveries, same stats, no
// spurious fault accounting.
TEST(FaultInjectionTest, HarmlessPlanMatchesPlainNetworkExactly) {
  FaultPlan harmless;
  harmless.forced_disconnect_oid = 0;
  harmless.forced_disconnect_from = 1000;  // never reached in this test
  harmless.forced_disconnect_until = 1001;
  ASSERT_TRUE(harmless.active());

  std::vector<ObjectSpec> specs = {{Point{55, 55}, Vec2{0.05, 0}},
                                   {Point{57, 55}},
                                   {Point{35, 55}, Vec2{-0.05, 0}}};
  MiniDeployment plain(specs);
  MiniDeployment faulted(specs, {}, 10.0, 20.0, harmless);
  ASSERT_NE(faulted.faulty_network(), nullptr);

  ASSERT_TRUE(plain.server().InstallQuery(0, 4.0, 1.0).ok());
  ASSERT_TRUE(faulted.server().InstallQuery(0, 4.0, 1.0).ok());
  plain.TickN(6);
  faulted.TickN(6);

  const NetworkStats& a = plain.network().stats();
  const NetworkStats& b = faulted.network().stats();
  EXPECT_EQ(a.uplink_messages, b.uplink_messages);
  EXPECT_EQ(a.downlink_messages, b.downlink_messages);
  EXPECT_EQ(a.broadcast_messages, b.broadcast_messages);
  EXPECT_EQ(a.uplink_bytes, b.uplink_bytes);
  EXPECT_EQ(a.downlink_bytes, b.downlink_bytes);
  EXPECT_EQ(a.broadcast_receptions, b.broadcast_receptions);
  EXPECT_EQ(b.total_dropped(), 0u);
  EXPECT_EQ(b.delayed_messages, 0u);
  EXPECT_EQ(b.duplicated_messages, 0u);
  for (size_t k = 0; k < specs.size(); ++k) {
    EXPECT_EQ(plain.fleet().lqt_size(static_cast<ObjectId>(k)),
              faulted.fleet().lqt_size(static_cast<ObjectId>(k)));
  }
}

TEST(FaultInjectionTest, SameSeedSameFaults) {
  FaultPlan plan;
  plan.seed = 99;
  plan.uplink_drop_rate = 0.3;
  plan.downlink_drop_rate = 0.3;
  plan.delay_rate = 0.2;
  plan.max_delay_steps = 2;
  plan.duplicate_rate = 0.1;

  std::vector<ObjectSpec> specs = {{Point{55, 55}, Vec2{0.05, 0}},
                                   {Point{57, 55}},
                                   {Point{53, 55}, Vec2{0.03, 0.03}}};
  auto run = [&specs, &plan]() {
    MiniDeployment deployment(specs, {}, 10.0, 20.0, plan);
    EXPECT_TRUE(deployment.server().InstallQuery(0, 4.0, 1.0).ok());
    deployment.TickN(10);
    return deployment.network().stats();
  };
  NetworkStats first = run();
  NetworkStats second = run();
  EXPECT_EQ(first.uplink_messages, second.uplink_messages);
  EXPECT_EQ(first.downlink_messages, second.downlink_messages);
  EXPECT_EQ(first.uplink_dropped, second.uplink_dropped);
  EXPECT_EQ(first.downlink_dropped, second.downlink_dropped);
  EXPECT_EQ(first.broadcast_dropped, second.broadcast_dropped);
  EXPECT_EQ(first.delayed_messages, second.delayed_messages);
  EXPECT_EQ(first.duplicated_messages, second.duplicated_messages);
  EXPECT_GT(first.total_dropped(), 0u);  // the plan actually fired
}

// --- Protocol hardening -----------------------------------------------------

TEST(FaultInjectionTest, ReliableUplinkAcksClearPendingInline) {
  core::MobiEyesOptions options;
  options.enable_reliable_uplink = true;
  // One object crossing a cell boundary; the fault-free ack round trip is
  // synchronous, so nothing stays pending.
  MiniDeployment deployment({{Point{15, 55}, Vec2{0.1, 0}}}, options);
  deployment.TickN(2);  // crosses x=20 on the second tick
  EXPECT_GT(deployment.network()
                .stats()
                .messages_by_type[static_cast<size_t>(
                    MessageType::kCellChangeReport)],
            0u);
  EXPECT_GT(deployment.network()
                .stats()
                .messages_by_type[static_cast<size_t>(MessageType::kUplinkAck)],
            0u);
  EXPECT_EQ(deployment.client(0).pending_uplinks(), 0u);
}

TEST(FaultInjectionTest, RetryAttemptsAreBoundedByBudget) {
  core::MobiEyesOptions options;
  options.enable_reliable_uplink = true;
  FaultPlan plan;
  plan.uplink_drop_rate = 1.0;  // the server never hears anything
  MiniDeployment deployment({{Point{15, 55}, Vec2{0.1, 0}}}, options, 10.0,
                            20.0, plan);

  deployment.TickN(2);  // crossing reported (and dropped) on the second tick
  ASSERT_EQ(deployment.client(0).pending_uplinks(), 1u);
  ASSERT_EQ(DroppedOfType(deployment.network().stats(),
                          MessageType::kCellChangeReport),
            1u);
  // Freeze the world (dt = 0) so only the retry clock advances: with a
  // backoff of 1 tick, doubling, the 4 retries leave 1, 3, 7 and 15 ticks
  // after the first send and the entry is abandoned at 31 — never more than
  // 1 + 4 transmissions.
  for (int k = 0; k < 40; ++k) deployment.Tick(0.0);
  EXPECT_EQ(DroppedOfType(deployment.network().stats(),
                          MessageType::kCellChangeReport),
            5u);
  EXPECT_EQ(deployment.client(0).pending_uplinks(), 0u);
}

// A flip report that covers some of a lost report's queries supersedes only
// those: the lost report's other queries keep their retransmission.
TEST(FaultInjectionTest, PartialFlipReportKeepsRetryOfTheOtherQueries) {
  core::MobiEyesOptions options;  // grouping on; leases, reconciliation off
  options.enable_reliable_uplink = true;
  MiniDeployment deployment({{Point{59, 55}}, {Point{85, 55}}}, options);
  auto qa = deployment.server().InstallQuery(0, 4.0, 1.0);   // cells 4-6
  auto qb = deployment.server().InstallQuery(0, 12.0, 1.0);  // cells 3-7
  ASSERT_TRUE(qa.ok());
  ASSERT_TRUE(qb.ok());
  // The server never hears object 1's first bitmap report.
  bool dropped = false;
  deployment.network().set_server_handler(
      [&](ObjectId from, const Message& message) {
        if (!dropped && from == 1 &&
            message.type == MessageType::kResultBitmapReport) {
          dropped = true;
          return;
        }
        deployment.server().OnUplink(from, message);
      });
  auto in_result = [&](QueryId qid) {
    return deployment.server().QueryResult(qid)->contains(1);
  };

  // Into cell 6 at distance 3: both queries install, and the group report
  // {qb, qa} is lost.
  deployment.world().SetObjectState(1, Point{62, 55}, {});
  deployment.Tick();
  ASSERT_TRUE(dropped);
  ASSERT_EQ(deployment.fleet().lqt_size(1), 2u);
  ASSERT_FALSE(in_result(*qb));

  // Out of qa's monitoring region, still inside qb: the flip report {qa}
  // must not cancel qb's retransmission.
  deployment.world().SetObjectState(1, Point{70, 55}, {});
  deployment.TickN(6);
  EXPECT_FALSE(in_result(*qa));
  EXPECT_TRUE(in_result(*qb));
  EXPECT_EQ(deployment.client(1).pending_uplinks(), 0u);
}

// Two uplinks lost in one tick are both due on the next. Each retransmission
// is acknowledged inside its own send, which removes its pending entry; the
// other due entry must still go out in the same tick.
TEST(FaultInjectionTest, RetryResendsEveryDueUplinkWhenAnAckLandsMidLoop) {
  core::MobiEyesOptions options;  // leases and reconciliation off
  options.enable_reliable_uplink = true;
  MiniDeployment deployment({{Point{55, 55}}, {Point{48, 55}}}, options);
  auto qid = deployment.server().InstallQuery(0, 4.0, 1.0);  // cells 4-6
  ASSERT_TRUE(qid.ok());
  deployment.Tick();
  ASSERT_EQ(deployment.fleet().lqt_size(1), 1u);

  bool link_down = true;
  int lost = 0;
  int resent = 0;
  deployment.network().set_server_handler(
      [&](ObjectId from, const Message& message) {
        const bool tracked =
            message.type == MessageType::kCellChangeReport ||
            message.type == MessageType::kResultBitmapReport;
        if (from == 1 && tracked) {
          if (link_down) {
            ++lost;
            return;
          }
          ++resent;
        }
        deployment.server().OnUplink(from, message);
      });

  // Into the focal's cell, 3 miles from it: a cell change and a flip into
  // the result, both lost.
  deployment.world().SetObjectState(1, Point{52, 55}, {});
  deployment.Tick();
  ASSERT_EQ(lost, 2);
  ASSERT_EQ(deployment.client(1).pending_uplinks(), 2u);
  ASSERT_FALSE(deployment.server().QueryResult(*qid)->contains(1));

  link_down = false;
  deployment.Tick();
  EXPECT_EQ(resent, 2);
  EXPECT_TRUE(deployment.server().QueryResult(*qid)->contains(1));
  EXPECT_EQ(deployment.client(1).pending_uplinks(), 0u);
}

TEST(FaultInjectionTest, ServerDedupsRetransmittedUplinks) {
  MiniDeployment deployment({{Point{55, 55}}, {Point{57, 55}}});
  ASSERT_TRUE(deployment.server().InstallQuery(0, 4.0, 1.0).ok());

  Message first = MakeMessage(
      VelocityChangeReport{0, FocalState{Point{60, 60}, Vec2{}, 1.0}});
  first.seq = 42;
  deployment.server().OnUplink(0, first);
  ASSERT_NE(deployment.server().FindFocal(0), nullptr);
  EXPECT_EQ(deployment.server().FindFocal(0)->state.pos.x, 60.0);

  // A duplicate of seq 42 carrying fresher data must still be ignored (the
  // dedup window is per-sequence, not per-payload)...
  Message duplicate = MakeMessage(
      VelocityChangeReport{0, FocalState{Point{70, 70}, Vec2{}, 2.0}});
  duplicate.seq = 42;
  deployment.server().OnUplink(0, duplicate);
  EXPECT_EQ(deployment.server().FindFocal(0)->state.pos.x, 60.0);

  // ...while the same payload under a fresh sequence number applies.
  Message fresh = MakeMessage(
      VelocityChangeReport{0, FocalState{Point{70, 70}, Vec2{}, 2.0}});
  fresh.seq = 43;
  deployment.server().OnUplink(0, fresh);
  EXPECT_EQ(deployment.server().FindFocal(0)->state.pos.x, 70.0);
}

// Hands the server object 1's tracked bitmap report for `qid` under `seq`,
// and says whether object 1 is in the query's result afterwards.
bool Report(MiniDeployment& deployment, QueryId qid, uint32_t seq, bool in) {
  Message message = MakeMessage(ResultBitmapReport{1, {qid}, in ? 1u : 0u});
  message.seq = seq;
  deployment.server().OnUplink(1, message);
  return deployment.server().QueryResult(qid)->contains(1);
}

// Object 1 reports itself into the query's result, then out of it eight
// times over. A late copy of the first report must not put it back: the
// router's window remembers seqs well past a client's 16 tracked uplinks.
TEST(FaultInjectionTest, ServerRefusesADuplicateEightSeqsLate) {
  MiniDeployment deployment({{Point{55, 55}}, {Point{57, 55}}});
  auto qid = deployment.server().InstallQuery(0, 4.0, 1.0);
  ASSERT_TRUE(qid.ok());
  ASSERT_TRUE(Report(deployment, *qid, 1, true));
  for (uint32_t seq = 2; seq <= 9; ++seq) {
    ASSERT_FALSE(Report(deployment, *qid, seq, false));
  }
  EXPECT_FALSE(Report(deployment, *qid, 1, true))
      << "a duplicate of seq 1 was applied again";
  EXPECT_EQ(deployment.server().router().stale_uplinks(), 0u);
}

// A seq further below its sender's highest than the window reaches cannot
// be told from a duplicate: the router refuses and counts it, and still
// acks it so the sender stops retransmitting.
TEST(FaultInjectionTest, ServerRefusesAndAcksASeqBelowTheWindow) {
  MiniDeployment deployment({{Point{55, 55}}, {Point{57, 55}}});
  auto qid = deployment.server().InstallQuery(0, 4.0, 1.0);
  ASSERT_TRUE(qid.ok());
  const auto acks = [&] {
    return deployment.network().stats().messages_by_type[static_cast<size_t>(
        MessageType::kUplinkAck)];
  };
  constexpr uint32_t kTop = 1000;
  constexpr uint32_t kWindow = core::ShardRouter::kSeqWindow;
  ASSERT_FALSE(Report(deployment, *qid, kTop, false));
  const uint64_t acks_before = acks();
  EXPECT_FALSE(Report(deployment, *qid, kTop - kWindow - 1, true));
  EXPECT_EQ(deployment.server().router().stale_uplinks(), 1u);
  EXPECT_EQ(acks(), acks_before + 1);
  // The oldest seq the window still holds is a first arrival, and applies.
  EXPECT_TRUE(Report(deployment, *qid, kTop - kWindow, true));
  EXPECT_EQ(deployment.server().router().stale_uplinks(), 1u);
  EXPECT_EQ(acks(), acks_before + 2);
}

TEST(FaultInjectionTest, LeaseRebroadcastRecoversLostInstall) {
  core::MobiEyesOptions options;
  options.lease_duration = 60.0;  // two 30s ticks
  MiniDeployment deployment({{Point{55, 55}}, {Point{57, 55}}}, options);
  auto qid = deployment.server().InstallQuery(0, 4.0, 1.0);
  ASSERT_TRUE(qid.ok());
  ASSERT_EQ(deployment.fleet().lqt_size(1), 1u);

  // Simulate a lost install: wipe the entry behind the server's back.
  QueryRemoveBroadcast forget;
  forget.qids.push_back(*qid);
  deployment.client(1).OnDownlink(MakeMessage(forget));
  ASSERT_EQ(deployment.fleet().lqt_size(1), 0u);

  // Within at most two lease periods the server's soft-state re-broadcast
  // reinstalls the query without any client-side action.
  deployment.TickN(5);
  EXPECT_EQ(deployment.fleet().lqt_size(1), 1u);
}

TEST(FaultInjectionTest, LeaseExpiryDropsUnrefreshedEntry) {
  // Deployment A (no leases) donates a valid install broadcast; deployment
  // B's server never learns of the query, so nothing ever refreshes it and
  // B's client must expire it after 2x the lease.
  MiniDeployment donor({{Point{55, 55}}, {Point{57, 55}}});
  auto qid = donor.server().InstallQuery(0, 4.0, 1.0);
  ASSERT_TRUE(qid.ok());
  const auto* entry = donor.server().FindQuery(*qid);
  ASSERT_NE(entry, nullptr);
  const auto* focal = donor.server().FindFocal(entry->focal_oid);
  ASSERT_NE(focal, nullptr);
  QueryInfo info;
  info.qid = entry->qid;
  info.focal_oid = entry->focal_oid;
  info.focal = focal->state;
  info.region = entry->region;
  info.filter_threshold = entry->filter_threshold;
  info.mon_region = entry->mon_region;
  info.focal_max_speed = focal->max_speed;

  core::MobiEyesOptions options;
  options.lease_duration = 30.0;  // one tick; expiry after two
  MiniDeployment deployment({{Point{55, 55}}, {Point{57, 55}}}, options);
  QueryInstallBroadcast install;
  install.queries.push_back(info);
  deployment.client(1).OnDownlink(MakeMessage(install));
  ASSERT_EQ(deployment.fleet().lqt_size(1), 1u);

  deployment.TickN(4);
  EXPECT_EQ(deployment.fleet().lqt_size(1), 0u);
}

TEST(FaultInjectionTest, ReconciliationRebuildsLqtAfterReconnect) {
  core::MobiEyesOptions options;
  options.reconcile_period_ticks = 2;
  FaultPlan plan;
  plan.forced_disconnect_oid = 1;
  plan.forced_disconnect_from = 0;
  plan.forced_disconnect_until = 3;
  MiniDeployment deployment({{Point{55, 55}}, {Point{57, 55}}}, options, 10.0,
                            20.0, plan);

  // Start the fault clock, then install while object 1 is unreachable: it
  // misses the install broadcast entirely.
  deployment.Tick();
  ASSERT_TRUE(deployment.faulty_network()->IsDisconnected(1, 0));
  ASSERT_TRUE(deployment.server().InstallQuery(0, 4.0, 1.0).ok());
  ASSERT_EQ(deployment.fleet().lqt_size(1), 0u);

  // After the window closes, the next reconciliation round trip repairs the
  // LQT from the server's RQI.
  deployment.TickN(5);
  ASSERT_FALSE(
      deployment.faulty_network()->IsDisconnected(1, deployment.step() - 1));
  EXPECT_EQ(deployment.fleet().lqt_size(1), 1u);
  EXPECT_GT(deployment.network().stats().messages_by_type[static_cast<size_t>(
                MessageType::kLqtReconcileRequest)],
            0u);
}

// A reconcile reply carries only queries the object can install. Objects
// 1-3 share the focal's cell under a query whose filter admits attr <= 0.5:
// object 1 (attr 0.9) is declined, object 2 (attr 0.2) misses the install
// while disconnected, and object 3 (attr 0.3) installs it at once.
TEST(FaultInjectionTest, ReconcileRepliesOnlyWithQueriesTheObjectCanInstall) {
  core::MobiEyesOptions options;
  options.reconcile_period_ticks = 2;
  FaultPlan plan;
  plan.forced_disconnect_oid = 2;
  plan.forced_disconnect_from = 0;
  plan.forced_disconnect_until = 3;
  std::vector<ObjectSpec> specs = {{Point{55, 55}},
                                   {Point{57, 55}, Vec2{}, 1.0, 0.9},
                                   {Point{56, 55}, Vec2{}, 1.0, 0.2},
                                   {Point{54, 55}, Vec2{}, 1.0, 0.3}};
  MiniDeployment deployment(specs, options, 10.0, 20.0, plan);
  // Sends per (object, type): uplinks by sender, downlinks by recipient.
  std::map<std::pair<int64_t, MessageType>, int> sent;
  deployment.network().set_observer(
      [&sent](Direction direction, int64_t party, const Message& message) {
        if (direction != Direction::kBroadcast) ++sent[{party, message.type}];
      });

  deployment.Tick();
  ASSERT_TRUE(deployment.server().InstallQuery(0, 4.0, 0.5).ok());
  ASSERT_EQ(deployment.fleet().lqt_size(1), 0u);
  ASSERT_EQ(deployment.fleet().lqt_size(2), 0u);
  ASSERT_EQ(deployment.fleet().lqt_size(3), 1u);

  deployment.TickN(6);
  for (ObjectId oid : {1, 2, 3}) {
    EXPECT_GE((sent[{oid, MessageType::kLqtReconcileRequest}]), 2) << oid;
    // No held query is reported stale.
    EXPECT_EQ((sent[{oid, MessageType::kQueryRemoveBroadcast}]), 0) << oid;
  }
  // The declined object gets no reply, and a held query is not re-sent.
  EXPECT_EQ((sent[{1, MessageType::kNewQueriesNotification}]), 0);
  EXPECT_EQ((sent[{3, MessageType::kNewQueriesNotification}]), 0);
  EXPECT_EQ(deployment.fleet().lqt_size(1), 0u);
  EXPECT_EQ(deployment.fleet().lqt_size(3), 1u);
  // The object that missed the install gets the query once, and keeps it.
  EXPECT_EQ((sent[{2, MessageType::kNewQueriesNotification}]), 1);
  EXPECT_EQ(deployment.fleet().lqt_size(2), 1u);
}

// --- Accuracy under loss (acceptance) ---------------------------------------

sim::RunMetrics RunLossy(double drop, bool harden) {
  sim::SimulationConfig config;
  config.params.num_objects = 800;
  config.params.num_queries = 80;
  config.params.velocity_changes_per_step = 80;
  config.params.seed = 11;
  config.measure_error = true;
  config.faults.uplink_drop_rate = drop;
  config.faults.downlink_drop_rate = drop;
  if (harden) {
    config.mobieyes =
        core::HardenedOptions(config.mobieyes, config.params.time_step);
  }
  auto simulation = sim::Simulation::Make(config);
  EXPECT_TRUE(simulation.ok());
  (*simulation)->Run(16);
  return (*simulation)->metrics();
}

TEST(FaultInjectionTest,
     HardenedProtocolHolds95PercentAgreementAt10PercentDrop) {
  sim::RunMetrics base = RunLossy(0.1, /*harden=*/false);
  sim::RunMetrics hardened = RunLossy(0.1, /*harden=*/true);
  EXPECT_GT(base.network.total_dropped(), 0u);
  EXPECT_GE(hardened.AverageAgreement(), 0.95);
  EXPECT_GE(hardened.AverageAgreement(), base.AverageAgreement());
}

// NetworkStats is the one ledger of the medium: under drops, delays and
// duplicates the per-type arrays still sum, after every step, to the
// direction totals, and the merged RunMetrics copy keeps that.
TEST(FaultInjectionTest, PerTypeLedgerSumsToTotalsUnderFaults) {
  sim::SimulationConfig config;
  config.params.num_objects = 800;
  config.params.num_queries = 80;
  config.params.velocity_changes_per_step = 80;
  config.params.seed = 11;
  config.mode = sim::SimMode::kMobiEyesLazy;
  config.mobieyes =
      core::HardenedOptions(config.mobieyes, config.params.time_step);
  config.faults.uplink_drop_rate = 0.1;
  config.faults.downlink_drop_rate = 0.1;
  config.faults.delay_rate = 0.2;
  config.faults.max_delay_steps = 2;
  config.faults.duplicate_rate = 0.05;
  auto simulation = sim::Simulation::Make(config);
  ASSERT_TRUE(simulation.ok()) << simulation.status().ToString();
  auto sum = [](const std::array<uint64_t, kNumMessageTypes>& counts) {
    uint64_t total = 0;
    for (uint64_t count : counts) total += count;
    return total;
  };
  for (int step = 0; step < 8; ++step) {
    (*simulation)->Run(1);
    const NetworkStats& stats = (*simulation)->network().stats();
    EXPECT_EQ(sum(stats.messages_by_type), stats.total_messages())
        << "step " << step;
    EXPECT_EQ(sum(stats.bytes_by_type),
              stats.uplink_bytes + stats.downlink_bytes)
        << "step " << step;
    EXPECT_EQ(sum(stats.dropped_by_type), stats.total_dropped())
        << "step " << step;
  }
  const NetworkStats& stats = (*simulation)->metrics().network;
  EXPECT_GT(stats.total_dropped(), 0u);
  EXPECT_GT(stats.delayed_messages, 0u);
  EXPECT_GT(stats.duplicated_messages, 0u);
  EXPECT_GT(stats.bytes_by_type[static_cast<size_t>(MessageType::kUplinkAck)],
            0u);
  EXPECT_EQ(sum(stats.bytes_by_type),
            stats.uplink_bytes + stats.downlink_bytes);
}

// --- Process-death events (crash recovery) ----------------------------------

TEST(FaultInjectionTest, ServerDownSwallowsUplinksAsUndeliverable) {
  FaultPlan plan;
  plan.server_crash_step = 5;  // any crash plan activates the fault layer
  FaultyNetwork network(plan);
  int uplinks = 0;
  network.set_server_handler([&](ObjectId, const Message&) { ++uplinks; });
  network.AdvanceStep(0);

  network.set_server_down(true);
  network.SendUplink(1, MakeMessage(PositionReport{1, Point{1, 1}}));
  EXPECT_EQ(uplinks, 0);
  EXPECT_EQ(network.stats().uplink_dropped, 0u);
  EXPECT_EQ(DroppedOfType(network.stats(), MessageType::kPositionReport), 0u);
  EXPECT_EQ(network.stats().undeliverable_by_reason[static_cast<size_t>(
                NetworkStats::UndeliverableReason::kServerDown)],
            1u);

  network.set_server_down(false);
  network.SendUplink(1, MakeMessage(PositionReport{1, Point{1, 1}}));
  EXPECT_EQ(uplinks, 1);
}

TEST(FaultInjectionTest, ForcedClientRestartFiresExactlyOnce) {
  FaultPlan plan;
  plan.forced_restart_oid = 3;
  plan.forced_restart_step = 7;
  FaultyNetwork network(plan);
  for (int64_t step = 0; step < 12; ++step) {
    for (ObjectId oid = 0; oid < 6; ++oid) {
      bool restart = network.ShouldRestartClient(oid, step);
      EXPECT_EQ(restart, oid == 3 && step == 7)
          << "oid " << oid << " step " << step;
    }
  }
}

TEST(FaultInjectionTest, RandomClientRestartsAreSeededAndRateBounded) {
  FaultPlan plan;
  plan.client_restart_rate = 0.25;
  plan.seed = 99;
  FaultyNetwork a(plan);
  FaultyNetwork b(plan);
  int restarts = 0;
  const int kObjects = 40;
  const int kSteps = 50;
  for (int64_t step = 0; step < kSteps; ++step) {
    for (ObjectId oid = 0; oid < kObjects; ++oid) {
      bool restart = a.ShouldRestartClient(oid, step);
      // Stateless hash: two networks with the same plan agree exactly.
      EXPECT_EQ(restart, b.ShouldRestartClient(oid, step));
      restarts += restart ? 1 : 0;
    }
  }
  double rate =
      static_cast<double>(restarts) / (kObjects * kSteps);
  EXPECT_GT(rate, 0.15);
  EXPECT_LT(rate, 0.35);
}

}  // namespace
}  // namespace mobieyes::net

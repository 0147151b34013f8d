#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "mobieyes/net/base_station.h"
#include "mobieyes/net/message.h"
#include "mobieyes/net/network.h"
#include "mobieyes/obs/report_html.h"
#include "test_harness.h"

namespace mobieyes::net {
namespace {

using test::BroadcastRecorder;

Message Ping() { return MakeMessage(PositionVelocityRequest{1}); }

TEST(NetworkTest, UplinkReachesServerAndCounts) {
  WirelessNetwork network;
  ObjectId seen_from = kInvalidObjectId;
  MessageType seen_type{};
  network.set_server_handler([&](ObjectId from, const Message& message) {
    seen_from = from;
    seen_type = message.type;
  });
  network.SendUplink(5, MakeMessage(CellChangeReport{5, {0, 0}, {1, 0}}));
  EXPECT_EQ(seen_from, 5);
  EXPECT_EQ(seen_type, MessageType::kCellChangeReport);
  EXPECT_EQ(network.stats().uplink_messages, 1u);
  EXPECT_EQ(network.stats().downlink_messages, 0u);
  EXPECT_GT(network.stats().uplink_bytes, 0u);
  // Sending is not receiving.
  EXPECT_EQ(network.stats().reception_bytes, 0u);
}

TEST(NetworkTest, DownlinkReachesOnlyTarget) {
  WirelessNetwork network;
  int deliveries_to_1 = 0;
  int deliveries_to_2 = 0;
  network.RegisterClient(1, [&](const Message&) { ++deliveries_to_1; });
  network.RegisterClient(2, [&](const Message&) { ++deliveries_to_2; });
  network.SendDownlinkTo(1, Ping());
  EXPECT_EQ(deliveries_to_1, 1);
  EXPECT_EQ(deliveries_to_2, 0);
  EXPECT_EQ(network.stats().downlink_messages, 1u);
  EXPECT_EQ(network.stats().broadcast_messages, 0u);
}

TEST(NetworkTest, BroadcastReachesObjectsInCoverage) {
  WirelessNetwork network;
  // Objects 0,1 inside coverage; 2 outside.
  std::vector<geo::Point> positions = {{1, 1}, {2, 2}, {50, 50}};
  network.set_coverage_query(
      [&](const geo::Circle& circle, const std::function<void(ObjectId)>& fn) {
        for (size_t oid = 0; oid < positions.size(); ++oid) {
          if (circle.Contains(positions[oid])) fn(static_cast<ObjectId>(oid));
        }
      });
  BroadcastRecorder recorder;
  network.set_broadcast_receiver(&recorder);
  BaseStation station{0, geo::Circle{geo::Point{0, 0}, 5.0}};
  network.Broadcast(station, Ping());
  EXPECT_EQ(recorder.broadcasts(), 1);
  EXPECT_EQ(recorder.deliveries(0), 1);
  EXPECT_EQ(recorder.deliveries(1), 1);
  EXPECT_EQ(recorder.deliveries(2), 0);
  // One broadcast = one downlink message on the medium, two receptions.
  EXPECT_EQ(network.stats().downlink_messages, 1u);
  EXPECT_EQ(network.stats().broadcast_messages, 1u);
  EXPECT_EQ(network.stats().broadcast_receptions, 2u);
  // Each covered object received the broadcast's bytes; object 2 did not.
  EXPECT_EQ(network.stats().reception_bytes,
            2 * network.stats().downlink_bytes);
}

TEST(NetworkTest, BroadcastsBypassOneToOneHandlers) {
  WirelessNetwork network;
  network.set_coverage_query(
      [](const geo::Circle&, const std::function<void(ObjectId)>& fn) {
        fn(4);
      });
  int one_to_one = 0;
  network.RegisterClient(4, [&](const Message&) { ++one_to_one; });
  BaseStation station{0, geo::Circle{geo::Point{0, 0}, 5.0}};
  // With no broadcast receiver the broadcast is charged but undecoded.
  network.Broadcast(station, Ping());
  EXPECT_EQ(network.stats().broadcast_receptions, 1u);
  BroadcastRecorder recorder;
  network.set_broadcast_receiver(&recorder);
  network.Broadcast(station, Ping());
  EXPECT_EQ(recorder.deliveries(4), 1);
  EXPECT_EQ(one_to_one, 0);
  network.SendDownlinkTo(4, Ping());
  EXPECT_EQ(one_to_one, 1);
  EXPECT_EQ(recorder.broadcasts(), 1);
}

// A receiver's handler may set off a nested broadcast; the outer receiver
// list handed to the broadcast receiver must survive it intact.
TEST(NetworkTest, NestedBroadcastKeepsOuterReceiverList) {
  WirelessNetwork network;
  network.set_coverage_query(
      [](const geo::Circle& circle, const std::function<void(ObjectId)>& fn) {
        // Outer station covers 0..9, the nested one 100..139.
        const ObjectId base = circle.center.x > 50.0 ? 100 : 0;
        const ObjectId count = base == 0 ? 10 : 40;
        for (ObjectId oid = base; oid < base + count; ++oid) fn(oid);
      });
  const BaseStation outer{0, geo::Circle{geo::Point{0, 0}, 1.0}};
  const BaseStation inner{1, geo::Circle{geo::Point{90, 90}, 1.0}};
  struct Nesting : BroadcastReceiver {
    WirelessNetwork* network = nullptr;
    const BaseStation* inner = nullptr;
    std::vector<ObjectId> seen;
    int depth = 0;
    void OnBroadcast(const Message& message,
                     std::span<const ObjectId> receivers) override {
      for (ObjectId oid : receivers) {
        seen.push_back(oid);
        if (depth == 0 && oid == 3) {
          ++depth;
          for (int k = 0; k < 4; ++k) network->Broadcast(*inner, message);
          --depth;
        }
      }
    }
  } nesting;
  nesting.network = &network;
  nesting.inner = &inner;
  network.set_broadcast_receiver(&nesting);
  network.Broadcast(outer, Ping());
  ASSERT_EQ(nesting.seen.size(), 10u + 4u * 40u);
  // The outer list resumes after the nested deliveries, in order.
  for (ObjectId oid = 0; oid < 10; ++oid) {
    const size_t at = oid <= 3 ? oid : oid + 160;
    EXPECT_EQ(nesting.seen[at], oid);
  }
  EXPECT_EQ(network.stats().broadcast_receptions, 10u + 4u * 40u);
}

TEST(NetworkTest, ReentrantDeliveryIsSafe) {
  WirelessNetwork network;
  // The client replies with an uplink from inside the downlink handler.
  int server_receipts = 0;
  network.set_server_handler(
      [&](ObjectId, const Message&) { ++server_receipts; });
  network.RegisterClient(1, [&](const Message& message) {
    if (message.type == MessageType::kPositionVelocityRequest) {
      network.SendUplink(1, MakeMessage(PositionVelocityReport{}));
    }
  });
  network.SendDownlinkTo(1, Ping());
  EXPECT_EQ(server_receipts, 1);
  EXPECT_EQ(network.stats().uplink_messages, 1u);
  EXPECT_EQ(network.stats().downlink_messages, 1u);
}

TEST(NetworkTest, ResetStatsClearsEverything) {
  WirelessNetwork network;
  network.SendUplink(1, Ping());
  network.ResetStats();
  EXPECT_EQ(network.stats().total_messages(), 0u);
  EXPECT_EQ(network.stats().uplink_bytes, 0u);
}

TEST(NetworkTest, ObserverSeesEveryTransmission) {
  WirelessNetwork network;
  network.set_coverage_query(
      [](const geo::Circle&, const std::function<void(ObjectId)>& fn) {
        fn(7);
      });
  network.RegisterClient(7, [](const Message&) {});

  std::vector<Direction> directions;
  std::vector<int64_t> parties;
  uint64_t observed_bytes = 0;
  network.set_observer(
      [&](Direction direction, int64_t party, const Message& message) {
        directions.push_back(direction);
        parties.push_back(party);
        observed_bytes += WireSizeBytes(message);
      });

  network.SendUplink(3, MakeMessage(CellChangeReport{3, {0, 0}, {1, 0}}));
  network.SendDownlinkTo(7, Ping());
  BaseStation station{42, geo::Circle{geo::Point{0, 0}, 5.0}};
  network.Broadcast(station, MakeMessage(QueryRemoveBroadcast{{1}}));

  ASSERT_EQ(directions.size(), 3u);
  EXPECT_EQ(directions[0], Direction::kUplink);
  EXPECT_EQ(parties[0], 3);
  EXPECT_EQ(directions[1], Direction::kDownlink);
  EXPECT_EQ(parties[1], 7);
  EXPECT_EQ(directions[2], Direction::kBroadcast);
  EXPECT_EQ(parties[2], 42);

  // The tap sees each transmission once, as the stats count it.
  EXPECT_EQ(observed_bytes,
            network.stats().uplink_bytes + network.stats().downlink_bytes);
}

TEST(NetworkTest, UnregisteredRecipientDropsSilently) {
  WirelessNetwork network;
  network.SendDownlinkTo(99, Ping());  // no client registered: no crash
  EXPECT_EQ(network.stats().downlink_messages, 1u);
}

TEST(NetworkTest, PerTypeCountersSumToTotalMessages) {
  WirelessNetwork network;
  network.set_coverage_query(
      [](const geo::Circle&, const std::function<void(ObjectId)>& fn) {
        fn(7);
      });
  network.RegisterClient(7, [](const Message&) {});
  network.SendUplink(3, MakeMessage(CellChangeReport{3, {0, 0}, {1, 0}}));
  network.SendUplink(3, MakeMessage(VelocityChangeReport{}));
  network.SendDownlinkTo(7, Ping());
  BaseStation station{42, geo::Circle{geo::Point{0, 0}, 5.0}};
  network.Broadcast(station, MakeMessage(QueryRemoveBroadcast{{1}}));

  const NetworkStats& stats = network.stats();
  uint64_t by_type = std::accumulate(stats.messages_by_type.begin(),
                                     stats.messages_by_type.end(), uint64_t{0});
  EXPECT_EQ(by_type, stats.total_messages());
  EXPECT_EQ(by_type, 4u);
  // Bytes are charged once per transmission too, whatever the direction.
  uint64_t bytes_by_type = std::accumulate(
      stats.bytes_by_type.begin(), stats.bytes_by_type.end(), uint64_t{0});
  EXPECT_EQ(bytes_by_type, stats.uplink_bytes + stats.downlink_bytes);
  EXPECT_EQ(stats.bytes_by_type[static_cast<size_t>(
                MessageType::kQueryRemoveBroadcast)],
            WireSizeBytes(MakeMessage(QueryRemoveBroadcast{{1}})));
  EXPECT_EQ(stats.messages_by_type[static_cast<size_t>(
                MessageType::kCellChangeReport)],
            1u);
  EXPECT_EQ(stats.messages_by_type[static_cast<size_t>(
                MessageType::kVelocityChangeReport)],
            1u);
  EXPECT_EQ(stats.messages_by_type[static_cast<size_t>(
                MessageType::kQueryRemoveBroadcast)],
            1u);
}

TEST(NetworkStatsTest, MergeAccumulatesEveryField) {
  WirelessNetwork a;
  a.SendUplink(1, MakeMessage(CellChangeReport{1, {0, 0}, {1, 0}}));
  WirelessNetwork b;
  b.set_coverage_query(
      [](const geo::Circle&, const std::function<void(ObjectId)>& fn) {
        fn(1);
        fn(2);
      });
  b.RegisterClient(1, [](const Message&) {});
  b.RegisterClient(2, [](const Message&) {});
  b.SendDownlinkTo(1, Ping());
  BaseStation station{0, geo::Circle{geo::Point{0, 0}, 5.0}};
  b.Broadcast(station, Ping());

  NetworkStats merged;
  merged += a.stats();
  merged += b.stats();
  EXPECT_EQ(merged.uplink_messages, 1u);
  EXPECT_EQ(merged.downlink_messages, 2u);
  EXPECT_EQ(merged.broadcast_messages, 1u);
  EXPECT_EQ(merged.broadcast_receptions, 2u);
  EXPECT_EQ(merged.uplink_bytes, a.stats().uplink_bytes);
  EXPECT_EQ(merged.downlink_bytes, b.stats().downlink_bytes);
  EXPECT_EQ(merged.total_messages(),
            a.stats().total_messages() + b.stats().total_messages());
  uint64_t by_type =
      std::accumulate(merged.messages_by_type.begin(),
                      merged.messages_by_type.end(), uint64_t{0});
  EXPECT_EQ(by_type, merged.total_messages());
  for (size_t t = 0; t < kNumMessageTypes; ++t) {
    EXPECT_EQ(merged.bytes_by_type[t],
              a.stats().bytes_by_type[t] + b.stats().bytes_by_type[t])
        << MessageTypeName(static_cast<MessageType>(t));
  }
  EXPECT_EQ(merged.bytes_by_type[static_cast<size_t>(
                MessageType::kCellChangeReport)],
            a.stats().uplink_bytes);
  // Reception bytes merge additively too: only `b` delivered anything.
  EXPECT_GT(b.stats().reception_bytes, 0u);
  EXPECT_EQ(merged.reception_bytes, b.stats().reception_bytes);
}

// The JSON export keys every per-type array by type name, with every type
// present, so a reader can tell which message types a run's bytes went to.
TEST(NetworkStatsTest, JsonKeysPerTypeArraysByName) {
  WirelessNetwork network;
  const Message report = MakeMessage(CellChangeReport{3, {0, 0}, {1, 0}});
  network.SendUplink(3, report);
  network.SendUplink(3, report);
  const std::string json = NetworkStatsJson(network.stats());
  const std::string bytes = std::to_string(2 * WireSizeBytes(report));
  EXPECT_NE(json.find("\"messages_by_type\": {\"QueryInstallRequest\": 0"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"CellChangeReport\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"bytes_by_type\": {"), std::string::npos) << json;
  EXPECT_NE(json.find("\"CellChangeReport\": " + bytes), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"dropped_by_type\": {"), std::string::npos) << json;
  for (size_t t = 0; t < kNumMessageTypes; ++t) {
    const std::string key =
        std::string("\"") + MessageTypeName(static_cast<MessageType>(t)) +
        "\": ";
    size_t count = 0;
    for (size_t at = json.find(key); at != std::string::npos;
         at = json.find(key, at + 1)) {
      ++count;
    }
    EXPECT_EQ(count, 3u) << key;
  }
}

// The HTML report renders the network section's per-type arrays: a row per
// type that sent or lost anything, with its messages, bytes and drops.
TEST(NetworkStatsTest, HtmlReportShowsMessagesAndBytesPerType) {
  WirelessNetwork network;
  const Message report = MakeMessage(CellChangeReport{3, {0, 0}, {1, 0}});
  network.SendUplink(3, report);
  std::string error;
  std::unique_ptr<obs::JsonValue> root = obs::ParseJson(
      "{\"network\": " + NetworkStatsJson(network.stats()) + "}", &error);
  ASSERT_NE(root, nullptr) << error;
  const std::string html = obs::RenderHtmlReport(*root, "network");
  const std::string row =
      "<tr><td>CellChangeReport</td><td class=\"num\">1</td>"
      "<td class=\"num\">" +
      std::to_string(WireSizeBytes(report)) +
      "</td><td class=\"num\">0</td></tr>";
  EXPECT_NE(html.find(row), std::string::npos) << html;
  EXPECT_EQ(html.find("<td>VelocityChangeReport</td>"), std::string::npos)
      << html;
}

}  // namespace
}  // namespace mobieyes::net

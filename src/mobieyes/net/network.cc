#include "mobieyes/net/network.h"

namespace mobieyes::net {

NetworkStats& NetworkStats::operator+=(const NetworkStats& other) {
  uplink_messages += other.uplink_messages;
  downlink_messages += other.downlink_messages;
  broadcast_messages += other.broadcast_messages;
  uplink_bytes += other.uplink_bytes;
  downlink_bytes += other.downlink_bytes;
  broadcast_receptions += other.broadcast_receptions;
  undeliverable_downlinks += other.undeliverable_downlinks;
  for (size_t k = 0; k < kNumUndeliverableReasons; ++k) {
    undeliverable_by_reason[k] += other.undeliverable_by_reason[k];
  }
  uplink_dropped += other.uplink_dropped;
  downlink_dropped += other.downlink_dropped;
  broadcast_dropped += other.broadcast_dropped;
  delayed_messages += other.delayed_messages;
  duplicated_messages += other.duplicated_messages;
  disconnect_events += other.disconnect_events;
  inter_shard_handoffs += other.inter_shard_handoffs;
  for (size_t k = 0; k < kNumMessageTypes; ++k) {
    messages_by_type[k] += other.messages_by_type[k];
    bytes_by_type[k] += other.bytes_by_type[k];
    dropped_by_type[k] += other.dropped_by_type[k];
  }
  reception_bytes += other.reception_bytes;
  return *this;
}

void WirelessNetwork::RegisterClient(ObjectId oid, ClientHandler handler) {
  if (oid < 0) return;
  const auto k = static_cast<size_t>(oid);
  if (k >= clients_.size()) clients_.resize(k + 1);
  clients_[k] = std::move(handler);
}

std::string NetworkStatsJson(const NetworkStats& stats) {
  auto field = [](const char* name, uint64_t value) {
    return "\"" + std::string(name) + "\": " + std::to_string(value);
  };
  std::string json = "{";
  json += field("uplink_messages", stats.uplink_messages) + ", ";
  json += field("downlink_messages", stats.downlink_messages) + ", ";
  json += field("broadcast_messages", stats.broadcast_messages) + ", ";
  json += field("uplink_bytes", stats.uplink_bytes) + ", ";
  json += field("downlink_bytes", stats.downlink_bytes) + ", ";
  json += field("broadcast_receptions", stats.broadcast_receptions) + ", ";
  json += field("undeliverable_downlinks", stats.undeliverable_downlinks) +
          ", ";
  json += field("uplink_dropped", stats.uplink_dropped) + ", ";
  json += field("downlink_dropped", stats.downlink_dropped) + ", ";
  json += field("broadcast_dropped", stats.broadcast_dropped) + ", ";
  json += field("delayed_messages", stats.delayed_messages) + ", ";
  json += field("duplicated_messages", stats.duplicated_messages) + ", ";
  json += field("disconnect_events", stats.disconnect_events) + ", ";
  using Reason = NetworkStats::UndeliverableReason;
  auto reason = [&](Reason which) {
    return stats.undeliverable_by_reason[static_cast<size_t>(which)];
  };
  json += "\"undeliverable_by_reason\": {";
  json += field("no_handler", reason(Reason::kNoHandler)) + ", ";
  json += field("receiver_disconnected",
                reason(Reason::kReceiverDisconnected)) + ", ";
  json += field("server_down", reason(Reason::kServerDown)) + "}";
  auto by_type = [&](const char* name,
                     const std::array<uint64_t, kNumMessageTypes>& counts) {
    json += ", \"" + std::string(name) + "\": {";
    for (size_t t = 0; t < kNumMessageTypes; ++t) {
      if (t > 0) json += ", ";
      json += field(MessageTypeName(static_cast<MessageType>(t)), counts[t]);
    }
    json += "}";
  };
  by_type("messages_by_type", stats.messages_by_type);
  by_type("bytes_by_type", stats.bytes_by_type);
  by_type("dropped_by_type", stats.dropped_by_type);
  json += "}";
  return json;
}

void WirelessNetwork::SendUplink(ObjectId from, Message message) {
  if (observer_) observer_(Direction::kUplink, from, message);
  size_t bytes = WireSizeBytes(message);
  ++stats_.uplink_messages;
  stats_.uplink_bytes += bytes;
  ++stats_.messages_by_type[static_cast<size_t>(message.type)];
  stats_.bytes_by_type[static_cast<size_t>(message.type)] += bytes;
  if (server_handler_) server_handler_(from, message);
}

bool WirelessNetwork::SendDownlinkTo(ObjectId to, Message message) {
  if (observer_) observer_(Direction::kDownlink, to, message);
  size_t bytes = WireSizeBytes(message);
  ++stats_.downlink_messages;
  stats_.downlink_bytes += bytes;
  ++stats_.messages_by_type[static_cast<size_t>(message.type)];
  stats_.bytes_by_type[static_cast<size_t>(message.type)] += bytes;
  stats_.reception_bytes += bytes;
  if (!HasClient(to)) {
    // The transmission happened (counted above) but nobody decodes it: an
    // observable routing failure rather than a silent no-op.
    ++stats_.undeliverable_downlinks;
    ++stats_.undeliverable_by_reason[static_cast<size_t>(
        NetworkStats::UndeliverableReason::kNoHandler)];
    return false;
  }
  clients_[static_cast<size_t>(to)](message);
  return true;
}

void WirelessNetwork::Broadcast(const BaseStation& station,
                                const Message& message) {
  if (observer_) observer_(Direction::kBroadcast, station.id, message);
  size_t bytes = WireSizeBytes(message);
  ++stats_.downlink_messages;
  ++stats_.broadcast_messages;
  stats_.downlink_bytes += bytes;
  ++stats_.messages_by_type[static_cast<size_t>(message.type)];
  stats_.bytes_by_type[static_cast<size_t>(message.type)] += bytes;
  if (!coverage_query_) return;
  // Collect receivers first: handlers may re-enter the network (e.g. an
  // object replying with an uplink), and must not observe a partially
  // delivered broadcast. The list lives in a depth-indexed pool so nested
  // broadcasts get their own vector without per-call allocation.
  if (broadcast_depth_ == receiver_pool_.size()) receiver_pool_.emplace_back();
  std::vector<ObjectId>& receivers = receiver_pool_[broadcast_depth_];
  ++broadcast_depth_;
  receivers.clear();
  coverage_query_(station.coverage,
                  [&receivers](ObjectId oid) { receivers.push_back(oid); });
  stats_.broadcast_receptions += receivers.size();
  stats_.reception_bytes += bytes * receivers.size();
  if (broadcast_receiver_ != nullptr) {
    broadcast_receiver_->OnBroadcast(message, receivers);
  }
  --broadcast_depth_;
}

}  // namespace mobieyes::net

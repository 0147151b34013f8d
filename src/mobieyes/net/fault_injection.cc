#include "mobieyes/net/fault_injection.h"

#include <algorithm>
#include <utility>

namespace mobieyes::net {

namespace {

// SplitMix64 finalizer: stateless decisions (disconnect and outage windows)
// hash their inputs instead of consuming the sequential RNG stream, so the
// message-level fault stream is independent of how many objects exist.
uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

uint64_t Mix3(uint64_t a, uint64_t b, uint64_t c) {
  return Mix(a ^ Mix(b ^ Mix(c)));
}

// Uniform in [0, 1) from a hash value.
double HashToUnit(uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

bool FaultyNetwork::IsDisconnected(ObjectId oid, int64_t step) const {
  if (step < 0) return false;
  if (oid == plan_.forced_disconnect_oid &&
      step >= plan_.forced_disconnect_from &&
      step < plan_.forced_disconnect_until) {
    return true;
  }
  if (plan_.disconnect_rate <= 0.0 || plan_.disconnect_period_steps <= 0 ||
      plan_.disconnect_duration_steps <= 0) {
    return false;
  }
  const int64_t period = plan_.disconnect_period_steps;
  const int64_t duration =
      std::min<int64_t>(plan_.disconnect_duration_steps, period);
  const int64_t window = step / period;
  uint64_t h = Mix3(plan_.seed, static_cast<uint64_t>(oid) + 1,
                    static_cast<uint64_t>(window));
  if (HashToUnit(h) >= plan_.disconnect_rate) return false;
  // The window's disconnect span starts at a hashed offset so disconnects
  // are not aligned across objects or windows.
  const int64_t slack = period - duration;
  const int64_t offset =
      slack > 0
          ? static_cast<int64_t>(Mix(h) % static_cast<uint64_t>(slack + 1))
          : 0;
  const int64_t phase = step - window * period;
  return phase >= offset && phase < offset + duration;
}

bool FaultyNetwork::InOutage(BaseStationId sid, int64_t step) const {
  if (step < 0 || plan_.outage_period_steps <= 0 ||
      plan_.outage_duration_steps <= 0) {
    return false;
  }
  const int64_t period = plan_.outage_period_steps;
  const int64_t duration =
      std::min<int64_t>(plan_.outage_duration_steps, period);
  const int64_t offset = static_cast<int64_t>(
      Mix3(plan_.seed, 0xBA5Eu, static_cast<uint64_t>(sid) + 1) %
      static_cast<uint64_t>(period));
  const int64_t phase = (step + offset) % period;
  return phase < duration;
}

bool FaultyNetwork::ShouldRestartClient(ObjectId oid, int64_t step) const {
  if (step < 0) return false;
  if (oid == plan_.forced_restart_oid && step == plan_.forced_restart_step) {
    return true;
  }
  if (plan_.client_restart_rate <= 0.0) return false;
  uint64_t h = Mix3(plan_.seed ^ 0xC11E57A7ULL,
                    static_cast<uint64_t>(oid) + 1,
                    static_cast<uint64_t>(step));
  return HashToUnit(h) < plan_.client_restart_rate;
}

void FaultyNetwork::set_coverage_query(CoverageQuery query) {
  WirelessNetwork::set_coverage_query(
      [this, query = std::move(query)](
          const geo::Circle& circle,
          const std::function<void(ObjectId)>& fn) {
        if (!FaultsApply()) {
          query(circle, fn);
          return;
        }
        query(circle, [this, &fn](ObjectId oid) {
          if (!IsDisconnected(oid, step_)) fn(oid);
        });
      });
}

void FaultyNetwork::RecordDrop(Kind kind, const Message& message) {
  switch (kind) {
    case Kind::kUplink:
      ++stats_.uplink_dropped;
      break;
    case Kind::kDownlink:
      ++stats_.downlink_dropped;
      break;
    case Kind::kBroadcast:
      ++stats_.broadcast_dropped;
      break;
  }
  ++stats_.dropped_by_type[static_cast<size_t>(message.type)];
}

void FaultyNetwork::RecordUndeliverable(
    NetworkStats::UndeliverableReason reason) {
  ++stats_.undeliverable_by_reason[static_cast<size_t>(reason)];
}

bool FaultyNetwork::MaybeDefer(Kind kind, ObjectId party,
                               const BaseStation* station,
                               const Message& message, int copies) {
  if (plan_.delay_rate <= 0.0 || plan_.max_delay_steps <= 0) return false;
  if (!rng_.NextBernoulli(plan_.delay_rate)) return false;
  int64_t delay = 1 + static_cast<int64_t>(rng_.NextUint64(
                          static_cast<uint64_t>(plan_.max_delay_steps)));
  stats_.delayed_messages += static_cast<uint64_t>(copies);
  for (int k = 0; k < copies; ++k) {
    Deferred entry;
    entry.due_step = step_ + delay;
    entry.kind = kind;
    entry.party = party;
    if (station != nullptr) entry.station = *station;
    entry.message = message;
    deferred_.push_back(std::move(entry));
  }
  return true;
}

void FaultyNetwork::SendUplink(ObjectId from, Message message) {
  if (!FaultsApply()) {
    WirelessNetwork::SendUplink(from, std::move(message));
    return;
  }
  if (IsDisconnected(from, step_)) {
    RecordDrop(Kind::kUplink, message);
    return;
  }
  if (server_down_) {
    // The message left the device but the mediator process is dead: the
    // link did its job, so this is undeliverable, not a link drop.
    RecordUndeliverable(NetworkStats::UndeliverableReason::kServerDown);
    return;
  }
  if (plan_.uplink_drop_rate > 0.0 &&
      rng_.NextBernoulli(plan_.uplink_drop_rate)) {
    RecordDrop(Kind::kUplink, message);
    return;
  }
  int copies = 1;
  if (plan_.duplicate_rate > 0.0 &&
      rng_.NextBernoulli(plan_.duplicate_rate)) {
    copies = 2;
    ++stats_.duplicated_messages;
  }
  if (MaybeDefer(Kind::kUplink, from, nullptr, message, copies)) return;
  for (int k = 1; k < copies; ++k) {
    WirelessNetwork::SendUplink(from, message);
  }
  WirelessNetwork::SendUplink(from, std::move(message));
}

bool FaultyNetwork::SendDownlinkTo(ObjectId to, Message message) {
  if (!FaultsApply()) {
    return WirelessNetwork::SendDownlinkTo(to, std::move(message));
  }
  if (IsDisconnected(to, step_)) {
    // Dead endpoint, healthy link: accounted apart from injected drops.
    RecordUndeliverable(
        NetworkStats::UndeliverableReason::kReceiverDisconnected);
    return false;
  }
  if (plan_.downlink_drop_rate > 0.0 &&
      rng_.NextBernoulli(plan_.downlink_drop_rate)) {
    RecordDrop(Kind::kDownlink, message);
    return false;
  }
  int copies = 1;
  if (plan_.duplicate_rate > 0.0 &&
      rng_.NextBernoulli(plan_.duplicate_rate)) {
    copies = 2;
    ++stats_.duplicated_messages;
  }
  if (MaybeDefer(Kind::kDownlink, to, nullptr, message, copies)) {
    return true;  // transmitted; delivery is in flight
  }
  for (int k = 1; k < copies; ++k) {
    WirelessNetwork::SendDownlinkTo(to, message);
  }
  return WirelessNetwork::SendDownlinkTo(to, std::move(message));
}

void FaultyNetwork::Broadcast(const BaseStation& station,
                              const Message& message) {
  if (!FaultsApply()) {
    WirelessNetwork::Broadcast(station, message);
    return;
  }
  if (InOutage(station.id, step_)) {
    RecordDrop(Kind::kBroadcast, message);
    return;
  }
  if (plan_.downlink_drop_rate > 0.0 &&
      rng_.NextBernoulli(plan_.downlink_drop_rate)) {
    RecordDrop(Kind::kBroadcast, message);
    return;
  }
  int copies = 1;
  if (plan_.duplicate_rate > 0.0 &&
      rng_.NextBernoulli(plan_.duplicate_rate)) {
    copies = 2;
    ++stats_.duplicated_messages;
  }
  if (MaybeDefer(Kind::kBroadcast, kInvalidObjectId, &station, message,
                 copies)) {
    return;
  }
  for (int k = 0; k < copies; ++k) {
    WirelessNetwork::Broadcast(station, message);
  }
}

void FaultyNetwork::DeliverDeferred(Deferred& entry) {
  switch (entry.kind) {
    case Kind::kUplink:
      // The server may have crashed while the message was in flight.
      if (server_down_) {
        RecordUndeliverable(NetworkStats::UndeliverableReason::kServerDown);
        break;
      }
      WirelessNetwork::SendUplink(entry.party, std::move(entry.message));
      break;
    case Kind::kDownlink:
      // The recipient may have disconnected while the message was in
      // flight; the endpoint is dead, so the delivery is undeliverable.
      if (IsDisconnected(entry.party, step_)) {
        RecordUndeliverable(
            NetworkStats::UndeliverableReason::kReceiverDisconnected);
        break;
      }
      WirelessNetwork::SendDownlinkTo(entry.party, std::move(entry.message));
      break;
    case Kind::kBroadcast:
      WirelessNetwork::Broadcast(entry.station, entry.message);
      break;
  }
}

void FaultyNetwork::AccountDisconnectTransitions(int64_t step) {
  const bool probabilistic = plan_.disconnect_rate > 0.0 &&
                             plan_.disconnect_period_steps > 0 &&
                             plan_.disconnect_duration_steps > 0;
  if (!probabilistic && plan_.forced_disconnect_oid == kInvalidObjectId) {
    return;
  }
  for (size_t k = 0; k < clients_.size(); ++k) {
    if (!clients_[k]) continue;
    const auto oid = static_cast<ObjectId>(k);
    if (IsDisconnected(oid, step) && !IsDisconnected(oid, step - 1)) {
      ++stats_.disconnect_events;
    }
  }
}

void FaultyNetwork::AdvanceStep(int64_t step) {
  if (!plan_.active()) {
    step_ = step;
    return;
  }
  AccountDisconnectTransitions(step);
  step_ = step;
  if (deferred_.empty()) return;
  // Flush in insertion order; deliveries may re-enter the network and defer
  // further messages, which land in deferred_ for a later step.
  std::deque<Deferred> pending;
  pending.swap(deferred_);
  while (!pending.empty()) {
    Deferred entry = std::move(pending.front());
    pending.pop_front();
    if (entry.due_step <= step_) {
      DeliverDeferred(entry);
    } else {
      deferred_.push_back(std::move(entry));
    }
  }
}

}  // namespace mobieyes::net

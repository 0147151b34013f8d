#ifndef MOBIEYES_NET_NETWORK_H_
#define MOBIEYES_NET_NETWORK_H_

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "mobieyes/common/ids.h"
#include "mobieyes/geo/circle.h"
#include "mobieyes/net/base_station.h"
#include "mobieyes/net/message.h"

namespace mobieyes::net {

// Aggregate traffic statistics for one simulation run: the one record of
// what crossed the medium. "Messages sent on the wireless medium" counts one
// per uplink transmission, one per one-to-one downlink, and one per
// base-station broadcast (paper §5.3).
struct NetworkStats {
  uint64_t uplink_messages = 0;
  uint64_t downlink_messages = 0;
  uint64_t broadcast_messages = 0;  // subset of downlink_messages
  uint64_t uplink_bytes = 0;
  uint64_t downlink_bytes = 0;
  // Broadcast receptions across all objects (an object in the coverage area
  // of a broadcasting station receives the message whether or not it is
  // relevant — the effect driving Fig. 9).
  uint64_t broadcast_receptions = 0;

  // One-to-one downlinks addressed to an object with no registered client
  // handler. The message was transmitted (it is counted above) but nobody
  // decoded it — a routing failure distinct from an injected fault.
  uint64_t undeliverable_downlinks = 0;

  // Why a message could not be delivered because its *endpoint* was dead,
  // as opposed to the link being lossy. Dead-endpoint losses are accounted
  // here and never folded into dropped_by_type / the *_dropped counters, so
  // "how lossy was the link" and "how long were processes down" stay
  // separable in every report.
  enum class UndeliverableReason {
    kNoHandler = 0,             // mirror of undeliverable_downlinks
    kReceiverDisconnected = 1,  // one-to-one downlink to a disconnected object
    kServerDown = 2,            // uplink while the server process is crashed
  };
  static constexpr size_t kNumUndeliverableReasons = 3;
  std::array<uint64_t, kNumUndeliverableReasons> undeliverable_by_reason{};

  // --- Fault-injection outcomes (FaultyNetwork; always zero on the plain
  // network). Dropped messages never reached the medium and are *not*
  // included in the delivered counters above, so total_messages() remains
  // the count of successful transmissions.
  uint64_t uplink_dropped = 0;
  uint64_t downlink_dropped = 0;   // one-to-one only
  uint64_t broadcast_dropped = 0;  // whole broadcasts lost at the station
  uint64_t delayed_messages = 0;
  uint64_t duplicated_messages = 0;
  uint64_t disconnect_events = 0;  // objects entering a disconnect window

  // Always 0: the server no longer hands focal objects between shards.
  // Kept because stepbench's frozen counter snapshots still read it.
  uint64_t inter_shard_handoffs = 0;

  // Transmissions on the medium by MessageType (all directions); summing
  // this array always equals total_messages().
  std::array<uint64_t, kNumMessageTypes> messages_by_type{};

  // Bytes of those transmissions by MessageType, charged once per
  // transmission like uplink_bytes and downlink_bytes; summing this array
  // always equals uplink_bytes + downlink_bytes.
  std::array<uint64_t, kNumMessageTypes> bytes_by_type{};

  // Fault-dropped messages by MessageType (all directions).
  std::array<uint64_t, kNumMessageTypes> dropped_by_type{};

  uint64_t total_dropped() const {
    return uplink_dropped + downlink_dropped + broadcast_dropped;
  }

  uint64_t total_undeliverable() const {
    uint64_t total = 0;
    for (uint64_t count : undeliverable_by_reason) total += count;
    return total;
  }

  uint64_t total_messages() const {
    return uplink_messages + downlink_messages;
  }

  // Bytes objects received, for the energy model of Fig. 9: each
  // one-to-one downlink once, each broadcast once per covered object. The
  // bytes objects sent are uplink_bytes.
  uint64_t reception_bytes = 0;

  // Field-wise merge. The single maintained merge point for these stats:
  // any code combining runs (metrics snapshots, sweep aggregation) must use
  // this instead of summing individual fields, so newly added counters are
  // never silently dropped.
  NetworkStats& operator+=(const NetworkStats& other);
};

// Compact JSON object of the counting (wall-clock-free) NetworkStats fields,
// embedded in Simulation::ObservabilityJson; the per-type arrays are objects
// keyed by MessageTypeName. Deterministic for a given seed.
std::string NetworkStatsJson(const NetworkStats& stats);

// Direction of a transmission on the medium, as seen by the observer tap.
enum class Direction {
  kUplink,      // object -> server
  kDownlink,    // server -> one object
  kBroadcast,   // server -> base station coverage area
};

// Receives every broadcast once, with the whole list of objects it reached
// (core::ClientFleet, or a test double). One call per broadcast replaces a
// handler lookup and call per covered object.
class BroadcastReceiver {
 public:
  virtual ~BroadcastReceiver() = default;
  // `receivers` holds every covered object in coverage order; each has
  // already been charged its reception. Handlers may re-enter the network:
  // the span stays valid through nested broadcasts for the whole call.
  virtual void OnBroadcast(const Message& message,
                           std::span<const ObjectId> receivers) = 0;
};

// Simulated asymmetric wireless medium (paper §2.2): objects can send
// uplink messages to the server; the server can send one-to-one downlink
// messages and per-base-station broadcasts. Delivery is synchronous — a
// handler runs before the send call returns — which matches the paper's
// per-time-step semantics and lets installation round trips complete inline.
//
// The send entry points are virtual so a fault-injection wrapper
// (net::FaultyNetwork) can intercede; the fault-free simulation still
// instantiates this class directly, so the only cost it pays for the hook
// is the virtual dispatch itself.
class WirelessNetwork {
 public:
  virtual ~WirelessNetwork() = default;
  using ServerHandler = std::function<void(ObjectId from, const Message&)>;
  using ClientHandler = std::function<void(const Message&)>;
  // Enumerates the ids of all objects currently inside a circle (provided
  // by the mobility layer; used to deliver broadcasts).
  using CoverageQuery = std::function<void(
      const geo::Circle&, const std::function<void(ObjectId)>&)>;

  void set_server_handler(ServerHandler handler) {
    server_handler_ = std::move(handler);
  }
  // Handler for one-to-one downlinks addressed to `oid` (ids are dense, so
  // the table is indexed by oid). Broadcasts go to the broadcast receiver
  // instead. Not to be called from inside a handler.
  void RegisterClient(ObjectId oid, ClientHandler handler);
  // True when a one-to-one handler is registered for `oid`.
  bool HasClient(ObjectId oid) const {
    const auto k = static_cast<size_t>(oid);
    return oid >= 0 && k < clients_.size() && clients_[k];
  }
  // Decodes every broadcast for the objects it covers; null (the default)
  // leaves broadcasts charged but undecoded. Must outlive the network's use.
  void set_broadcast_receiver(BroadcastReceiver* receiver) {
    broadcast_receiver_ = receiver;
  }
  // Virtual so FaultyNetwork can wrap the query with a disconnected-object
  // filter before broadcasts consult it.
  virtual void set_coverage_query(CoverageQuery query) {
    coverage_query_ = std::move(query);
  }

  // Observer tap: invoked once per transmission on the medium (before
  // delivery), with the direction and the party addressed (the sender for
  // uplinks, the recipient for one-to-one downlinks, the base station id
  // for broadcasts). Used for tracing and per-object accounting.
  using Observer =
      std::function<void(Direction, int64_t party, const Message&)>;
  void set_observer(Observer observer) { observer_ = std::move(observer); }

  // Object -> server.
  virtual void SendUplink(ObjectId from, Message message);

  // Server -> one object (routed through the base station serving it; one
  // downlink message on the medium). Returns false when the message could
  // not be delivered — no client handler is registered for `to` (recorded in
  // stats().undeliverable_downlinks) or a fault wrapper dropped it.
  virtual bool SendDownlinkTo(ObjectId to, Message message);

  // Server -> all objects under `station` (one downlink message on the
  // medium; every covered object receives it and is charged for it, and the
  // broadcast receiver decodes it for all of them in one call).
  virtual void Broadcast(const BaseStation& station, const Message& message);

  const NetworkStats& stats() const { return stats_; }
  void ResetStats() { stats_ = NetworkStats{}; }

 protected:
  ServerHandler server_handler_;
  // One-to-one downlink handlers indexed by oid; an empty slot is an
  // unregistered object.
  std::vector<ClientHandler> clients_;
  BroadcastReceiver* broadcast_receiver_ = nullptr;
  CoverageQuery coverage_query_;
  Observer observer_;
  NetworkStats stats_;

  // Receiver scratch for Broadcast, pooled by nesting depth: a receiver's
  // handler may uplink a reply whose server-side processing triggers a
  // nested broadcast, which must not clobber the outer call's receiver
  // list. Each depth level keeps its vector across calls, so steady-state
  // broadcasts allocate nothing. A nested level may grow the pool, but that
  // moves the inner vectors without touching their buffers, so the span an
  // outer call handed to the receiver stays valid.
  std::vector<std::vector<ObjectId>> receiver_pool_;
  size_t broadcast_depth_ = 0;
};

}  // namespace mobieyes::net

#endif  // MOBIEYES_NET_NETWORK_H_

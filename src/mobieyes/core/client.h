#ifndef MOBIEYES_CORE_CLIENT_H_
#define MOBIEYES_CORE_CLIENT_H_

#include <cstdint>
#include <vector>

#include "mobieyes/common/ids.h"
#include "mobieyes/geo/grid.h"
#include "mobieyes/net/message.h"

namespace mobieyes::core {

class ClientFleet;

// The uplink side of one moving object (paper §3): its uplink sequence
// counter, the velocity vector it last relayed (focal dead reckoning,
// §3.4), and, with enable_reliable_uplink, the tracked uplinks awaiting an
// ack. It builds, sends, tracks, retries and acknowledges every uplink the
// object makes. The object's LQT, its evaluation and its per-step logic
// belong to the core::ClientFleet the client lives in (DESIGN.md §16),
// which decides when each uplink goes out.
//
// Every send can set off nested deliveries at any object, this one
// included, before it returns.
class MobiEyesClient {
 public:
  // Built by the fleet, which must outlive the client.
  MobiEyesClient(ClientFleet& fleet, ObjectId oid)
      : fleet_(&fleet), oid_(oid) {}

  // Network entry point for one-to-one downlinks. Acks and position
  // requests are the client's; every other type goes to
  // ClientFleet::OnDownlink. A direct call with a broadcast runs its full
  // handler, with no relevance check.
  void OnDownlink(const net::Message& message);

  ObjectId oid() const { return oid_; }
  // Tracked uplinks not yet acknowledged (reliable-uplink hardening).
  size_t pending_uplinks() const { return pending_.size(); }

  // --- Uplinks, sent when the fleet's step or delivery calls for them ---

  // Focal dead reckoning (§3.4): relays the velocity vector when the true
  // position drifts more than Δ from what the last relayed vector predicts.
  void RelayVelocityIfDrifted();
  // Reports the crossing from `origin` to `new_cell` (§3.5). An unacked
  // crossing is chained: the new report keeps its origin, so the server's
  // RQI diff spans the whole unconfirmed move.
  void SendCellChangeReport(const geo::CellCoord& origin,
                            const geo::CellCoord& new_cell);
  // At most net::kResultBitmapCapacity queries.
  void SendBitmapReport(net::ResultBitmapReport report);
  void SendReconcile(net::LqtReconcileRequest request);
  // Retransmits tracked uplinks whose backoff elapsed and abandons those
  // whose retry budget is spent.
  void RetryPendingUplinks();
  // Records the object's current kinematics as last relayed: the server
  // took them into its FOT during the focal installation round trip.
  void NoteRelayed() { last_relayed_ = Kinematics(); }
  // The uplink half of a cold restart (ClientFleet::Reset): drops the
  // pending uplinks and the relayed-vector memory, as a device reboot
  // would. The sequence counter restarts ISN-style from the tick clock,
  // above every seq the old incarnation used: the server's dedup window
  // slides up instead of taking new uplinks for old retransmissions.
  void ResetUplinks();

 private:
  // Tracked uplinks kept awaiting an ack; past this the oldest is dropped.
  static constexpr size_t kMaxPendingUplinks = 16;
  // Retransmissions of a tracked uplink before it is abandoned, and the
  // ticks before the first one, doubling after each. The server's
  // anti-replay window is derived from these three (DESIGN.md §8).
  static constexpr int kUplinkMaxRetries = 4;
  static constexpr int64_t kUplinkRetryBackoffTicks = 1;

  // One unacknowledged tracked uplink. Retransmissions regenerate the
  // payload from current state (stored here is only what cannot be
  // re-derived), so a retry never reintroduces stale data.
  struct PendingUplink {
    uint32_t seq = 0;
    net::MessageType type = net::MessageType::kVelocityChangeReport;
    geo::CellCoord prev_cell;   // kCellChangeReport: origin of the move
    std::vector<QueryId> qids;  // kResultBitmapReport: covered queries
    int retries = 0;
    int64_t retry_at = 0;  // tick of the next retransmission
  };

  // This object's ground-truth kinematics now, as relayed to the server.
  net::FocalState Kinematics() const;
  void SendVelocityReport();
  // Stamps `message` with the next sequence number and tracks it for
  // ack/retry.
  void TrackUplink(net::Message& message, PendingUplink entry);
  net::Message RebuildPending(const PendingUplink& pending);
  // Keeps the fleet's dense "tracked uplink pending" flag current.
  void SyncPending();
  // (oid, seq) lifecycle key for one tracked uplink's ack round.
  uint64_t AckKey(uint32_t seq) const {
    return (static_cast<uint64_t>(static_cast<uint32_t>(oid_)) << 32) | seq;
  }
  // Cancels the ack round of a tracked uplink being abandoned (superseded,
  // evicted, retry budget spent, or client restart).
  void DropAckRound(uint32_t seq);

  ClientFleet* fleet_;
  ObjectId oid_;
  uint32_t next_seq_ = 0;
  net::FocalState last_relayed_;  // what others believe about this object
  // Reliable-uplink state (empty unless enable_reliable_uplink).
  std::vector<PendingUplink> pending_;
};

}  // namespace mobieyes::core

#endif  // MOBIEYES_CORE_CLIENT_H_

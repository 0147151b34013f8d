#ifndef MOBIEYES_CORE_CLIENT_H_
#define MOBIEYES_CORE_CLIENT_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "mobieyes/common/ids.h"
#include "mobieyes/common/units.h"
#include "mobieyes/core/lqt_slab.h"
#include "mobieyes/geo/grid.h"
#include "mobieyes/mobility/world.h"
#include "mobieyes/net/message.h"

namespace mobieyes::core {

class ClientFleet;

// The moving-object side of MobiEyes (paper §3): each object keeps a local
// query table (LQT) of the moving queries whose monitoring region covers
// its current grid cell, evaluates them each time step by dead-reckoning
// the focal object's position, and reports only containment *changes* to
// the server. Focal objects additionally run dead reckoning on their own
// trajectory and report significant velocity changes and cell crossings.
//
// Clients exist only inside a core::ClientFleet, which keeps their LQT rows
// in one slab and their per-step state in dense arrays (DESIGN.md §16); a
// client holds only its uplink state. No client method keeps a row pointer
// or span across a send: an uplink can set off a nested broadcast that
// inserts rows anywhere and moves the slab.
class MobiEyesClient {
 public:
  // One LQT row with its query state, as lqt() materializes it (paper
  // §3.2, plus the safe-period gate ptm of §4.2 and the lease).
  struct LqtEntry {
    QueryId qid = kInvalidQueryId;
    ObjectId focal_oid = kInvalidObjectId;
    net::FocalState focal;
    geo::QueryRegion region;
    double filter_threshold = 1.0;
    geo::CellRange mon_region;
    double focal_max_speed = 0.0;
    bool is_target = false;
    Seconds ptm = 0.0;
    Seconds lease_expires_at = std::numeric_limits<Seconds>::infinity();
  };

  // Built by the fleet, which must outlive the client.
  MobiEyesClient(ClientFleet& fleet, ObjectId oid)
      : fleet_(&fleet), oid_(oid) {}

  // Network entry point for downlink traffic (one-to-one and broadcast).
  // core::ClientFleet wires it to the network for one-to-one downlinks and
  // handles broadcasts itself, skipping those it can prove change nothing;
  // a direct call always runs in full.
  void OnDownlink(const net::Message& message);

  // Per-time-step processing, run after the world advanced: cell-crossing
  // handling, focal dead reckoning, and periodic LQT evaluation.
  // ClientFleet::Tick runs it for every object; a direct call ticks this
  // object alone.
  void OnTick();

  // Cold restart (crash recovery, DESIGN.md §9): drops all volatile
  // protocol state — the LQT, pending uplinks, hasMQ and the relayed-vector
  // memory — as a device reboot would, then (when reconciliation is
  // enabled) immediately sends a cold-start LqtReconcileRequest so the
  // server rebuilds the LQT through the PR 3 reconciliation path instead of
  // a re-broadcast storm. The uplink sequence counter restarts ISN-style
  // from the tick clock so the server's dedup ring cannot mistake the new
  // incarnation's uplinks for retransmissions of the old one's.
  void Reset();

  // --- Introspection --------------------------------------------------------

  ObjectId oid() const { return oid_; }
  bool has_mq() const;
  size_t lqt_size() const;
  // A copy of the LQT in evaluation order.
  std::vector<LqtEntry> lqt() const;
  // Key signature of the current LQT, recomputed from its rows.
  uint64_t lqt_signature() const;

  // Last containment status this object computed for a query, or nullopt
  // when the query is not in the LQT.
  std::optional<bool> IsTargetOf(QueryId qid) const;

  // Accumulated wall time spent evaluating the LQT (Fig. 13 metric); the
  // flip reports an evaluation sends are not part of it.
  double processing_seconds() const;

  // Number of per-query evaluations actually performed (safe-period skips
  // excluded) and of evaluations skipped by the safe period.
  uint64_t queries_evaluated() const;
  uint64_t safe_period_skips() const;

  // Clears the measurement counters (used after simulation warmup).
  void ResetCounters();

  // Tracked uplinks not yet acknowledged (reliable-uplink hardening).
  size_t pending_uplinks() const { return pending_.size(); }

 private:
  friend class ClientFleet;

  // One unacknowledged tracked uplink. Retransmissions regenerate the
  // payload from current client state (stored here is only what cannot be
  // re-derived), so a retry never reintroduces stale data.
  struct PendingUplink {
    uint32_t seq = 0;
    net::MessageType type = net::MessageType::kVelocityChangeReport;
    geo::CellCoord prev_cell;   // kCellChangeReport: origin of the move
    std::vector<QueryId> qids;  // kResultBitmapReport: covered queries
    int retries = 0;
    int64_t retry_at = 0;  // tick of the next retransmission
  };

  size_t index() const { return static_cast<size_t>(oid_); }
  // The tick body, after the fleet advanced this object's tick clock.
  void Step();
  void HandleCellCrossing(const geo::CellCoord& new_cell);
  void EvaluateQueries(const mobility::ObjectState& me);
  // This object's ground-truth kinematics now, as relayed to the server.
  net::FocalState Kinematics() const;
  // Uplink send paths; with enable_reliable_uplink they stamp a sequence
  // number and track the message for ack/retry.
  void SendVelocityReport();
  void SendCellChangeReport(const geo::CellCoord& new_cell);
  void SendBitmapReport(net::ResultBitmapReport report);
  // Reports the group of rows starting at `begin` (one focal object) with
  // its full bitmap (§4.1), in reports of at most 64 queries each.
  void SendGroupReports(size_t begin);
  void TrackUplink(net::Message& message, PendingUplink entry);
  void RetryPendingUplinks();
  net::Message RebuildPending(const PendingUplink& pending);
  // Drops LQT entries whose lease lapsed (reporting containment flips).
  void ExpireLeases(Seconds now);
  // Periodic LQT/result reconciliation uplink, staggered by object id.
  void MaybeReconcile();
  void SendReconcile(bool cold_start);
  // Removes LQT rows at the given indices (sorted ascending), reporting a
  // containment flip to false for rows that were targets.
  void RemoveEntries(const std::vector<size_t>& indices);
  // Tracked-uplink bookkeeping the fleet's tick reads densely.
  void SyncPending();

  ClientFleet* fleet_;
  ObjectId oid_;
  uint32_t next_seq_ = 0;
  net::FocalState last_relayed_;  // what others believe about this object
  // Reliable-uplink state (empty unless enable_reliable_uplink).
  std::vector<PendingUplink> pending_;

  // (oid, seq) lifecycle key for one tracked uplink's ack round.
  uint64_t AckKey(uint32_t seq) const {
    return (static_cast<uint64_t>(static_cast<uint32_t>(oid_)) << 32) | seq;
  }
  // Cancels the ack round of a tracked uplink being abandoned (superseded,
  // evicted, retry budget spent, or client restart).
  void DropAckRound(uint32_t seq);
};

}  // namespace mobieyes::core

#endif  // MOBIEYES_CORE_CLIENT_H_

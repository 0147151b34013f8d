#ifndef MOBIEYES_CORE_CLIENT_H_
#define MOBIEYES_CORE_CLIENT_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "mobieyes/common/ids.h"
#include "mobieyes/common/stopwatch.h"
#include "mobieyes/common/units.h"
#include "mobieyes/core/options.h"
#include "mobieyes/geo/grid.h"
#include "mobieyes/mobility/world.h"
#include "mobieyes/net/message.h"
#include "mobieyes/net/network.h"
#include "mobieyes/obs/trace_recorder.h"

namespace mobieyes::obs {
class LifecycleTracker;
}  // namespace mobieyes::obs

namespace mobieyes::core {

// LQT key signature (DESIGN.md §16): a 64-bit Bloom summary of the qids and
// focal oids one LQT holds, two bits per key. A key whose bits are not all
// set in the signature is provably absent from the LQT; a key whose bits
// are all set may be present or may collide.
inline uint64_t LqtKeyBits(uint64_t hash) {
  return (uint64_t{1} << (hash >> 58)) | (uint64_t{1} << ((hash >> 52) & 63));
}
inline uint64_t LqtQidKey(QueryId qid) {
  return LqtKeyBits(static_cast<uint64_t>(qid) * 0x9E3779B97F4A7C15ULL);
}
inline uint64_t LqtFocalKey(ObjectId focal_oid) {
  return LqtKeyBits(static_cast<uint64_t>(focal_oid) * 0xC2B2AE3D27D4EB4FULL);
}
inline bool LqtMayHold(uint64_t signature, uint64_t key) {
  return (signature & key) == key;
}

// The moving-object side of MobiEyes (paper §3): each object keeps a local
// query table (LQT) of the moving queries whose monitoring region covers
// its current grid cell, evaluates them each time step by dead-reckoning
// the focal object's position, and reports only containment *changes* to
// the server. Focal objects additionally run dead reckoning on their own
// trajectory and report significant velocity changes and cell crossings.
class MobiEyesClient {
 public:
  // LQT row (paper §3.2) plus the safe-period gate ptm (§4.2).
  struct LqtEntry {
    QueryId qid = kInvalidQueryId;
    ObjectId focal_oid = kInvalidObjectId;
    net::FocalState focal;
    geo::QueryRegion region;
    double filter_threshold = 1.0;
    geo::CellRange mon_region;
    double focal_max_speed = 0.0;
    bool is_target = false;
    Seconds ptm = 0.0;  // next evaluation due at this time or later
    // Soft-state lease (options.lease_duration > 0): the entry is dropped if
    // no server broadcast refreshes it before this time, so queries removed
    // while this object was unreachable cannot linger forever.
    Seconds lease_expires_at = std::numeric_limits<Seconds>::infinity();
  };

  // `world` provides this object's own ground-truth state (a real device
  // would read its GPS); `network` carries all communication. Both must
  // outlive the client.
  MobiEyesClient(const mobility::World& world, ObjectId oid,
                 net::WirelessNetwork& network, MobiEyesOptions options);

  // Network entry point for downlink traffic (one-to-one and broadcast).
  // core::ClientFleet wires it to the network and skips it for broadcasts
  // it can prove change nothing; a direct call always runs in full.
  void OnDownlink(const net::Message& message);

  // Per-time-step processing, run after the world advanced: cell-crossing
  // handling, focal dead reckoning, and periodic LQT evaluation.
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
  bool has_mq() const { return has_mq_; }
  size_t lqt_size() const { return lqt_.size(); }
  const std::vector<LqtEntry>& lqt() const { return lqt_; }
  // Key signature of the current LQT, recomputed from its entries.
  uint64_t lqt_signature() const;

  // Last containment status this object computed for a query, or nullopt
  // when the query is not in the LQT.
  std::optional<bool> IsTargetOf(QueryId qid) const;

  // Accumulated wall time spent evaluating the LQT (Fig. 13 metric).
  double processing_seconds() const { return eval_watch_.total_seconds(); }

  // Number of per-query evaluations actually performed (safe-period skips
  // excluded) and of evaluations skipped by the safe period.
  uint64_t queries_evaluated() const { return queries_evaluated_; }
  uint64_t safe_period_skips() const { return safe_period_skips_; }

  // Clears the measurement counters (used after simulation warmup).
  void ResetCounters() {
    eval_watch_.Reset();
    queries_evaluated_ = 0;
    safe_period_skips_ = 0;
  }

  // Scoped-span tracing of LQT evaluation; null (the default) disables it.
  // The recorder must outlive the client.
  void set_trace_recorder(obs::TraceRecorder* trace) { trace_ = trace; }

  // Lifecycle latency tap (uplink_ack rounds keyed by (oid, seq)); null
  // (the default) disables it. The tracker must outlive the client.
  void set_lifecycle(obs::LifecycleTracker* lifecycle) {
    lifecycle_ = lifecycle;
  }

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

  void HandleCellCrossing(const geo::CellCoord& new_cell);
  void EvaluateQueries(const mobility::ObjectState& me);
  // This object's ground-truth kinematics now, as relayed to the server.
  net::FocalState Kinematics() const {
    return net::FocalState{world_->position(oid_), world_->velocity(oid_),
                           world_->now()};
  }
  // Uplink send paths; with enable_reliable_uplink they stamp a sequence
  // number and track the message for ack/retry.
  void SendVelocityReport();
  void SendCellChangeReport(const geo::CellCoord& new_cell);
  void SendBitmapReport(net::ResultBitmapReport report);
  void TrackUplink(net::Message& message, PendingUplink entry);
  void RetryPendingUplinks();
  net::Message RebuildPending(const PendingUplink& pending);
  // Drops LQT entries whose lease lapsed (reporting containment flips).
  void ExpireLeases(Seconds now);
  // Periodic LQT/result reconciliation uplink, staggered by object id.
  void MaybeReconcile();
  void SendReconcile(bool cold_start);
  Seconds LeaseExpiry(Seconds now) const {
    return options_.lease_duration > 0.0
               ? now + 2.0 * options_.lease_duration
               : std::numeric_limits<Seconds>::infinity();
  }
  // Installs or refreshes a query if this object lies in its monitoring
  // region, satisfies the filter and is not the query's own focal object.
  void InstallIfApplicable(const net::QueryInfo& info);
  // Removes LQT entries at the given indices (sorted ascending), reporting
  // a containment flip to false for entries that were targets.
  void RemoveEntries(const std::vector<size_t>& indices);
  void SendFlipReports(const std::vector<size_t>& dirty_groups);
  LqtEntry* FindEntry(QueryId qid);
  // Insertion position keeping lqt_ sorted by (focal_oid, radius desc, qid).
  size_t InsertPosition(const LqtEntry& entry) const;
  // Rewrites the fleet's signature slot; called after every LQT insert,
  // erase and clear so the fleet's relevance check never misses a key.
  void SyncSignature() {
    if (signature_slot_ != nullptr) *signature_slot_ = lqt_signature();
  }
  // Called after every LQT erase: keeps capacity within 2 * size + 2, so a
  // client's LQT does not keep the largest size it ever reached for the
  // rest of the run.
  void ReleaseSpareLqtCapacity() {
    if (lqt_.capacity() > 2 * lqt_.size() + 2) lqt_.shrink_to_fit();
  }

  const mobility::World* world_;
  ObjectId oid_;
  net::WirelessNetwork* network_;
  MobiEyesOptions options_;

  std::vector<LqtEntry> lqt_;
  // The fleet's dense copy of lqt_signature(); null outside a fleet.
  uint64_t* signature_slot_ = nullptr;
  bool has_mq_ = false;
  net::FocalState last_relayed_;  // what others believe about this object
  geo::CellCoord prev_cell_;

  // Reliable-uplink state (empty unless enable_reliable_uplink).
  std::vector<PendingUplink> pending_;
  uint32_t next_seq_ = 0;
  int64_t tick_ = 0;

  // EvaluateQueries scratch (flip bookkeeping), reused across ticks so the
  // per-tick LQT evaluation stays allocation-free at steady state.
  std::vector<size_t> scratch_dirty_groups_;
  std::vector<size_t> scratch_flipped_;

  // (oid, seq) lifecycle key for one tracked uplink's ack round.
  uint64_t AckKey(uint32_t seq) const {
    return (static_cast<uint64_t>(static_cast<uint32_t>(oid_)) << 32) | seq;
  }
  // Cancels the ack round of a tracked uplink being abandoned (superseded,
  // evicted, retry budget spent, or client restart).
  void DropAckRound(uint32_t seq);

  Stopwatch eval_watch_;
  uint64_t queries_evaluated_ = 0;
  uint64_t safe_period_skips_ = 0;
  obs::TraceRecorder* trace_ = nullptr;
  obs::LifecycleTracker* lifecycle_ = nullptr;
};

}  // namespace mobieyes::core

#endif  // MOBIEYES_CORE_CLIENT_H_

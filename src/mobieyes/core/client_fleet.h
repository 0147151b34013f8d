#ifndef MOBIEYES_CORE_CLIENT_FLEET_H_
#define MOBIEYES_CORE_CLIENT_FLEET_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "mobieyes/common/ids.h"
#include "mobieyes/core/client.h"
#include "mobieyes/core/lqt_slab.h"
#include "mobieyes/core/options.h"
#include "mobieyes/mobility/world.h"
#include "mobieyes/net/message.h"
#include "mobieyes/net/network.h"
#include "mobieyes/obs/trace_recorder.h"

namespace mobieyes::obs {
class LifecycleTracker;
}  // namespace mobieyes::obs

namespace mobieyes::core {

// The moving-object side of MobiEyes (paper §3) for every object at once
// (DESIGN.md §16). Each object keeps a local query table (LQT) of the
// moving queries whose monitoring region covers its current grid cell,
// evaluates them each time step by dead-reckoning the focal object's
// position, and reports only containment *changes* to the server; focal
// objects also report significant velocity changes and cell crossings.
//
// The fleet is the only module that reads or writes LQT rows: all of them
// live in one LqtSlab, and each object's per-step state in dense
// oid-indexed arrays. Each object also has a MobiEyesClient, which holds
// its uplink state and sends its uplinks; the fleet decides when.
//
// Tick() runs every object's step in oid order, and skips an object with
// nothing due (no cell crossing, no focal duty, no tracked uplink, no
// reconcile turn, and no LQT row whose safe period or lease ends by now)
// without touching its client or its rows.
//
// Each broadcast arrives once with its covered objects; the fleet decodes
// it once and, for each receiver in coverage order, runs an exact
// relevance check on dense arrays — the LQT key signatures and the world's
// cell and attribute arrays — before that receiver's turn. The handler
// runs only where the message can change the receiver; elsewhere it would
// change no state and send nothing, so skipping it is invisible.
// Receptions are charged by the network before the fleet sees the list,
// skipped or not (Fig. 9).
//
// Both checks are evaluated per object at its turn, never for the whole
// population up front: an earlier object's uplink can set off a nested
// broadcast that installs a query at a later one. Cells and attributes are
// fixed within a tick; everything else is re-read every time. For the same
// reason no row pointer or span is held across a send: a nested delivery
// may insert rows anywhere and move the slab.
class ClientFleet final : public net::BroadcastReceiver {
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

  // Builds one client per world object (oid == index), registers each for
  // one-to-one downlinks, and becomes the network's broadcast receiver.
  // `world` and `network` must outlive the fleet.
  ClientFleet(const mobility::World& world, net::WirelessNetwork& network,
              MobiEyesOptions options);
  ~ClientFleet() override;

  ClientFleet(const ClientFleet&) = delete;
  ClientFleet& operator=(const ClientFleet&) = delete;

  MobiEyesClient& client(ObjectId oid) {
    return clients_[static_cast<size_t>(oid)];
  }
  std::span<MobiEyesClient> clients() { return clients_; }

  // One time step for every object, in oid order, after the world advanced:
  // lease expiry, cell-crossing handling, focal dead reckoning, LQT
  // evaluation, then retries and reconciliation. Compacts the LQT slab
  // first, between object turns.
  void Tick();

  // Cold restart of one object (crash recovery, DESIGN.md §9): drops all
  // volatile protocol state — the LQT, hasMQ, and the client's pending
  // uplinks and relayed-vector memory — as a device reboot would, then
  // (when reconciliation is enabled) sends a cold-start
  // LqtReconcileRequest at once, so the server rebuilds the LQT through
  // the reconciliation path instead of a re-broadcast storm.
  void Reset(ObjectId oid);

  void OnBroadcast(const net::Message& message,
                   std::span<const ObjectId> receivers) override;
  // The fleet's half of client(oid).OnDownlink: hasMQ and the LQT types
  // (the four broadcasts and NewQueriesNotification); other types are
  // ignored.
  void OnDownlink(ObjectId oid, const net::Message& message);

  // The relevance check OnBroadcast applies: false only when
  // client(oid).OnDownlink(message) would change no state and send nothing.
  bool MayAffect(const net::Message& message, ObjectId oid) const;

  // --- One object's LQT and focal state -------------------------------------

  bool has_mq(ObjectId oid) const {
    return has_mq_[static_cast<size_t>(oid)] != 0;
  }
  size_t lqt_size(ObjectId oid) const {
    return slab_.size(static_cast<size_t>(oid));
  }
  // A copy of the LQT in evaluation order.
  std::vector<LqtEntry> lqt(ObjectId oid) const;
  // The LQT's key signature, kept exact on every row insert and erase.
  uint64_t lqt_signature(ObjectId oid) const {
    return slab_.signature(static_cast<size_t>(oid));
  }
  // Last containment status the object computed for a query, or nullopt
  // when the query is not in its LQT.
  std::optional<bool> IsTargetOf(ObjectId oid, QueryId qid) const;

  // LQT rows over all objects.
  size_t live_rows() const { return slab_.live_rows(); }
  const LqtSlab& slab() const { return slab_; }

  // --- Measurement totals over all objects ----------------------------------

  // Wall time spent evaluating LQTs (Fig. 13 metric); the flip reports an
  // evaluation sends are not part of it.
  double processing_seconds() const { return processing_seconds_; }
  // Per-query evaluations performed, and evaluations the safe period
  // skipped.
  uint64_t queries_evaluated() const { return queries_evaluated_; }
  uint64_t safe_period_skips() const { return safe_period_skips_; }
  // Clears the three totals above (used after simulation warmup).
  void ResetCounters();

  // Covered objects whose handler the relevance check skipped.
  uint64_t skipped_receptions() const { return skipped_receptions_; }

  // Scoped-span tracing of LQT evaluation; null (the default) disables it.
  // The recorder must outlive the fleet.
  void set_trace_recorder(obs::TraceRecorder* trace) { trace_ = trace; }
  // Lifecycle latency tap (uplink_ack rounds keyed by (oid, seq)); null
  // (the default) disables it. The tracker must outlive the fleet.
  void set_lifecycle(obs::LifecycleTracker* lifecycle) {
    lifecycle_ = lifecycle;
  }

  // --- What the clients' uplinks read ---------------------------------------

  const mobility::World& world() const { return *world_; }
  net::WirelessNetwork& network() { return *network_; }
  const MobiEyesOptions& options() const { return options_; }
  obs::LifecycleTracker* lifecycle() const { return lifecycle_; }
  // Object oid's tick clock: the rounds in which its turn has come. Within
  // a round, an object whose turn is still ahead reads the previous round.
  int64_t tick(ObjectId oid) const {
    return round_ - (static_cast<size_t>(oid) > turn_ ? 1 : 0);
  }
  // Kept by client(oid) whenever its tracked uplinks become empty or
  // non-empty; the tick's skip test reads it densely.
  void SetUplinksPending(ObjectId oid, bool pending) {
    has_pending_[static_cast<size_t>(oid)] = pending ? 1 : 0;
  }

 private:
  // turn_ between rounds: every object's turn has come.
  static constexpr size_t kNoTurn = std::numeric_limits<size_t>::max();

  // Object k's step within Tick().
  void Step(size_t k);
  void EvaluateQueries(size_t k, const mobility::ObjectState& me);
  // Reports the group of object k's rows starting at `begin` (one focal
  // object) with its full bitmap (§4.1), in reports of at most
  // net::kResultBitmapCapacity queries each.
  void SendGroupReports(size_t k, size_t begin);
  // Erases object k's rows that satisfy `stale`, reporting a containment
  // flip to false for rows that were targets.
  template <typename Pred>
  void RemoveRows(size_t k, Pred&& stale);
  // The LQT/result reconciliation uplink with object k's id lists and the
  // level of its filter attribute.
  void SendReconcile(size_t k, bool cold_start);

  // Decodes `message` once and calls fn(relevant), where relevant(k) is
  // the per-receiver check for object index k.
  template <typename Fn>
  void WithRelevance(const net::Message& message, Fn&& fn) const;
  // The three install tests on the dense arrays: not the query's focal,
  // inside its monitoring region, passes its filter. InstallIfApplicable
  // and the relevance check share them.
  bool Installable(const net::QueryInfo& info, size_t k) const {
    return info.focal_oid != static_cast<ObjectId>(k) &&
           info.mon_region.Contains(geo::CellCoord{cell_i_[k], cell_j_[k]}) &&
           attr_[k] <= info.filter_threshold;
  }
  bool AnyInstallable(std::span<const net::QueryInfo> queries, size_t k) const;

  // The LQT side of object k's downlink handling: the four broadcast types
  // and NewQueriesNotification (other types are ignored). It reads the
  // dense arrays and k's rows, and touches client(k) only to send.
  void Deliver(size_t k, const net::Message& message);
  // Installs or refreshes a query if object k lies in its monitoring
  // region, satisfies the filter and is not the query's own focal object.
  void InstallIfApplicable(size_t k, const net::QueryInfo& info);
  // Index of object k's row holding qid, or -1.
  ptrdiff_t FindRow(size_t k, QueryId qid) const;
  // Insertion position keeping rows sorted by (focal_oid, reach desc, qid).
  size_t InsertPosition(size_t k, const LqtRow& row) const;
  // The lease a row installed or refreshed now gets.
  Seconds LeaseExpiry() const {
    return options_.lease_duration > 0.0
               ? world_->now() + 2.0 * options_.lease_duration
               : std::numeric_limits<Seconds>::infinity();
  }
  // When a row next needs its holder's tick: its safe period's end (every
  // tick without safe periods) or its lease's, whichever is earlier.
  Seconds RowDue(const LqtRow& row) const {
    const Seconds ptm = options_.enable_safe_period
                            ? row.ptm
                            : -std::numeric_limits<Seconds>::infinity();
    return ptm < row.lease_expires_at ? ptm : row.lease_expires_at;
  }

  const mobility::World* world_;
  net::WirelessNetwork* network_;
  MobiEyesOptions options_;
  obs::TraceRecorder* trace_ = nullptr;
  obs::LifecycleTracker* lifecycle_ = nullptr;

  std::vector<MobiEyesClient> clients_;
  LqtSlab slab_;
  // Per-object state, indexed by oid. due_ is a lower bound on RowDue over
  // the object's rows, kept by every path that adds a row or moves a ptm
  // (a lease refresh only raises the true minimum).
  std::vector<Seconds> due_;
  std::vector<geo::CellCoord> prev_cell_;
  std::vector<uint8_t> has_mq_;
  std::vector<uint8_t> has_pending_;  // any tracked uplink unacknowledged
  // The tick clock: rounds started, and the object whose step is running.
  int64_t round_ = 0;
  size_t turn_ = kNoTurn;
  double processing_seconds_ = 0.0;
  uint64_t queries_evaluated_ = 0;
  uint64_t safe_period_skips_ = 0;
  // EvaluateQueries scratch (flip bookkeeping), reused across objects and
  // ticks so evaluation stays allocation-free at steady state. Evaluation
  // runs only from a tick, never nested inside another object's.
  std::vector<size_t> scratch_dirty_groups_;
  std::vector<size_t> scratch_flipped_;

  // World arrays indexed by oid; the world never resizes them.
  const int32_t* cell_i_;
  const int32_t* cell_j_;
  const double* attr_;
  uint64_t skipped_receptions_ = 0;
};

}  // namespace mobieyes::core

#endif  // MOBIEYES_CORE_CLIENT_FLEET_H_

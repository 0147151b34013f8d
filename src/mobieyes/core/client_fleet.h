#ifndef MOBIEYES_CORE_CLIENT_FLEET_H_
#define MOBIEYES_CORE_CLIENT_FLEET_H_

#include <cstdint>
#include <limits>
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

// Every moving object's client, in one oid-indexed vector, their LQTs in
// one LqtSlab, their per-step state in dense oid-indexed arrays, and the
// network's broadcast receiver (DESIGN.md §16).
//
// Tick() runs every client's step in oid order, and skips an object with
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
// fixed within a tick; everything else is re-read every time.
class ClientFleet final : public net::BroadcastReceiver {
 public:
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

  // One time step for every client, in oid order, after the world advanced.
  // Compacts the LQT slab first, between client turns.
  void Tick();

  void OnBroadcast(const net::Message& message,
                   std::span<const ObjectId> receivers) override;

  // The relevance check OnBroadcast applies: false only when
  // client(oid).OnDownlink(message) would change no state and send nothing.
  bool MayAffect(const net::Message& message, ObjectId oid) const;

  // The fleet's copy of client(oid).lqt_signature().
  uint64_t lqt_signature(ObjectId oid) const {
    return slab_.signature(static_cast<size_t>(oid));
  }
  size_t lqt_size(ObjectId oid) const {
    return slab_.size(static_cast<size_t>(oid));
  }
  // LQT rows over all clients.
  size_t live_rows() const { return slab_.live_rows(); }
  const LqtSlab& slab() const { return slab_; }

  // Sums of the clients' measurement counters.
  double processing_seconds() const;
  uint64_t queries_evaluated() const;
  uint64_t safe_period_skips() const;
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

 private:
  friend class MobiEyesClient;

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
  std::vector<int64_t> ticks_;  // the device's tick clock
  std::vector<geo::CellCoord> prev_cell_;
  std::vector<uint8_t> has_mq_;
  std::vector<uint8_t> has_pending_;  // any tracked uplink unacknowledged
  std::vector<uint64_t> evaluated_;
  std::vector<uint64_t> skips_;
  std::vector<double> eval_seconds_;
  // EvaluateQueries scratch (flip bookkeeping), reused across clients and
  // ticks so evaluation stays allocation-free at steady state. Evaluation
  // runs only from a tick, never nested inside another client's.
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

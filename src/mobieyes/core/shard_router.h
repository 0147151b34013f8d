#ifndef MOBIEYES_CORE_SHARD_ROUTER_H_
#define MOBIEYES_CORE_SHARD_ROUTER_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "mobieyes/common/ids.h"
#include "mobieyes/common/status.h"
#include "mobieyes/common/stopwatch.h"
#include "mobieyes/common/units.h"
#include "mobieyes/core/options.h"
#include "mobieyes/core/server_shard.h"
#include "mobieyes/core/snapshot.h"
#include "mobieyes/geo/grid.h"
#include "mobieyes/net/bmap.h"
#include "mobieyes/net/message.h"
#include "mobieyes/net/network.h"
#include "mobieyes/obs/heatmap.h"
#include "mobieyes/obs/trace_recorder.h"

namespace mobieyes::obs {
class LifecycleTracker;
}  // namespace mobieyes::obs

namespace mobieyes::core {

class ShardTransport;

inline constexpr Seconds kNeverExpires =
    std::numeric_limits<Seconds>::infinity();

// FOT row (paper §3.2): last reported kinematics of a focal object plus
// the queries bound to it.
struct FotEntry {
  net::FocalState state;
  double max_speed = 0.0;  // miles/second, carried for safe periods
  // Last known grid cell, kept current by cell-change reports. The
  // recorded kinematics must stay untouched between velocity reports or
  // dead-reckoning predictions downstream would diverge.
  geo::CellCoord cell;
  std::vector<QueryId> queries;
};

// SQT row (paper §3.2) plus the expiry time: the paper's example queries
// are time-bounded ("during next 2 hours"), so a query may carry a
// duration after which the server uninstalls it everywhere.
struct SqtEntry {
  QueryId qid = kInvalidQueryId;
  ObjectId focal_oid = kInvalidObjectId;
  geo::QueryRegion region;
  double filter_threshold = 1.0;
  geo::CellCoord curr_cell;
  geo::CellRange mon_region;
  Seconds expires_at = kNeverExpires;
  // Soft-state lease (options.lease_duration > 0): when the deadline
  // passes, the server re-broadcasts the query's monitoring-region state
  // so clients that missed the original install or update recover.
  Seconds lease_renew_at = std::numeric_limits<Seconds>::infinity();
  std::unordered_set<ObjectId> result;
};

// The server's protocol engine (DESIGN.md §10). The router owns the FOT
// and the SQT, keyed by focal object and by query as in the paper, and
// the RQI is split by grid row band over N ServerShards. The router
// dispatches every uplink serially in arrival order (the in-process
// network is synchronous, so responses land mid-tick and feed the same
// tick's client evaluations — reordering would change observable
// behavior), fans RQI edits out to the shards owning the touched cells,
// reads each RQI row from its owner, and funnels every downlink through
// the wireless network in the order the monolith produced. Where an RQI
// row lives is invisible to clients: rows are keyed by cell and never
// move.
class ShardRouter {
 public:
  ShardRouter(const geo::Grid& grid, const net::BaseStationLayout& layout,
              const net::Bmap& bmap, net::WirelessNetwork& network,
              MobiEyesOptions options);

  // The server API. With a durable store attached, a successful install or
  // removal checkpoints before it returns (DESIGN.md §9).
  Result<QueryId> InstallQuery(ObjectId focal_oid,
                               const geo::QueryRegion& region,
                               double filter_threshold, Seconds duration);
  void AdvanceTime(Seconds now);
  Seconds now() const { return now_; }
  Status RemoveQuery(QueryId qid);
  void OnUplink(ObjectId from, const net::Message& message);

  // --- Introspection -------------------------------------------------------

  Result<std::unordered_set<ObjectId>> QueryResult(QueryId qid) const;
  const SqtEntry* FindQuery(QueryId qid) const;
  const FotEntry* FindFocal(ObjectId oid) const;
  size_t query_count() const { return sqt_.size(); }

  // The RQI row of `cell`, read from the owning shard.
  const std::vector<QueryId>& QueriesForCell(const geo::CellCoord& cell) const;

  // Tracked uplinks refused because their seq lay more than kSeqWindow
  // below the highest seq seen from their sender. Each was still acked.
  uint64_t stale_uplinks() const { return stale_uplinks_; }
  // How far below an object's highest tracked seq the router still tells a
  // first arrival from a duplicate (DESIGN.md §8).
  static constexpr uint32_t kSeqWindow = 64;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  const geo::Grid& grid() const { return *grid_; }
  const ShardMap& shard_map() const { return map_; }
  const ServerShard& shard(int k) const { return *shards_[k]; }

  double load_seconds() const { return load_timer_.total_seconds(); }
  // Wall time of the step phase (expiry scan, lease scan, checkpoint
  // encode).
  double step_seconds() const { return step_timer_.total_seconds(); }
  void ResetLoadTimer() {
    load_timer_.Reset();
    step_timer_.Reset();
  }

  void set_trace_recorder(obs::TraceRecorder* trace) { trace_ = trace; }

  // --- Heat map & lifecycle (DESIGN.md §12) --------------------------------
  //
  // The heat map the router charges (uplinks, RQI scan work, installs),
  // always at the cell the charge names, so the charges are the same
  // whatever the shard count. Charges are suppressed while replaying a
  // WAL: the pre-crash run already recorded that work. Null (the default)
  // disables it; the map must outlive the router.
  void set_heatmap(obs::HeatMap* heatmap) { heatmap_ = heatmap; }

  // Lifecycle latency tap (install->first-result rounds keyed by qid); null
  // (the default) disables it. The tracker must outlive the router.
  void set_lifecycle(obs::LifecycleTracker* lifecycle) {
    lifecycle_ = lifecycle;
  }

  // --- Process transport (DESIGN.md §13) -----------------------------------
  //
  // When a transport is attached, every RQI edit is mirrored through it, so
  // out-of-process replicas track the authoritative RQI slices. Every
  // uplink dispatches whether or not a daemon is up. Null (the default)
  // keeps the pure in-process behavior, byte for byte.

  void set_transport(ShardTransport* transport) { transport_ = transport; }
  ShardTransport* transport() const { return transport_; }

  // --- Crash recovery (DESIGN.md §9, §10) ----------------------------------

  void set_durable_store(Snapshot* store) { store_ = store; }
  Snapshot* durable_store() const { return store_; }
  void Checkpoint();
  Status Restore(const Snapshot& store, size_t* replayed);

 private:
  // Install and removal without the API's checkpoint: an uplink-driven
  // install is in the WAL already, and expiry replays from the image's
  // expires_at.
  Result<QueryId> AddQuery(ObjectId focal_oid, const geo::QueryRegion& region,
                           double filter_threshold, Seconds duration);
  Status EraseQuery(QueryId qid);

  void HandleQueryInstallRequest(const net::QueryInstallRequest& request);
  void HandlePositionVelocityReport(const net::PositionVelocityReport& report);
  void HandleVelocityChange(const net::VelocityChangeReport& report);
  void HandleCellChange(const net::CellChangeReport& report);
  void HandleResultBitmap(const net::ResultBitmapReport& report);
  void HandleLqtReconcile(const net::LqtReconcileRequest& request);

  // Acks a tracked uplink; true when it must not be applied: a duplicate,
  // or a seq below the window.
  bool AckAndDedup(ObjectId from, uint32_t seq);
  // InvalidArgument for a WAL record whose replay would index a table out
  // of range: a cell outside the grid, or a sender with no client.
  Status CheckWalRecord(const WalRecord& record) const;
  void RenewLeases();

  // RQI registration fanned out to every shard intersecting the region.
  void RqiAddAll(QueryId qid, const geo::CellRange& mon_region);
  void RqiRemoveAll(QueryId qid, const geo::CellRange& mon_region);

  // The RQI row for `cell`, read from its owning shard. In authority mode
  // (DESIGN.md §14) the transport executes the read on the shard's daemon
  // into *scratch; everywhere else — replica mode, WAL replay, same-step
  // failover — the warm local mirror answers. Both paths return identical
  // bytes, which is what keeps authority runs deterministic under chaos.
  const std::vector<QueryId>& RqiRow(const geo::CellCoord& cell,
                                     std::vector<QueryId>* scratch);

  // Adds `n` to `channel` at `cell` on the heat map. No-op when the heat
  // map is off, while replaying a WAL, or for n == 0.
  void ChargeHeat(obs::HeatMap::Channel channel, const geo::CellCoord& cell,
                  uint64_t n);
  // Cell evidence an uplink carries, for heat-map attribution; false for
  // messages with no resolvable cell (e.g. a bitmap report whose queries
  // are all gone).
  bool UplinkHeatCell(const net::Message& message, geo::CellCoord* cell) const;

  net::QueryInfo BuildQueryInfo(const SqtEntry& entry) const;
  void BroadcastToRegion(const geo::CellRange& region, net::Message message);
  void SendDownlink(ObjectId to, net::Message message);

  std::vector<uint8_t> EncodeImage() const;
  Status DecodeImage(const std::vector<uint8_t>& image);

  const geo::Grid* grid_;
  const net::BaseStationLayout* layout_;
  const net::Bmap* bmap_;
  net::WirelessNetwork* network_;
  MobiEyesOptions options_;

  ShardMap map_;
  std::vector<std::unique_ptr<ServerShard>> shards_;
  // The FOT and the SQT (paper §3.2), keyed by focal object and by query.
  std::unordered_map<ObjectId, FotEntry> fot_;
  std::unordered_map<QueryId, SqtEntry> sqt_;

  QueryId next_qid_ = 0;
  Seconds now_ = 0.0;

  // One anti-replay window per object, indexed by the sender's oid (grown
  // on a sender's first tracked uplink): the highest seq applied, and bit k
  // set when seq top - 1 - k was applied too (DESIGN.md §8).
  std::vector<uint32_t> top_seq_;
  std::vector<uint64_t> below_top_;
  uint64_t stale_uplinks_ = 0;

  Snapshot* store_ = nullptr;
  bool replaying_ = false;  // inside Restore's WAL replay: suppress sends

  ShardTransport* transport_ = nullptr;

  // Per-step scratch, reused so the hot server phases allocate nothing at
  // steady state: the step-phase scan output (AdvanceTime / RenewLeases),
  // the RQI row-diff buffers (HandleCellChange), and the reconcile sets,
  // each sorted by qid (HandleLqtReconcile). Dispatch is serial and none
  // of the users can re-enter itself through the synchronous network (a
  // reconcile's replies send nothing back), so one copy suffices.
  std::vector<QueryId> scan_out_;
  std::vector<QueryId> diff_scratch_;
  std::vector<QueryId> diff_out_;
  std::vector<QueryId> reconcile_expected_;
  std::vector<QueryId> reconcile_known_;
  std::vector<QueryId> reconcile_targets_;
  std::vector<QueryId> reconcile_missing_;
  std::vector<QueryId> reconcile_stale_;
  // Authority-scan result rows. Two slots: HandleCellChange holds the
  // previous cell's row across the new cell's read.
  std::vector<QueryId> scan_row_a_;
  std::vector<QueryId> scan_row_b_;

  ReentrantTimer load_timer_;
  ReentrantTimer step_timer_;
  obs::TraceRecorder* trace_ = nullptr;
  obs::HeatMap* heatmap_ = nullptr;
  obs::LifecycleTracker* lifecycle_ = nullptr;
};

}  // namespace mobieyes::core

#endif  // MOBIEYES_CORE_SHARD_ROUTER_H_

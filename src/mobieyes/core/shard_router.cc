#include "mobieyes/core/shard_router.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <string>
#include <tuple>
#include <utility>

#include "mobieyes/core/shard_transport.h"
#include "mobieyes/net/codec.h"
#include "mobieyes/obs/lifecycle.h"

namespace mobieyes::core {

namespace {

// Checkpoint image framing ("MoCI"), distinct from the wire framing ("MoEY")
// so a buffer can never be mistaken for the wrong layer. The image is global
// and sorted-key — independent of the shard count, so any deployment can
// restore any checkpoint.
constexpr uint32_t kImageMagic = 0x4d6f4349;
constexpr uint16_t kImageVersion = 2;
// One dedup window in the image: the top seq and the bitmap below it.
constexpr size_t kWindowBytes = sizeof(uint32_t) + sizeof(uint64_t);

// Hash-map keys in deterministic order, so two checkpoints of identical
// logical state are byte-identical.
template <typename Map>
std::vector<typename Map::key_type> SortedKeys(const Map& map) {
  std::vector<typename Map::key_type> keys;
  keys.reserve(map.size());
  for (const auto& [key, value] : map) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  return keys;
}

// The mapped value for `key`, or null. Const-ness follows the map's.
template <typename Map>
auto* FindIn(Map& map, const typename Map::key_type& key) {
  auto it = map.find(key);
  return it == map.end() ? nullptr : &it->second;
}

}  // namespace

using net::Message;
using net::QueryInfo;

ShardRouter::ShardRouter(const geo::Grid& grid,
                         const net::BaseStationLayout& layout,
                         const net::Bmap& bmap, net::WirelessNetwork& network,
                         MobiEyesOptions options)
    : grid_(&grid),
      layout_(&layout),
      bmap_(&bmap),
      network_(&network),
      options_(options),
      map_(grid, options.sharding) {
  shards_.reserve(static_cast<size_t>(map_.num_shards()));
  for (int k = 0; k < map_.num_shards(); ++k) {
    shards_.push_back(std::make_unique<ServerShard>(k, grid, map_));
  }
}

void ShardRouter::ChargeHeat(obs::HeatMap::Channel channel,
                             const geo::CellCoord& cell, uint64_t n) {
  // Replay suppression mirrors the send suppression: the pre-crash run
  // already charged this work.
  if (heatmap_ == nullptr || replaying_ || n == 0) return;
  heatmap_->Add(channel, cell.i, cell.j, n);
}

bool ShardRouter::UplinkHeatCell(const Message& message,
                                 geo::CellCoord* cell) const {
  // Must stay layout-invariant: the same uplink stream charges the same
  // cells whatever the partitioning.
  switch (message.type) {
    case net::MessageType::kQueryInstallRequest: {
      const auto& p = std::get<net::QueryInstallRequest>(message.payload);
      const FotEntry* focal = FindFocal(p.oid);
      if (focal == nullptr) return false;
      *cell = focal->cell;
      return true;
    }
    case net::MessageType::kPositionVelocityReport: {
      const auto& p = std::get<net::PositionVelocityReport>(message.payload);
      *cell = grid_->CellOf(p.state.pos);
      return true;
    }
    case net::MessageType::kVelocityChangeReport: {
      const auto& p = std::get<net::VelocityChangeReport>(message.payload);
      *cell = grid_->CellOf(p.state.pos);
      return true;
    }
    case net::MessageType::kCellChangeReport: {
      const auto& p = std::get<net::CellChangeReport>(message.payload);
      *cell = p.new_cell;
      return true;
    }
    case net::MessageType::kResultBitmapReport: {
      const auto& p = std::get<net::ResultBitmapReport>(message.payload);
      for (QueryId qid : p.qids) {
        const SqtEntry* entry = FindQuery(qid);
        if (entry != nullptr) {
          *cell = entry->curr_cell;
          return true;
        }
      }
      return false;
    }
    case net::MessageType::kLqtReconcileRequest: {
      const auto& p = std::get<net::LqtReconcileRequest>(message.payload);
      *cell = p.cell;
      return true;
    }
    default:
      return false;
  }
}

const std::vector<QueryId>& ShardRouter::QueriesForCell(
    const geo::CellCoord& cell) const {
  return shards_[map_.ShardOf(cell)]->QueriesForCell(cell);
}

const std::vector<QueryId>& ShardRouter::RqiRow(
    const geo::CellCoord& cell, std::vector<QueryId>* scratch) {
  const int owner = map_.ShardOf(cell);
  if (transport_ != nullptr && !replaying_ &&
      transport_->AuthorityScan(owner, cell, scratch)) {
    return *scratch;
  }
  return shards_[owner]->QueriesForCell(cell);
}

void ShardRouter::RqiAddAll(QueryId qid, const geo::CellRange& mon_region) {
  for (int s : map_.ShardsIntersecting(mon_region)) {
    shards_[s]->RqiAdd(qid, mon_region);
    if (transport_ != nullptr && !replaying_) {
      transport_->OnRqiOp(/*add=*/true, s, qid, mon_region);
    }
  }
}

void ShardRouter::RqiRemoveAll(QueryId qid, const geo::CellRange& mon_region) {
  for (int s : map_.ShardsIntersecting(mon_region)) {
    shards_[s]->RqiRemove(qid, mon_region);
    if (transport_ != nullptr && !replaying_) {
      transport_->OnRqiOp(/*add=*/false, s, qid, mon_region);
    }
  }
}

Result<QueryId> ShardRouter::InstallQuery(ObjectId focal_oid,
                                          const geo::QueryRegion& region,
                                          double filter_threshold,
                                          Seconds duration) {
  Result<QueryId> qid = AddQuery(focal_oid, region, filter_threshold, duration);
  // No uplink carries an API install, so the WAL cannot: the image, which
  // keeps the finite expiry the wire request lacks, makes it durable.
  if (qid.ok()) Checkpoint();
  return qid;
}

Status ShardRouter::RemoveQuery(QueryId qid) {
  Status status = EraseQuery(qid);
  if (status.ok()) Checkpoint();  // as InstallQuery: no uplink to log
  return status;
}

Result<QueryId> ShardRouter::AddQuery(ObjectId focal_oid,
                                      const geo::QueryRegion& region,
                                      double filter_threshold,
                                      Seconds duration) {
  TimedSection timed(load_timer_);
  TRACE_SPAN(trace_, "server.install_query");
  if (!region.valid()) {
    return Status::InvalidArgument("query region must have positive extent");
  }
  if (duration <= 0.0) {
    return Status::InvalidArgument("query duration must be positive");
  }

  // §3.3 step 3: if the focal object is unknown, request its kinematics.
  // Delivery is synchronous, so the PositionVelocityReport round trip
  // completes (and fills the FOT) before the call below returns. (During
  // WAL replay the round trip is suppressed; Restore pre-applies the
  // logged PositionVelocityReport instead.)
  if (!fot_.contains(focal_oid)) {
    SendDownlink(focal_oid,
                 net::MakeMessage(net::PositionVelocityRequest{focal_oid}));
    if (!fot_.contains(focal_oid)) {
      return Status::NotFound("focal object did not report its position");
    }
  }
  FotEntry& focal = fot_.at(focal_oid);

  // §3.3 step 4: create the SQT entry and index it in the RQI.
  QueryId qid = next_qid_++;
  SqtEntry entry;
  entry.qid = qid;
  entry.focal_oid = focal_oid;
  entry.region = region;
  entry.filter_threshold = filter_threshold;
  entry.curr_cell = focal.cell;
  entry.mon_region = grid_->MonitoringRegion(entry.curr_cell,
                                             region.ReachX(),
                                             region.ReachY());
  entry.expires_at =
      duration == kNeverExpires ? kNeverExpires : now_ + duration;
  if (options_.lease_duration > 0.0) {
    // Stagger the first renewal by query id so lease refreshes spread over
    // the period instead of bursting on one step.
    entry.lease_renew_at =
        now_ + options_.lease_duration *
                   (1.0 + static_cast<double>(qid % 8) / 8.0);
  }
  RqiAddAll(qid, entry.mon_region);
  focal.queries.push_back(qid);
  // A reference, not an iterator: the downlinks below deliver synchronously,
  // and a nested install may rehash the SQT.
  SqtEntry& installed = sqt_.emplace(qid, std::move(entry)).first->second;
  ChargeHeat(obs::HeatMap::kInstalls, installed.curr_cell, 1);
  if (lifecycle_ != nullptr && !replaying_) {
    // Install->first-result round, closed when the first target report for
    // this query lands (result-bitmap or reconcile resync path).
    lifecycle_->Stamp(obs::LifecycleTracker::kInstallFirstResult,
                      static_cast<uint64_t>(qid));
  }

  // Tell the focal object it now has a bound query (sets hasMQ), then
  // install the query on every object in the monitoring region through the
  // minimal set of covering base stations.
  SendDownlink(focal_oid,
               net::MakeMessage(net::FocalNotification{focal_oid, qid}));
  net::QueryInstallBroadcast broadcast;
  broadcast.queries.push_back(BuildQueryInfo(installed));
  BroadcastToRegion(installed.mon_region,
                    net::MakeMessage(std::move(broadcast)));
  return qid;
}

void ShardRouter::AdvanceTime(Seconds now) {
  TRACE_SPAN(trace_, "server.advance_time");
  now_ = now;
  std::vector<QueryId>& expired = scan_out_;
  expired.clear();
  {
    TimedSection timed(load_timer_);
    TimedSection step(step_timer_);
    for (const auto& [qid, entry] : sqt_) {
      if (entry.expires_at <= now) expired.push_back(qid);
    }
  }
  // Sorted so removal-broadcast order does not depend on hash-map layout.
  std::sort(expired.begin(), expired.end());
  for (QueryId qid : expired) {
    (void)EraseQuery(qid);
  }
  if (options_.lease_duration > 0.0) RenewLeases();
}

void ShardRouter::RenewLeases() {
  std::vector<QueryId>& due = scan_out_;
  due.clear();
  {
    TimedSection timed(load_timer_);
    TimedSection step(step_timer_);
    for (const auto& [qid, entry] : sqt_) {
      if (entry.lease_renew_at <= now_) due.push_back(qid);
    }
  }
  // Sorted so the broadcast order (and hence any fault-injection draw
  // sequence downstream) is independent of hash-map iteration order.
  std::sort(due.begin(), due.end());
  for (QueryId qid : due) {
    SqtEntry& entry = sqt_.at(qid);
    entry.lease_renew_at = now_ + options_.lease_duration;
    // Re-assert hasMQ on the focal object (a lost FocalNotification would
    // otherwise silence its dead reckoning forever), then refresh the
    // monitoring region. QueryUpdateBroadcast is idempotent on receivers:
    // they install, update or drop based on their own cell.
    SendDownlink(entry.focal_oid,
                 net::MakeMessage(net::FocalNotification{entry.focal_oid,
                                                         qid}));
    net::QueryUpdateBroadcast broadcast;
    broadcast.queries.push_back(BuildQueryInfo(entry));
    BroadcastToRegion(entry.mon_region,
                      net::MakeMessage(std::move(broadcast)));
  }
}

Status ShardRouter::EraseQuery(QueryId qid) {
  TimedSection timed(load_timer_);
  auto it = sqt_.find(qid);
  if (it == sqt_.end()) return Status::NotFound("unknown query id");
  SqtEntry entry = std::move(it->second);
  sqt_.erase(it);
  RqiRemoveAll(qid, entry.mon_region);
  if (lifecycle_ != nullptr && !replaying_) {
    // A query removed before any target reported cancels its open
    // install->first-result round (counted, not leaked).
    lifecycle_->Drop(obs::LifecycleTracker::kInstallFirstResult,
                     static_cast<uint64_t>(qid));
  }

  auto fot_it = fot_.find(entry.focal_oid);
  if (fot_it != fot_.end()) {
    auto& queries = fot_it->second.queries;
    queries.erase(std::find(queries.begin(), queries.end(), qid));
    if (queries.empty()) {
      // No query bound to this object anymore: clear its hasMQ flag (and
      // drop it from the FOT — nothing left to mediate for it).
      SendDownlink(entry.focal_oid,
                   net::MakeMessage(net::FocalNotification{
                       entry.focal_oid, kInvalidQueryId}));
      fot_.erase(fot_it);
    }
  }

  net::QueryRemoveBroadcast broadcast;
  broadcast.qids.push_back(qid);
  BroadcastToRegion(entry.mon_region, net::MakeMessage(std::move(broadcast)));
  return Status::OK();
}

void ShardRouter::OnUplink(ObjectId from, const Message& message) {
  TimedSection timed(load_timer_);
  // Write-ahead: log the uplink before any handler mutates state, so the
  // durable store always covers everything the in-memory state reflects.
  // Duplicates are logged too — replay routes them through the same dedup.
  if (store_ != nullptr && !replaying_) store_->Append(from, message);
  if (heatmap_ != nullptr && !replaying_) {
    // Charged per arrival (duplicates included — a retransmission is radio
    // and routing work too), at the cell the message itself names.
    geo::CellCoord cell;
    if (UplinkHeatCell(message, &cell)) {
      ChargeHeat(obs::HeatMap::kUplinks, cell, 1);
    }
  }
  // A non-zero envelope seq marks a tracked uplink (reliable-uplink
  // hardening): acknowledge it and drop retransmissions of messages already
  // processed.
  if (message.seq != 0 && AckAndDedup(from, message.seq)) return;
  switch (message.type) {
    case net::MessageType::kQueryInstallRequest: {
      TRACE_SPAN(trace_, "server.handle_query_install_request");
      HandleQueryInstallRequest(
          std::get<net::QueryInstallRequest>(message.payload));
      break;
    }
    case net::MessageType::kPositionVelocityReport: {
      TRACE_SPAN(trace_, "server.handle_position_velocity_report");
      HandlePositionVelocityReport(
          std::get<net::PositionVelocityReport>(message.payload));
      break;
    }
    case net::MessageType::kVelocityChangeReport: {
      TRACE_SPAN(trace_, "server.handle_velocity_change");
      HandleVelocityChange(
          std::get<net::VelocityChangeReport>(message.payload));
      break;
    }
    case net::MessageType::kCellChangeReport: {
      TRACE_SPAN(trace_, "server.handle_cell_change");
      HandleCellChange(std::get<net::CellChangeReport>(message.payload));
      break;
    }
    case net::MessageType::kResultBitmapReport: {
      TRACE_SPAN(trace_, "server.handle_result_bitmap");
      HandleResultBitmap(std::get<net::ResultBitmapReport>(message.payload));
      break;
    }
    case net::MessageType::kLqtReconcileRequest: {
      TRACE_SPAN(trace_, "server.handle_lqt_reconcile");
      HandleLqtReconcile(
          std::get<net::LqtReconcileRequest>(message.payload));
      break;
    }
    default:
      // Downlink-only types are never valid on the uplink; ignore.
      break;
  }
}

bool ShardRouter::AckAndDedup(ObjectId from, uint32_t seq) {
  const auto k = static_cast<size_t>(from);
  if (k >= top_seq_.size()) {
    top_seq_.resize(k + 1);
    below_top_.resize(k + 1);
  }
  uint32_t& top = top_seq_[k];
  uint64_t& below = below_top_[k];
  const uint32_t back = top - seq;  // how far below the top; wraps above it
  bool skip = true;
  if (seq > top) {
    // The window slides up, the old top landing seq - top - 1 bits down. A
    // cold restart's tick << 16 jump empties it.
    below = seq - top > kSeqWindow ? 0 : (below << 1 | 1) << (seq - top - 1);
    top = seq;
    skip = false;
  } else if (back > kSeqWindow) {
    ++stale_uplinks_;  // too old to tell from a duplicate: never applied
  } else if (back > 0) {
    skip = (below >> (back - 1) & 1) != 0;
    below |= uint64_t{1} << (back - 1);
  }
  // Always (re-)acknowledge: the previous ack may itself have been lost,
  // and only an ack stops the sender's retransmissions.
  SendDownlink(from, net::MakeMessage(net::UplinkAck{from, seq}));
  return skip;
}

void ShardRouter::HandleQueryInstallRequest(
    const net::QueryInstallRequest& request) {
  // A user poses a query from their mobile device; same path as a
  // server-side installation, which OnUplink already logged.
  (void)AddQuery(request.oid, request.region, request.filter_threshold,
                 kNeverExpires);
}

void ShardRouter::HandlePositionVelocityReport(
    const net::PositionVelocityReport& report) {
  // Creates the FOT row of a new focal object, or refreshes a known one.
  FotEntry& entry = fot_[report.oid];
  entry.state = report.state;
  entry.max_speed = report.max_speed;
  entry.cell = grid_->CellOf(report.state.pos);
}

void ShardRouter::HandleVelocityChange(
    const net::VelocityChangeReport& report) {
  FotEntry* focal = FindIn(fot_, report.oid);
  if (focal == nullptr) return;  // stale report, unbound object
  // A delayed or retransmitted report can arrive after a newer one; relaying
  // the older vector would roll every monitoring region's prediction back.
  if (report.state.tm < focal->state.tm) return;
  focal->state = report.state;
  focal->cell = grid_->CellOf(report.state.pos);

  // §3.4: relay the new vector to the monitoring region of each query bound
  // to this focal object. Groupable queries sharing a monitoring region are
  // served by a single broadcast (§4.1); without grouping each query gets
  // its own broadcast as in the base protocol.
  const bool lazy = options_.propagation == PropagationMode::kLazy;
  if (options_.enable_query_grouping) {
    std::map<std::tuple<int32_t, int32_t, int32_t, int32_t>,
             std::vector<QueryId>>
        by_region;
    for (QueryId qid : focal->queries) {
      const SqtEntry& entry = sqt_.at(qid);
      by_region[{entry.mon_region.i_lo, entry.mon_region.i_hi,
                 entry.mon_region.j_lo, entry.mon_region.j_hi}]
          .push_back(qid);
    }
    for (const auto& [key, qids] : by_region) {
      geo::CellRange region{std::get<0>(key), std::get<1>(key),
                            std::get<2>(key), std::get<3>(key)};
      net::VelocityChangeBroadcast broadcast;
      broadcast.focal_oid = report.oid;
      broadcast.state = report.state;
      if (lazy) {
        broadcast.carries_query_info = true;
        for (QueryId qid : qids) {
          broadcast.queries.push_back(BuildQueryInfo(sqt_.at(qid)));
        }
      }
      BroadcastToRegion(region, net::MakeMessage(std::move(broadcast)));
    }
  } else {
    for (QueryId qid : focal->queries) {
      const SqtEntry& entry = sqt_.at(qid);
      net::VelocityChangeBroadcast broadcast;
      broadcast.focal_oid = report.oid;
      broadcast.state = report.state;
      if (lazy) {
        broadcast.carries_query_info = true;
        broadcast.queries.push_back(BuildQueryInfo(entry));
      }
      BroadcastToRegion(entry.mon_region,
                        net::MakeMessage(std::move(broadcast)));
    }
  }
}

void ShardRouter::HandleCellChange(const net::CellChangeReport& report) {
  // §3.5. For any reporting object under eager propagation, answer with the
  // queries that newly cover its destination cell. The two RQI rows live on
  // the cells' owning shards; the diff preserves the new row's order, like
  // ReverseQueryIndex::NewQueriesForMove.
  if (options_.propagation == PropagationMode::kEager) {
    const std::vector<QueryId>& prev_row =
        RqiRow(report.prev_cell, &scan_row_a_);
    const std::vector<QueryId>& new_row =
        RqiRow(report.new_cell, &scan_row_b_);
    // RQI scan work: both rows are walked to answer this crossing.
    ChargeHeat(obs::HeatMap::kRqiScan, report.prev_cell, prev_row.size());
    ChargeHeat(obs::HeatMap::kRqiScan, report.new_cell, new_row.size());
    // Batched row diff (sorted scratch + binary search) instead of a
    // per-id linear scan of the previous row; output order is still
    // new_row's order.
    std::vector<QueryId>& new_qids = diff_out_;
    ReverseQueryIndex::RowDifferenceInto(new_row, prev_row, &diff_scratch_,
                                         &new_qids);
    // The object never monitors its own queries.
    std::erase_if(new_qids, [&](QueryId qid) {
      return sqt_.at(qid).focal_oid == report.oid;
    });
    if (!new_qids.empty()) {
      net::NewQueriesNotification notification;
      notification.oid = report.oid;
      for (QueryId qid : new_qids) {
        notification.queries.push_back(BuildQueryInfo(sqt_.at(qid)));
      }
      SendDownlink(report.oid, net::MakeMessage(std::move(notification)));
    }
  }

  // Additional operations when the mover is a focal object: recompute each
  // bound query's monitoring region and notify the union of the old and new
  // regions.
  FotEntry* focal = FindIn(fot_, report.oid);
  if (focal == nullptr) return;
  focal->cell = report.new_cell;

  // Group queries that share both old and new monitoring regions into one
  // broadcast (matching monitoring regions, §4.1).
  std::map<std::tuple<int32_t, int32_t, int32_t, int32_t, int32_t, int32_t,
                      int32_t, int32_t>,
           std::vector<QueryId>>
      by_region_pair;
  for (QueryId qid : focal->queries) {
    SqtEntry& entry = sqt_.at(qid);
    geo::CellRange old_region = entry.mon_region;
    entry.curr_cell = report.new_cell;
    entry.mon_region = grid_->MonitoringRegion(
        report.new_cell, entry.region.ReachX(), entry.region.ReachY());
    RqiRemoveAll(qid, old_region);
    RqiAddAll(qid, entry.mon_region);
    auto key = std::make_tuple(old_region.i_lo, old_region.i_hi,
                               old_region.j_lo, old_region.j_hi,
                               entry.mon_region.i_lo, entry.mon_region.i_hi,
                               entry.mon_region.j_lo, entry.mon_region.j_hi);
    if (options_.enable_query_grouping) {
      by_region_pair[key].push_back(qid);
    } else {
      net::QueryUpdateBroadcast broadcast;
      broadcast.queries.push_back(BuildQueryInfo(entry));
      BroadcastToRegion(geo::CellRange::Union(old_region, entry.mon_region),
                        net::MakeMessage(std::move(broadcast)));
    }
  }
  for (const auto& [key, qids] : by_region_pair) {
    geo::CellRange old_region{std::get<0>(key), std::get<1>(key),
                              std::get<2>(key), std::get<3>(key)};
    geo::CellRange new_region{std::get<4>(key), std::get<5>(key),
                              std::get<6>(key), std::get<7>(key)};
    net::QueryUpdateBroadcast broadcast;
    for (QueryId qid : qids) {
      broadcast.queries.push_back(BuildQueryInfo(sqt_.at(qid)));
    }
    BroadcastToRegion(geo::CellRange::Union(old_region, new_region),
                      net::MakeMessage(std::move(broadcast)));
  }
}

void ShardRouter::HandleResultBitmap(const net::ResultBitmapReport& report) {
  for (size_t k = 0; k < report.qids.size(); ++k) {
    SqtEntry* entry = FindIn(sqt_, report.qids[k]);
    if (entry == nullptr) continue;
    // Bits past the bitmap's capacity read as false (clients never send
    // more queries than it holds).
    bool is_target =
        k < net::kResultBitmapCapacity && ((report.bitmap >> k) & 1) != 0;
    if (is_target) {
      entry->result.insert(report.oid);
      if (lifecycle_ != nullptr && !replaying_) {
        lifecycle_->ResolveIfPending(
            obs::LifecycleTracker::kInstallFirstResult,
            static_cast<uint64_t>(report.qids[k]));
      }
    } else {
      entry->result.erase(report.oid);
    }
  }
}

void ShardRouter::HandleLqtReconcile(const net::LqtReconcileRequest& request) {
  if (request.cold_start) {
    // The object restarted and lost its containment state: every result
    // membership it previously reported is now unverifiable. Clear it
    // everywhere and let its fresh evaluations re-report the flips —
    // briefly missing beats spuriously present forever.
    for (auto& [qid, entry] : sqt_) entry.result.erase(request.oid);
    // A restarted focal object also lost hasMQ; without this repair it
    // would stop dead-reckoning for its queries until the next lease
    // renewal.
    const FotEntry* focal = FindIn(fot_, request.oid);
    if (focal != nullptr && !focal->queries.empty()) {
      SendDownlink(request.oid,
                   net::MakeMessage(net::FocalNotification{
                       request.oid, focal->queries.front()}));
    }
  }
  // Queries the object could install in its current cell: the RQI row
  // minus its own queries and those whose filter threshold lies below the
  // request's attribute floor. The floor never exceeds the object's
  // attribute, so each dropped query fails the client's attr <=
  // filter_threshold test and would be discarded on arrival; both values
  // are static, so the object can never hold one (DESIGN.md §8).
  const double attr_floor = net::AttrFloor(request.attr_level);
  std::vector<QueryId>& expected = reconcile_expected_;
  expected.clear();
  const std::vector<QueryId>& cell_row = RqiRow(request.cell, &scan_row_a_);
  ChargeHeat(obs::HeatMap::kRqiScan, request.cell, cell_row.size());
  for (QueryId qid : cell_row) {
    const SqtEntry& entry = sqt_.at(qid);
    if (entry.focal_oid == request.oid) continue;
    if (entry.filter_threshold < attr_floor) continue;
    expected.push_back(qid);
  }
  std::sort(expected.begin(), expected.end());
  std::vector<QueryId>& known = reconcile_known_;
  known.assign(request.known_qids.begin(), request.known_qids.end());
  std::sort(known.begin(), known.end());

  // Both in ascending qid order, the order the replies carry them.
  std::vector<QueryId>& missing = reconcile_missing_;
  missing.clear();
  std::set_difference(expected.begin(), expected.end(), known.begin(),
                      known.end(), std::back_inserter(missing));
  std::vector<QueryId>& stale = reconcile_stale_;
  stale.clear();
  std::set_difference(known.begin(), known.end(), expected.begin(),
                      expected.end(), std::back_inserter(stale));

  // Resynchronize result membership from the client's own view: what it
  // holds is the ground truth for its containment bits, and flips reported
  // while it was unreachable are lost for good.
  std::vector<QueryId>& targets = reconcile_targets_;
  targets.assign(request.target_qids.begin(), request.target_qids.end());
  std::sort(targets.begin(), targets.end());
  for (QueryId qid : request.known_qids) {
    SqtEntry* entry = FindIn(sqt_, qid);
    if (entry == nullptr) continue;
    if (std::binary_search(targets.begin(), targets.end(), qid)) {
      entry->result.insert(request.oid);
      if (lifecycle_ != nullptr && !replaying_) {
        lifecycle_->ResolveIfPending(
            obs::LifecycleTracker::kInstallFirstResult,
            static_cast<uint64_t>(qid));
      }
    } else {
      entry->result.erase(request.oid);
    }
  }
  for (QueryId qid : stale) {
    SqtEntry* entry = FindIn(sqt_, qid);
    if (entry != nullptr) entry->result.erase(request.oid);
  }

  if (!missing.empty()) {
    net::NewQueriesNotification notification;
    notification.oid = request.oid;
    notification.queries.reserve(missing.size());
    for (QueryId qid : missing) {
      notification.queries.push_back(BuildQueryInfo(sqt_.at(qid)));
    }
    SendDownlink(request.oid, net::MakeMessage(std::move(notification)));
  }
  if (!stale.empty()) {
    // One-to-one removal: only this object holds the stale entries.
    SendDownlink(request.oid,
                 net::MakeMessage(net::QueryRemoveBroadcast{stale}));
  }
}

QueryInfo ShardRouter::BuildQueryInfo(const SqtEntry& entry) const {
  QueryInfo info;
  info.qid = entry.qid;
  info.focal_oid = entry.focal_oid;
  const FotEntry& focal = fot_.at(entry.focal_oid);
  info.focal = focal.state;
  info.region = entry.region;
  info.filter_threshold = entry.filter_threshold;
  info.mon_region = entry.mon_region;
  info.focal_max_speed = focal.max_speed;
  return info;
}

void ShardRouter::SendDownlink(ObjectId to, Message message) {
  if (replaying_) return;  // the original delivery happened before the crash
  TimerPause pause(load_timer_);  // delivery is the medium's work, not ours
  network_->SendDownlinkTo(to, std::move(message));
}

void ShardRouter::BroadcastToRegion(const geo::CellRange& region,
                                    Message message) {
  if (replaying_) return;  // see SendDownlink
  std::vector<BaseStationId> cover = bmap_->MinimalCover(region);
  // Computing the cover is server work; the per-station delivery below is
  // the wireless medium's (and the receivers'), so exclude it from the
  // server-load measurement. The router is the single funnel into the
  // network, so the emission sequence is the dispatch sequence.
  TimerPause pause(load_timer_);
  for (BaseStationId sid : cover) {
    network_->Broadcast(layout_->station(sid), message);
  }
}

Result<std::unordered_set<ObjectId>> ShardRouter::QueryResult(
    QueryId qid) const {
  const SqtEntry* entry = FindQuery(qid);
  if (entry == nullptr) return Status::NotFound("unknown query id");
  return entry->result;
}

const SqtEntry* ShardRouter::FindQuery(QueryId qid) const {
  return FindIn(sqt_, qid);
}

const FotEntry* ShardRouter::FindFocal(ObjectId oid) const {
  return FindIn(fot_, oid);
}

void ShardRouter::Checkpoint() {
  if (store_ == nullptr) return;
  TimedSection timed(load_timer_);
  TimedSection step(step_timer_);
  store_->Install(EncodeImage());
}

Status ShardRouter::CheckWalRecord(const WalRecord& record) const {
  const Message& m = record.message;
  bool in_grid = true;
  if (m.type == net::MessageType::kCellChangeReport) {
    const auto& p = std::get<net::CellChangeReport>(m.payload);
    in_grid = grid_->IsValid(p.prev_cell) && grid_->IsValid(p.new_cell);
  } else if (m.type == net::MessageType::kLqtReconcileRequest) {
    const auto& p = std::get<net::LqtReconcileRequest>(m.payload);
    in_grid = grid_->IsValid(p.cell);
  }
  if (!in_grid) return Status::InvalidArgument("WAL: cell outside the grid");
  if (!network_->HasClient(record.from)) {
    return Status::InvalidArgument("WAL: record from an object with no client");
  }
  return Status::OK();
}

Status ShardRouter::Restore(const Snapshot& store, size_t* replayed) {
  // Every record is checked before anything is decoded or replayed, so a
  // refused store leaves the router as it was.
  for (const WalRecord& record : store.wal) {
    MOBIEYES_RETURN_NOT_OK(CheckWalRecord(record));
  }
  if (store.has_checkpoint()) {
    MOBIEYES_RETURN_NOT_OK(DecodeImage(store.checkpoint));
  }
  // Replay the logged uplinks through the normal dispatch with all sends
  // suppressed: the originals were delivered before the crash, and replay
  // must reproduce state, not traffic.
  replaying_ = true;
  std::vector<bool> consumed(store.wal.size(), false);
  size_t applied = 0;
  for (size_t k = 0; k < store.wal.size(); ++k) {
    if (consumed[k]) continue;
    const WalRecord& record = store.wal[k];
    if (record.message.type == net::MessageType::kQueryInstallRequest) {
      // A live install for an unknown focal object did a synchronous
      // kinematics round trip whose PositionVelocityReport was logged
      // *after* the install (nested dispatch). Replay cannot do the round
      // trip, so apply that report first, in the position the live run
      // effectively applied it.
      const auto& request =
          std::get<net::QueryInstallRequest>(record.message.payload);
      if (!fot_.contains(request.oid)) {
        for (size_t j = k + 1; j < store.wal.size(); ++j) {
          const WalRecord& later = store.wal[j];
          if (consumed[j] ||
              later.message.type !=
                  net::MessageType::kPositionVelocityReport ||
              std::get<net::PositionVelocityReport>(later.message.payload)
                      .oid != request.oid) {
            continue;
          }
          OnUplink(later.from, later.message);
          consumed[j] = true;
          ++applied;
          break;
        }
      }
    }
    OnUplink(record.from, record.message);
    ++applied;
  }
  replaying_ = false;
  if (replayed != nullptr) *replayed = applied;
  return Status::OK();
}

std::vector<uint8_t> ShardRouter::EncodeImage() const {
  std::vector<uint8_t> out;
  net::ByteWriter w(&out);
  w.U32(kImageMagic);
  w.U16(kImageVersion);
  w.U16(0);  // reserved
  w.F64(now_);
  w.I64(next_qid_);

  // The FOT, then the SQT, each in ascending key order.
  const std::vector<ObjectId> focals = SortedKeys(fot_);
  w.U32(static_cast<uint32_t>(focals.size()));
  for (ObjectId oid : focals) {
    const FotEntry& entry = fot_.at(oid);
    w.I64(oid);
    w.State(entry.state);
    w.F64(entry.max_speed);
    w.Cell(entry.cell);
    // The bound-query list keeps its live order: broadcast order during
    // velocity relays follows it.
    w.U32(static_cast<uint32_t>(entry.queries.size()));
    for (QueryId qid : entry.queries) w.I64(qid);
  }
  const std::vector<QueryId> qids = SortedKeys(sqt_);
  w.U32(static_cast<uint32_t>(qids.size()));
  std::vector<ObjectId> result;
  for (QueryId qid : qids) {
    const SqtEntry& entry = sqt_.at(qid);
    w.I64(entry.qid);
    w.I64(entry.focal_oid);
    w.Region(entry.region);
    w.F64(entry.filter_threshold);
    w.Cell(entry.curr_cell);
    w.Range(entry.mon_region);
    w.F64(entry.expires_at);
    w.F64(entry.lease_renew_at);
    result.assign(entry.result.begin(), entry.result.end());
    std::sort(result.begin(), result.end());
    w.U32(static_cast<uint32_t>(result.size()));
    for (ObjectId oid : result) w.I64(oid);
  }

  // The dedup windows in oid order: most of the image, which the store
  // keeps until the next checkpoint, so the buffer is sized exactly.
  out.reserve(out.size() + sizeof(uint32_t) + top_seq_.size() * kWindowBytes);
  w.U32(static_cast<uint32_t>(top_seq_.size()));
  for (size_t k = 0; k < top_seq_.size(); ++k) {
    w.U32(top_seq_[k]);
    w.U64(below_top_[k]);
  }
  return out;
}

Status ShardRouter::DecodeImage(const std::vector<uint8_t>& image) {
  net::ByteReader r(image.data(), image.size());
  if (r.U32() != kImageMagic) {
    return Status::InvalidArgument("checkpoint: bad magic number");
  }
  const uint16_t version = r.U16();
  if (version != kImageVersion) {
    return Status::InvalidArgument(
        "checkpoint: image version " + std::to_string(version) +
        " is not supported; this build reads version " +
        std::to_string(kImageVersion));
  }
  r.U16();  // reserved

  // Everything decodes into locals and is checked before the router takes
  // any of it, so a refused image leaves the router as it was.
  const Seconds now = r.F64();
  const QueryId next_qid = r.I64();

  // Cells are checked against the grid like the monitoring regions below:
  // the heat map indexes by them without a bounds check.
  std::unordered_map<ObjectId, FotEntry> fot;
  size_t listed = 0;  // queries named by every FOT row together
  uint32_t fot_count = r.U32();
  for (uint32_t k = 0; k < fot_count && r.ok(); ++k) {
    ObjectId oid = r.I64();
    FotEntry entry;
    entry.state = r.State();
    entry.max_speed = r.F64();
    entry.cell = r.Cell();
    uint32_t num_queries = r.U32();
    for (uint32_t q = 0; q < num_queries && r.ok(); ++q) {
      entry.queries.push_back(r.I64());
    }
    if (!r.ok()) break;
    if (!grid_->IsValid(entry.cell)) {
      return Status::InvalidArgument("checkpoint: focal cell outside the grid");
    }
    listed += entry.queries.size();
    if (!fot.emplace(oid, std::move(entry)).second) {
      return Status::InvalidArgument("checkpoint: a focal object repeats");
    }
  }

  std::unordered_map<QueryId, SqtEntry> sqt;
  std::vector<QueryId> image_order;  // the RQI rows rebuild in this order
  uint32_t sqt_count = r.U32();
  for (uint32_t k = 0; k < sqt_count && r.ok(); ++k) {
    SqtEntry entry;
    entry.qid = r.I64();
    entry.focal_oid = r.I64();
    entry.region = r.Region();
    entry.filter_threshold = r.F64();
    entry.curr_cell = r.Cell();
    entry.mon_region = r.Range();
    entry.expires_at = r.F64();
    entry.lease_renew_at = r.F64();
    uint32_t result_count = r.U32();
    for (uint32_t q = 0; q < result_count && r.ok(); ++q) {
      entry.result.insert(r.I64());
    }
    if (!r.ok()) break;
    if (!grid_->IsValid(entry.curr_cell)) {
      return Status::InvalidArgument("checkpoint: query cell outside the grid");
    }
    // The monitoring region indexes straight into the RQI matrix; a corrupt
    // range would walk out of bounds, so reject it before Add.
    if (entry.mon_region.i_lo > entry.mon_region.i_hi ||
        entry.mon_region.j_lo > entry.mon_region.j_hi ||
        !grid_->IsValid({entry.mon_region.i_lo, entry.mon_region.j_lo}) ||
        !grid_->IsValid({entry.mon_region.i_hi, entry.mon_region.j_hi})) {
      return Status::InvalidArgument(
          "checkpoint: monitoring region outside the grid");
    }
    // A qid at or above the counter would be handed out again by the next
    // install.
    if (entry.qid < 0 || entry.qid >= next_qid) {
      return Status::InvalidArgument(
          "checkpoint: query id outside [0, next query id)");
    }
    image_order.push_back(entry.qid);
    if (!sqt.emplace(entry.qid, std::move(entry)).second) {
      return Status::InvalidArgument("checkpoint: a query id repeats");
    }
  }

  const uint32_t windows = r.U32();
  // Bounded by the bytes left before anything is allocated for it.
  if (windows > r.remaining() / kWindowBytes) {
    return Status::InvalidArgument(
        "checkpoint: dedup table longer than the image");
  }
  std::vector<uint32_t> top_seq(windows);
  std::vector<uint64_t> below_top(windows);
  for (uint32_t k = 0; k < windows; ++k) {
    top_seq[k] = r.U32();
    below_top[k] = r.U64();
  }

  if (!r.ok() || r.remaining() != 0) {
    return Status::InvalidArgument("checkpoint: truncated or malformed image");
  }

  // The FOT and the SQT must name each other, as the live tables do: every
  // query's focal object has a FOT row listing it. Those are sqt.size()
  // distinct list entries, so the lists hold nothing else (no query the SQT
  // lacks, none bound to another object, none twice) exactly when that is
  // all they hold.
  for (const auto& [qid, query] : sqt) {
    const FotEntry* focal = FindIn(fot, query.focal_oid);
    if (focal == nullptr ||
        std::find(focal->queries.begin(), focal->queries.end(), qid) ==
            focal->queries.end()) {
      return Status::InvalidArgument(
          "checkpoint: a query's focal object does not list it");
    }
  }
  if (listed != sqt.size()) {
    return Status::InvalidArgument(
        "checkpoint: a focal object lists a query that is not its own, or "
        "lists one twice");
  }

  now_ = now;
  next_qid_ = next_qid;
  fot_ = std::move(fot);
  sqt_ = std::move(sqt);
  top_seq_ = std::move(top_seq);
  below_top_ = std::move(below_top);
  // RQI rows rebuild in image (sorted-qid) order on the owning shards of
  // the restoring deployment's map, whatever shard count wrote the image.
  for (auto& shard : shards_) shard->Clear();
  for (QueryId qid : image_order) {
    const geo::CellRange& mon_region = sqt_.at(qid).mon_region;
    for (int s : map_.ShardsIntersecting(mon_region)) {
      shards_[s]->RqiAdd(qid, mon_region);
    }
  }
  return Status::OK();
}

}  // namespace mobieyes::core

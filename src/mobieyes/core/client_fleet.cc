#include "mobieyes/core/client_fleet.h"

#include <algorithm>
#include <limits>
#include <variant>

#include "mobieyes/common/stopwatch.h"
#include "mobieyes/geo/batch_kernels.h"

namespace mobieyes::core {

using net::kResultBitmapCapacity;
using net::Message;
using net::MessageType;
using net::QueryInfo;

ClientFleet::ClientFleet(const mobility::World& world,
                         net::WirelessNetwork& network, MobiEyesOptions options)
    : world_(&world),
      network_(&network),
      options_(options),
      slab_(world.object_count()),
      due_(world.object_count(), std::numeric_limits<Seconds>::infinity()),
      has_mq_(world.object_count(), 0),
      has_pending_(world.object_count(), 0),
      cell_i_(world.cell_is()),
      cell_j_(world.cell_js()),
      attr_(world.attrs()) {
  // Reserved once and never grown, so client addresses are stable for the
  // handlers registered below and for Simulation::client().
  clients_.reserve(world.object_count());
  prev_cell_.reserve(world.object_count());
  for (size_t k = 0; k < world.object_count(); ++k) {
    clients_.emplace_back(*this, static_cast<ObjectId>(k));
    prev_cell_.push_back(world.cell(static_cast<ObjectId>(k)));
  }
  for (MobiEyesClient& client : clients_) {
    network.RegisterClient(client.oid(), [&client](const Message& message) {
      client.OnDownlink(message);
    });
  }
  network.set_broadcast_receiver(this);
}

ClientFleet::~ClientFleet() { network_->set_broadcast_receiver(nullptr); }

void ClientFleet::Tick() {
  slab_.CompactIfSparse();
  const Seconds now = world_->now();
  const bool reliable = options_.enable_reliable_uplink;
  const int64_t period = options_.reconcile_period_ticks;
  const int64_t tick = ++round_;
  for (size_t k = 0; k < clients_.size(); ++k) {
    // Each test mirrors one stage of the step; when all fail, the step
    // would only count a safe-period skip for every row.
    const bool due =
        due_[k] <= now || has_mq_[k] != 0 || prev_cell_[k].i != cell_i_[k] ||
        prev_cell_[k].j != cell_j_[k] || (reliable && has_pending_[k] != 0) ||
        (period > 0 && (tick + static_cast<int64_t>(k)) % period == 0);
    if (due) {
      turn_ = k;
      Step(k);
    } else {
      safe_period_skips_ += slab_.size(k);
    }
  }
  turn_ = kNoTurn;
}

void ClientFleet::Step(size_t k) {
  const auto oid = static_cast<ObjectId>(k);
  MobiEyesClient& client = clients_[k];
  // Materialized once: the world does not move within a tick, so every
  // stage below (uplinks and nested deliveries included) sees this state.
  const mobility::ObjectState me = world_->object(oid);
  const Seconds now = world_->now();

  // 0. Hardening: drop LQT rows whose soft-state lease lapsed.
  if (options_.lease_duration > 0.0) {
    RemoveRows(k, [now](const LqtRow& row) {
      return row.lease_expires_at <= now;
    });
  }

  // 1. Grid-cell crossing (§3.5). Rows whose monitoring region no longer
  // covers the object go: it is then provably outside their spatial
  // region. Under eager propagation every object reports the crossing (the
  // server replies with newly relevant queries); under lazy propagation
  // only focal objects must, since the server tracks their current cell.
  if (!(me.cell == prev_cell_[k])) {
    RemoveRows(k, [this, &me](const LqtRow& row) {
      return !slab_.version(row.version).mon_region.Contains(me.cell);
    });
    if (options_.propagation == PropagationMode::kEager || has_mq_[k] != 0) {
      client.SendCellChangeReport(prev_cell_[k], me.cell);
    }
    prev_cell_[k] = me.cell;
  }

  // 2. Focal dead reckoning (§3.4).
  if (has_mq_[k] != 0) client.RelayVelocityIfDrifted();

  // 3. Periodic evaluation of the LQT (§3.6).
  EvaluateQueries(k, me);

  // 4. Hardening: retransmit unacked tracked uplinks and, periodically,
  // reconcile the LQT with the server.
  if (options_.enable_reliable_uplink && client.pending_uplinks() != 0) {
    client.RetryPendingUplinks();
  }
  const int64_t period = options_.reconcile_period_ticks;
  if (period > 0 && (round_ + static_cast<int64_t>(k)) % period == 0) {
    SendReconcile(k, /*cold_start=*/false);
  }
}

void ClientFleet::EvaluateQueries(size_t k, const mobility::ObjectState& me) {
  if (slab_.size(k) == 0) {
    due_[k] = std::numeric_limits<Seconds>::infinity();
    return;
  }
  const Seconds now = world_->now();
  const bool grouping = options_.enable_query_grouping;
  const bool safe_period = options_.enable_safe_period;
  std::vector<size_t>& dirty_groups = scratch_dirty_groups_;
  std::vector<size_t>& flipped = scratch_flipped_;
  dirty_groups.clear();
  flipped.clear();
  uint64_t evaluated = 0;
  uint64_t skipped = 0;

  // The Fig. 13 stopwatch covers the evaluation only: the flip reports
  // below run the server's handling of them synchronously.
  Stopwatch watch;
  watch.Start();
  {
    TRACE_SPAN(trace_, "client.evaluate_queries");
    // No send and no insert happens inside this block, so the span stays
    // valid.
    const std::span<LqtRow> rows = slab_.rows(k);
    Seconds due = std::numeric_limits<Seconds>::infinity();
    size_t begin = 0;
    while (begin < rows.size()) {
      const ObjectId focal_oid = slab_.version(rows[begin].version).focal_oid;
      size_t end = begin + 1;
      while (end < rows.size() &&
             slab_.version(rows[end].version).focal_oid == focal_oid) {
        ++end;
      }

      // One distance computation per group: groupable queries share a focal
      // object, and velocity broadcasts keep their kinematics in sync.
      double dist = -1.0;  // computed lazily
      geo::Point focal_pos;
      bool group_dirty = false;
      bool outside_larger = false;  // outside some circumscribing radius seen
      for (size_t i = begin; i < end; ++i) {
        LqtRow& row = rows[i];
        if (safe_period && row.ptm > now) {
          ++skipped;
          due = std::min(due, RowDue(row));
          continue;
        }
        const QueryVersion& query = slab_.version(row.version);
        const Miles reach = slab_.max_reach(row.version);
        bool inside;
        if (grouping && outside_larger) {
          // Rows are sorted by circumscribing radius descending: outside a
          // larger reach implies outside all smaller regions (§4.1) — no
          // containment check needed.
          inside = false;
        } else {
          if (dist < 0.0) {
            focal_pos = query.focal.PredictPosition(now);
            dist = geo::Distance(me.pos, focal_pos);
          }
          if (dist > reach) {
            inside = false;
            outside_larger = true;
          } else {
            // Same per-lane predicate the batched span kernels apply, so the
            // client-side monitoring check and the oracle classify a point
            // identically.
            inside = geo::kernels::RegionLane(query.region, focal_pos.x,
                                              focal_pos.y, me.pos.x,
                                              me.pos.y);
          }
        }
        ++evaluated;
        if (inside != row.is_target) {
          row.is_target = inside;
          group_dirty = true;
          if (!grouping) flipped.push_back(i);
        }
        if (safe_period && !inside && dist >= 0.0) {
          // Worst case both objects approach head-on at their maximum
          // speeds; subtract the dead-reckoning slack Δ since the focal
          // position is only known to within Δ (§4.2, DESIGN.md). The
          // circumscribing radius upper-bounds the region for any shape.
          double closing_speed = me.max_speed + query.focal_max_speed;
          double gap = dist - reach - options_.dead_reckoning_threshold;
          if (gap > 0.0) {
            double sp = closing_speed > 0.0
                            ? gap / closing_speed
                            : std::numeric_limits<double>::infinity();
            row.ptm = now + sp;
          }
        }
        due = std::min(due, RowDue(row));
      }
      if (group_dirty && grouping) dirty_groups.push_back(begin);
      begin = end;
    }
    due_[k] = due;
  }
  watch.Stop();
  processing_seconds_ += watch.total_seconds();
  queries_evaluated_ += evaluated;
  safe_period_skips_ += skipped;

  // Reports go out by row index, re-read after every send.
  if (grouping) {
    for (size_t group : dirty_groups) SendGroupReports(k, group);
  } else {
    for (size_t i : flipped) {
      const LqtRow& row = slab_.row(k, i);
      net::ResultBitmapReport report;
      report.oid = static_cast<ObjectId>(k);
      report.qids.push_back(row.qid);
      report.bitmap = row.is_target ? 1 : 0;
      clients_[k].SendBitmapReport(std::move(report));
    }
  }
}

void ClientFleet::SendGroupReports(size_t k, size_t begin) {
  auto in_group = [&](size_t i) {
    return i < slab_.size(k) &&
           slab_.version(slab_.row(k, i).version).focal_oid ==
               slab_.version(slab_.row(k, begin).version).focal_oid;
  };
  size_t i = begin;
  do {
    net::ResultBitmapReport report;
    report.oid = static_cast<ObjectId>(k);
    for (; in_group(i) && report.qids.size() < kResultBitmapCapacity; ++i) {
      const LqtRow& row = slab_.row(k, i);
      if (row.is_target) report.bitmap |= uint64_t{1} << report.qids.size();
      report.qids.push_back(row.qid);
    }
    clients_[k].SendBitmapReport(std::move(report));
  } while (in_group(i));
}

template <typename Pred>
void ClientFleet::RemoveRows(size_t k, Pred&& stale) {
  // Report a flip to "not a target" for rows that were in a result: once
  // outside the monitoring region the object is provably outside the
  // query's spatial region. Erasing back to front keeps the indices still
  // to visit valid; the reports list qids in row order.
  std::vector<QueryId> flipped;
  for (size_t i = slab_.size(k); i-- > 0;) {
    const LqtRow& row = slab_.row(k, i);
    if (!stale(row)) continue;
    if (row.is_target) flipped.push_back(row.qid);
    slab_.Erase(k, i);
  }
  std::reverse(flipped.begin(), flipped.end());
  for (size_t begin = 0; begin < flipped.size();) {
    const size_t end = std::min(flipped.size(), begin + kResultBitmapCapacity);
    net::ResultBitmapReport report;
    report.oid = static_cast<ObjectId>(k);
    report.qids.assign(flipped.begin() + begin, flipped.begin() + end);
    clients_[k].SendBitmapReport(std::move(report));
    begin = end;
  }
}

void ClientFleet::SendReconcile(size_t k, bool cold_start) {
  net::LqtReconcileRequest request;
  request.oid = static_cast<ObjectId>(k);
  request.cell = world_->cell(request.oid);
  request.cold_start = cold_start;
  request.attr_level = net::AttrLevel(attr_[k]);
  request.known_qids.reserve(slab_.size(k));
  for (const LqtRow& row : slab_.rows(k)) {
    request.known_qids.push_back(row.qid);
    if (row.is_target) request.target_qids.push_back(row.qid);
  }
  clients_[k].SendReconcile(std::move(request));
}

void ClientFleet::Reset(ObjectId oid) {
  const auto k = static_cast<size_t>(oid);
  slab_.Clear(k);
  due_[k] = std::numeric_limits<Seconds>::infinity();
  has_mq_[k] = 0;
  prev_cell_[k] = world_->cell(oid);
  clients_[k].ResetUplinks();
  // Kick off recovery immediately: one cold-start reconcile rebuilds the
  // LQT via the server's diff path rather than waiting out the stagger.
  if (options_.reconcile_period_ticks > 0) {
    SendReconcile(k, /*cold_start=*/true);
  }
}

void ClientFleet::ResetCounters() {
  processing_seconds_ = 0.0;
  queries_evaluated_ = 0;
  safe_period_skips_ = 0;
}

std::vector<ClientFleet::LqtEntry> ClientFleet::lqt(ObjectId oid) const {
  const auto k = static_cast<size_t>(oid);
  std::vector<LqtEntry> entries;
  for (size_t i = 0; i < slab_.size(k); ++i) {
    const LqtRow& row = slab_.row(k, i);
    const QueryVersion& query = slab_.version(row.version);
    entries.push_back(LqtEntry{row.qid, query.focal_oid, query.focal,
                               query.region, query.filter_threshold,
                               query.mon_region, query.focal_max_speed,
                               row.is_target, row.ptm, row.lease_expires_at});
  }
  return entries;
}

std::optional<bool> ClientFleet::IsTargetOf(ObjectId oid, QueryId qid) const {
  const auto k = static_cast<size_t>(oid);
  const ptrdiff_t i = FindRow(k, qid);
  if (i < 0) return std::nullopt;
  return slab_.row(k, i).is_target;
}

bool ClientFleet::AnyInstallable(std::span<const QueryInfo> queries,
                                 size_t k) const {
  for (const QueryInfo& info : queries) {
    if (Installable(info, k)) return true;
  }
  return false;
}

// Why each skip is exact (OnDownlink is the reference):
//  - VelocityChangeBroadcast touches only entries with the broadcast's
//    focal, then (lazy expansion) runs InstallIfApplicable per carried
//    query, which returns before any change unless the query is
//    installable here.
//  - QueryUpdateBroadcast refreshes or drops entries with a listed qid and
//    otherwise runs InstallIfApplicable.
//  - QueryInstallBroadcast only runs InstallIfApplicable.
//  - QueryRemoveBroadcast only erases entries with a listed qid.
// A clear signature bit proves a key absent; a collision only delivers.
template <typename Fn>
void ClientFleet::WithRelevance(const Message& message, Fn&& fn) const {
  switch (message.type) {
    case MessageType::kVelocityChangeBroadcast: {
      const auto& broadcast =
          std::get<net::VelocityChangeBroadcast>(message.payload);
      const uint64_t key = LqtFocalKey(broadcast.focal_oid);
      std::span<const QueryInfo> carried;
      if (broadcast.carries_query_info) carried = broadcast.queries;
      fn([this, key, carried](size_t k) {
        return LqtMayHold(slab_.signature(k), key) ||
               AnyInstallable(carried, k);
      });
      return;
    }
    case MessageType::kQueryUpdateBroadcast: {
      const auto& queries =
          std::get<net::QueryUpdateBroadcast>(message.payload).queries;
      fn([this, &queries](size_t k) {
        for (const QueryInfo& info : queries) {
          if (LqtMayHold(slab_.signature(k), LqtQidKey(info.qid)) ||
              Installable(info, k)) {
            return true;
          }
        }
        return false;
      });
      return;
    }
    case MessageType::kQueryInstallBroadcast: {
      const auto& queries =
          std::get<net::QueryInstallBroadcast>(message.payload).queries;
      fn([this, &queries](size_t k) { return AnyInstallable(queries, k); });
      return;
    }
    case MessageType::kQueryRemoveBroadcast: {
      const auto& qids =
          std::get<net::QueryRemoveBroadcast>(message.payload).qids;
      fn([this, &qids](size_t k) {
        for (QueryId qid : qids) {
          if (LqtMayHold(slab_.signature(k), LqtQidKey(qid))) return true;
        }
        return false;
      });
      return;
    }
    default:
      fn([](size_t) { return true; });
      return;
  }
}

void ClientFleet::OnBroadcast(const Message& message,
                              std::span<const ObjectId> receivers) {
  WithRelevance(message, [&](const auto& relevant) {
    for (ObjectId oid : receivers) {
      const auto k = static_cast<size_t>(oid);
      if (k >= clients_.size()) continue;  // not a fleet object
      if (relevant(k)) {
        Deliver(k, message);
      } else {
        ++skipped_receptions_;
      }
    }
  });
}

void ClientFleet::OnDownlink(ObjectId oid, const Message& message) {
  const auto k = static_cast<size_t>(oid);
  if (message.type != MessageType::kFocalNotification) {
    Deliver(k, message);
    return;
  }
  const auto& note = std::get<net::FocalNotification>(message.payload);
  if (note.qid == kInvalidQueryId) {
    has_mq_[k] = 0;
  } else if (has_mq_[k] == 0) {
    has_mq_[k] = 1;
    // Mirror what the server just recorded in the FOT: the state this
    // object reported during the installation round trip.
    clients_[k].NoteRelayed();
  }
}

void ClientFleet::Deliver(size_t k, const Message& message) {
  switch (message.type) {
    case MessageType::kQueryInstallBroadcast: {
      const auto& broadcast =
          std::get<net::QueryInstallBroadcast>(message.payload);
      for (const QueryInfo& info : broadcast.queries) {
        InstallIfApplicable(k, info);
      }
      break;
    }
    case MessageType::kVelocityChangeBroadcast: {
      const auto& broadcast =
          std::get<net::VelocityChangeBroadcast>(message.payload);
      // The server only relays vectors of live queries: refresh leases.
      const Seconds lease = LeaseExpiry();
      for (LqtRow& row : slab_.rows(k)) {  // a repoint moves no row
        const QueryVersion& query = slab_.version(row.version);
        if (query.focal_oid == broadcast.focal_oid) {
          slab_.Repoint(row, broadcast.state, query.mon_region,
                        query.focal_max_speed);
          row.lease_expires_at = lease;
        }
      }
      if (broadcast.carries_query_info) {
        // Lazy propagation (§3.5): the expanded broadcast lets objects that
        // silently crossed cells install the queries they missed.
        for (const QueryInfo& info : broadcast.queries) {
          InstallIfApplicable(k, info);
        }
      }
      break;
    }
    case MessageType::kQueryUpdateBroadcast: {
      const auto& broadcast =
          std::get<net::QueryUpdateBroadcast>(message.payload);
      const geo::CellCoord cell{cell_i_[k], cell_j_[k]};
      std::vector<QueryId> stale_qids;
      for (const QueryInfo& info : broadcast.queries) {
        const ptrdiff_t i = FindRow(k, info.qid);
        if (i >= 0) {
          if (info.mon_region.Contains(cell)) {
            LqtRow& row = slab_.row(k, i);
            slab_.Repoint(row, info.focal, info.mon_region,
                          slab_.version(row.version).focal_max_speed);
            row.lease_expires_at = LeaseExpiry();
          } else {
            stale_qids.push_back(info.qid);
          }
        } else {
          InstallIfApplicable(k, info);
        }
      }
      if (stale_qids.empty()) break;
      // Rows are matched only now: an install above may have shifted them,
      // and a qid listed twice must not be removed twice.
      RemoveRows(k, [&stale_qids](const LqtRow& row) {
        return std::find(stale_qids.begin(), stale_qids.end(), row.qid) !=
               stale_qids.end();
      });
      break;
    }
    case MessageType::kQueryRemoveBroadcast: {
      const auto& broadcast =
          std::get<net::QueryRemoveBroadcast>(message.payload);
      for (QueryId qid : broadcast.qids) {
        const ptrdiff_t i = FindRow(k, qid);
        if (i >= 0) slab_.Erase(k, i);
      }
      break;
    }
    case MessageType::kNewQueriesNotification: {
      const auto& note =
          std::get<net::NewQueriesNotification>(message.payload);
      for (const QueryInfo& info : note.queries) {
        InstallIfApplicable(k, info);
      }
      break;
    }
    default:
      // Uplink-only types are never valid on the downlink; ignore.
      break;
  }
}

void ClientFleet::InstallIfApplicable(size_t k, const QueryInfo& info) {
  // The same three tests gate the broadcast relevance check.
  if (!Installable(info, k)) return;
  if (const ptrdiff_t i = FindRow(k, info.qid); i >= 0) {
    // A held qid keeps its focal, region and filter; only what an update
    // carries changes.
    LqtRow& row = slab_.row(k, i);
    slab_.Repoint(row, info.focal, info.mon_region, info.focal_max_speed);
    row.lease_expires_at = LeaseExpiry();
    return;
  }
  LqtRow row;
  row.qid = info.qid;
  row.version = slab_.Acquire(QueryVersion{
      info.focal_oid, info.focal, info.region, info.filter_threshold,
      info.mon_region, info.focal_max_speed});
  row.lease_expires_at = LeaseExpiry();
  slab_.Insert(k, InsertPosition(k, row), row);
  due_[k] = std::min(due_[k], RowDue(row));
}

ptrdiff_t ClientFleet::FindRow(size_t k, QueryId qid) const {
  for (size_t i = 0; i < slab_.size(k); ++i) {
    if (slab_.row(k, i).qid == qid) return static_cast<ptrdiff_t>(i);
  }
  return -1;
}

size_t ClientFleet::InsertPosition(size_t k, const LqtRow& row) const {
  // Groupable queries (same focal object) stay adjacent with region reach
  // descending, so group evaluation can stop at the first circumscribing
  // radius the object falls outside of (§4.1).
  const ObjectId focal_oid = slab_.version(row.version).focal_oid;
  const Miles reach = slab_.max_reach(row.version);
  size_t i = 0;
  for (; i < slab_.size(k); ++i) {
    const LqtRow& other = slab_.row(k, i);
    const ObjectId other_focal = slab_.version(other.version).focal_oid;
    if (other_focal != focal_oid) {
      if (other_focal < focal_oid) continue;
      break;
    }
    const Miles other_reach = slab_.max_reach(other.version);
    if (other_reach != reach) {
      if (other_reach > reach) continue;
      break;
    }
    if (other.qid >= row.qid) break;
  }
  return i;
}

bool ClientFleet::MayAffect(const Message& message, ObjectId oid) const {
  if (static_cast<size_t>(oid) >= clients_.size()) return false;
  bool affected = false;
  WithRelevance(message, [&](const auto& relevant) {
    affected = relevant(static_cast<size_t>(oid));
  });
  return affected;
}

}  // namespace mobieyes::core

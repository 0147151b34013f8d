#include "mobieyes/core/client.h"

#include <algorithm>
#include <limits>

#include "mobieyes/common/stopwatch.h"
#include "mobieyes/core/client_fleet.h"
#include "mobieyes/geo/batch_kernels.h"
#include "mobieyes/obs/lifecycle.h"

namespace mobieyes::core {

using net::FocalState;
using net::Message;
using net::QueryInfo;

namespace {

// A ResultBitmapReport carries one uint64 bitmap: longer flip lists go out
// in chunks of this many queries.
constexpr size_t kBitmapCapacity = 64;

}  // namespace

bool MobiEyesClient::has_mq() const { return fleet_->has_mq_[index()] != 0; }

size_t MobiEyesClient::lqt_size() const { return fleet_->slab_.size(index()); }

double MobiEyesClient::processing_seconds() const {
  return fleet_->eval_seconds_[index()];
}

uint64_t MobiEyesClient::queries_evaluated() const {
  return fleet_->evaluated_[index()];
}

uint64_t MobiEyesClient::safe_period_skips() const {
  return fleet_->skips_[index()];
}

void MobiEyesClient::ResetCounters() {
  fleet_->eval_seconds_[index()] = 0.0;
  fleet_->evaluated_[index()] = 0;
  fleet_->skips_[index()] = 0;
}

FocalState MobiEyesClient::Kinematics() const {
  const mobility::World& world = *fleet_->world_;
  return FocalState{world.position(oid_), world.velocity(oid_), world.now()};
}

void MobiEyesClient::SyncPending() {
  fleet_->has_pending_[index()] = pending_.empty() ? 0 : 1;
}

void MobiEyesClient::OnTick() {
  ++fleet_->ticks_[index()];
  Step();
}

void MobiEyesClient::Step() {
  const MobiEyesOptions& options = fleet_->options_;
  // Materialized once: the world does not move within a tick, so every
  // stage below (uplinks and nested deliveries included) sees this state.
  const mobility::ObjectState me = fleet_->world_->object(oid_);
  Seconds now = fleet_->world_->now();

  // 0. Hardening: drop LQT entries whose soft-state lease lapsed.
  if (options.lease_duration > 0.0) ExpireLeases(now);

  // 1. Grid-cell crossing (§3.5).
  if (!(me.cell == fleet_->prev_cell_[index()])) {
    HandleCellCrossing(me.cell);
  }

  // 2. Focal dead reckoning (§3.4): relay the velocity vector when the true
  // position drifts more than Δ from what the last relayed vector predicts.
  if (has_mq()) {
    geo::Point predicted = last_relayed_.PredictPosition(now);
    if (geo::Distance(me.pos, predicted) > options.dead_reckoning_threshold) {
      SendVelocityReport();
    }
  }

  // 3. Periodic evaluation of the LQT (§3.6).
  EvaluateQueries(me);

  // 4. Hardening: retransmit unacked tracked uplinks and, periodically,
  // reconcile the LQT with the server.
  if (options.enable_reliable_uplink && !pending_.empty()) {
    RetryPendingUplinks();
  }
  if (options.reconcile_period_ticks > 0) MaybeReconcile();
}

void MobiEyesClient::HandleCellCrossing(const geo::CellCoord& new_cell) {
  // Drop queries whose monitoring region no longer covers this object; the
  // object is then provably outside their spatial region, so containment
  // flips to false for entries that were targets.
  const LqtSlab& slab = fleet_->slab_;
  std::vector<size_t> stale;
  for (size_t i = 0; i < slab.size(index()); ++i) {
    const LqtRow& row = slab.row(index(), i);
    if (!slab.version(row.version).mon_region.Contains(new_cell)) {
      stale.push_back(i);
    }
  }
  RemoveEntries(stale);

  // Under eager propagation every object reports the crossing (the server
  // replies with newly relevant queries); under lazy propagation only focal
  // objects must report, since the server tracks their current cell.
  if (fleet_->options_.propagation == PropagationMode::kEager || has_mq()) {
    SendCellChangeReport(new_cell);
  }
  fleet_->prev_cell_[index()] = new_cell;
}

void MobiEyesClient::EvaluateQueries(const mobility::ObjectState& me) {
  ClientFleet& fleet = *fleet_;
  LqtSlab& slab = fleet.slab_;
  const size_t k = index();
  if (slab.size(k) == 0) {
    fleet.due_[k] = std::numeric_limits<Seconds>::infinity();
    return;
  }
  const MobiEyesOptions& options = fleet.options_;
  const Seconds now = fleet.world_->now();
  const bool grouping = options.enable_query_grouping;
  const bool safe_period = options.enable_safe_period;
  std::vector<size_t>& dirty_groups = fleet.scratch_dirty_groups_;
  std::vector<size_t>& flipped = fleet.scratch_flipped_;
  dirty_groups.clear();
  flipped.clear();
  uint64_t evaluated = 0;
  uint64_t skipped = 0;

  // The Fig. 13 stopwatch covers the evaluation only: the flip reports
  // below run the server's handling of them synchronously.
  Stopwatch watch;
  watch.Start();
  {
    TRACE_SPAN(fleet.trace_, "client.evaluate_queries");
    // No send and no insert happens inside this block, so the span stays
    // valid.
    const std::span<LqtRow> rows = slab.rows(k);
    Seconds due = std::numeric_limits<Seconds>::infinity();
    size_t begin = 0;
    while (begin < rows.size()) {
      const ObjectId focal_oid = slab.version(rows[begin].version).focal_oid;
      size_t end = begin + 1;
      while (end < rows.size() &&
             slab.version(rows[end].version).focal_oid == focal_oid) {
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
          due = std::min(due, fleet.RowDue(row));
          continue;
        }
        const QueryVersion& query = slab.version(row.version);
        const Miles reach = slab.max_reach(row.version);
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
          double gap = dist - reach - options.dead_reckoning_threshold;
          if (gap > 0.0) {
            double sp = closing_speed > 0.0
                            ? gap / closing_speed
                            : std::numeric_limits<double>::infinity();
            row.ptm = now + sp;
          }
        }
        due = std::min(due, fleet.RowDue(row));
      }
      if (group_dirty && grouping) dirty_groups.push_back(begin);
      begin = end;
    }
    fleet.due_[k] = due;
  }
  watch.Stop();
  fleet.eval_seconds_[k] += watch.total_seconds();
  fleet.evaluated_[k] += evaluated;
  fleet.skips_[k] += skipped;

  // Reports go out by row index, re-read after every send.
  if (grouping) {
    for (size_t group : dirty_groups) SendGroupReports(group);
  } else {
    for (size_t i : flipped) {
      const LqtRow& row = slab.row(k, i);
      net::ResultBitmapReport report;
      report.oid = oid_;
      report.qids.push_back(row.qid);
      report.bitmap = row.is_target ? 1 : 0;
      SendBitmapReport(std::move(report));
    }
  }
}

void MobiEyesClient::SendGroupReports(size_t begin) {
  const LqtSlab& slab = fleet_->slab_;
  auto in_group = [&](size_t i) {
    return i < slab.size(index()) &&
           slab.version(slab.row(index(), i).version).focal_oid ==
               slab.version(slab.row(index(), begin).version).focal_oid;
  };
  size_t i = begin;
  do {
    net::ResultBitmapReport report;
    report.oid = oid_;
    for (; in_group(i) && report.qids.size() < kBitmapCapacity; ++i) {
      const LqtRow& row = slab.row(index(), i);
      if (row.is_target) report.bitmap |= uint64_t{1} << report.qids.size();
      report.qids.push_back(row.qid);
    }
    SendBitmapReport(std::move(report));
  } while (in_group(i));
}

void MobiEyesClient::SendVelocityReport() {
  last_relayed_ = Kinematics();
  net::Message message =
      net::MakeMessage(net::VelocityChangeReport{oid_, last_relayed_});
  if (fleet_->options_.enable_reliable_uplink) {
    // A newer velocity report supersedes any unacked one: the retransmit of
    // the old vector would be stale anyway.
    std::erase_if(pending_, [this](const PendingUplink& p) {
      if (p.type != net::MessageType::kVelocityChangeReport) return false;
      DropAckRound(p.seq);
      return true;
    });
    PendingUplink entry;
    entry.type = net::MessageType::kVelocityChangeReport;
    TrackUplink(message, std::move(entry));
  }
  fleet_->network_->SendUplink(oid_, std::move(message));
}

void MobiEyesClient::SendCellChangeReport(const geo::CellCoord& new_cell) {
  geo::CellCoord origin = fleet_->prev_cell_[index()];
  const bool reliable = fleet_->options_.enable_reliable_uplink;
  if (reliable) {
    // Chain an unacked crossing: keeping its origin cell makes the server's
    // RQI diff span the whole unconfirmed move.
    auto it = std::find_if(pending_.begin(), pending_.end(),
                           [](const PendingUplink& p) {
                             return p.type ==
                                    net::MessageType::kCellChangeReport;
                           });
    if (it != pending_.end()) {
      origin = it->prev_cell;
      DropAckRound(it->seq);
      pending_.erase(it);
    }
  }
  net::Message message = net::MakeMessage(
      net::CellChangeReport{oid_, origin, new_cell});
  if (reliable) {
    PendingUplink entry;
    entry.type = net::MessageType::kCellChangeReport;
    entry.prev_cell = origin;
    TrackUplink(message, std::move(entry));
  }
  fleet_->network_->SendUplink(oid_, std::move(message));
}

void MobiEyesClient::SendBitmapReport(net::ResultBitmapReport report) {
  if (!fleet_->options_.enable_reliable_uplink) {
    fleet_->network_->SendUplink(oid_, net::MakeMessage(std::move(report)));
    return;
  }
  // A fresh report supersedes pending ones that cover any of the same
  // queries: retransmits rebuild the bitmap from the current LQT, so the
  // newest tracking entry carries the whole truth for its queries.
  std::erase_if(pending_, [this, &report](const PendingUplink& p) {
    if (p.type != net::MessageType::kResultBitmapReport) return false;
    for (QueryId qid : p.qids) {
      if (std::find(report.qids.begin(), report.qids.end(), qid) !=
          report.qids.end()) {
        DropAckRound(p.seq);
        return true;
      }
    }
    return false;
  });
  PendingUplink entry;
  entry.type = net::MessageType::kResultBitmapReport;
  entry.qids = report.qids;
  net::Message message = net::MakeMessage(std::move(report));
  TrackUplink(message, std::move(entry));
  fleet_->network_->SendUplink(oid_, std::move(message));
}

void MobiEyesClient::DropAckRound(uint32_t seq) {
  if (fleet_->lifecycle_ != nullptr) {
    fleet_->lifecycle_->Drop(obs::LifecycleTracker::kUplinkAck, AckKey(seq));
  }
}

void MobiEyesClient::TrackUplink(net::Message& message, PendingUplink entry) {
  entry.seq = ++next_seq_;
  entry.retries = 0;
  entry.retry_at =
      fleet_->ticks_[index()] + fleet_->options_.uplink_retry_backoff_ticks;
  message.seq = entry.seq;
  if (fleet_->lifecycle_ != nullptr) {
    fleet_->lifecycle_->Stamp(obs::LifecycleTracker::kUplinkAck,
                              AckKey(entry.seq));
  }
  // Bound the tracking state: if the link is so lossy that 16 tracked
  // uplinks pile up, the oldest is abandoned to the lease/reconciliation
  // repair path.
  if (pending_.size() >= 16) {
    DropAckRound(pending_.front().seq);
    pending_.erase(pending_.begin());
  }
  pending_.push_back(std::move(entry));
  SyncPending();
}

net::Message MobiEyesClient::RebuildPending(const PendingUplink& pending) {
  switch (pending.type) {
    case net::MessageType::kVelocityChangeReport:
      last_relayed_ = Kinematics();
      return net::MakeMessage(
          net::VelocityChangeReport{oid_, last_relayed_});
    case net::MessageType::kCellChangeReport:
      return net::MakeMessage(net::CellChangeReport{
          oid_, pending.prev_cell, fleet_->world_->cell(oid_)});
    default: {
      net::ResultBitmapReport report;
      report.oid = oid_;
      for (QueryId qid : pending.qids) {
        if (report.qids.size() == kBitmapCapacity) break;
        const ptrdiff_t i = fleet_->FindRow(index(), qid);
        // A query no longer in the LQT is provably not satisfied by this
        // object, so its bit stays false.
        if (i >= 0 && fleet_->slab_.row(index(), i).is_target) {
          report.bitmap |= uint64_t{1} << report.qids.size();
        }
        report.qids.push_back(qid);
      }
      return net::MakeMessage(std::move(report));
    }
  }
}

void MobiEyesClient::RetryPendingUplinks() {
  const MobiEyesOptions& options = fleet_->options_;
  const int64_t tick = fleet_->ticks_[index()];
  for (size_t k = 0; k < pending_.size();) {
    PendingUplink& p = pending_[k];
    if (tick < p.retry_at) {
      ++k;
      continue;
    }
    if (p.retries >= options.uplink_max_retries) {
      // Retry budget spent: give up and leave repair to the lease
      // re-broadcast / reconciliation paths.
      DropAckRound(p.seq);
      pending_.erase(pending_.begin() + k);
      continue;
    }
    ++p.retries;
    p.retry_at =
        tick + (static_cast<int64_t>(options.uplink_retry_backoff_ticks)
                << p.retries);
    net::Message message = RebuildPending(p);
    message.seq = p.seq;
    fleet_->network_->SendUplink(oid_, std::move(message));
    ++k;
  }
  SyncPending();
}

void MobiEyesClient::ExpireLeases(Seconds now) {
  const LqtSlab& slab = fleet_->slab_;
  std::vector<size_t> expired;
  for (size_t i = 0; i < slab.size(index()); ++i) {
    if (slab.row(index(), i).lease_expires_at <= now) expired.push_back(i);
  }
  RemoveEntries(expired);
}

void MobiEyesClient::MaybeReconcile() {
  const int64_t period = fleet_->options_.reconcile_period_ticks;
  if ((fleet_->ticks_[index()] + static_cast<int64_t>(oid_)) % period != 0) {
    return;
  }
  SendReconcile(/*cold_start=*/false);
}

void MobiEyesClient::SendReconcile(bool cold_start) {
  net::LqtReconcileRequest request;
  request.oid = oid_;
  request.cell = fleet_->world_->cell(oid_);
  request.cold_start = cold_start;
  const std::span<const LqtRow> rows = fleet_->slab_.rows(index());
  request.known_qids.reserve(rows.size());
  for (const LqtRow& row : rows) {
    request.known_qids.push_back(row.qid);
    if (row.is_target) request.target_qids.push_back(row.qid);
  }
  fleet_->network_->SendUplink(oid_, net::MakeMessage(std::move(request)));
}

void MobiEyesClient::Reset() {
  ClientFleet& fleet = *fleet_;
  fleet.slab_.Clear(index());
  fleet.due_[index()] = std::numeric_limits<Seconds>::infinity();
  // The restart loses the tracked uplinks; their ack rounds are cancelled,
  // not left pending forever.
  for (const PendingUplink& p : pending_) DropAckRound(p.seq);
  pending_.clear();
  SyncPending();
  fleet.has_mq_[index()] = 0;
  last_relayed_ = FocalState{};
  fleet.prev_cell_[index()] = fleet.world_->cell(oid_);
  // ISN-style restart: deriving the first sequence number from the tick
  // clock keeps the new incarnation's seq range disjoint from the old
  // one's, so the server's dedup ring never mistakes fresh uplinks for
  // retransmissions. (The tick clock itself survives the restart — it
  // models the device's clock, not its memory.)
  next_seq_ = static_cast<uint32_t>(fleet.ticks_[index()]) << 16;
  // Kick off recovery immediately: one cold-start reconcile rebuilds the
  // LQT via the server's diff path rather than waiting out the stagger.
  if (fleet.options_.reconcile_period_ticks > 0) {
    SendReconcile(/*cold_start=*/true);
  }
}

void MobiEyesClient::OnDownlink(const Message& message) {
  const size_t k = index();
  // Each case reads only the fields of this object's state it needs.
  switch (message.type) {
    case net::MessageType::kPositionVelocityRequest: {
      const net::PositionVelocityReport report{
          oid_, Kinematics(), fleet_->world_->max_speed(oid_)};
      fleet_->network_->SendUplink(oid_, net::MakeMessage(report));
      break;
    }
    case net::MessageType::kFocalNotification: {
      const auto& note = std::get<net::FocalNotification>(message.payload);
      if (note.qid == kInvalidQueryId) {
        fleet_->has_mq_[k] = 0;
      } else if (!has_mq()) {
        fleet_->has_mq_[k] = 1;
        // Mirror what the server just recorded in the FOT: the state this
        // object reported during the installation round trip.
        last_relayed_ = Kinematics();
      }
      break;
    }
    case net::MessageType::kUplinkAck: {
      const auto& ack = std::get<net::UplinkAck>(message.payload);
      if (fleet_->lifecycle_ != nullptr) {
        // Duplicate acks find no open round and resolve nothing.
        fleet_->lifecycle_->ResolveIfPending(
            obs::LifecycleTracker::kUplinkAck, AckKey(ack.seq));
      }
      std::erase_if(pending_, [&ack](const PendingUplink& p) {
        return p.seq == ack.seq;
      });
      SyncPending();
      break;
    }
    default:
      // The LQT-side types; the fleet ignores the rest.
      fleet_->Deliver(index(), message);
      break;
  }
}

void MobiEyesClient::RemoveEntries(const std::vector<size_t>& indices) {
  if (indices.empty()) return;
  LqtSlab& slab = fleet_->slab_;
  // Report a flip to "not a target" for entries that were in a result: once
  // outside the monitoring region the object is provably outside the
  // query's spatial region.
  std::vector<QueryId> flipped;
  for (size_t i : indices) {
    const LqtRow& row = slab.row(index(), i);
    if (row.is_target) flipped.push_back(row.qid);
  }
  // Erase back to front so earlier indices stay valid.
  for (auto it = indices.rbegin(); it != indices.rend(); ++it) {
    slab.Erase(index(), *it);
  }
  for (size_t chunk = 0; chunk < flipped.size(); chunk += kBitmapCapacity) {
    net::ResultBitmapReport report;
    report.oid = oid_;
    report.qids.assign(
        flipped.begin() + chunk,
        flipped.begin() + std::min(flipped.size(), chunk + kBitmapCapacity));
    SendBitmapReport(std::move(report));
  }
}

std::vector<MobiEyesClient::LqtEntry> MobiEyesClient::lqt() const {
  const LqtSlab& slab = fleet_->slab_;
  std::vector<LqtEntry> entries;
  for (size_t i = 0; i < slab.size(index()); ++i) {
    const LqtRow& row = slab.row(index(), i);
    const QueryVersion& query = slab.version(row.version);
    entries.push_back(LqtEntry{row.qid, query.focal_oid, query.focal,
                               query.region, query.filter_threshold,
                               query.mon_region, query.focal_max_speed,
                               row.is_target, row.ptm, row.lease_expires_at});
  }
  return entries;
}

uint64_t MobiEyesClient::lqt_signature() const {
  uint64_t signature = 0;
  for (const LqtEntry& entry : lqt()) {
    signature |= LqtQidKey(entry.qid) | LqtFocalKey(entry.focal_oid);
  }
  return signature;
}

std::optional<bool> MobiEyesClient::IsTargetOf(QueryId qid) const {
  const ptrdiff_t i = fleet_->FindRow(index(), qid);
  if (i < 0) return std::nullopt;
  return fleet_->slab_.row(index(), i).is_target;
}

}  // namespace mobieyes::core

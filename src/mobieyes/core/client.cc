#include "mobieyes/core/client.h"

#include <algorithm>
#include <limits>

#include "mobieyes/geo/batch_kernels.h"
#include "mobieyes/obs/lifecycle.h"

namespace mobieyes::core {

using net::FocalState;
using net::Message;
using net::QueryInfo;

namespace {

// Ordering that keeps groupable queries (same focal object) adjacent with
// region reach descending, so group evaluation can stop at the first
// circumscribing radius the object falls outside of (§4.1).
bool EntryLess(const MobiEyesClient::LqtEntry& a,
               const MobiEyesClient::LqtEntry& b) {
  if (a.focal_oid != b.focal_oid) return a.focal_oid < b.focal_oid;
  Miles reach_a = a.region.MaxReach();
  Miles reach_b = b.region.MaxReach();
  if (reach_a != reach_b) return reach_a > reach_b;
  return a.qid < b.qid;
}

}  // namespace

MobiEyesClient::MobiEyesClient(const mobility::World& world, ObjectId oid,
                               net::WirelessNetwork& network,
                               MobiEyesOptions options)
    : world_(&world),
      oid_(oid),
      network_(&network),
      options_(options),
      prev_cell_(world.cell(oid)) {}

void MobiEyesClient::OnTick() {
  ++tick_;
  // Materialized once: the world does not move within a tick, so every
  // stage below (uplinks and nested deliveries included) sees this state.
  const mobility::ObjectState me = world_->object(oid_);
  Seconds now = world_->now();

  // 0. Hardening: drop LQT entries whose soft-state lease lapsed.
  if (options_.lease_duration > 0.0) ExpireLeases(now);

  // 1. Grid-cell crossing (§3.5).
  if (!(me.cell == prev_cell_)) {
    HandleCellCrossing(me.cell);
  }

  // 2. Focal dead reckoning (§3.4): relay the velocity vector when the true
  // position drifts more than Δ from what the last relayed vector predicts.
  if (has_mq_) {
    geo::Point predicted = last_relayed_.PredictPosition(now);
    if (geo::Distance(me.pos, predicted) >
        options_.dead_reckoning_threshold) {
      SendVelocityReport();
    }
  }

  // 3. Periodic evaluation of the LQT (§3.6).
  EvaluateQueries(me);

  // 4. Hardening: retransmit unacked tracked uplinks and, periodically,
  // reconcile the LQT with the server.
  if (options_.enable_reliable_uplink && !pending_.empty()) {
    RetryPendingUplinks();
  }
  if (options_.reconcile_period_ticks > 0) MaybeReconcile();
}

void MobiEyesClient::HandleCellCrossing(const geo::CellCoord& new_cell) {
  // Drop queries whose monitoring region no longer covers this object; the
  // object is then provably outside their spatial region, so containment
  // flips to false for entries that were targets.
  std::vector<size_t> stale;
  for (size_t k = 0; k < lqt_.size(); ++k) {
    if (!lqt_[k].mon_region.Contains(new_cell)) stale.push_back(k);
  }
  RemoveEntries(stale);

  // Under eager propagation every object reports the crossing (the server
  // replies with newly relevant queries); under lazy propagation only focal
  // objects must report, since the server tracks their current cell.
  if (options_.propagation == PropagationMode::kEager || has_mq_) {
    SendCellChangeReport(new_cell);
  }
  prev_cell_ = new_cell;
}

void MobiEyesClient::EvaluateQueries(const mobility::ObjectState& me) {
  if (lqt_.empty()) return;
  ScopedTimer timed(eval_watch_);
  TRACE_SPAN(trace_, "client.evaluate_queries");

  Seconds now = world_->now();
  const bool grouping = options_.enable_query_grouping;
  // Persistent scratch: this runs every tick for every client with a
  // non-empty LQT, so the flip lists must not allocate at steady state.
  std::vector<size_t>& dirty_groups = scratch_dirty_groups_;
  std::vector<size_t>& flipped = scratch_flipped_;
  dirty_groups.clear();
  flipped.clear();

  size_t begin = 0;
  while (begin < lqt_.size()) {
    size_t end = begin + 1;
    while (end < lqt_.size() &&
           lqt_[end].focal_oid == lqt_[begin].focal_oid) {
      ++end;
    }

    // One distance computation per group: groupable queries share a focal
    // object, and velocity broadcasts keep their kinematics in sync.
    double dist = -1.0;  // computed lazily
    geo::Point focal_pos;
    bool group_dirty = false;
    bool outside_larger = false;  // outside some circumscribing radius seen
    for (size_t k = begin; k < end; ++k) {
      LqtEntry& entry = lqt_[k];
      if (options_.enable_safe_period && entry.ptm > now) {
        ++safe_period_skips_;
        continue;
      }
      bool inside;
      if (grouping && outside_larger) {
        // Entries are sorted by circumscribing radius descending: outside a
        // larger reach implies outside all smaller regions (§4.1) — no
        // containment check needed.
        inside = false;
      } else {
        if (dist < 0.0) {
          focal_pos = entry.focal.PredictPosition(now);
          dist = geo::Distance(me.pos, focal_pos);
        }
        if (dist > entry.region.MaxReach()) {
          inside = false;
          outside_larger = true;
        } else {
          // Same per-lane predicate the batched span kernels apply, so the
          // client-side monitoring check and the oracle classify a point
          // identically.
          inside = geo::kernels::RegionLane(entry.region, focal_pos.x,
                                            focal_pos.y, me.pos.x, me.pos.y);
        }
      }
      ++queries_evaluated_;
      if (inside != entry.is_target) {
        entry.is_target = inside;
        group_dirty = true;
        if (!grouping) flipped.push_back(k);
      }
      if (options_.enable_safe_period && !inside && dist >= 0.0) {
        // Worst case both objects approach head-on at their maximum speeds;
        // subtract the dead-reckoning slack Δ since the focal position is
        // only known to within Δ (§4.2, DESIGN.md). The circumscribing
        // radius upper-bounds the region for any shape.
        double closing_speed = me.max_speed + entry.focal_max_speed;
        double gap = dist - entry.region.MaxReach() -
                     options_.dead_reckoning_threshold;
        if (gap > 0.0) {
          double sp = closing_speed > 0.0
                          ? gap / closing_speed
                          : std::numeric_limits<double>::infinity();
          entry.ptm = now + sp;
        }
      }
    }
    if (group_dirty && grouping) dirty_groups.push_back(begin);
    begin = end;
  }

  if (grouping) {
    SendFlipReports(dirty_groups);
  } else {
    for (size_t k : flipped) {
      net::ResultBitmapReport report;
      report.oid = oid_;
      report.qids.push_back(lqt_[k].qid);
      report.bitmap = lqt_[k].is_target ? 1 : 0;
      SendBitmapReport(std::move(report));
    }
  }
}

void MobiEyesClient::SendFlipReports(const std::vector<size_t>& dirty_groups) {
  // One report per dirty group carrying the group's full bitmap (§4.1).
  for (size_t begin : dirty_groups) {
    net::ResultBitmapReport report;
    report.oid = oid_;
    for (size_t k = begin;
         k < lqt_.size() && lqt_[k].focal_oid == lqt_[begin].focal_oid;
         ++k) {
      if (lqt_[k].is_target) {
        report.bitmap |= uint64_t{1} << report.qids.size();
      }
      report.qids.push_back(lqt_[k].qid);
      if (report.qids.size() == 64) break;  // bitmap capacity guard
    }
    SendBitmapReport(std::move(report));
  }
}

void MobiEyesClient::SendVelocityReport() {
  last_relayed_ = Kinematics();
  net::Message message =
      net::MakeMessage(net::VelocityChangeReport{oid_, last_relayed_});
  if (options_.enable_reliable_uplink) {
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
  network_->SendUplink(oid_, std::move(message));
}

void MobiEyesClient::SendCellChangeReport(const geo::CellCoord& new_cell) {
  geo::CellCoord origin = prev_cell_;
  if (options_.enable_reliable_uplink) {
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
  if (options_.enable_reliable_uplink) {
    PendingUplink entry;
    entry.type = net::MessageType::kCellChangeReport;
    entry.prev_cell = origin;
    TrackUplink(message, std::move(entry));
  }
  network_->SendUplink(oid_, std::move(message));
}

void MobiEyesClient::SendBitmapReport(net::ResultBitmapReport report) {
  if (!options_.enable_reliable_uplink) {
    network_->SendUplink(oid_, net::MakeMessage(std::move(report)));
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
  network_->SendUplink(oid_, std::move(message));
}

void MobiEyesClient::DropAckRound(uint32_t seq) {
  if (lifecycle_ != nullptr) {
    lifecycle_->Drop(obs::LifecycleTracker::kUplinkAck, AckKey(seq));
  }
}

void MobiEyesClient::TrackUplink(net::Message& message, PendingUplink entry) {
  entry.seq = ++next_seq_;
  entry.retries = 0;
  entry.retry_at = tick_ + options_.uplink_retry_backoff_ticks;
  message.seq = entry.seq;
  if (lifecycle_ != nullptr) {
    lifecycle_->Stamp(obs::LifecycleTracker::kUplinkAck, AckKey(entry.seq));
  }
  // Bound the tracking state: if the link is so lossy that 16 tracked
  // uplinks pile up, the oldest is abandoned to the lease/reconciliation
  // repair path.
  if (pending_.size() >= 16) {
    DropAckRound(pending_.front().seq);
    pending_.erase(pending_.begin());
  }
  pending_.push_back(std::move(entry));
}

net::Message MobiEyesClient::RebuildPending(const PendingUplink& pending) {
  switch (pending.type) {
    case net::MessageType::kVelocityChangeReport:
      last_relayed_ = Kinematics();
      return net::MakeMessage(
          net::VelocityChangeReport{oid_, last_relayed_});
    case net::MessageType::kCellChangeReport:
      return net::MakeMessage(
          net::CellChangeReport{oid_, pending.prev_cell, world_->cell(oid_)});
    default: {
      net::ResultBitmapReport report;
      report.oid = oid_;
      for (QueryId qid : pending.qids) {
        if (report.qids.size() == 64) break;
        const LqtEntry* entry = FindEntry(qid);
        // A query no longer in the LQT is provably not satisfied by this
        // object, so its bit stays false.
        if (entry != nullptr && entry->is_target) {
          report.bitmap |= uint64_t{1} << report.qids.size();
        }
        report.qids.push_back(qid);
      }
      return net::MakeMessage(std::move(report));
    }
  }
}

void MobiEyesClient::RetryPendingUplinks() {
  for (size_t k = 0; k < pending_.size();) {
    PendingUplink& p = pending_[k];
    if (tick_ < p.retry_at) {
      ++k;
      continue;
    }
    if (p.retries >= options_.uplink_max_retries) {
      // Retry budget spent: give up and leave repair to the lease
      // re-broadcast / reconciliation paths.
      DropAckRound(p.seq);
      pending_.erase(pending_.begin() + k);
      continue;
    }
    ++p.retries;
    p.retry_at =
        tick_ + (static_cast<int64_t>(options_.uplink_retry_backoff_ticks)
                 << p.retries);
    net::Message message = RebuildPending(p);
    message.seq = p.seq;
    network_->SendUplink(oid_, std::move(message));
    ++k;
  }
}

void MobiEyesClient::ExpireLeases(Seconds now) {
  std::vector<size_t> expired;
  for (size_t k = 0; k < lqt_.size(); ++k) {
    if (lqt_[k].lease_expires_at <= now) expired.push_back(k);
  }
  RemoveEntries(expired);
}

void MobiEyesClient::MaybeReconcile() {
  const int64_t period = options_.reconcile_period_ticks;
  if ((tick_ + static_cast<int64_t>(oid_)) % period != 0) return;
  SendReconcile(/*cold_start=*/false);
}

void MobiEyesClient::SendReconcile(bool cold_start) {
  net::LqtReconcileRequest request;
  request.oid = oid_;
  request.cell = world_->cell(oid_);
  request.cold_start = cold_start;
  request.known_qids.reserve(lqt_.size());
  for (const LqtEntry& entry : lqt_) {
    request.known_qids.push_back(entry.qid);
    if (entry.is_target) request.target_qids.push_back(entry.qid);
  }
  network_->SendUplink(oid_, net::MakeMessage(std::move(request)));
}

void MobiEyesClient::Reset() {
  lqt_.clear();
  ReleaseSpareLqtCapacity();
  SyncSignature();
  // The restart loses the tracked uplinks; their ack rounds are cancelled,
  // not left pending forever.
  for (const PendingUplink& p : pending_) DropAckRound(p.seq);
  pending_.clear();
  has_mq_ = false;
  last_relayed_ = FocalState{};
  prev_cell_ = world_->cell(oid_);
  // ISN-style restart: deriving the first sequence number from the tick
  // clock keeps the new incarnation's seq range disjoint from the old
  // one's, so the server's dedup ring never mistakes fresh uplinks for
  // retransmissions. (tick_ itself survives the restart — it models the
  // device's clock, not its memory.)
  next_seq_ = static_cast<uint32_t>(tick_) << 16;
  // Kick off recovery immediately: one cold-start reconcile rebuilds the
  // LQT via the server's diff path rather than waiting out the stagger.
  if (options_.reconcile_period_ticks > 0) {
    SendReconcile(/*cold_start=*/true);
  }
}

void MobiEyesClient::OnDownlink(const Message& message) {
  // Each case reads only the fields of this object's state it needs.
  switch (message.type) {
    case net::MessageType::kPositionVelocityRequest: {
      const net::PositionVelocityReport report{oid_, Kinematics(),
                                               world_->max_speed(oid_)};
      network_->SendUplink(oid_, net::MakeMessage(report));
      break;
    }
    case net::MessageType::kFocalNotification: {
      const auto& note = std::get<net::FocalNotification>(message.payload);
      if (note.qid == kInvalidQueryId) {
        has_mq_ = false;
      } else if (!has_mq_) {
        has_mq_ = true;
        // Mirror what the server just recorded in the FOT: the state this
        // object reported during the installation round trip.
        last_relayed_ = Kinematics();
      }
      break;
    }
    case net::MessageType::kQueryInstallBroadcast: {
      const auto& broadcast =
          std::get<net::QueryInstallBroadcast>(message.payload);
      for (const QueryInfo& info : broadcast.queries) {
        InstallIfApplicable(info);
      }
      break;
    }
    case net::MessageType::kVelocityChangeBroadcast: {
      const auto& broadcast =
          std::get<net::VelocityChangeBroadcast>(message.payload);
      for (auto& entry : lqt_) {
        if (entry.focal_oid == broadcast.focal_oid) {
          entry.focal = broadcast.state;
          // The server only relays vectors of live queries: refresh leases.
          entry.lease_expires_at = LeaseExpiry(world_->now());
        }
      }
      if (broadcast.carries_query_info) {
        // Lazy propagation (§3.5): the expanded broadcast lets objects that
        // silently crossed cells install the queries they missed.
        for (const QueryInfo& info : broadcast.queries) {
          InstallIfApplicable(info);
        }
      }
      break;
    }
    case net::MessageType::kQueryUpdateBroadcast: {
      const auto& broadcast =
          std::get<net::QueryUpdateBroadcast>(message.payload);
      const geo::CellCoord cell = world_->cell(oid_);
      std::vector<QueryId> stale_qids;
      for (const QueryInfo& info : broadcast.queries) {
        LqtEntry* entry = FindEntry(info.qid);
        if (entry != nullptr) {
          if (info.mon_region.Contains(cell)) {
            entry->focal = info.focal;
            entry->mon_region = info.mon_region;
            entry->lease_expires_at = LeaseExpiry(world_->now());
          } else {
            stale_qids.push_back(info.qid);
          }
        } else {
          InstallIfApplicable(info);
        }
      }
      if (stale_qids.empty()) break;
      // Indices are taken only now: an install above may have shifted the
      // entries, and a qid listed twice must not be removed twice.
      std::vector<size_t> stale;
      for (size_t k = 0; k < lqt_.size(); ++k) {
        if (std::find(stale_qids.begin(), stale_qids.end(), lqt_[k].qid) !=
            stale_qids.end()) {
          stale.push_back(k);
        }
      }
      RemoveEntries(stale);
      break;
    }
    case net::MessageType::kQueryRemoveBroadcast: {
      const auto& broadcast =
          std::get<net::QueryRemoveBroadcast>(message.payload);
      bool erased = false;
      for (QueryId qid : broadcast.qids) {
        LqtEntry* entry = FindEntry(qid);
        if (entry != nullptr) {
          lqt_.erase(lqt_.begin() + (entry - lqt_.data()));
          erased = true;
        }
      }
      if (erased) {
        ReleaseSpareLqtCapacity();
        SyncSignature();
      }
      break;
    }
    case net::MessageType::kNewQueriesNotification: {
      const auto& note =
          std::get<net::NewQueriesNotification>(message.payload);
      for (const QueryInfo& info : note.queries) {
        InstallIfApplicable(info);
      }
      break;
    }
    case net::MessageType::kUplinkAck: {
      const auto& ack = std::get<net::UplinkAck>(message.payload);
      if (lifecycle_ != nullptr) {
        // Duplicate acks find no open round and resolve nothing.
        lifecycle_->ResolveIfPending(obs::LifecycleTracker::kUplinkAck,
                                     AckKey(ack.seq));
      }
      std::erase_if(pending_, [&ack](const PendingUplink& p) {
        return p.seq == ack.seq;
      });
      break;
    }
    default:
      // Uplink-only types are never valid on the downlink; ignore.
      break;
  }
}

void MobiEyesClient::InstallIfApplicable(const QueryInfo& info) {
  // The same three tests gate ClientFleet's broadcast relevance check.
  if (info.focal_oid == oid_) return;  // never a target of its own query
  if (!info.mon_region.Contains(world_->cell(oid_))) return;
  if (world_->attr(oid_) > info.filter_threshold) return;  // filter fails

  if (LqtEntry* existing = FindEntry(info.qid)) {
    existing->focal = info.focal;
    existing->mon_region = info.mon_region;
    existing->focal_max_speed = info.focal_max_speed;
    existing->lease_expires_at = LeaseExpiry(world_->now());
    return;
  }
  LqtEntry entry;
  entry.qid = info.qid;
  entry.focal_oid = info.focal_oid;
  entry.focal = info.focal;
  entry.region = info.region;
  entry.filter_threshold = info.filter_threshold;
  entry.mon_region = info.mon_region;
  entry.focal_max_speed = info.focal_max_speed;
  entry.lease_expires_at = LeaseExpiry(world_->now());
  lqt_.insert(lqt_.begin() + InsertPosition(entry), std::move(entry));
  SyncSignature();
}

void MobiEyesClient::RemoveEntries(const std::vector<size_t>& indices) {
  if (indices.empty()) return;
  // Report a flip to "not a target" for entries that were in a result: once
  // outside the monitoring region the object is provably outside the
  // query's spatial region.
  net::ResultBitmapReport report;
  report.oid = oid_;
  for (size_t k : indices) {
    if (lqt_[k].is_target) {
      report.qids.push_back(lqt_[k].qid);
    }
  }
  // Erase back to front so earlier indices stay valid.
  for (auto it = indices.rbegin(); it != indices.rend(); ++it) {
    lqt_.erase(lqt_.begin() + *it);
  }
  ReleaseSpareLqtCapacity();
  SyncSignature();
  if (!report.qids.empty()) {
    SendBitmapReport(std::move(report));
  }
}

uint64_t MobiEyesClient::lqt_signature() const {
  uint64_t signature = 0;
  for (const LqtEntry& entry : lqt_) {
    signature |= LqtQidKey(entry.qid) | LqtFocalKey(entry.focal_oid);
  }
  return signature;
}

std::optional<bool> MobiEyesClient::IsTargetOf(QueryId qid) const {
  for (const auto& entry : lqt_) {
    if (entry.qid == qid) return entry.is_target;
  }
  return std::nullopt;
}

MobiEyesClient::LqtEntry* MobiEyesClient::FindEntry(QueryId qid) {
  for (auto& entry : lqt_) {
    if (entry.qid == qid) return &entry;
  }
  return nullptr;
}

size_t MobiEyesClient::InsertPosition(const LqtEntry& entry) const {
  size_t lo = 0;
  while (lo < lqt_.size() && EntryLess(lqt_[lo], entry)) ++lo;
  return lo;
}

}  // namespace mobieyes::core

#include "mobieyes/core/client.h"

#include <algorithm>
#include <array>

#include "mobieyes/core/client_fleet.h"
#include "mobieyes/obs/lifecycle.h"

namespace mobieyes::core {

using net::FocalState;
using net::Message;

FocalState MobiEyesClient::Kinematics() const {
  const mobility::World& world = fleet_->world();
  return FocalState{world.position(oid_), world.velocity(oid_), world.now()};
}

void MobiEyesClient::SyncPending() {
  fleet_->SetUplinksPending(oid_, !pending_.empty());
}

void MobiEyesClient::RelayVelocityIfDrifted() {
  const mobility::World& world = fleet_->world();
  const geo::Point predicted = last_relayed_.PredictPosition(world.now());
  if (geo::Distance(world.position(oid_), predicted) >
      fleet_->options().dead_reckoning_threshold) {
    SendVelocityReport();
  }
}

void MobiEyesClient::SendVelocityReport() {
  last_relayed_ = Kinematics();
  net::Message message =
      net::MakeMessage(net::VelocityChangeReport{oid_, last_relayed_});
  if (fleet_->options().enable_reliable_uplink) {
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
  fleet_->network().SendUplink(oid_, std::move(message));
}

void MobiEyesClient::SendCellChangeReport(const geo::CellCoord& origin,
                                          const geo::CellCoord& new_cell) {
  geo::CellCoord from = origin;
  const bool reliable = fleet_->options().enable_reliable_uplink;
  if (reliable) {
    auto it = std::find_if(pending_.begin(), pending_.end(),
                           [](const PendingUplink& p) {
                             return p.type ==
                                    net::MessageType::kCellChangeReport;
                           });
    if (it != pending_.end()) {
      from = it->prev_cell;
      DropAckRound(it->seq);
      pending_.erase(it);
    }
  }
  net::Message message =
      net::MakeMessage(net::CellChangeReport{oid_, from, new_cell});
  if (reliable) {
    PendingUplink entry;
    entry.type = net::MessageType::kCellChangeReport;
    entry.prev_cell = from;
    TrackUplink(message, std::move(entry));
  }
  fleet_->network().SendUplink(oid_, std::move(message));
}

void MobiEyesClient::SendBitmapReport(net::ResultBitmapReport report) {
  if (!fleet_->options().enable_reliable_uplink) {
    fleet_->network().SendUplink(oid_, net::MakeMessage(std::move(report)));
    return;
  }
  // A fresh report supersedes pending ones for the queries it covers:
  // retransmits rebuild the bitmap from the current LQT, so the newest
  // tracking entry carries the whole truth for its queries. An older entry
  // keeps retrying its other queries, and goes only once it has none left.
  for (PendingUplink& p : pending_) {
    if (p.type != net::MessageType::kResultBitmapReport) continue;
    std::erase_if(p.qids, [&report](QueryId qid) {
      return std::find(report.qids.begin(), report.qids.end(), qid) !=
             report.qids.end();
    });
  }
  std::erase_if(pending_, [this](const PendingUplink& p) {
    if (p.type != net::MessageType::kResultBitmapReport || !p.qids.empty()) {
      return false;
    }
    DropAckRound(p.seq);
    return true;
  });
  PendingUplink entry;
  entry.type = net::MessageType::kResultBitmapReport;
  entry.qids = report.qids;
  net::Message message = net::MakeMessage(std::move(report));
  TrackUplink(message, std::move(entry));
  fleet_->network().SendUplink(oid_, std::move(message));
}

void MobiEyesClient::SendReconcile(net::LqtReconcileRequest request) {
  fleet_->network().SendUplink(oid_, net::MakeMessage(std::move(request)));
}

void MobiEyesClient::DropAckRound(uint32_t seq) {
  if (fleet_->lifecycle() != nullptr) {
    fleet_->lifecycle()->Drop(obs::LifecycleTracker::kUplinkAck, AckKey(seq));
  }
}

void MobiEyesClient::TrackUplink(net::Message& message, PendingUplink entry) {
  entry.seq = ++next_seq_;
  entry.retries = 0;
  entry.retry_at = fleet_->tick(oid_) + kUplinkRetryBackoffTicks;
  message.seq = entry.seq;
  if (fleet_->lifecycle() != nullptr) {
    fleet_->lifecycle()->Stamp(obs::LifecycleTracker::kUplinkAck,
                               AckKey(entry.seq));
  }
  // Bound the tracking state: if the link is so lossy that
  // kMaxPendingUplinks tracked uplinks pile up, the oldest is abandoned to
  // the lease/reconciliation repair path.
  if (pending_.size() >= kMaxPendingUplinks) {
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
          oid_, pending.prev_cell, fleet_->world().cell(oid_)});
    default: {
      net::ResultBitmapReport report;
      report.oid = oid_;
      for (QueryId qid : pending.qids) {
        if (report.qids.size() == net::kResultBitmapCapacity) break;
        // A query no longer in the LQT is provably not satisfied by this
        // object, so its bit stays false.
        if (fleet_->IsTargetOf(oid_, qid).value_or(false)) {
          report.bitmap |= uint64_t{1} << report.qids.size();
        }
        report.qids.push_back(qid);
      }
      return net::MakeMessage(std::move(report));
    }
  }
}

void MobiEyesClient::RetryPendingUplinks() {
  const int64_t tick = fleet_->tick(oid_);
  // The due entries are named by seq before anything is sent: a
  // retransmission can be acknowledged inside its own send, and that ack
  // (or a superseding report sent from a nested delivery) removes entries,
  // so positions in pending_ do not survive a send.
  std::array<uint32_t, kMaxPendingUplinks> due;
  size_t num_due = 0;
  for (const PendingUplink& p : pending_) {
    if (tick >= p.retry_at) due[num_due++] = p.seq;
  }
  for (size_t k = 0; k < num_due; ++k) {
    auto it = std::find_if(
        pending_.begin(), pending_.end(),
        [seq = due[k]](const PendingUplink& p) { return p.seq == seq; });
    if (it == pending_.end()) continue;  // removed since the scan
    if (it->retries >= kUplinkMaxRetries) {
      // Retry budget spent: give up and leave repair to the lease
      // re-broadcast / reconciliation paths.
      DropAckRound(it->seq);
      pending_.erase(it);
      continue;
    }
    ++it->retries;
    it->retry_at = tick + (kUplinkRetryBackoffTicks << it->retries);
    net::Message message = RebuildPending(*it);
    message.seq = it->seq;
    fleet_->network().SendUplink(oid_, std::move(message));
  }
  SyncPending();
}

void MobiEyesClient::ResetUplinks() {
  // The restart loses the tracked uplinks; their ack rounds are cancelled,
  // not left pending forever.
  for (const PendingUplink& p : pending_) DropAckRound(p.seq);
  pending_.clear();
  SyncPending();
  last_relayed_ = FocalState{};
  // Deriving the first sequence number from the tick clock keeps the new
  // incarnation's seq range disjoint from the old one's. (The tick clock
  // itself survives the restart: it models the device's clock, not its
  // memory.)
  next_seq_ = static_cast<uint32_t>(fleet_->tick(oid_)) << 16;
}

void MobiEyesClient::OnDownlink(const Message& message) {
  switch (message.type) {
    case net::MessageType::kPositionVelocityRequest: {
      const net::PositionVelocityReport report{
          oid_, Kinematics(), fleet_->world().max_speed(oid_)};
      fleet_->network().SendUplink(oid_, net::MakeMessage(report));
      break;
    }
    case net::MessageType::kUplinkAck: {
      const auto& ack = std::get<net::UplinkAck>(message.payload);
      if (fleet_->lifecycle() != nullptr) {
        // Duplicate acks find no open round and resolve nothing.
        fleet_->lifecycle()->ResolveIfPending(
            obs::LifecycleTracker::kUplinkAck, AckKey(ack.seq));
      }
      std::erase_if(pending_, [&ack](const PendingUplink& p) {
        return p.seq == ack.seq;
      });
      SyncPending();
      break;
    }
    default:
      fleet_->OnDownlink(oid_, message);
      break;
  }
}

}  // namespace mobieyes::core

#include "mobieyes/core/client_fleet.h"

#include <algorithm>
#include <limits>
#include <variant>

namespace mobieyes::core {

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
      ticks_(world.object_count(), 0),
      has_mq_(world.object_count(), 0),
      has_pending_(world.object_count(), 0),
      evaluated_(world.object_count(), 0),
      skips_(world.object_count(), 0),
      eval_seconds_(world.object_count(), 0.0),
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
  for (size_t k = 0; k < clients_.size(); ++k) {
    const int64_t tick = ++ticks_[k];
    // Each test mirrors one stage of the client's step; when all fail, the
    // step would only count a safe-period skip for every row.
    const bool due =
        due_[k] <= now || has_mq_[k] != 0 || prev_cell_[k].i != cell_i_[k] ||
        prev_cell_[k].j != cell_j_[k] || (reliable && has_pending_[k] != 0) ||
        (period > 0 && (tick + static_cast<int64_t>(k)) % period == 0);
    if (due) {
      clients_[k].Step();
    } else {
      skips_[k] += slab_.size(k);
    }
  }
}

double ClientFleet::processing_seconds() const {
  double total = 0.0;
  for (double seconds : eval_seconds_) total += seconds;
  return total;
}

uint64_t ClientFleet::queries_evaluated() const {
  uint64_t total = 0;
  for (uint64_t count : evaluated_) total += count;
  return total;
}

uint64_t ClientFleet::safe_period_skips() const {
  uint64_t total = 0;
  for (uint64_t count : skips_) total += count;
  return total;
}

void ClientFleet::ResetCounters() {
  std::fill(evaluated_.begin(), evaluated_.end(), 0);
  std::fill(skips_.begin(), skips_.end(), 0);
  std::fill(eval_seconds_.begin(), eval_seconds_.end(), 0.0);
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
      // Indices are taken only now: an install above may have shifted the
      // rows, and a qid listed twice must not be removed twice.
      std::vector<size_t> stale;
      for (size_t i = 0; i < slab_.size(k); ++i) {
        if (std::find(stale_qids.begin(), stale_qids.end(),
                      slab_.row(k, i).qid) != stale_qids.end()) {
          stale.push_back(i);
        }
      }
      clients_[k].RemoveEntries(stale);
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

#include "mobieyes/core/client_fleet.h"

#include <variant>

namespace mobieyes::core {

using net::Message;
using net::MessageType;
using net::QueryInfo;

ClientFleet::ClientFleet(const mobility::World& world,
                         net::WirelessNetwork& network, MobiEyesOptions options)
    : network_(&network),
      signatures_(world.object_count(), 0),
      cell_i_(world.cell_is()),
      cell_j_(world.cell_js()),
      attr_(world.attrs()) {
  // Reserved once and never grown, so client addresses are stable for the
  // handlers registered below and for Simulation::client().
  clients_.reserve(world.object_count());
  for (size_t k = 0; k < world.object_count(); ++k) {
    clients_.emplace_back(world, static_cast<ObjectId>(k), network, options);
    clients_.back().signature_slot_ = &signatures_[k];
  }
  for (MobiEyesClient& client : clients_) {
    network.RegisterClient(client.oid(), [&client](const Message& message) {
      client.OnDownlink(message);
    });
  }
  network.set_broadcast_receiver(this);
}

ClientFleet::~ClientFleet() { network_->set_broadcast_receiver(nullptr); }

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
        return LqtMayHold(signatures_[k], key) || AnyInstallable(carried, k);
      });
      return;
    }
    case MessageType::kQueryUpdateBroadcast: {
      const auto& queries =
          std::get<net::QueryUpdateBroadcast>(message.payload).queries;
      fn([this, &queries](size_t k) {
        for (const QueryInfo& info : queries) {
          if (LqtMayHold(signatures_[k], LqtQidKey(info.qid)) ||
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
          if (LqtMayHold(signatures_[k], LqtQidKey(qid))) return true;
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
        clients_[k].OnDownlink(message);
      } else {
        ++skipped_receptions_;
      }
    }
  });
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

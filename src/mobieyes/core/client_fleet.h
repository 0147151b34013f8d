#ifndef MOBIEYES_CORE_CLIENT_FLEET_H_
#define MOBIEYES_CORE_CLIENT_FLEET_H_

#include <cstdint>
#include <span>
#include <vector>

#include "mobieyes/common/ids.h"
#include "mobieyes/core/client.h"
#include "mobieyes/core/options.h"
#include "mobieyes/mobility/world.h"
#include "mobieyes/net/message.h"
#include "mobieyes/net/network.h"

namespace mobieyes::core {

// Every moving object's client, in one oid-indexed vector, and the
// network's broadcast receiver (DESIGN.md §16). Each broadcast arrives once
// with its covered objects; the fleet decodes it once and, for each
// receiver in coverage order, runs an exact relevance check on dense
// arrays — the LQT key signatures and the world's cell and attribute
// arrays — before that receiver's turn. OnDownlink runs only where the
// message can change the receiver; elsewhere it would change no state and
// send nothing, so skipping it is invisible. Receptions are charged by the
// network before the fleet sees the list, skipped or not (Fig. 9).
//
// The check is evaluated per receiver at its turn, never for the whole
// list up front: an earlier receiver's uplink can set off a nested
// broadcast that installs a query at a later receiver. Cells and
// attributes are fixed within a tick; signatures are re-read every time.
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

  void OnBroadcast(const net::Message& message,
                   std::span<const ObjectId> receivers) override;

  // The relevance check OnBroadcast applies: false only when
  // client(oid).OnDownlink(message) would change no state and send nothing.
  bool MayAffect(const net::Message& message, ObjectId oid) const;

  // The fleet's copy of client(oid).lqt_signature().
  uint64_t lqt_signature(ObjectId oid) const {
    return signatures_[static_cast<size_t>(oid)];
  }

  // Covered objects whose handler the relevance check skipped.
  uint64_t skipped_receptions() const { return skipped_receptions_; }

 private:
  // Decodes `message` once and calls fn(relevant), where relevant(k) is
  // the per-receiver check for object index k.
  template <typename Fn>
  void WithRelevance(const net::Message& message, Fn&& fn) const;
  // InstallIfApplicable's three tests on the dense arrays.
  bool Installable(const net::QueryInfo& info, size_t k) const {
    return info.focal_oid != static_cast<ObjectId>(k) &&
           info.mon_region.Contains(geo::CellCoord{cell_i_[k], cell_j_[k]}) &&
           attr_[k] <= info.filter_threshold;
  }
  bool AnyInstallable(std::span<const net::QueryInfo> queries, size_t k) const;

  net::WirelessNetwork* network_;
  std::vector<uint64_t> signatures_;  // slots the clients keep exact
  std::vector<MobiEyesClient> clients_;
  // World arrays indexed by oid; the world never resizes them.
  const int32_t* cell_i_;
  const int32_t* cell_j_;
  const double* attr_;
  uint64_t skipped_receptions_ = 0;
};

}  // namespace mobieyes::core

#endif  // MOBIEYES_CORE_CLIENT_FLEET_H_

#ifndef MOBIEYES_TESTS_TEST_HARNESS_H_
#define MOBIEYES_TESTS_TEST_HARNESS_H_

// Shared fixture for protocol-level tests: a small fully-wired MobiEyes
// deployment (grid, base stations, world, network, server, and a client
// fleet with one client per object — the delivery path Simulation uses)
// with hand-placed objects and a deterministic step driver.

#include <map>
#include <memory>
#include <span>
#include <vector>

#include "mobieyes/common/random.h"
#include "mobieyes/core/client.h"
#include "mobieyes/core/client_fleet.h"
#include "mobieyes/core/options.h"
#include "mobieyes/core/server.h"
#include "mobieyes/geo/grid.h"
#include "mobieyes/mobility/world.h"
#include "mobieyes/net/base_station.h"
#include "mobieyes/net/bmap.h"
#include "mobieyes/net/fault_injection.h"
#include "mobieyes/net/network.h"

namespace mobieyes::test {

// Stand-in for the client fleet in network-level tests: counts each
// covered object's broadcast deliveries.
class BroadcastRecorder : public net::BroadcastReceiver {
 public:
  void OnBroadcast(const net::Message&,
                   std::span<const ObjectId> receivers) override {
    ++broadcasts_;
    for (ObjectId oid : receivers) ++deliveries_[oid];
  }
  int deliveries(ObjectId oid) const {
    auto it = deliveries_.find(oid);
    return it == deliveries_.end() ? 0 : it->second;
  }
  int broadcasts() const { return broadcasts_; }

 private:
  std::map<ObjectId, int> deliveries_;
  int broadcasts_ = 0;
};

struct ObjectSpec {
  // NOLINTNEXTLINE(google-explicit-constructor): terse test setup.
  ObjectSpec(geo::Point pos_in, geo::Vec2 vel_in = {},
             double max_speed_in = 1.0, double attr_in = 0.0)
      : pos(pos_in), vel(vel_in), max_speed(max_speed_in), attr(attr_in) {}

  geo::Point pos;
  geo::Vec2 vel;
  double max_speed;  // miles/second
  double attr;       // satisfies any filter by default
};

// A miniature deployment over a 100x100 universe with alpha = 10 and base
// station side 20 (overridable). Objects get dense ids in spec order. An
// active FaultPlan swaps in a net::FaultyNetwork; Tick drives its fault
// clock, so (as in the full simulation) setup traffic is unfaulted and
// faults start with the first tick.
class MiniDeployment {
 public:
  explicit MiniDeployment(const std::vector<ObjectSpec>& specs,
                          core::MobiEyesOptions options = {},
                          double alpha = 10.0,
                          double base_station_side = 20.0,
                          net::FaultPlan faults = {})
      : rng_(7) {
    geo::Rect universe{0, 0, 100, 100};
    grid_ = std::make_unique<geo::Grid>(*geo::Grid::Make(universe, alpha));
    layout_ = std::make_unique<net::BaseStationLayout>(
        *net::BaseStationLayout::Make(universe, base_station_side));
    bmap_ = std::make_unique<net::Bmap>(*net::Bmap::Make(*grid_, *layout_));

    std::vector<mobility::ObjectState> objects;
    for (size_t k = 0; k < specs.size(); ++k) {
      mobility::ObjectState object;
      object.oid = static_cast<ObjectId>(k);
      object.pos = specs[k].pos;
      object.vel = specs[k].vel;
      object.max_speed = specs[k].max_speed;
      object.attr = specs[k].attr;
      objects.push_back(object);
    }
    world_ = std::make_unique<mobility::World>(
        *mobility::World::Make(*grid_, std::move(objects)));

    if (faults.active()) {
      auto faulty = std::make_unique<net::FaultyNetwork>(faults);
      faulty_ = faulty.get();
      network_ = std::move(faulty);
    } else {
      network_ = std::make_unique<net::WirelessNetwork>();
    }
    network_->set_coverage_query(
        [this](const geo::Circle& circle,
               const std::function<void(ObjectId)>& fn) {
          world_->ForEachObjectInCircle(circle, fn);
        });

    server_ = std::make_unique<core::MobiEyesServer>(*grid_, *layout_, *bmap_,
                                                     *network_, options);
    network_->set_server_handler(
        [this](ObjectId from, const net::Message& message) {
          server_->OnUplink(from, message);
        });

    fleet_ = std::make_unique<core::ClientFleet>(*world_, *network_, options);
  }

  // One simulation step: advance the world (no random velocity re-draws so
  // tests stay deterministic) and run every client's per-step logic.
  void Tick(Seconds dt = 30.0) {
    world_->Step(dt, /*velocity_changes=*/0, rng_);
    if (faulty_ != nullptr) faulty_->AdvanceStep(step_++);
    server_->AdvanceTime(world_->now());
    fleet_->Tick();
  }

  void TickN(int steps, Seconds dt = 30.0) {
    for (int k = 0; k < steps; ++k) Tick(dt);
  }

  geo::Grid& grid() { return *grid_; }
  net::BaseStationLayout& layout() { return *layout_; }
  net::Bmap& bmap() { return *bmap_; }
  mobility::World& world() { return *world_; }
  net::WirelessNetwork& network() { return *network_; }
  // Null unless the deployment was built with an active FaultPlan.
  net::FaultyNetwork* faulty_network() { return faulty_; }
  int64_t step() const { return step_; }
  core::MobiEyesServer& server() { return *server_; }
  core::MobiEyesClient& client(ObjectId oid) { return fleet_->client(oid); }
  core::ClientFleet& fleet() { return *fleet_; }

 private:
  Rng rng_;
  net::FaultyNetwork* faulty_ = nullptr;  // alias of network_ when faulted
  int64_t step_ = 0;
  std::unique_ptr<geo::Grid> grid_;
  std::unique_ptr<net::BaseStationLayout> layout_;
  std::unique_ptr<net::Bmap> bmap_;
  std::unique_ptr<mobility::World> world_;
  std::unique_ptr<net::WirelessNetwork> network_;
  std::unique_ptr<core::MobiEyesServer> server_;
  std::unique_ptr<core::ClientFleet> fleet_;
};

}  // namespace mobieyes::test

#endif  // MOBIEYES_TESTS_TEST_HARNESS_H_

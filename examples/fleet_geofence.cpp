// Fleet geofencing: a logistics fleet where escort vehicles must stay within
// a convoy leader's radius. Demonstrates the safe-period optimization (§4.2)
// and query grouping (§4.1) on a hand-built deployment: several queries with
// different radii share the same focal object (the convoy leader).
//
// Run: ./build/examples/fleet_geofence

#include <cstdio>

#include "mobieyes/core/client_fleet.h"
#include "mobieyes/core/server.h"
#include "mobieyes/mobility/world.h"
#include "mobieyes/net/base_station.h"
#include "mobieyes/net/bmap.h"
#include "mobieyes/net/network.h"

using namespace mobieyes;  // NOLINT(build/namespaces)

int main() {
  geo::Rect universe{0, 0, 200, 200};
  auto grid = geo::Grid::Make(universe, 20.0);
  auto layout = net::BaseStationLayout::Make(universe, 40.0);
  auto bmap = net::Bmap::Make(*grid, *layout);

  // Object 0: convoy leader heading east. Objects 1-4: escorts at various
  // distances. Objects 5-9: unrelated trucks.
  std::vector<mobility::ObjectState> objects;
  auto add = [&objects](double x, double y, double vx, double vy,
                        double max_speed) {
    mobility::ObjectState object;
    object.oid = static_cast<ObjectId>(objects.size());
    object.pos = {x, y};
    object.vel = {vx, vy};
    object.max_speed = max_speed;
    objects.push_back(object);
  };
  add(60, 100, 0.02, 0.0, 0.02);    // leader, steady 72 mph east
  add(62, 100, 0.02, 0.0, 0.025);   // escort in formation
  add(66, 104, 0.02, 0.0, 0.025);   // escort on the flank
  add(75, 100, 0.015, 0.0, 0.025);  // escort lagging
  add(58, 96, 0.02, 0.0, 0.025);    // escort trailing
  for (int k = 0; k < 5; ++k) {
    add(20.0 + 30.0 * k, 170.0, 0.01, -0.005, 0.02);  // unrelated traffic
  }

  auto world = mobility::World::Make(*grid, std::move(objects));
  net::WirelessNetwork network;
  network.set_coverage_query(
      [&](const geo::Circle& circle, const std::function<void(ObjectId)>& fn) {
        world->ForEachObjectInCircle(circle, fn);
      });

  core::MobiEyesOptions options;
  options.enable_safe_period = true;   // distant trucks skip evaluations
  options.enable_query_grouping = true;  // both rings share broadcasts
  core::MobiEyesServer server(*grid, *layout, *bmap, network, options);
  network.set_server_handler([&](ObjectId from, const net::Message& message) {
    server.OnUplink(from, message);
  });
  core::ClientFleet fleet(*world, network, options);

  // Two concentric geofences bound to the leader: a 5-mile formation ring
  // and a 12-mile stragglers ring — groupable queries with one focal.
  auto inner = server.InstallQuery(0, 5.0, 1.0);
  auto outer = server.InstallQuery(0, 12.0, 1.0);
  if (!inner.ok() || !outer.ok()) {
    std::fprintf(stderr, "install failed\n");
    return 1;
  }

  Rng rng(2);
  for (int step = 1; step <= 10; ++step) {
    world->Step(30.0, 0, rng);
    fleet.Tick();  // every client's step, in oid order
    auto in_formation = server.QueryResult(*inner);
    auto in_range = server.QueryResult(*outer);
    std::printf("t=%4.0fs  leader x=%5.1f  formation ring: %zu  "
                "stragglers ring: %zu\n",
                world->now(), world->object(0).pos.x, in_formation->size(),
                in_range->size());
  }

  std::printf("\nsafe-period effect: %llu evaluations performed, "
              "%llu skipped\n",
              static_cast<unsigned long long>(fleet.queries_evaluated()),
              static_cast<unsigned long long>(fleet.safe_period_skips()));
  std::printf("wireless traffic: %llu uplink / %llu downlink messages\n",
              static_cast<unsigned long long>(
                  network.stats().uplink_messages),
              static_cast<unsigned long long>(
                  network.stats().downlink_messages));
  return 0;
}

// Highway corridor watch: a patrol car monitors a long, thin rectangular
// corridor ahead of and behind itself (a shape a circle models poorly) for
// a 10-minute shift. Demonstrates two repository extensions together:
// rectangular query regions (§2.3 allows any closed shape) and time-bounded
// queries (the paper's MQs carry durations).
//
// Run: ./build/examples/highway_corridor

#include <cstdio>

#include "mobieyes/core/client_fleet.h"
#include "mobieyes/core/server.h"
#include "mobieyes/mobility/world.h"
#include "mobieyes/net/base_station.h"
#include "mobieyes/net/bmap.h"
#include "mobieyes/net/network.h"
#include "mobieyes/sim/oracle.h"

using namespace mobieyes;  // NOLINT(build/namespaces)

int main() {
  geo::Rect universe{0, 0, 120, 40};  // a strip of country around a highway
  auto grid = geo::Grid::Make(universe, 10.0);
  auto layout = net::BaseStationLayout::Make(universe, 20.0);
  auto bmap = net::Bmap::Make(*grid, *layout);

  // Object 0: the patrol car, eastbound at 60 mph along y = 20.
  // Objects 1..8: traffic on and off the highway.
  std::vector<mobility::ObjectState> objects;
  auto add = [&objects](double x, double y, double vx, double vy) {
    mobility::ObjectState object;
    object.oid = static_cast<ObjectId>(objects.size());
    object.pos = {x, y};
    object.vel = {vx, vy};
    object.max_speed = 0.03;
    objects.push_back(object);
  };
  add(20, 20, 0.0167, 0.0);    // patrol car
  add(26, 20.5, 0.022, 0.0);   // car ahead, same lane area
  add(34, 19.5, 0.014, 0.0);   // slower truck ahead
  add(14, 20.2, 0.028, 0.0);   // fast car approaching from behind
  add(25, 32.0, 0.016, 0.0);   // parallel frontage road (off corridor)
  add(48, 20.0, -0.018, 0.0);  // oncoming traffic
  add(40, 6.0, 0.012, 0.003);  // rural road, far south
  add(42, 21.0, 0.015, 0.0);
  add(70, 19.0, -0.01, 0.0);

  auto world = mobility::World::Make(*grid, std::move(objects));
  net::WirelessNetwork network;
  network.set_coverage_query(
      [&](const geo::Circle& circle, const std::function<void(ObjectId)>& fn) {
        world->ForEachObjectInCircle(circle, fn);
      });
  core::MobiEyesOptions options;
  core::MobiEyesServer server(*grid, *layout, *bmap, network, options);
  network.set_server_handler([&](ObjectId from, const net::Message& message) {
    server.OnUplink(from, message);
  });
  core::ClientFleet fleet(*world, network, options);

  // The corridor: 16 miles long, 3 miles wide, centered on the patrol car,
  // active for a 10-minute shift (600 seconds).
  geo::QueryRegion corridor = geo::QueryRegion::MakeRectangle(16.0, 3.0);
  auto qid = server.InstallQuery(0, corridor, /*filter_threshold=*/1.0,
                                 /*duration=*/600.0);
  if (!qid.ok()) {
    std::fprintf(stderr, "install: %s\n", qid.status().ToString().c_str());
    return 1;
  }
  std::printf("corridor watch installed: 16 x 3 miles around the patrol "
              "car, 10-minute shift\n\n");

  sim::ExactOracle oracle(*world);
  Rng rng(3);
  for (int step = 1; step <= 24; ++step) {  // 12 simulated minutes
    world->Step(30.0, 0, rng);
    server.AdvanceTime(world->now());
    fleet.Tick();  // every client's step, in oid order

    auto result = server.QueryResult(*qid);
    if (!result.ok()) {
      std::printf("t=%4.0fs  shift over — query expired and was "
                  "uninstalled everywhere\n",
                  world->now());
      break;
    }
    auto exact = oracle.Evaluate(0, corridor, 1.0);
    std::printf("t=%4.0fs  patrol at x=%5.1f  vehicles in corridor: %zu "
                "(oracle %zu)\n",
                world->now(), world->object(0).pos.x, result->size(),
                exact.size());
  }

  std::printf("\nwireless traffic: %llu uplink / %llu downlink messages\n",
              static_cast<unsigned long long>(
                  network.stats().uplink_messages),
              static_cast<unsigned long long>(
                  network.stats().downlink_messages));
  return 0;
}

// Quickstart: build a tiny MobiEyes deployment by hand, install one moving
// query, step the simulated world and watch the differentially maintained
// result change as objects move.
//
// Run: ./build/examples/quickstart
// Exits non-zero unless the customer ends up as the query's only result.

#include <cstdio>
#include <unordered_set>

#include "mobieyes/core/client_fleet.h"
#include "mobieyes/core/server.h"
#include "mobieyes/mobility/world.h"
#include "mobieyes/net/base_station.h"
#include "mobieyes/net/bmap.h"
#include "mobieyes/net/network.h"

using namespace mobieyes;  // NOLINT(build/namespaces)

int main() {
  // 1. The universe of discourse: a 100 x 100 mile square gridded into
  //    10-mile cells, covered by base stations on a 20-mile lattice.
  geo::Rect universe{0, 0, 100, 100};
  auto grid = geo::Grid::Make(universe, /*alpha=*/10.0);
  auto layout = net::BaseStationLayout::Make(universe, /*side=*/20.0);
  auto bmap = net::Bmap::Make(*grid, *layout);
  if (!grid.ok() || !layout.ok() || !bmap.ok()) {
    std::fprintf(stderr, "setup failed\n");
    return 1;
  }

  // 2. Three moving objects: a taxi driver (the future query's focal
  //    object), a customer drifting toward it, and a bystander far away.
  std::vector<mobility::ObjectState> objects(3);
  objects[0].oid = 0;
  objects[0].pos = {50, 50};
  objects[0].max_speed = 0.02;
  objects[1].oid = 1;
  objects[1].pos = {58, 50};
  objects[1].vel = {-0.05, 0.0};
  objects[1].max_speed = 0.05;
  objects[2].oid = 2;
  objects[2].pos = {10, 90};
  objects[2].vel = {0.01, 0.0};
  objects[2].max_speed = 0.02;
  auto world = mobility::World::Make(*grid, std::move(objects));
  if (!world.ok()) {
    std::fprintf(stderr, "world: %s\n", world.status().ToString().c_str());
    return 1;
  }

  // 3. Wire the asymmetric wireless medium: uplinks to the server, and
  //    per-base-station broadcasts delivered by grid cell.
  net::WirelessNetwork network;
  network.set_coverage_query(
      [&](const geo::Circle& circle, const std::function<void(ObjectId)>& fn) {
        world->ForEachObjectInCircle(circle, fn);
      });

  core::MobiEyesOptions options;  // eager propagation, grouping on
  core::MobiEyesServer server(*grid, *layout, *bmap, network, options);
  network.set_server_handler([&](ObjectId from, const net::Message& message) {
    server.OnUplink(from, message);
  });

  // One client per object; the fleet registers each for one-to-one
  // downlinks and decodes every broadcast once for all covered objects.
  core::ClientFleet fleet(*world, network, options);

  // 4. Install a moving query: "objects within 5 miles of object 0".
  auto qid = server.InstallQuery(/*focal_oid=*/0, /*radius=*/5.0,
                                 /*filter_threshold=*/1.0);
  if (!qid.ok()) {
    std::fprintf(stderr, "install: %s\n", qid.status().ToString().c_str());
    return 1;
  }
  std::printf("installed query %lld: circle of 5 miles around object 0\n",
              static_cast<long long>(*qid));

  // 5. Step the world; each client runs its own evaluation logic and only
  //    containment *changes* travel to the server.
  Rng rng(1);
  std::unordered_set<ObjectId> final_result;
  for (int step = 1; step <= 6; ++step) {
    world->Step(/*dt=*/30.0, /*velocity_changes=*/0, rng);
    fleet.Tick();  // every client's step, in oid order

    auto result = server.QueryResult(*qid);
    if (!result.ok()) {
      std::fprintf(stderr, "result: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    final_result = *result;
    std::printf("t=%3.0fs  customer at x=%.1f  result={", world->now(),
                world->object(1).pos.x);
    bool first = true;
    for (ObjectId oid : *result) {
      std::printf("%s%lld", first ? "" : ", ", static_cast<long long>(oid));
      first = false;
    }
    std::printf("}\n");
  }

  const auto& stats = network.stats();
  std::printf(
      "\nwireless traffic: %llu uplink, %llu downlink messages "
      "(%llu broadcast)\n",
      static_cast<unsigned long long>(stats.uplink_messages),
      static_cast<unsigned long long>(stats.downlink_messages),
      static_cast<unsigned long long>(stats.broadcast_messages));
  // The customer drifts into the 5-mile circle; the bystander never does.
  if (final_result != std::unordered_set<ObjectId>{1}) {
    std::fprintf(stderr, "expected the final result {1}\n");
    return 1;
  }
  return 0;
}

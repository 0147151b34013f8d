// Microbenchmarks for the mobility layer (google-benchmark): World::Step
// (motion + velocity redraws + cell-index maintenance) and the visitor
// iteration primitives, at 1k/10k/100k/1M objects, plus broadcast delivery
// through the client fleet and the fleet's tick at 100k. These are the
// per-step hot paths every simulation mode sits on top of; regressions here
// slow the entire bench suite.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>
#include <vector>

#include "mobieyes/common/random.h"
#include "mobieyes/core/client_fleet.h"
#include "mobieyes/geo/grid.h"
#include "mobieyes/mobility/world.h"
#include "mobieyes/net/message.h"
#include "mobieyes/net/network.h"
#include "mobieyes/sim/simulation.h"

#ifndef NDEBUG
// Debug builds count global allocations so the steady-state-zero claims for
// World::Step, broadcast delivery and the fleet tick are asserted, not
// assumed (they would be invisible in a timing run). Release builds keep the
// default operators: the counter itself would perturb what the bench
// measures.
namespace {
uint64_t g_alloc_count = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#endif  // NDEBUG

namespace {

using mobieyes::ObjectId;
using mobieyes::Rng;
using mobieyes::geo::Circle;
using mobieyes::geo::Grid;
using mobieyes::geo::Point;
using mobieyes::geo::Rect;
using mobieyes::mobility::ObjectState;
using mobieyes::mobility::World;

// Table 1 scale: 100000 sq miles, alpha = 5, speeds up to ~250 mph.
constexpr double kSide = 316.227766;

Grid MakeGrid() { return *Grid::Make(Rect{0, 0, kSide, kSide}, 5.0); }

World MakeWorld(const Grid& grid, int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<ObjectState> objects;
  objects.reserve(n);
  for (int k = 0; k < n; ++k) {
    ObjectState object;
    object.oid = static_cast<ObjectId>(k);
    object.pos = Point{rng.NextDouble(0, kSide), rng.NextDouble(0, kSide)};
    object.max_speed = rng.NextDouble(0.01, 0.07);  // ~36..250 mph
    object.vel = {rng.NextDouble(-0.05, 0.05), rng.NextDouble(-0.05, 0.05)};
    objects.push_back(object);
  }
  return *World::Make(grid, std::move(objects));
}

void BM_WorldStep(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Grid grid = MakeGrid();
  World world = MakeWorld(grid, n, 1);
  Rng rng(2);
  world.Step(30.0, n / 10, rng);  // warm the span-rebuild scratch
#ifndef NDEBUG
  // The SoA step must be allocation-free at steady state (ISSUE S2): probe
  // one dedicated step outside the timed loop, where no harness-internal
  // heap traffic can pollute the count.
  const uint64_t allocs_before = g_alloc_count;
  world.Step(30.0, n / 10, rng);
  if (g_alloc_count != allocs_before) {
    state.SkipWithError("World::Step allocated at steady state");
  }
#endif
  for (auto _ : state) {
    world.Step(30.0, n / 10, rng);  // nmo/no = 10% as in Table 1
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_WorldStep)->Arg(1000)->Arg(10000)->Arg(100000)->Arg(1000000)
    ->Unit(benchmark::kMicrosecond);

void BM_ForEachObjectInCircle(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Grid grid = MakeGrid();
  World world = MakeWorld(grid, n, 3);
  Rng rng(4);
  for (auto _ : state) {
    Circle circle{Point{rng.NextDouble(20, kSide - 20),
                        rng.NextDouble(20, kSide - 20)},
                  10.0};
    uint64_t hits = 0;
    world.ForEachObjectInCircle(circle, [&](ObjectId) { ++hits; });
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ForEachObjectInCircle)->Arg(1000)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

void BM_ForEachObjectUnderCoverage(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Grid grid = MakeGrid();
  World world = MakeWorld(grid, n, 5);
  Rng rng(6);
  for (auto _ : state) {
    Circle circle{Point{rng.NextDouble(20, kSide - 20),
                        rng.NextDouble(20, kSide - 20)},
                  10.0};
    uint64_t hits = 0;
    world.ForEachObjectUnderCoverage(circle, [&](ObjectId) { ++hits; });
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ForEachObjectUnderCoverage)->Arg(1000)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

// Base-station broadcasts through WirelessNetwork::Broadcast into a warm
// 100k client fleet: the coverage query, reception charging and the
// fleet's per-receiver relevance check. Every client holds one query of
// the same focal, and each iteration broadcasts from the next of 256
// stations scattered over the universe, so client state is not cache
// resident. relevant:0 relays the velocity of a focal nobody tracks, so
// every reception is skipped; relevant:1 relays the tracked focal's, so
// every receiver runs its handler and updates its entry.
void BM_BroadcastDelivery(benchmark::State& state) {
  namespace core = mobieyes::core;
  namespace net = mobieyes::net;
  constexpr int kObjects = 100000;
  const bool relevant = state.range(0) != 0;
  Grid grid = MakeGrid();
  World world = MakeWorld(grid, kObjects, 7);
  net::WirelessNetwork network;
  network.set_coverage_query(
      [&world](const Circle& circle,
               const std::function<void(ObjectId)>& fn) {
        world.ForEachObjectInCircle(circle, fn);
      });
  core::ClientFleet fleet(world, network, core::MobiEyesOptions{});
  net::QueryInfo info;
  info.qid = 1;
  info.focal_oid = kObjects;  // a focal outside the fleet: no self-query
  info.region = mobieyes::geo::QueryRegion::MakeCircle(3.0);
  info.mon_region = grid.CellsIntersecting(Rect{0, 0, kSide, kSide});
  std::vector<ObjectId> everyone(kObjects);
  for (int k = 0; k < kObjects; ++k) everyone[k] = k;
  fleet.OnBroadcast(net::MakeMessage(net::QueryInstallBroadcast{{info}}),
                    everyone);
  // Table 1 coverage: the circle circumscribing a 10-mile lattice square.
  const double coverage_radius = 10.0 / std::sqrt(2.0);
  Rng rng(8);
  std::vector<net::BaseStation> stations;
  for (int k = 0; k < 256; ++k) {
    const Point center{rng.NextDouble(10, kSide - 10),
                       rng.NextDouble(10, kSide - 10)};
    stations.push_back(net::BaseStation{k, Circle{center, coverage_radius}});
  }
  net::VelocityChangeBroadcast relay;
  relay.focal_oid = relevant ? kObjects : kObjects + 1;
  relay.state.vel = {0.01, 0.0};
  const net::Message message = net::MakeMessage(relay);
  network.Broadcast(stations[0], message);  // warm the receiver pool
#ifndef NDEBUG
  // Steady-state delivery must not allocate, skipped or handled.
  const uint64_t allocs_before = g_alloc_count;
  network.Broadcast(stations[1], message);
  if (g_alloc_count != allocs_before) {
    state.SkipWithError("broadcast delivery allocated at steady state");
  }
#endif
  const uint64_t receptions_before = network.stats().broadcast_receptions;
  const uint64_t skipped_before = fleet.skipped_receptions();
  size_t next = 0;
  for (auto _ : state) {
    network.Broadcast(stations[next++ % stations.size()], message);
  }
  const uint64_t receptions =
      network.stats().broadcast_receptions - receptions_before;
  const uint64_t skipped = fleet.skipped_receptions() - skipped_before;
  if (receptions == 0 || (relevant ? skipped != 0 : skipped != receptions)) {
    state.SkipWithError("unexpected skip decisions");
  }
  state.SetItemsProcessed(static_cast<int64_t>(receptions));
}
BENCHMARK(BM_BroadcastDelivery)->ArgName("relevant")->Arg(0)->Arg(1)
    ->Unit(benchmark::kMicrosecond);

// One ClientFleet::Tick over a warm 100k fleet at Table 1 density (the
// universe above, 1,000 EQP queries, LQTs of ~1.8 rows), with the world
// held still: no object crosses a cell and no containment flips, so the
// pass is the fleet's walk and LQT evaluation only.
void BM_FleetTick(benchmark::State& state) {
  mobieyes::sim::SimulationConfig config;
  config.params.num_objects = 100000;
  auto made = mobieyes::sim::Simulation::Make(config);
  if (!made.ok()) {
    state.SkipWithError(made.status().ToString().c_str());
    return;
  }
  mobieyes::core::ClientFleet& fleet = *(*made)->fleet();
  fleet.Tick();  // compacts the slab and settles the results
#ifndef NDEBUG
  // A warm pass must not allocate: no per-client heap block holds rows.
  const uint64_t allocs_before = g_alloc_count;
  fleet.Tick();
  if (g_alloc_count != allocs_before) {
    state.SkipWithError("fleet tick allocated at steady state");
  }
#endif
  for (auto _ : state) fleet.Tick();
  state.SetItemsProcessed(state.iterations() * config.params.num_objects);
}
BENCHMARK(BM_FleetTick)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();

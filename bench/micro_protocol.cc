// Microbenchmarks for MobiEyes protocol primitives (google-benchmark):
// per-step cost of a full deployment tick, of the Bmap minimal cover and of
// one shard RQI edit with its state digest read.

#include <benchmark/benchmark.h>

#include <vector>

#include "bench_common.h"
#include "mobieyes/core/server_shard.h"
#include "mobieyes/net/bmap.h"

namespace {

using namespace mobieyes;  // NOLINT(build/namespaces)

void BM_SimulationStepEager(benchmark::State& state) {
  sim::SimulationConfig config;
  config.mode = sim::SimMode::kMobiEyesEager;
  config.params.num_objects = static_cast<int>(state.range(0));
  config.params.num_queries = config.params.num_objects / 10;
  config.params.velocity_changes_per_step = config.params.num_objects / 10;
  config.warmup_steps = 2;
  auto simulation = sim::Simulation::Make(config);
  if (!simulation.ok()) {
    state.SkipWithError(simulation.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    (*simulation)->Run(1);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulationStepEager)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

void BM_BmapMinimalCover(benchmark::State& state) {
  geo::Rect universe{0, 0, 316, 316};
  auto grid = geo::Grid::Make(universe, 5.0);
  auto layout = net::BaseStationLayout::Make(universe, 10.0);
  auto bmap = net::Bmap::Make(*grid, *layout);
  geo::CellRange region{10, 10 + static_cast<int32_t>(state.range(0)), 10,
                        10 + static_cast<int32_t>(state.range(0))};
  for (auto _ : state) {
    benchmark::DoNotOptimize((*bmap).MinimalCover(region));
  }
}
BENCHMARK(BM_BmapMinimalCover)->Arg(2)->Arg(8)->Arg(20);

// One RQI edit as a shard daemon applies it (an RqiAdd and the matching
// RqiRemove) plus the StateDigest() read that every scan reply and ack
// carries (DESIGN.md §13), on one shard holding Table 1's reverse query
// index: 1,000 queries of the most common radius on the 64x64 grid. A
// digest that walked the shard's rows would cost ~100 us here.
void BM_ShardStateDigest(benchmark::State& state) {
  const sim::SimulationParams params;
  auto grid = geo::Grid::Make(params.universe(), params.alpha);
  const core::ShardMap map(*grid, core::ShardingOptions{});
  core::ServerShard shard(0, *grid, map);
  Rng rng(params.seed);
  std::vector<geo::CellRange> regions;
  for (QueryId qid = 0; qid < params.num_queries; ++qid) {
    const auto i = static_cast<int32_t>(rng.NextUint64(grid->columns()));
    const auto j = static_cast<int32_t>(rng.NextUint64(grid->rows()));
    regions.push_back(
        grid->MonitoringRegion({i, j}, params.query_radius_means[0]));
    shard.RqiAdd(qid, regions.back());
  }
  const QueryId edited = params.num_queries;
  size_t k = 0;
  for (auto _ : state) {
    const geo::CellRange& region = regions[k++ % regions.size()];
    shard.RqiAdd(edited, region);
    shard.RqiRemove(edited, region);
    benchmark::DoNotOptimize(shard.StateDigest());
  }
}
BENCHMARK(BM_ShardStateDigest);

}  // namespace

BENCHMARK_MAIN();

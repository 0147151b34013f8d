// Microbenchmarks for the observability layer's overhead. Three questions:
//
//  1. What does a simulation step cost with observability fully off? This
//     must match the pre-obs baseline (the BENCH_parallel_sweep.json
//     numbers) — the disabled path is a null-pointer test per span.
//  2. What does turning metrics / tracing / sampling on cost end to end?
//  3. What do the primitives cost in isolation (disabled span, enabled
//     span, histogram observe)?
//
// Run with --benchmark_format=json to regenerate BENCH_observability.json.

#include <benchmark/benchmark.h>

#include <cstdint>

#include "mobieyes/obs/heatmap.h"
#include "mobieyes/obs/lifecycle.h"
#include "mobieyes/obs/metrics_registry.h"
#include "mobieyes/obs/trace_recorder.h"
#include "mobieyes/sim/simulation.h"

namespace {

using mobieyes::obs::ExponentialBounds;
using mobieyes::obs::Histogram;
using mobieyes::obs::MetricsRegistry;
using mobieyes::obs::TraceRecorder;
using mobieyes::sim::ObservabilityOptions;
using mobieyes::sim::SimMode;
using mobieyes::sim::Simulation;
using mobieyes::sim::SimulationConfig;

SimulationConfig SmallConfig(const ObservabilityOptions& obs) {
  SimulationConfig config;
  config.mode = SimMode::kMobiEyesEager;
  config.params.num_objects = 2000;
  config.params.num_queries = 200;
  config.params.velocity_changes_per_step = 200;
  config.params.seed = 11;
  config.warmup_steps = 1;
  config.measure_error = false;
  config.obs = obs;
  return config;
}

// One full EQP simulation step (2k objects), observability varied by the
// benchmark arg: 0 = off, 1 = metrics+sampler, 2 = trace, 3 = everything
// first-generation, 4 = heatmap+lifecycle, 5 = everything.
void BM_SimulationStep(benchmark::State& state) {
  ObservabilityOptions obs;
  const bool metrics = state.range(0) == 1 || state.range(0) >= 3;
  const bool trace = state.range(0) == 2 || state.range(0) == 3 ||
                     state.range(0) == 5;
  const bool spatial = state.range(0) >= 4;
  obs.enable_metrics = metrics;
  obs.sample_stride = metrics ? 1 : 0;
  obs.enable_trace = trace;
  obs.enable_heatmap = spatial;
  obs.enable_lifecycle = spatial;
  auto simulation = Simulation::Make(SmallConfig(obs));
  if (!simulation.ok()) {
    state.SkipWithError("setup failed");
    return;
  }
  for (auto _ : state) {
    (*simulation)->Run(1);
    if (trace) (*simulation)->trace_recorder()->Clear();
  }
  state.SetItemsProcessed(state.iterations() * 2000);
  state.SetLabel(state.range(0) == 0   ? "obs off"
                 : state.range(0) == 1 ? "metrics+sampler"
                 : state.range(0) == 2 ? "trace"
                 : state.range(0) == 3 ? "metrics+sampler+trace"
                 : state.range(0) == 4 ? "metrics+heatmap+lifecycle"
                                       : "all on");
}
BENCHMARK(BM_SimulationStep)->Arg(0)->Arg(1)->Arg(2)->Arg(3)->Arg(4)->Arg(5)
    ->Unit(benchmark::kMicrosecond);

// The runtime-disabled span: one null test on construction and one on
// destruction. This is what every instrumented scope pays when tracing is
// off.
void BM_TraceSpanDisabled(benchmark::State& state) {
  TraceRecorder* recorder = nullptr;
  benchmark::DoNotOptimize(recorder);
  for (auto _ : state) {
    TRACE_SPAN(recorder, "micro.disabled");
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceSpanDisabled);

// The enabled span: two steady_clock reads plus one vector push_back.
void BM_TraceSpanEnabled(benchmark::State& state) {
  TraceRecorder recorder;
  for (auto _ : state) {
    {
      TRACE_SPAN(&recorder, "micro.enabled");
      benchmark::ClobberMemory();
    }
    if (recorder.events().size() >= 65536) recorder.Clear();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceSpanEnabled);

// A histogram observation: linear bucket scan over 12 bounds.
void BM_HistogramObserve(benchmark::State& state) {
  MetricsRegistry registry;
  Histogram* histogram = registry.GetHistogram(
      "micro.histogram", ExponentialBounds(32.0, 2.0, 12));
  uint64_t value = 1;
  for (auto _ : state) {
    histogram->Observe(static_cast<double>(value));
    value = value * 1664525 + 1013904223;  // LCG, exercises all buckets
    value &= 0xFFFF;
    benchmark::DoNotOptimize(*histogram);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramObserve);

// A heat-map charge: one flat-index computation plus an integer add (the
// per-uplink cost on the router hot path when heat maps are on).
void BM_HeatMapAdd(benchmark::State& state) {
  mobieyes::obs::HeatMap map(64, 64);
  uint64_t k = 0;
  for (auto _ : state) {
    map.Add(mobieyes::obs::HeatMap::kUplinks,
            static_cast<int32_t>(k % 64),
            static_cast<int32_t>((k / 64) % 64));
    ++k;
    benchmark::DoNotOptimize(map);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HeatMapAdd);

// A full lifecycle round: stamp (hash-map insert) plus resolve (find,
// erase, bucket scan) — the per-tracked-message cost.
void BM_LifecycleStampResolve(benchmark::State& state) {
  mobieyes::obs::LifecycleTracker tracker;
  uint64_t key = 0;
  for (auto _ : state) {
    tracker.Stamp(mobieyes::obs::LifecycleTracker::kUplinkAck, key);
    tracker.ResolveIfPending(mobieyes::obs::LifecycleTracker::kUplinkAck, key);
    key = (key + 1) & 0xFFFF;
    benchmark::DoNotOptimize(tracker);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LifecycleStampResolve);

}  // namespace

BENCHMARK_MAIN();

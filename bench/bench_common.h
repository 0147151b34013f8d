#ifndef MOBIEYES_BENCH_BENCH_COMMON_H_
#define MOBIEYES_BENCH_BENCH_COMMON_H_

// Shared harness for the figure-reproduction benches: fan the sweep's
// (x-value, mode) cells across a worker pool, then print paper-style tables
// (one row per x-value, one column per series) and optionally a
// machine-readable JSON report.
//
// Every cell is one fully independent simulation with its own seeded RNG
// (the seed travels inside SimulationParams), so the table contents do not
// depend on the thread count: results are collected by job index, never by
// completion order. Only the wall-clock metrics (server/client seconds)
// jitter run-to-run — exactly as they already did serially.

#include <string>
#include <vector>

#include "mobieyes/obs/trace_recorder.h"
#include "mobieyes/sim/simulation.h"

namespace mobieyes::bench {

// One sweep cell: an independent simulation of `config`, run for `steps`
// measured steps.
struct SweepJob {
  sim::SimulationConfig config;
  int steps = 10;
  std::string label;  // progress note, e.g. "fig03 alpha=2 EQP"
};

// Parses argv and starts the bench wall clock. Call first in main(). A
// bench's own flags are listed in `own_flags` — by full text for switches
// ("--require-match"), by prefix ending in '=' for flags taking a value
// ("--min-agreement=") — and left for the bench to read. Every other
// argument must be a harness flag below or a sweep flag of the config flag
// table (src/mobieyes/sim/config_flags.cc: --objects, the fault, crash and
// shard flags, --harden); an unknown flag or a malformed value exits the
// process with status 2, so a typo never silently runs the default
// configuration. Harness flags:
//   --threads=N          worker threads for RunSweep (default: hardware
//                        threads; 1 runs strictly serially)
//   --json=PATH          also write every printed table to PATH as JSON
//   --trace=PATH         merged Perfetto trace, one process per cell
//   --metrics-json=PATH  per-cell metrics + per-step series report
//                        (lifecycle tables included); deterministic, so
//                        the file is identical for any --threads value
//   --sample-stride=N    per-step sampling stride inside each cell
//                        (default 1 with --metrics-json, else off)
//   --heatmap=PATH       per-cell heat-map export, byte-identical for any
//                        --threads or --shards value
//   --steps=N            override every job's measured step count
void InitBench(const std::string& name, int argc, char** argv,
               const std::vector<std::string>& own_flags = {});

// `job` with the flags InitBench accepted: --steps, and the config flags
// replayed through sim::ApplyConfigFlags, so a cell keeps its own value for
// every knob the flags leave unset. RunSweep applies it to every job;
// benches that build and run cells themselves call it directly.
SweepJob WithBenchFlags(SweepJob job);

// Worker thread count RunSweep will use.
int BenchThreads();

// Runs every job across the worker pool; results indexed like `jobs`.
// Honors the observability flags above: cells run with metrics/tracing
// enabled and their outputs are recorded (tagged with the job label) for
// FinishBench to write.
std::vector<sim::RunMetrics> RunSweep(const std::vector<SweepJob>& jobs);

// Same, with an explicit worker count (1 = strictly serial). The counting
// metrics of each cell depend only on its seed, never on `threads`.
std::vector<sim::RunMetrics> RunSweep(const std::vector<SweepJob>& jobs,
                                      int threads);

// Observability toggles for RunSweepObserved (the flag-independent core
// also used by tests).
struct SweepObsOptions {
  bool metrics = false;
  bool trace = false;
  int sample_stride = 0;
  // Per-cell heat-map accumulation (DESIGN.md §12); the deterministic
  // export lands in SweepCellResult::heatmap_json.
  bool heatmap = false;
  // Lifecycle latency tracking; its tables ride inside metrics_json.
  bool lifecycle = false;
  // Capture each cell's final per-query result sets (sorted, in installed
  // query order) into SweepCellResult::query_results. Used by the
  // determinism tests and the shard sweep to compare runs structurally.
  bool capture_results = false;
};

// One sweep cell's observability output.
struct SweepCellResult {
  sim::RunMetrics metrics;
  // Simulation::ObservabilityJson(include_timing=false): deterministic for
  // a given seed, identical across thread counts. Empty when !obs.metrics
  // and the sampler is off.
  std::string metrics_json;
  // Trace events with pid = job index. Empty when !obs.trace.
  std::vector<obs::TraceEvent> trace_events;
  // HeatMap::ToJson(): deterministic for a given seed, byte-identical
  // across thread and shard counts. Empty when !obs.heatmap.
  std::string heatmap_json;
  // Final result set of each installed query, sorted by object id, indexed
  // like Simulation::installed_queries(). Empty when !obs.capture_results.
  std::vector<std::vector<ObjectId>> query_results;
};

// RunSweep with explicit observability; results indexed like `jobs`.
std::vector<SweepCellResult> RunSweepObserved(
    const std::vector<SweepJob>& jobs, int threads,
    const SweepObsOptions& obs);

struct Series {
  std::string name;
  std::vector<double> values;
};

// Prints an aligned table: header `title`, x column labeled `xlabel`, one
// column per series. Values are printed with %.6g. The table is also
// recorded for the --json report.
void PrintTable(const std::string& title, const std::string& xlabel,
                const std::vector<double>& xs,
                const std::vector<Series>& series);

// Writes the JSON report if --json was given. Returns 0 (the exit status),
// so benches can end with `return FinishBench();`.
int FinishBench();

// Progress note to stderr so long sweeps show life without polluting the
// table output on stdout.
void Progress(const std::string& note);

}  // namespace mobieyes::bench

#endif  // MOBIEYES_BENCH_BENCH_COMMON_H_

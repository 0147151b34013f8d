#include "bench_common.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <string_view>
#include <vector>

#include "mobieyes/common/thread_pool.h"
#include "mobieyes/sim/config_flags.h"

namespace mobieyes::bench {

namespace {

struct RecordedTable {
  std::string title;
  std::string xlabel;
  std::vector<double> xs;
  std::vector<Series> series;
};

// One sweep cell's recorded observability output, in job order across all
// RunSweep calls of the bench.
struct RecordedCell {
  std::string label;
  std::string metrics_json;
  std::vector<obs::TraceEvent> trace_events;
  std::string heatmap_json;
};

struct BenchState {
  std::string name = "bench";
  int threads = 0;  // resolved in InitBench
  std::string json_path;
  std::string trace_path;
  std::string metrics_path;
  std::string heatmap_path;
  int sample_stride = 0;
  int steps = 0;  // --steps; 0 keeps each job's own count
  // Config flags accepted by InitBench, replayed onto every cell.
  std::vector<std::string> config_flags;
  std::chrono::steady_clock::time_point start;
  std::vector<RecordedTable> tables;
  std::vector<RecordedCell> cells;
};

BenchState& State() {
  static BenchState state;
  return state;
}

// JSON string escape for the characters our titles/labels can contain.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

// True when `arg` is one of a bench's own flags (see InitBench).
bool IsOwnFlag(const char* arg, const std::vector<std::string>& own_flags) {
  for (const std::string& flag : own_flags) {
    const bool takes_value = !flag.empty() && flag.back() == '=';
    if (takes_value ? std::strncmp(arg, flag.c_str(), flag.size()) == 0
                    : flag == arg) {
      return true;
    }
  }
  return false;
}

void AppendDoubles(std::string* out, const std::vector<double>& values) {
  *out += '[';
  for (size_t k = 0; k < values.size(); ++k) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.17g", values[k]);
    if (k > 0) *out += ',';
    *out += buffer;
  }
  *out += ']';
}

}  // namespace

void InitBench(const std::string& name, int argc, char** argv,
               const std::vector<std::string>& own_flags) {
  BenchState& state = State();
  state.name = name;
  state.threads = ThreadPool::HardwareThreads();
  state.start = std::chrono::steady_clock::now();
  for (int k = 1; k < argc; ++k) {
    const std::string_view arg = argv[k];
    std::string_view value;
    bool valid = true;
    if (sim::FlagValue(arg, "--threads=", &value)) {
      valid = sim::ParseIntFlag(value, 1, &state.threads);
    } else if (sim::FlagValue(arg, "--steps=", &value)) {
      valid = sim::ParseIntFlag(value, 1, &state.steps);
    } else if (sim::FlagValue(arg, "--sample-stride=", &value)) {
      valid = sim::ParseIntFlag(value, 0, &state.sample_stride);
    } else if (sim::FlagValue(arg, "--json=", &value)) {
      state.json_path = value;
    } else if (sim::FlagValue(arg, "--trace=", &value)) {
      state.trace_path = value;
    } else if (sim::FlagValue(arg, "--metrics-json=", &value)) {
      state.metrics_path = value;
    } else if (sim::FlagValue(arg, "--heatmap=", &value)) {
      state.heatmap_path = value;
    } else if (IsOwnFlag(argv[k], own_flags)) {
      continue;
    } else if (const sim::ConfigFlag* flag = sim::FindConfigFlag(arg);
               flag != nullptr && flag->sweep) {
      state.config_flags.emplace_back(arg);
    } else {
      std::fprintf(stderr,
                   "[%s] unknown flag '%s'\nharness flags: --threads=N "
                   "--json=PATH --trace=PATH --metrics-json=PATH "
                   "--sample-stride=N --heatmap=PATH --steps=N\n"
                   "config flags:\n%s",
                   name.c_str(), argv[k], sim::ConfigFlagUsage(true).c_str());
      std::exit(2);
    }
    if (!valid) {
      std::fprintf(stderr, "[%s] bad value in '%s'\n", name.c_str(), argv[k]);
      std::exit(2);
    }
  }
  // Every cell replays the config flags, so reject a malformed one here.
  sim::SimulationConfig probe;
  Status st = sim::ApplyConfigFlags(state.config_flags, &probe);
  if (!st.ok()) {
    std::fprintf(stderr, "[%s] %s\n", name.c_str(), st.message().c_str());
    std::exit(2);
  }
  if (state.sample_stride == 0 && !state.metrics_path.empty()) {
    state.sample_stride = 1;  // a metrics report should include a series
  }
}

SweepJob WithBenchFlags(SweepJob job) {
  const BenchState& state = State();
  if (state.steps > 0) job.steps = state.steps;
  // InitBench validated the flags, so the replay cannot fail.
  sim::ApplyConfigFlags(state.config_flags, &job.config);
  return job;
}

int BenchThreads() { return State().threads; }

namespace {

// Builds, runs and observes one sweep cell. `pid` tags the cell's trace
// events so a merged sweep trace shows one process track per cell.
SweepCellResult RunCell(const SweepJob& job, const SweepObsOptions& obs,
                        int32_t pid) {
  sim::SimulationConfig config = job.config;
  config.obs.enable_metrics = obs.metrics;
  config.obs.enable_trace = obs.trace;
  config.obs.sample_stride = obs.sample_stride;
  config.obs.enable_heatmap = obs.heatmap;
  config.obs.enable_lifecycle = obs.lifecycle;
  SweepCellResult result;
  auto simulation = sim::Simulation::Make(config);
  if (!simulation.ok()) {
    std::fprintf(stderr, "simulation setup failed: %s\n",
                 simulation.status().ToString().c_str());
    return result;
  }
  (*simulation)->Run(job.steps);
  // Close a partially filled heat-map window (no-op when steps landed on a
  // window boundary) so short cells still export residency + folded totals.
  (*simulation)->FlushHeatmap();
  result.metrics = (*simulation)->metrics();
  if (obs.metrics || obs.sample_stride > 0) {
    // Timing-free so the report depends only on the cell's seed, keeping
    // the parallel sweep deterministic; wall-clock detail belongs to the
    // trace.
    result.metrics_json =
        (*simulation)->ObservabilityJson(/*include_timing=*/false);
  }
  if (obs.trace) {
    obs::TraceRecorder* trace = (*simulation)->trace_recorder();
    trace->SetPid(pid);
    result.trace_events = trace->TakeEvents();
  }
  if (obs.heatmap && (*simulation)->heatmap() != nullptr) {
    // Every channel is layout-invariant, so the export is byte-identical
    // across thread and shard counts.
    result.heatmap_json = (*simulation)->heatmap()->ToJson();
  }
  if (obs.capture_results) {
    const std::vector<QueryId>& qids = (*simulation)->installed_queries();
    result.query_results.reserve(qids.size());
    core::MobiEyesServer* server = (*simulation)->server();
    for (QueryId qid : qids) {
      std::vector<ObjectId> sorted;
      const core::MobiEyesServer::SqtEntry* entry =
          server == nullptr ? nullptr : server->FindQuery(qid);
      if (entry != nullptr) {
        sorted.assign(entry->result.begin(), entry->result.end());
        std::sort(sorted.begin(), sorted.end());
      }
      result.query_results.push_back(std::move(sorted));
    }
  }
  return result;
}

}  // namespace

std::vector<SweepCellResult> RunSweepObserved(
    const std::vector<SweepJob>& jobs, int threads,
    const SweepObsOptions& obs) {
  ThreadPool pool(threads);
  // One Submit per job (not ParallelFor): cells vary widely in cost, so the
  // shared queue load-balances; futures are joined by index, which pins the
  // result order regardless of completion order.
  std::vector<std::future<SweepCellResult>> pending;
  pending.reserve(jobs.size());
  for (size_t k = 0; k < jobs.size(); ++k) {
    const SweepJob& job = jobs[k];
    pending.push_back(pool.Submit([&job, &obs, k] {
      if (!job.label.empty()) Progress(job.label);
      return RunCell(job, obs, static_cast<int32_t>(k));
    }));
  }
  std::vector<SweepCellResult> results;
  results.reserve(jobs.size());
  for (auto& future : pending) results.push_back(future.get());
  return results;
}

std::vector<sim::RunMetrics> RunSweep(const std::vector<SweepJob>& jobs) {
  return RunSweep(jobs, BenchThreads());
}

std::vector<sim::RunMetrics> RunSweep(const std::vector<SweepJob>& jobs,
                                      int threads) {
  BenchState& state = State();
  SweepObsOptions obs;
  obs.metrics = !state.metrics_path.empty();
  obs.trace = !state.trace_path.empty();
  obs.sample_stride = obs.metrics ? state.sample_stride : 0;
  obs.heatmap = !state.heatmap_path.empty();
  // Lifecycle latency tables ride inside the metrics report.
  obs.lifecycle = obs.metrics;

  std::vector<SweepJob> effective;
  effective.reserve(jobs.size());
  for (const SweepJob& job : jobs) effective.push_back(WithBenchFlags(job));

  std::vector<SweepCellResult> cells =
      RunSweepObserved(effective, threads, obs);
  std::vector<sim::RunMetrics> results;
  results.reserve(cells.size());
  const bool record = obs.metrics || obs.trace || obs.heatmap;
  // Pids must be unique across RunSweep calls for the merged trace; shift
  // this batch past the cells already recorded.
  int32_t pid_base = static_cast<int32_t>(state.cells.size());
  for (size_t k = 0; k < cells.size(); ++k) {
    results.push_back(cells[k].metrics);
    if (record) {
      for (obs::TraceEvent& event : cells[k].trace_events) {
        event.pid += pid_base;
      }
      state.cells.push_back(RecordedCell{effective[k].label,
                                         std::move(cells[k].metrics_json),
                                         std::move(cells[k].trace_events),
                                         std::move(cells[k].heatmap_json)});
    }
  }
  return results;
}

void PrintTable(const std::string& title, const std::string& xlabel,
                const std::vector<double>& xs,
                const std::vector<Series>& series) {
  State().tables.push_back(RecordedTable{title, xlabel, xs, series});
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("%-14s", xlabel.c_str());
  for (const Series& s : series) {
    std::printf("  %-18s", s.name.c_str());
  }
  std::printf("\n");
  for (size_t row = 0; row < xs.size(); ++row) {
    std::printf("%-14.6g", xs[row]);
    for (const Series& s : series) {
      if (row < s.values.size()) {
        std::printf("  %-18.6g", s.values[row]);
      } else {
        std::printf("  %-18s", "-");
      }
    }
    std::printf("\n");
  }
  std::fflush(stdout);
}

namespace {

// Writes the merged Chrome trace: one process track per sweep cell, named
// by the cell's job label.
bool WriteTraceFile(const BenchState& state) {
  std::vector<obs::TraceEvent> events;
  std::vector<std::string> process_names;
  process_names.reserve(state.cells.size());
  for (const RecordedCell& cell : state.cells) {
    process_names.push_back(cell.label.empty()
                                ? "cell " + std::to_string(
                                                process_names.size())
                                : cell.label);
    events.insert(events.end(), cell.trace_events.begin(),
                  cell.trace_events.end());
  }
  return obs::TraceRecorder::WriteFile(state.trace_path, events,
                                       process_names);
}

// Writes the per-cell metrics report. Cells are ordered by job index and
// each cell's JSON is timing-free, so the file is byte-identical for any
// --threads value.
bool WriteMetricsFile(const BenchState& state) {
  std::string json = "{\"bench\": \"" + JsonEscape(state.name) +
                     "\",\n\"cells\": [\n";
  for (size_t k = 0; k < state.cells.size(); ++k) {
    const RecordedCell& cell = state.cells[k];
    json += "{\"label\": \"" + JsonEscape(cell.label) + "\", \"report\": ";
    json += cell.metrics_json.empty() ? "{}" : cell.metrics_json;
    json += k + 1 < state.cells.size() ? "},\n" : "}\n";
  }
  json += "]}\n";
  std::FILE* file = std::fopen(state.metrics_path.c_str(), "w");
  if (file == nullptr) return false;
  size_t written = std::fwrite(json.data(), 1, json.size(), file);
  return std::fclose(file) == 0 && written == json.size();
}

// Writes the per-cell heat-map export. Same ordering/determinism contract
// as the metrics file: byte-identical for any --threads or --shards value.
bool WriteHeatmapFile(const BenchState& state) {
  std::string json = "{\"bench\": \"" + JsonEscape(state.name) +
                     "\",\n\"cells\": [\n";
  for (size_t k = 0; k < state.cells.size(); ++k) {
    const RecordedCell& cell = state.cells[k];
    json += "{\"label\": \"" + JsonEscape(cell.label) + "\", \"heatmap\": ";
    json += cell.heatmap_json.empty() ? "{}" : cell.heatmap_json;
    json += k + 1 < state.cells.size() ? "},\n" : "}\n";
  }
  json += "]}\n";
  std::FILE* file = std::fopen(state.heatmap_path.c_str(), "w");
  if (file == nullptr) return false;
  size_t written = std::fwrite(json.data(), 1, json.size(), file);
  return std::fclose(file) == 0 && written == json.size();
}

}  // namespace

int FinishBench() {
  BenchState& state = State();
  double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    state.start)
          .count();
  if (!state.trace_path.empty()) {
    if (WriteTraceFile(state)) {
      Progress("wrote " + state.trace_path);
    } else {
      std::fprintf(stderr, "[bench] cannot write %s\n",
                   state.trace_path.c_str());
      return 1;
    }
  }
  if (!state.metrics_path.empty()) {
    if (WriteMetricsFile(state)) {
      Progress("wrote " + state.metrics_path);
    } else {
      std::fprintf(stderr, "[bench] cannot write %s\n",
                   state.metrics_path.c_str());
      return 1;
    }
  }
  if (!state.heatmap_path.empty()) {
    if (WriteHeatmapFile(state)) {
      Progress("wrote " + state.heatmap_path);
    } else {
      std::fprintf(stderr, "[bench] cannot write %s\n",
                   state.heatmap_path.c_str());
      return 1;
    }
  }
  if (state.json_path.empty()) return 0;

  std::string json = "{\n";
  json += "  \"bench\": \"" + JsonEscape(state.name) + "\",\n";
  json += "  \"threads\": " + std::to_string(state.threads) + ",\n";
  json += "  \"hardware_threads\": " +
          std::to_string(ThreadPool::HardwareThreads()) + ",\n";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.3f", wall_seconds);
  json += "  \"wall_seconds\": " + std::string(buffer) + ",\n";
  json += "  \"tables\": [\n";
  for (size_t t = 0; t < state.tables.size(); ++t) {
    const RecordedTable& table = state.tables[t];
    json += "    {\n";
    json += "      \"title\": \"" + JsonEscape(table.title) + "\",\n";
    json += "      \"xlabel\": \"" + JsonEscape(table.xlabel) + "\",\n";
    json += "      \"x\": ";
    AppendDoubles(&json, table.xs);
    json += ",\n      \"series\": [\n";
    for (size_t s = 0; s < table.series.size(); ++s) {
      json += "        {\"name\": \"" + JsonEscape(table.series[s].name) +
              "\", \"values\": ";
      AppendDoubles(&json, table.series[s].values);
      json += s + 1 < table.series.size() ? "},\n" : "}\n";
    }
    json += "      ]\n";
    json += t + 1 < state.tables.size() ? "    },\n" : "    }\n";
  }
  json += "  ]\n}\n";

  std::FILE* file = std::fopen(state.json_path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "[bench] cannot write %s\n",
                 state.json_path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), file);
  std::fclose(file);
  Progress("wrote " + state.json_path);
  return 0;
}

void Progress(const std::string& note) {
  std::fprintf(stderr, "[bench] %s\n", note.c_str());
  std::fflush(stderr);
}

}  // namespace mobieyes::bench

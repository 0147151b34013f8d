// Figure 1: impact of distributed query processing on server load.
// Server load (seconds of server-side processing per time step, log scale in
// the paper) as a function of the number of queries, for the centralized
// object-index and query-index baselines and MobiEyes with eager and lazy
// query propagation.

#include <string>
#include <vector>

#include "bench_common.h"

using namespace mobieyes;       // NOLINT(build/namespaces)
using namespace mobieyes::bench;  // NOLINT(build/namespaces)

int main(int argc, char** argv) {
  InitBench("fig01_server_load_queries", argc, argv);
  std::vector<double> query_counts = {100, 250, 500, 750, 1000};
  std::vector<sim::SimMode> modes = {
      sim::SimMode::kObjectIndex, sim::SimMode::kQueryIndex,
      sim::SimMode::kMobiEyesEager, sim::SimMode::kMobiEyesLazy};
  std::vector<Series> series = {{"ObjectIndex", {}},
                                {"QueryIndex", {}},
                                {"MobiEyes-EQP", {}},
                                {"MobiEyes-LQP", {}}};
  std::vector<SweepJob> jobs;
  for (double nmq : query_counts) {
    for (sim::SimMode mode : modes) {
      SweepJob job;
      job.config.params.num_queries = static_cast<int>(nmq);
      job.config.mode = mode;
      job.steps = 8;
      job.label = "fig01 nmq=" + std::to_string(job.config.params.num_queries) +
                  " " + sim::SimModeName(mode);
      jobs.push_back(job);
    }
  }
  std::vector<sim::RunMetrics> results = RunSweep(jobs);
  size_t cell = 0;
  for (size_t row = 0; row < query_counts.size(); ++row) {
    for (size_t s = 0; s < series.size(); ++s) {
      series[s].values.push_back(results[cell++].ServerLoadPerStep());
    }
  }
  PrintTable("Fig 1: server load (s/step) vs number of queries",
             "num_queries", query_counts, series);
  return FinishBench();
}

// Figure 3: effect of the grid cell size alpha on server load, compared
// against the (alpha-independent) centralized baselines.

#include <string>
#include <vector>

#include "bench_common.h"

using namespace mobieyes;       // NOLINT(build/namespaces)
using namespace mobieyes::bench;  // NOLINT(build/namespaces)

int main(int argc, char** argv) {
  InitBench("fig03_server_load_alpha", argc, argv);
  std::vector<double> alphas = {0.5, 1, 2, 4, 8, 16};
  std::vector<Series> series = {{"ObjectIndex", {}},
                                {"QueryIndex", {}},
                                {"MobiEyes-EQP", {}},
                                {"MobiEyes-LQP", {}}};
  // The centralized baselines do not depend on alpha: measure them once on
  // the default configuration (jobs 0 and 1) and repeat the value across
  // rows; the per-alpha EQP/LQP cells follow pairwise.
  std::vector<SweepJob> jobs;
  {
    SweepJob object_index;
    object_index.config.mode = sim::SimMode::kObjectIndex;
    object_index.steps = 8;
    object_index.label = "fig03 ObjectIndex baseline";
    jobs.push_back(object_index);
    SweepJob query_index;
    query_index.config.mode = sim::SimMode::kQueryIndex;
    query_index.steps = 8;
    query_index.label = "fig03 QueryIndex baseline";
    jobs.push_back(query_index);
  }
  for (double alpha : alphas) {
    for (sim::SimMode mode :
         {sim::SimMode::kMobiEyesEager, sim::SimMode::kMobiEyesLazy}) {
      SweepJob job;
      job.config.params.alpha = alpha;
      job.config.mode = mode;
      job.steps = 8;
      job.label = "fig03 alpha=" + std::to_string(alpha) + " " +
                  sim::SimModeName(mode);
      jobs.push_back(job);
    }
  }
  std::vector<sim::RunMetrics> results = RunSweep(jobs);
  double object_index = results[0].ServerLoadPerStep();
  double query_index = results[1].ServerLoadPerStep();
  size_t cell = 2;
  for (size_t row = 0; row < alphas.size(); ++row) {
    series[0].values.push_back(object_index);
    series[1].values.push_back(query_index);
    series[2].values.push_back(results[cell++].ServerLoadPerStep());
    series[3].values.push_back(results[cell++].ServerLoadPerStep());
  }
  PrintTable("Fig 3: server load (s/step) vs alpha", "alpha", alphas, series);
  return FinishBench();
}

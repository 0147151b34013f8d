// Figure 2: error associated with lazy query propagation. Average query
// result error (missing fraction vs the exact result) as a function of the
// number of objects changing their velocity vector per time step, for
// several grid cell sizes alpha.

#include <string>
#include <vector>

#include "bench_common.h"

using namespace mobieyes;       // NOLINT(build/namespaces)
using namespace mobieyes::bench;  // NOLINT(build/namespaces)

int main(int argc, char** argv) {
  InitBench("fig02_lqp_error", argc, argv);
  std::vector<double> velocity_changes = {100, 250, 500, 750, 1000};
  std::vector<double> alphas = {2.0, 5.0, 10.0};
  std::vector<Series> series;
  for (double alpha : alphas) {
    series.push_back({"alpha=" + std::to_string(static_cast<int>(alpha)), {}});
  }

  std::vector<SweepJob> jobs;
  for (double nmo : velocity_changes) {
    for (double alpha : alphas) {
      SweepJob job;
      job.config.params.velocity_changes_per_step = static_cast<int>(nmo);
      job.config.params.alpha = alpha;
      job.config.mode = sim::SimMode::kMobiEyesLazy;
      job.steps = 8;
      job.config.measure_error = true;
      job.label = "fig02 nmo=" + std::to_string(static_cast<int>(nmo)) +
                  " alpha=" + std::to_string(alpha);
      jobs.push_back(job);
    }
  }
  std::vector<sim::RunMetrics> results = RunSweep(jobs);
  size_t cell = 0;
  for (size_t row = 0; row < velocity_changes.size(); ++row) {
    for (size_t k = 0; k < alphas.size(); ++k) {
      series[k].values.push_back(results[cell++].AverageError());
    }
  }
  PrintTable(
      "Fig 2: LQP average result error vs objects changing velocity per step",
      "nmo", velocity_changes, series);
  return FinishBench();
}

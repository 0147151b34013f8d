// Figure 10: effect of alpha on the average number of queries a moving
// object evaluates per time step (the average LQT size). Grows roughly
// exponentially with alpha since monitoring regions scale with cell area.

#include <string>
#include <vector>

#include "bench_common.h"

using namespace mobieyes;       // NOLINT(build/namespaces)
using namespace mobieyes::bench;  // NOLINT(build/namespaces)

int main(int argc, char** argv) {
  InitBench("fig10_lqt_alpha", argc, argv);
  std::vector<double> alphas = {1, 2, 4, 8, 16};
  std::vector<double> query_counts = {100, 400, 1000};
  std::vector<Series> series;
  for (double nmq : query_counts) {
    series.push_back({"nmq=" + std::to_string(static_cast<int>(nmq)), {}});
  }
  std::vector<SweepJob> jobs;
  for (double alpha : alphas) {
    for (double nmq : query_counts) {
      SweepJob job;
      job.config.params.alpha = alpha;
      job.config.params.num_queries = static_cast<int>(nmq);
      job.steps = 8;
      job.label = "fig10 alpha=" + std::to_string(alpha) +
                  " nmq=" + std::to_string(job.config.params.num_queries);
      jobs.push_back(job);
    }
  }
  std::vector<sim::RunMetrics> results = RunSweep(jobs);
  size_t cell = 0;
  for (size_t row = 0; row < alphas.size(); ++row) {
    for (size_t k = 0; k < query_counts.size(); ++k) {
      series[k].values.push_back(results[cell++].AverageLqtSize());
    }
  }
  PrintTable("Fig 10: average LQT size vs alpha", "alpha", alphas, series);
  return FinishBench();
}

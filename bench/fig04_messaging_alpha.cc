// Figure 4: effect of the grid cell size alpha on messaging cost. Total
// messages per second on the wireless medium for MobiEyes (eager
// propagation) as a function of alpha, for several query counts. The paper
// finds a U-shape with the sweet spot around alpha in [4, 6].

#include <string>
#include <vector>

#include "bench_common.h"

using namespace mobieyes;       // NOLINT(build/namespaces)
using namespace mobieyes::bench;  // NOLINT(build/namespaces)

int main(int argc, char** argv) {
  InitBench("fig04_messaging_alpha", argc, argv);
  std::vector<double> alphas = {0.5, 1, 2, 4, 6, 8, 12, 16};
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
      job.label = "fig04 alpha=" + std::to_string(alpha) +
                  " nmq=" + std::to_string(job.config.params.num_queries);
      jobs.push_back(job);
    }
  }
  std::vector<sim::RunMetrics> results = RunSweep(jobs);
  size_t cell = 0;
  for (size_t row = 0; row < alphas.size(); ++row) {
    for (size_t k = 0; k < query_counts.size(); ++k) {
      series[k].values.push_back(results[cell++].MessagesPerSecond());
    }
  }
  PrintTable("Fig 4: messages/second vs alpha (MobiEyes EQP)", "alpha",
             alphas, series);
  return FinishBench();
}

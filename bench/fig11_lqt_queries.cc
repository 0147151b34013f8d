// Figure 11: effect of the total number of queries on the average LQT size
// (linear growth, per the paper).

#include <string>
#include <vector>

#include "bench_common.h"

using namespace mobieyes;       // NOLINT(build/namespaces)
using namespace mobieyes::bench;  // NOLINT(build/namespaces)

int main(int argc, char** argv) {
  InitBench("fig11_lqt_queries", argc, argv);
  std::vector<double> query_counts = {100, 250, 500, 750, 1000};
  std::vector<double> alphas = {2.0, 5.0, 10.0};
  std::vector<Series> series;
  for (double alpha : alphas) {
    series.push_back({"alpha=" + std::to_string(static_cast<int>(alpha)), {}});
  }
  std::vector<SweepJob> jobs;
  for (double nmq : query_counts) {
    for (double alpha : alphas) {
      SweepJob job;
      job.config.params.num_queries = static_cast<int>(nmq);
      job.config.params.alpha = alpha;
      job.steps = 8;
      job.label = "fig11 nmq=" + std::to_string(job.config.params.num_queries) +
                  " alpha=" + std::to_string(alpha);
      jobs.push_back(job);
    }
  }
  std::vector<sim::RunMetrics> results = RunSweep(jobs);
  size_t cell = 0;
  for (size_t row = 0; row < query_counts.size(); ++row) {
    for (size_t k = 0; k < alphas.size(); ++k) {
      series[k].values.push_back(results[cell++].AverageLqtSize());
    }
  }
  PrintTable("Fig 11: average LQT size vs number of queries", "num_queries",
             query_counts, series);
  return FinishBench();
}

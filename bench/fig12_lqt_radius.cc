// Figure 12: effect of the query radius on the average LQT size. The x-axis
// is a radius factor multiplying the Table 1 radii; the effect only becomes
// visible once radius differences exceed the cell size alpha.

#include <string>
#include <vector>

#include "bench_common.h"

using namespace mobieyes;       // NOLINT(build/namespaces)
using namespace mobieyes::bench;  // NOLINT(build/namespaces)

int main(int argc, char** argv) {
  InitBench("fig12_lqt_radius", argc, argv);
  std::vector<double> radius_factors = {0.5, 1.0, 1.5, 2.0, 3.0, 4.0};
  std::vector<double> alphas = {2.0, 5.0, 10.0};
  std::vector<Series> series;
  for (double alpha : alphas) {
    series.push_back({"alpha=" + std::to_string(static_cast<int>(alpha)), {}});
  }
  std::vector<SweepJob> jobs;
  for (double factor : radius_factors) {
    for (double alpha : alphas) {
      SweepJob job;
      job.config.params.radius_factor = factor;
      job.config.params.alpha = alpha;
      job.steps = 8;
      job.label = "fig12 factor=" + std::to_string(factor) +
                  " alpha=" + std::to_string(alpha);
      jobs.push_back(job);
    }
  }
  std::vector<sim::RunMetrics> results = RunSweep(jobs);
  size_t cell = 0;
  for (size_t row = 0; row < radius_factors.size(); ++row) {
    for (size_t k = 0; k < alphas.size(); ++k) {
      series[k].values.push_back(results[cell++].AverageLqtSize());
    }
  }
  PrintTable("Fig 12: average LQT size vs query radius factor",
             "radius_factor", radius_factors, series);
  return FinishBench();
}

// Figure 13: effect of the safe period optimization on the average query
// processing load of a moving object (seconds spent evaluating the LQT per
// object per step). Helps at large alpha (bigger monitoring regions, more
// distant objects), slightly hurts at alpha = 1.

#include <string>
#include <vector>

#include "bench_common.h"

using namespace mobieyes;       // NOLINT(build/namespaces)
using namespace mobieyes::bench;  // NOLINT(build/namespaces)

int main(int argc, char** argv) {
  InitBench("fig13_safe_period", argc, argv);
  std::vector<double> alphas = {1, 2, 4, 8, 16};
  std::vector<Series> series = {{"no-safe-period", {}},
                                {"safe-period", {}},
                                {"evals/step/obj (sp)", {}},
                                {"skips/step/obj (sp)", {}}};
  core::MobiEyesOptions plain;
  plain.enable_safe_period = false;
  core::MobiEyesOptions with_sp;
  with_sp.enable_safe_period = true;

  // Two cells per alpha: safe periods off (even indices) and on (odd).
  std::vector<SweepJob> jobs;
  for (double alpha : alphas) {
    for (bool safe_period : {false, true}) {
      SweepJob job;
      job.config.params.alpha = alpha;
      job.steps = 8;
      job.config.mobieyes = safe_period ? with_sp : plain;
      job.label = "fig13 alpha=" + std::to_string(alpha) +
                  (safe_period ? " safe-period" : " no-safe-period");
      jobs.push_back(job);
    }
  }
  std::vector<sim::RunMetrics> results = RunSweep(jobs);
  size_t cell = 0;
  for (size_t row = 0; row < alphas.size(); ++row) {
    sim::RunMetrics without = results[cell++];
    sim::RunMetrics with = results[cell++];
    series[0].values.push_back(without.ClientProcessingPerStep());
    series[1].values.push_back(with.ClientProcessingPerStep());
    double denom = static_cast<double>(with.steps) *
                   static_cast<double>(with.objects);
    series[2].values.push_back(static_cast<double>(with.queries_evaluated) /
                               denom);
    series[3].values.push_back(static_cast<double>(with.safe_period_skips) /
                               denom);
  }
  PrintTable(
      "Fig 13: per-object query processing load (s/step) vs alpha, with and "
      "without safe periods",
      "alpha", alphas, series);
  return FinishBench();
}

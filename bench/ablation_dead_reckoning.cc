// Ablation: dead-reckoning threshold Δ (§3.4). Small Δ keeps predictions
// tight (low result error) at the price of frequent velocity-change reports
// and their broadcasts; large Δ trades accuracy for traffic. The paper does
// not fix Δ; this sweep documents the choice of the repository default.

#include <string>
#include <vector>

#include "bench_common.h"

using namespace mobieyes;       // NOLINT(build/namespaces)
using namespace mobieyes::bench;  // NOLINT(build/namespaces)

int main(int argc, char** argv) {
  InitBench("ablation_dead_reckoning", argc, argv);
  std::vector<double> deltas = {0.05, 0.1, 0.2, 0.5, 1.0, 2.0};
  std::vector<Series> series = {{"msgs/s", {}},
                                {"uplink msgs/s", {}},
                                {"avg error", {}}};
  std::vector<SweepJob> jobs;
  for (double delta : deltas) {
    SweepJob job;
    job.config.params.num_objects = 2000;
    job.config.params.num_queries = 200;
    job.config.params.velocity_changes_per_step = 200;
    job.config.params.dead_reckoning_threshold = delta;
    job.steps = 8;
    job.config.measure_error = true;
    job.label = "ablation_delta delta=" + std::to_string(delta);
    jobs.push_back(job);
  }
  std::vector<sim::RunMetrics> results = RunSweep(jobs);
  for (const sim::RunMetrics& metrics : results) {
    series[0].values.push_back(metrics.MessagesPerSecond());
    series[1].values.push_back(metrics.UplinkMessagesPerSecond());
    series[2].values.push_back(metrics.AverageError());
  }
  PrintTable("Ablation: dead-reckoning threshold (EQP, 2000 objects)",
             "delta_miles", deltas, series);
  return FinishBench();
}

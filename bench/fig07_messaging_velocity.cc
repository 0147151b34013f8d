// Figure 7: effect of the number of objects changing their velocity vector
// per time step (nmo) on the messaging cost.

#include <string>
#include <vector>

#include "bench_common.h"

using namespace mobieyes;       // NOLINT(build/namespaces)
using namespace mobieyes::bench;  // NOLINT(build/namespaces)

int main(int argc, char** argv) {
  InitBench("fig07_messaging_velocity", argc, argv);
  std::vector<double> velocity_changes = {100, 250, 500, 750, 1000};
  std::vector<double> query_counts = {100, 1000};
  std::vector<sim::SimMode> modes = {
      sim::SimMode::kNaive, sim::SimMode::kCentralOptimal,
      sim::SimMode::kMobiEyesEager, sim::SimMode::kMobiEyesLazy};
  std::vector<Series> series;
  for (double nmq : query_counts) {
    std::string suffix = " (nmq=" + std::to_string(static_cast<int>(nmq)) + ")";
    series.push_back({"Naive" + suffix, {}});
    series.push_back({"CentralOpt" + suffix, {}});
    series.push_back({"EQP" + suffix, {}});
    series.push_back({"LQP" + suffix, {}});
  }
  std::vector<SweepJob> jobs;
  for (double nmo : velocity_changes) {
    for (double nmq : query_counts) {
      for (sim::SimMode mode : modes) {
        SweepJob job;
        job.config.params.velocity_changes_per_step = static_cast<int>(nmo);
        job.config.params.num_queries = static_cast<int>(nmq);
        job.config.mode = mode;
        job.steps = 8;
        job.label = "fig07 nmo=" + std::to_string(static_cast<int>(nmo)) +
                    " nmq=" + std::to_string(static_cast<int>(nmq)) + " " +
                    sim::SimModeName(mode);
        jobs.push_back(job);
      }
    }
  }
  std::vector<sim::RunMetrics> results = RunSweep(jobs);
  size_t cell = 0;
  for (size_t row = 0; row < velocity_changes.size(); ++row) {
    for (size_t column = 0; column < series.size(); ++column) {
      series[column].values.push_back(results[cell++].MessagesPerSecond());
    }
  }
  PrintTable(
      "Fig 7: messages/second vs objects changing velocity vector per step",
      "nmo", velocity_changes, series);
  return FinishBench();
}

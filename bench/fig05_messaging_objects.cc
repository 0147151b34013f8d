// Figure 5: effect of the number of objects on messaging cost. Messages per
// second for the naive and central-optimal reporting schemes and MobiEyes
// EQP/LQP as the object population grows; the ratio nmo/no is held at its
// default (10%) as in the paper.

#include <string>
#include <vector>

#include "bench_common.h"

using namespace mobieyes;       // NOLINT(build/namespaces)
using namespace mobieyes::bench;  // NOLINT(build/namespaces)

int main(int argc, char** argv) {
  InitBench("fig05_messaging_objects", argc, argv);
  std::vector<double> object_counts = {1000, 2500, 5000, 7500, 10000};
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
  for (double no : object_counts) {
    for (double nmq : query_counts) {
      for (sim::SimMode mode : modes) {
        SweepJob job;
        job.config.params.num_objects = static_cast<int>(no);
        job.config.params.num_queries = static_cast<int>(nmq);
        // Keep nmo/no constant at the default ratio 1000/10000.
        job.config.params.velocity_changes_per_step =
            static_cast<int>(no * 0.1);
        job.config.mode = mode;
        job.steps = 8;
        job.label = "fig05 no=" + std::to_string(static_cast<int>(no)) +
                    " nmq=" + std::to_string(static_cast<int>(nmq)) + " " +
                    sim::SimModeName(mode);
        jobs.push_back(job);
      }
    }
  }
  std::vector<sim::RunMetrics> results = RunSweep(jobs);
  size_t cell = 0;
  for (size_t row = 0; row < object_counts.size(); ++row) {
    for (size_t column = 0; column < series.size(); ++column) {
      series[column].values.push_back(results[cell++].MessagesPerSecond());
    }
  }
  PrintTable("Fig 5: messages/second vs number of objects", "num_objects",
             object_counts, series);
  return FinishBench();
}

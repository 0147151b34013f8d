// Figure 6: uplink component of the messaging cost (log scale in the
// paper). Uplink messages per second vs the number of objects; LQP cuts the
// uplink requirement drastically, which matters in asymmetric networks.

#include <string>
#include <vector>

#include "bench_common.h"

using namespace mobieyes;       // NOLINT(build/namespaces)
using namespace mobieyes::bench;  // NOLINT(build/namespaces)

int main(int argc, char** argv) {
  InitBench("fig06_uplink_objects", argc, argv);
  std::vector<double> object_counts = {1000, 2500, 5000, 7500, 10000};
  std::vector<sim::SimMode> modes = {
      sim::SimMode::kNaive, sim::SimMode::kCentralOptimal,
      sim::SimMode::kMobiEyesEager, sim::SimMode::kMobiEyesLazy};
  std::vector<Series> series = {{"Naive", {}},
                                {"CentralOpt", {}},
                                {"MobiEyes-EQP", {}},
                                {"MobiEyes-LQP", {}}};
  std::vector<SweepJob> jobs;
  for (double no : object_counts) {
    for (sim::SimMode mode : modes) {
      SweepJob job;
      job.config.params.num_objects = static_cast<int>(no);
      job.config.params.velocity_changes_per_step = static_cast<int>(no * 0.1);
      job.config.mode = mode;
      job.steps = 8;
      job.label = "fig06 no=" + std::to_string(static_cast<int>(no)) + " " +
                  sim::SimModeName(mode);
      jobs.push_back(job);
    }
  }
  std::vector<sim::RunMetrics> results = RunSweep(jobs);
  size_t cell = 0;
  for (size_t row = 0; row < object_counts.size(); ++row) {
    for (size_t s = 0; s < series.size(); ++s) {
      series[s].values.push_back(results[cell++].UplinkMessagesPerSecond());
    }
  }
  PrintTable("Fig 6: uplink messages/second vs number of objects",
             "num_objects", object_counts, series);
  return FinishBench();
}

// Figure 9: per-object power consumption due to communication (mW) as a
// function of the number of queries, under the GPRS radio model of §5.3
// (~82 uJ/bit transmit, ~4.3 uJ/bit receive). The naive scheme is worst;
// central-optimal eventually beats MobiEyes at large query counts because
// broadcast reception charges every covered object.

#include <string>
#include <vector>

#include "bench_common.h"
#include "mobieyes/net/energy.h"

using namespace mobieyes;       // NOLINT(build/namespaces)
using namespace mobieyes::bench;  // NOLINT(build/namespaces)

int main(int argc, char** argv) {
  InitBench("fig09_power_consumption", argc, argv);
  std::vector<double> query_counts = {100, 250, 500, 750, 1000};
  std::vector<sim::SimMode> modes = {sim::SimMode::kNaive,
                                     sim::SimMode::kCentralOptimal,
                                     sim::SimMode::kMobiEyesEager};
  std::vector<Series> series = {{"Naive", {}},
                                {"CentralOpt", {}},
                                {"MobiEyes-EQP", {}}};
  net::RadioEnergyModel radio;

  std::vector<SweepJob> jobs;
  for (double nmq : query_counts) {
    for (sim::SimMode mode : modes) {
      SweepJob job;
      job.config.params.num_queries = static_cast<int>(nmq);
      job.config.mode = mode;
      job.steps = 8;
      job.config.track_per_object_bytes = true;
      job.label = "fig09 nmq=" + std::to_string(static_cast<int>(nmq)) + " " +
                  sim::SimModeName(mode);
      jobs.push_back(job);
    }
  }
  std::vector<sim::RunMetrics> results = RunSweep(jobs);
  size_t cell = 0;
  for (size_t row = 0; row < query_counts.size(); ++row) {
    for (size_t s = 0; s < series.size(); ++s) {
      series[s].values.push_back(
          results[cell++].AveragePowerMilliwatts(radio));
    }
  }
  PrintTable(
      "Fig 9: per-object communication power (mW) vs number of queries",
      "num_queries", query_counts, series);
  return FinishBench();
}

// Figure 8: effect of the base station coverage area on messaging cost.
// Messages per second for MobiEyes EQP as a function of the base station
// side length; the paper finds cost falling until a monitoring region fits
// inside a single station's coverage, after which the effect disappears.

#include <string>
#include <vector>

#include "bench_common.h"

using namespace mobieyes;       // NOLINT(build/namespaces)
using namespace mobieyes::bench;  // NOLINT(build/namespaces)

int main(int argc, char** argv) {
  InitBench("fig08_messaging_basestation", argc, argv);
  std::vector<double> station_sides = {5, 10, 20, 40, 80};
  std::vector<double> query_counts = {100, 400, 1000};
  std::vector<Series> series;
  for (double nmq : query_counts) {
    series.push_back({"nmq=" + std::to_string(static_cast<int>(nmq)), {}});
  }
  std::vector<SweepJob> jobs;
  for (double alen : station_sides) {
    for (double nmq : query_counts) {
      SweepJob job;
      job.config.params.base_station_side = alen;
      job.config.params.num_queries = static_cast<int>(nmq);
      job.steps = 8;
      job.label = "fig08 alen=" + std::to_string(alen) +
                  " nmq=" + std::to_string(job.config.params.num_queries);
      jobs.push_back(job);
    }
  }
  std::vector<sim::RunMetrics> results = RunSweep(jobs);
  size_t cell = 0;
  for (size_t row = 0; row < station_sides.size(); ++row) {
    for (size_t k = 0; k < query_counts.size(); ++k) {
      series[k].values.push_back(results[cell++].MessagesPerSecond());
    }
  }
  PrintTable("Fig 8: messages/second vs base station side length (EQP)",
             "alen", station_sides, series);
  return FinishBench();
}

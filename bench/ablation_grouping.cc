// Ablation: query grouping (§4.1). Measures broadcast and total messaging
// cost with grouping on vs off while the query-to-focal skew grows (a small
// object pool makes many queries share a focal object, which is exactly the
// situation grouping targets).

#include <string>
#include <vector>

#include "bench_common.h"

using namespace mobieyes;       // NOLINT(build/namespaces)
using namespace mobieyes::bench;  // NOLINT(build/namespaces)

int main(int argc, char** argv) {
  InitBench("ablation_grouping", argc, argv);
  std::vector<double> query_counts = {100, 250, 500, 1000};
  std::vector<Series> series = {{"grouped msgs/s", {}},
                                {"ungrouped msgs/s", {}},
                                {"grouped broadcasts", {}},
                                {"ungrouped broadcasts", {}}};
  core::MobiEyesOptions grouped;
  grouped.enable_query_grouping = true;
  core::MobiEyesOptions ungrouped;
  ungrouped.enable_query_grouping = false;

  // Two cells per row: grouping on (even indices) and off (odd).
  std::vector<SweepJob> jobs;
  for (double nmq : query_counts) {
    for (bool grouping : {true, false}) {
      SweepJob job;
      // Small pool -> skewed focal distribution.
      job.config.params.num_objects = 1000;
      job.config.params.velocity_changes_per_step = 100;
      job.config.params.num_queries = static_cast<int>(nmq);
      job.steps = 8;
      job.config.mobieyes = grouping ? grouped : ungrouped;
      job.label = "ablation_grouping nmq=" +
                  std::to_string(static_cast<int>(nmq)) +
                  (grouping ? " grouped" : " ungrouped");
      jobs.push_back(job);
    }
  }
  std::vector<sim::RunMetrics> results = RunSweep(jobs);
  size_t cell = 0;
  for (size_t row = 0; row < query_counts.size(); ++row) {
    sim::RunMetrics with = results[cell++];
    sim::RunMetrics without = results[cell++];
    series[0].values.push_back(with.MessagesPerSecond());
    series[1].values.push_back(without.MessagesPerSecond());
    series[2].values.push_back(
        static_cast<double>(with.network.broadcast_messages));
    series[3].values.push_back(
        static_cast<double>(without.network.broadcast_messages));
  }
  PrintTable("Ablation: query grouping under focal skew (1000 objects)",
             "num_queries", query_counts, series);
  return FinishBench();
}

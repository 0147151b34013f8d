// Ablation: spatial skew. The paper evaluates a uniform population; this
// sweep contrasts it with a hotspot (city-like) distribution, where
// monitoring regions pile onto the same cells: LQT sizes and messaging
// concentrate, stressing the grouping and safe-period optimizations.
//
// Besides the paper-style table, the bench machine-checks the skew with
// the heat-map layer (DESIGN.md §12): the hottest 10% of grid cells must
// carry a strictly larger share of uplinks and residency under the hotspot
// distribution than under the uniform one (exit 1 otherwise). Run with
// --heatmap=PATH to export every sweep cell's heat map as JSON.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"

using namespace mobieyes;       // NOLINT(build/namespaces)
using namespace mobieyes::bench;  // NOLINT(build/namespaces)

namespace {

// Share of a channel's all-time mass (totals plus the open window) landing
// in the hottest `band` fraction of grid cells.
double TopBandShare(const obs::HeatMap& map, obs::HeatMap::Channel channel,
                    double band) {
  std::vector<uint64_t> cells;
  cells.reserve(static_cast<size_t>(map.cell_count()));
  uint64_t sum = 0;
  for (int32_t j = 0; j < map.rows(); ++j) {
    for (int32_t i = 0; i < map.cols(); ++i) {
      uint64_t value = map.total(channel, i, j) + map.window(channel, i, j);
      cells.push_back(value);
      sum += value;
    }
  }
  if (sum == 0) return 0.0;
  std::sort(cells.begin(), cells.end(), std::greater<uint64_t>());
  size_t top = std::max<size_t>(
      1, static_cast<size_t>(band * static_cast<double>(cells.size())));
  uint64_t top_sum = 0;
  for (size_t k = 0; k < top && k < cells.size(); ++k) top_sum += cells[k];
  return static_cast<double>(top_sum) / static_cast<double>(sum);
}

// Runs one nmq=400 cell with heat maps enabled and returns the simulation
// (which owns the heat map). Window 4 so residency snapshots land inside
// short smoke runs too.
Result<std::unique_ptr<sim::Simulation>> RunHeatCell(
    sim::ObjectDistribution distribution) {
  SweepJob job;
  job.config.params.num_queries = 400;
  job.config.params.object_distribution = distribution;
  job.steps = 8;
  job = WithBenchFlags(job);
  job.config.obs.enable_heatmap = true;
  job.config.obs.heatmap_window = 4;
  auto simulation = sim::Simulation::Make(job.config);
  if (simulation.ok()) (*simulation)->Run(job.steps);
  return simulation;
}

}  // namespace

int main(int argc, char** argv) {
  InitBench("ablation_hotspot", argc, argv);
  std::vector<double> query_counts = {100, 400, 1000};
  std::vector<Series> series = {{"uniform msgs/s", {}},
                                {"hotspot msgs/s", {}},
                                {"uniform avg LQT", {}},
                                {"hotspot avg LQT", {}},
                                {"uniform server s/step", {}},
                                {"hotspot server s/step", {}}};
  // Two cells per row: uniform (even indices) and hotspot (odd).
  std::vector<SweepJob> jobs;
  for (double nmq : query_counts) {
    for (sim::ObjectDistribution distribution :
         {sim::ObjectDistribution::kUniform,
          sim::ObjectDistribution::kHotspot}) {
      SweepJob job;
      job.config.params.num_queries = static_cast<int>(nmq);
      job.config.params.object_distribution = distribution;
      job.steps = 8;
      job.label =
          "ablation_hotspot nmq=" + std::to_string(static_cast<int>(nmq)) +
          (distribution == sim::ObjectDistribution::kHotspot ? " hotspot"
                                                             : " uniform");
      jobs.push_back(job);
    }
  }
  std::vector<sim::RunMetrics> results = RunSweep(jobs);
  size_t cell = 0;
  for (size_t row = 0; row < query_counts.size(); ++row) {
    sim::RunMetrics flat = results[cell++];
    sim::RunMetrics skewed = results[cell++];
    series[0].values.push_back(flat.MessagesPerSecond());
    series[1].values.push_back(skewed.MessagesPerSecond());
    series[2].values.push_back(flat.AverageLqtSize());
    series[3].values.push_back(skewed.AverageLqtSize());
    series[4].values.push_back(flat.ServerLoadPerStep());
    series[5].values.push_back(skewed.ServerLoadPerStep());
  }
  PrintTable("Ablation: uniform vs hotspot object distribution (EQP)",
             "num_queries", query_counts, series);

  // Heat-map concentration check (nmq=400): the hottest 10% of cells must
  // carry a strictly larger share of uplinks and residency under the
  // hotspot distribution.
  auto flat_sim = RunHeatCell(sim::ObjectDistribution::kUniform);
  auto hot_sim = RunHeatCell(sim::ObjectDistribution::kHotspot);
  if (!flat_sim.ok() || !hot_sim.ok()) {
    std::fprintf(stderr, "heat-map cells failed to run\n");
    return 1;
  }
  (*flat_sim)->FlushHeatmap();
  (*hot_sim)->FlushHeatmap();
  const obs::HeatMap& flat_map = *(*flat_sim)->heatmap();
  const obs::HeatMap& hot_map = *(*hot_sim)->heatmap();
  bool ok = true;
  std::printf("\n=== Heat-map concentration: top-10%% cell share ===\n");
  for (obs::HeatMap::Channel channel :
       {obs::HeatMap::kUplinks, obs::HeatMap::kResidency}) {
    double flat_share = TopBandShare(flat_map, channel, 0.1);
    double hot_share = TopBandShare(hot_map, channel, 0.1);
    bool dominates = hot_share > flat_share;
    std::printf("%-10s  uniform %.3f  hotspot %.3f  %s\n",
                obs::HeatMap::ChannelName(channel), flat_share, hot_share,
                dominates ? "OK" : "FAIL");
    ok = ok && dominates;
  }
  std::printf("\nhotspot residency heat map:\n%s",
              hot_map.ToAscii(obs::HeatMap::kResidency).c_str());
  if (!ok) {
    std::fprintf(stderr,
                 "[bench] FAIL: hotspot heat-map band does not dominate\n");
    return 1;
  }
  return FinishBench();
}

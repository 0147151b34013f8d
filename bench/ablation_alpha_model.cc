// Ablation: the analytic alpha-cost model (sim/alpha_model.h) against the
// simulated messaging cost of Fig. 4. The model is meant to predict the
// U-shape and the location of the minimum, not absolute counts.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "mobieyes/sim/alpha_model.h"

using namespace mobieyes;       // NOLINT(build/namespaces)
using namespace mobieyes::bench;  // NOLINT(build/namespaces)

int main(int argc, char** argv) {
  InitBench("ablation_alpha_model", argc, argv);
  std::vector<double> alphas = {0.5, 1, 2, 4, 6, 8, 12, 16};
  std::vector<Series> series = {{"simulated msgs/s", {}},
                                {"model msgs/s", {}},
                                {"model uplink", {}},
                                {"model downlink", {}}};
  std::vector<SweepJob> jobs;
  for (double alpha : alphas) {
    SweepJob job;
    job.config.params.alpha = alpha;
    job.steps = 8;
    job.label = "ablation_alpha alpha=" + std::to_string(alpha);
    jobs.push_back(job);
  }
  std::vector<sim::RunMetrics> results = RunSweep(jobs);

  sim::SimulationParams defaults;
  sim::AlphaCostModel model(defaults);
  for (size_t row = 0; row < alphas.size(); ++row) {
    double alpha = alphas[row];
    series[0].values.push_back(results[row].MessagesPerSecond());
    series[1].values.push_back(model.MessagesPerSecond(alpha));
    series[2].values.push_back(model.UplinkPerSecond(alpha));
    series[3].values.push_back(model.DownlinkPerSecond(alpha));
  }
  PrintTable("Ablation: analytic alpha model vs simulation (EQP)", "alpha",
             alphas, series);
  std::printf("model-optimal alpha: %.3f (paper sweet spot: [4, 6])\n",
              model.OptimalAlpha());
  return FinishBench();
}

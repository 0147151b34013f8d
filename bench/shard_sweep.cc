// Server sharding (DESIGN.md §10): the RQI split into row-band slices vs the
// shard count, at 10k and 100k objects. Every cell runs the same hardened
// workload with per-step checkpoints, varying only --shards, and the sweep
// reports wireless messaging and an equivalence check: every multi-shard
// cell's final result sets must match the monolith cell's bit for bit (the
// sharding contract). At 10k objects the multi-shard cells also run over the
// process transport, whose backplane round trips are measured.
//
// Cells run strictly serially (never across a worker pool) so the wall
// times are honest.
//
// Gate flag for CI (exit 1 on violation):
//   --require-match        fail unless every multi-shard cell matches the
//                          monolith's result sets and wireless totals

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "mobieyes/core/shard_supervisor.h"

using namespace mobieyes;         // NOLINT(build/namespaces)
using namespace mobieyes::bench;  // NOLINT(build/namespaces)

namespace {

const int kShardCounts[] = {1, 2, 4, 8};
const int kObjectCounts[] = {10000, 100000};

constexpr int kMeasuredSteps = 12;
constexpr int kWarmupSteps = 2;

SweepJob MakeJob(int objects, int shards) {
  SweepJob job;
  sim::SimulationConfig& config = job.config;
  config.params.num_objects = objects;
  config.params.num_queries = objects / 100;
  config.params.velocity_changes_per_step = objects / 10;
  config.mode = sim::SimMode::kMobiEyesEager;
  config.warmup_steps = kWarmupSteps;
  // Per-step checkpoints: over the process transport every step also
  // captures fresh daemon sync images.
  config.checkpoint_stride = 1;
  config.mobieyes =
      core::HardenedOptions(config.mobieyes, config.params.time_step);
  config.mobieyes.sharding.num_shards = shards;
  job.steps = kMeasuredSteps;
  job.label = "shard_sweep objects=" + std::to_string(objects) +
              " shards=" + std::to_string(shards);
  return WithBenchFlags(job);
}

double PerStep(double total, const sim::RunMetrics& m) {
  return m.steps > 0 ? total / static_cast<double>(m.steps) : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  InitBench("shard_sweep", argc, argv, {"--require-match"});
  bool require_match = false;
  for (int k = 1; k < argc; ++k) {
    if (std::string(argv[k]) == "--require-match") require_match = true;
  }

  SweepObsOptions obs;
  obs.capture_results = true;

  bool all_match = true;

  for (int objects : kObjectCounts) {
    std::vector<SweepJob> jobs;
    for (int shards : kShardCounts) jobs.push_back(MakeJob(objects, shards));
    // With --objects the cells collapse to the override value; keep the
    // sweep meaningful by labeling with the effective count.
    const int effective_objects = jobs[0].config.params.num_objects;
    std::vector<SweepCellResult> cells = RunSweepObserved(jobs, 1, obs);

    const SweepCellResult& mono = cells[0];

    std::vector<double> xs;
    std::vector<Series> messaging = {
        {"wireless msgs/step", {}},
        {"results match", {}},
    };
    for (size_t k = 0; k < cells.size(); ++k) {
      const sim::RunMetrics& m = cells[k].metrics;
      xs.push_back(
          static_cast<double>(jobs[k].config.mobieyes.sharding.num_shards));

      messaging[0].values.push_back(
          PerStep(static_cast<double>(m.network.total_messages()), m));

      // The sharding contract: identical result sets and wireless totals,
      // whatever the shard count.
      bool match =
          cells[k].query_results == mono.query_results &&
          m.network.uplink_bytes == mono.metrics.network.uplink_bytes &&
          m.network.downlink_bytes == mono.metrics.network.downlink_bytes;
      messaging[1].values.push_back(match ? 1.0 : 0.0);
      if (!match) {
        all_match = false;
        std::fprintf(stderr,
                     "[shard_sweep] MISMATCH vs monolith: %s\n",
                     jobs[k].label.c_str());
      }
    }

    const std::string suffix =
        " (" + std::to_string(effective_objects) + " objects)";
    PrintTable("Shard sweep: messaging" + suffix, "shards", xs, messaging);

    // True backplane measurement (DESIGN.md §13): rerun the multi-shard
    // cells of the smaller sweep over the process transport — one daemon
    // per shard behind the socket backplane — and report the measured RPC
    // round trip and frame throughput. The result sets must still match
    // the monolith bit for bit (the transport mirrors, it never decides).
    if (objects == kObjectCounts[0]) {
      if (core::ShardSupervisor::FindShardd("").empty()) {
        std::fprintf(stderr,
                     "[shard_sweep] mobieyes_shardd not found; skipping the "
                     "process-transport backplane table\n");
      } else {
        std::vector<SweepJob> process_jobs;
        for (int shards : kShardCounts) {
          if (shards < 2) continue;
          SweepJob job = MakeJob(objects, shards);
          job.config.shard_transport =
              sim::SimulationConfig::ShardTransport::kProcess;
          job.label += " transport=process";
          process_jobs.push_back(std::move(job));
        }
        // Strictly serial: parallel cells would contend for cores with
        // their own daemon processes and poison the RTT measurement.
        std::vector<SweepCellResult> process_cells =
            RunSweepObserved(process_jobs, 1, obs);
        std::vector<double> pxs;
        std::vector<Series> backplane = {
            {"rtt us/rpc", {}},      {"frames/step", {}},
            {"KB/step", {}},         {"restarts", {}},
            {"results match", {}},
        };
        for (size_t k = 0; k < process_cells.size(); ++k) {
          const sim::RunMetrics& m = process_cells[k].metrics;
          pxs.push_back(static_cast<double>(
              process_jobs[k].config.mobieyes.sharding.num_shards));
          backplane[0].values.push_back(m.BackplaneRttMicros());
          backplane[1].values.push_back(m.BackplaneFramesPerStep());
          backplane[2].values.push_back(m.BackplaneBytesPerStep() / 1024.0);
          backplane[3].values.push_back(
              static_cast<double>(m.shard_restarts));
          bool match = process_cells[k].query_results == mono.query_results;
          backplane[4].values.push_back(match ? 1.0 : 0.0);
          if (!match) {
            all_match = false;
            std::fprintf(stderr, "[shard_sweep] MISMATCH vs monolith: %s\n",
                         process_jobs[k].label.c_str());
          }
        }
        PrintTable("Shard sweep: process-transport backplane" + suffix,
                   "shards", pxs, backplane);
      }
    }
  }

  int status = FinishBench();
  if (require_match && !all_match) {
    std::fprintf(stderr,
                 "[shard_sweep] FAIL: multi-shard cells diverged from the "
                 "monolith\n");
    return 1;
  }
  return status;
}

// Crash recovery: oracle agreement through a mid-run server crash, for the
// hardened protocol with checkpoint/WAL restore (DESIGN.md §9). Every cell
// kills the server at the same step and restores it after a fixed downtime;
// the sweep varies the checkpoint stride under a deliberately small WAL
// budget, so sparser checkpoints restore staler state and take longer to
// reconverge. A second sweep repeats the crash under symmetric message loss.
//
// Reported per cell:
//   - the per-step oracle agreement timeline (the recovery curve),
//   - time-to-reconverge: measured steps from the restore until agreement
//     first reaches kConvergedAgreement,
//   - WAL records replayed / lost to overflow and checkpoints taken.
//
// The cells step one simulated step at a time (Simulation::Run(1) +
// CurrentAccuracy), which RunSweep cannot express, so this bench drives the
// simulations directly; --json still records every table through
// PrintTable/FinishBench, and the harness config flags (--objects, the
// fault and shard flags, ...) overlay every cell as in any other bench.
// --steps is refused (exit 2): the crash timeline is fixed.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "mobieyes/core/shard_supervisor.h"

using namespace mobieyes;         // NOLINT(build/namespaces)
using namespace mobieyes::bench;  // NOLINT(build/namespaces)

namespace {

// Agreement at which a run counts as reconverged (the CI smoke gate).
constexpr double kConvergedAgreement = 0.95;

constexpr int kWarmupSteps = 2;
constexpr int kMeasuredSteps = 56;
// Crash/restore schedule on the fault clock (counts warmup steps too).
// 15 is deliberately not one past a common checkpoint boundary: stride 1
// checkpoints at the end of step 14 (fresh restore), stride 2 at the end of
// 13, stride 4 at the end of 11, stride 8 at the end of 7 — so the restored
// state gets monotonically staler with the stride.
constexpr int64_t kCrashStep = 15;       // measured step 13
constexpr int kRecoverySteps = 4;        // server dark for 4 steps
// Small on purpose: strides beyond 1 accumulate more uplinks than this
// between checkpoints, so the WAL overflows and the restore is stale.
constexpr size_t kWalLimit = 64;

struct CrashCell {
  std::string label;
  double drop = 0.0;
  int checkpoint_stride = 0;
  bool crash = true;
  // kill -9 of a live shard daemon instead of the whole server (process
  // transport, DESIGN.md §13): the shard degrades until the supervisor
  // respawns and resyncs it, so the recovery window is the respawn backoff
  // rather than kRecoverySteps.
  bool daemon_kill = false;
  int recovery_steps = kRecoverySteps;
};

struct CrashResult {
  std::vector<double> agreement;  // one row per measured step
  sim::RunMetrics metrics;
  // Measured steps from the restore step until agreement first reaches
  // kConvergedAgreement (0 = converged immediately; capped at the number of
  // post-restore steps when it never does).
  int time_to_reconverge = 0;
  double final_agreement = 0.0;
  double min_post_restore_agreement = 1.0;
};

sim::SimulationConfig MakeConfig(const CrashCell& cell) {
  sim::SimulationConfig config;
  config.params.num_objects = 1500;
  config.params.num_queries = 150;
  config.params.velocity_changes_per_step = 150;
  config.mode = sim::SimMode::kMobiEyesEager;
  config.measure_error = true;
  config.warmup_steps = kWarmupSteps;
  config.mobieyes =
      core::HardenedOptions(config.mobieyes, config.params.time_step);
  config.checkpoint_stride = cell.checkpoint_stride;
  config.wal_limit = kWalLimit;
  if (cell.drop > 0.0) {
    config.faults.uplink_drop_rate = cell.drop;
    config.faults.downlink_drop_rate = cell.drop;
  }
  if (cell.crash) {
    config.faults.server_crash_step = kCrashStep;
    config.faults.server_recovery_steps = kRecoverySteps;
  }
  if (cell.daemon_kill) {
    config.mobieyes.sharding.num_shards = 4;
    config.shard_transport = sim::SimulationConfig::ShardTransport::kProcess;
    config.shard_kill_step = kCrashStep;
    config.shard_kill_index = 1;
  }
  return config;
}

CrashResult RunCrashCell(const CrashCell& cell) {
  Progress(cell.label);
  CrashResult result;
  SweepJob job = WithBenchFlags({MakeConfig(cell), kMeasuredSteps, cell.label});
  auto simulation = sim::Simulation::Make(job.config);
  if (!simulation.ok()) {
    std::fprintf(stderr, "simulation setup failed: %s\n",
                 simulation.status().ToString().c_str());
    return result;
  }
  for (int step = 0; step < kMeasuredSteps; ++step) {
    (*simulation)->Run(1);
    result.agreement.push_back((*simulation)->CurrentAccuracy().agreement);
  }
  result.metrics = (*simulation)->metrics();
  result.final_agreement = result.agreement.back();

  // The restore lands at the start of measured step
  // kCrashStep - warmup + recovery; that step's agreement already includes a
  // full step of post-restore traffic.
  const int restore_step =
      static_cast<int>(kCrashStep) - kWarmupSteps + cell.recovery_steps;
  result.time_to_reconverge = kMeasuredSteps - restore_step;
  for (int step = restore_step; step < kMeasuredSteps; ++step) {
    double agreement = result.agreement[static_cast<size_t>(step)];
    if (agreement < result.min_post_restore_agreement) {
      result.min_post_restore_agreement = agreement;
    }
  }
  for (int step = restore_step; step < kMeasuredSteps; ++step) {
    if (result.agreement[static_cast<size_t>(step)] >= kConvergedAgreement) {
      result.time_to_reconverge = step - restore_step;
      break;
    }
  }
  return result;
}

void PrintRecoveryTable(const std::string& title,
                        const std::vector<double>& xs,
                        const std::vector<CrashResult>& results) {
  std::vector<Series> series = {
      {"reconverge steps", {}}, {"final agree", {}},  {"min post agree", {}},
      {"wal replayed", {}},     {"wal dropped", {}},  {"checkpoints", {}},
  };
  for (const CrashResult& r : results) {
    series[0].values.push_back(static_cast<double>(r.time_to_reconverge));
    series[1].values.push_back(r.final_agreement);
    series[2].values.push_back(r.min_post_restore_agreement);
    series[3].values.push_back(
        static_cast<double>(r.metrics.wal_records_replayed));
    series[4].values.push_back(
        static_cast<double>(r.metrics.wal_records_dropped));
    series[5].values.push_back(
        static_cast<double>(r.metrics.checkpoints_taken));
  }
  PrintTable(title, "x", xs, series);
}

}  // namespace

int main(int argc, char** argv) {
  for (int k = 1; k < argc; ++k) {
    if (std::strncmp(argv[k], "--steps=", 8) == 0) {
      std::fprintf(stderr,
                   "[crash_sweep] --steps is not supported: every cell runs "
                   "the fixed %d-step crash timeline\n",
                   kMeasuredSteps);
      return 2;
    }
  }
  InitBench("crash_sweep", argc, argv);

  // Sweep 1: checkpoint stride at drop 0, plus an uncrashed control. The
  // largest stride still checkpoints at least once mid-run; a stride larger
  // than the crash step degenerates to restoring the pristine baseline image,
  // whose install-time result sets are exact and skew the comparison.
  std::vector<int> strides = {1, 2, 4, 8};
  std::vector<CrashResult> stride_results;
  for (int stride : strides) {
    CrashCell cell;
    cell.label = "crash stride=" + std::to_string(stride) + " drop=0";
    cell.checkpoint_stride = stride;
    stride_results.push_back(RunCrashCell(cell));
  }
  CrashCell control;
  control.label = "control (no crash) drop=0";
  control.checkpoint_stride = 1;
  control.crash = false;
  CrashResult control_result = RunCrashCell(control);

  // Sweep 2: the same crash under message loss, stride 4.
  std::vector<double> drops = {0.0, 0.05, 0.1};
  std::vector<CrashResult> drop_results;
  for (double drop : drops) {
    CrashCell cell;
    cell.label = "crash stride=4 drop=" + std::to_string(drop);
    cell.checkpoint_stride = 4;
    cell.drop = drop;
    drop_results.push_back(RunCrashCell(cell));
  }

  // Agreement timeline: the recovery curves, one series per stride plus the
  // uncrashed control.
  std::vector<double> steps;
  for (int step = 0; step < kMeasuredSteps; ++step) {
    steps.push_back(static_cast<double>(step));
  }
  std::vector<Series> timeline;
  for (size_t k = 0; k < strides.size(); ++k) {
    timeline.push_back(Series{"stride " + std::to_string(strides[k]),
                              stride_results[k].agreement});
  }
  timeline.push_back(Series{"no crash", control_result.agreement});
  PrintTable("Crash recovery: agreement timeline (drop 0)", "step", steps,
             timeline);

  std::vector<double> stride_xs(strides.begin(), strides.end());
  PrintRecoveryTable("Crash recovery: checkpoint stride (drop 0)", stride_xs,
                     stride_results);
  PrintRecoveryTable("Crash recovery: message loss (stride 4)", drops,
                     drop_results);

  // Sweep 3: kill -9 of a live shard daemon under the process transport
  // (DESIGN.md §13). The server stays up and keeps dispatching every
  // uplink; the supervisor detects the dead daemon, respawns it and
  // resyncs it from the checkpoint chunk plus the frame log. Skipped when
  // the daemon binary is not discoverable (e.g. a stripped install tree).
  if (core::ShardSupervisor::FindShardd("").empty()) {
    std::fprintf(stderr,
                 "[crash_sweep] mobieyes_shardd not found; skipping the "
                 "daemon kill -9 sweep\n");
  } else {
    std::vector<int> kill_strides = {1, 4};
    std::vector<CrashResult> kill_results;
    std::vector<double> kill_xs;
    for (int stride : kill_strides) {
      CrashCell cell;
      cell.label = "daemon kill -9 shard=1 stride=" + std::to_string(stride);
      cell.checkpoint_stride = stride;
      cell.crash = false;
      cell.daemon_kill = true;
      // The respawn backoff is two virtual steps by default; the rejoin
      // resync lands within the same step, so the recovery window is the
      // backoff, not kRecoverySteps.
      cell.recovery_steps = 2;
      kill_results.push_back(RunCrashCell(cell));
      kill_xs.push_back(static_cast<double>(stride));
    }
    PrintRecoveryTable("Crash recovery: shard daemon kill -9 (stride sweep)",
                       kill_xs, kill_results);
    std::vector<Series> kill_extra = {
        {"daemon restarts", {}},
        {"syncs replayed", {}},
        {"uplinks dropped", {}},
    };
    for (const CrashResult& r : kill_results) {
      kill_extra[0].values.push_back(
          static_cast<double>(r.metrics.shard_restarts));
      kill_extra[1].values.push_back(
          static_cast<double>(r.metrics.backplane_replayed_frames));
      kill_extra[2].values.push_back(
          static_cast<double>(r.metrics.uplinks_dropped));
    }
    PrintTable("Crash recovery: daemon kill -9 backplane detail", "stride",
               kill_xs, kill_extra);
  }
  return FinishBench();
}

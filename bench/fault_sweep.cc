// Fault tolerance: query result accuracy under message loss, for the base
// protocol and the hardened protocol (acks + retries, soft-state leases,
// periodic reconciliation). Sweeps the symmetric drop rate and reports the
// oracle accuracy metrics (missing / spurious / Jaccard agreement) plus the
// message cost of hardening. A second sweep adds delays, duplicates and
// object disconnects on top of the drops.
//
// Harness fault flags (--drop-rate, --delay-steps, --outage, --fault-seed,
// --harden, ...) override every cell, so the CI smoke can re-run single
// points cheaply.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "mobieyes/core/shard_supervisor.h"

using namespace mobieyes;         // NOLINT(build/namespaces)
using namespace mobieyes::bench;  // NOLINT(build/namespaces)

namespace {

SweepJob MakeJob(double drop, bool harden, bool mixed) {
  SweepJob job;
  sim::SimulationConfig& config = job.config;
  // Sized so 16 cells with per-step oracle evaluation finish quickly while
  // still exercising grouping, leases and reconciliation.
  config.params.num_objects = 2000;
  config.params.num_queries = 200;
  config.params.velocity_changes_per_step = 200;
  config.mode = sim::SimMode::kMobiEyesEager;
  config.measure_error = true;
  config.faults.uplink_drop_rate = drop;
  config.faults.downlink_drop_rate = drop;
  if (mixed) {
    config.faults.delay_rate = 0.2;
    config.faults.max_delay_steps = 2;
    config.faults.duplicate_rate = 0.05;
    config.faults.disconnect_rate = 0.1;
    config.faults.disconnect_period_steps = 20;
    config.faults.disconnect_duration_steps = 4;
  }
  if (harden) {
    config.mobieyes =
        core::HardenedOptions(config.mobieyes, config.params.time_step);
  }
  job.steps = 20;
  job.label = std::string(mixed ? "mixed" : "drop") +
              " p=" + std::to_string(drop) +
              (harden ? " hardened" : " base");
  return job;
}

void PrintSweep(const std::string& title, const std::vector<double>& drops,
                const std::vector<sim::RunMetrics>& results) {
  // Cells are laid out drop-major: (base, hardened) per drop rate.
  std::vector<Series> accuracy = {
      {"missing base", {}},   {"missing hard", {}}, {"spurious base", {}},
      {"spurious hard", {}},  {"agree base", {}},   {"agree hard", {}},
  };
  std::vector<Series> cost = {
      {"msg/s base", {}},    {"msg/s hard", {}},  {"dropped base", {}},
      {"dropped hard", {}},  {"delayed hard", {}}, {"dup hard", {}},
  };
  for (size_t row = 0; row < drops.size(); ++row) {
    const sim::RunMetrics& base = results[2 * row];
    const sim::RunMetrics& hard = results[2 * row + 1];
    accuracy[0].values.push_back(base.AverageError());
    accuracy[1].values.push_back(hard.AverageError());
    accuracy[2].values.push_back(base.AverageSpurious());
    accuracy[3].values.push_back(hard.AverageSpurious());
    accuracy[4].values.push_back(base.AverageAgreement());
    accuracy[5].values.push_back(hard.AverageAgreement());
    cost[0].values.push_back(base.MessagesPerSecond());
    cost[1].values.push_back(hard.MessagesPerSecond());
    cost[2].values.push_back(static_cast<double>(base.network.total_dropped()));
    cost[3].values.push_back(static_cast<double>(hard.network.total_dropped()));
    cost[4].values.push_back(
        static_cast<double>(hard.network.delayed_messages));
    cost[5].values.push_back(
        static_cast<double>(hard.network.duplicated_messages));
  }
  PrintTable(title + ": accuracy vs oracle", "drop rate", drops, accuracy);
  PrintTable(title + ": message cost", "drop rate", drops, cost);
}

}  // namespace

int main(int argc, char** argv) {
  InitBench("fault_sweep", argc, argv);

  std::vector<double> drops = {0.0, 0.02, 0.05, 0.1, 0.2};
  std::vector<SweepJob> jobs;
  for (double drop : drops) {
    jobs.push_back(MakeJob(drop, /*harden=*/false, /*mixed=*/false));
    jobs.push_back(MakeJob(drop, /*harden=*/true, /*mixed=*/false));
  }
  std::vector<double> mixed_drops = {0.0, 0.05, 0.1};
  for (double drop : mixed_drops) {
    jobs.push_back(MakeJob(drop, /*harden=*/false, /*mixed=*/true));
    jobs.push_back(MakeJob(drop, /*harden=*/true, /*mixed=*/true));
  }

  std::vector<sim::RunMetrics> results = RunSweep(jobs);
  PrintSweep("Fault sweep (drops only)", drops,
             {results.begin(), results.begin() + 2 * drops.size()});
  PrintSweep("Fault sweep (drops + delay/dup/disconnect)", mixed_drops,
             {results.begin() + 2 * drops.size(), results.end()});

  // Backplane chaos (DESIGN.md §14): the same hardened workload over the
  // process transport with authoritative daemons, sweeping the *backplane*
  // frame-fault rate (drops + delays on the supervisor-daemon links, on top
  // of a clean wireless network). Failover keeps every uplink flowing, so
  // the table's dropped-uplink column must stay zero and agreement must
  // stay at the fault-free hardened level.
  if (core::ShardSupervisor::FindShardd("").empty()) {
    std::fprintf(stderr,
                 "[fault_sweep] mobieyes_shardd not found; skipping the "
                 "backplane chaos table\n");
  } else {
    std::vector<double> chaos_rates = {0.0, 0.05, 0.2};
    std::vector<SweepJob> chaos_jobs;
    for (double rate : chaos_rates) {
      SweepJob job = MakeJob(0.0, /*harden=*/true, /*mixed=*/false);
      job.config.shard_transport =
          sim::SimulationConfig::ShardTransport::kProcess;
      job.config.shard_authority = true;
      job.config.mobieyes.sharding.num_shards = 4;
      if (rate > 0.0) {
        job.config.backplane_fault.drop_rate = rate;
        job.config.backplane_fault.delay_rate = rate;
        job.config.backplane_fault.max_delay_steps = 2;
        job.config.backplane_fault.seed = 11;
      }
      job.label = "chaos rate=" + std::to_string(rate) + " authority";
      chaos_jobs.push_back(std::move(job));
    }
    // Strictly serial: cells would contend for cores with their own daemon
    // processes.
    std::vector<sim::RunMetrics> chaos = RunSweep(chaos_jobs, 1);
    std::vector<Series> columns = {
        {"agreement", {}},       {"uplinks dropped", {}},
        {"failovers", {}},       {"cutovers", {}},
        {"chaos injections", {}}, {"scans remote", {}},
    };
    for (const sim::RunMetrics& m : chaos) {
      columns[0].values.push_back(m.AverageAgreement());
      columns[1].values.push_back(static_cast<double>(m.uplinks_dropped));
      columns[2].values.push_back(
          static_cast<double>(m.backplane_failovers));
      columns[3].values.push_back(
          static_cast<double>(m.backplane_cutovers));
      columns[4].values.push_back(static_cast<double>(
          m.backplane_chaos_frames + m.backplane_chaos_kills));
      columns[5].values.push_back(
          static_cast<double>(m.backplane_scans_remote));
    }
    PrintTable("Fault sweep (backplane chaos, authority mode)",
               "chaos rate", chaos_rates, columns);
  }
  return FinishBench();
}

// Backplane chaos harness (DESIGN.md §14): authoritative shard daemons
// under injected backplane faults. Every cell runs the hardened workload
// over the process transport with --shard-authority, subjecting the
// supervisor-daemon links to a seeded BackplaneFaultPlan (frame drops,
// delivery delays, truncations, bit-flips, scheduled SIGKILLs), and the
// sweep reports the recovery picture: oracle agreement, dropped uplinks,
// failovers/cutovers, chaos injections and where the RQI scans were served.
//
// The robustness contract under test: chaos corrupts or kills the
// backplane, never the answer. The warm local mirror serves any scan a
// daemon cannot answer in time, so no step blocks and no uplink is
// dropped; digest-verified scan results keep the merged rows
// byte-identical to the in-process path.
//
// Gate flags for CI (exit 1 on violation):
//   --require-reconverge   fail unless every cell matches the in-process
//                          baseline's result sets, reaches the agreement
//                          floor and drops zero uplinks
//   --min-agreement=X      agreement floor for the gate (default 0.95)
//
// Exits 0 with a note when mobieyes_shardd is not discoverable (static
// analysis / unusual build layouts): the chaos cells need real daemons.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "mobieyes/core/shard_supervisor.h"
#include "mobieyes/net/backplane.h"

using namespace mobieyes;         // NOLINT(build/namespaces)
using namespace mobieyes::bench;  // NOLINT(build/namespaces)

namespace {

struct ChaosSpec {
  const char* name;
  const char* fault;  // ParseBackplaneFaultSpec grammar; "" = fault-free
};

// The chaos matrix: each entry stresses a different failure surface of the
// authority protocol. Kill steps land mid-run (warmup steps count).
const ChaosSpec kSpecs[] = {
    {"clean", ""},
    {"drop", "drop=0.15,seed=7"},
    {"delay", "delay=0.25:2,seed=7"},
    {"corrupt", "trunc=0.05,flip=0.05,seed=7"},
    {"kill", "kill=8:1,seed=7"},
    {"storm", "drop=0.1,delay=0.1:2,trunc=0.02,flip=0.02,kill=10:0,seed=7"},
};

SweepJob MakeJob(int shards) {
  SweepJob job;
  sim::SimulationConfig& config = job.config;
  // fault_sweep's mid-size workload: big enough to exercise RQI edits and
  // reconciliation, small enough that six chaos cells finish quickly.
  config.params.num_objects = 2000;
  config.params.num_queries = 200;
  config.params.velocity_changes_per_step = 200;
  config.mode = sim::SimMode::kMobiEyesEager;
  config.measure_error = true;
  config.mobieyes =
      core::HardenedOptions(config.mobieyes, config.params.time_step);
  config.mobieyes.sharding.num_shards = shards;
  job.steps = 20;
  return job;
}

}  // namespace

int main(int argc, char** argv) {
  InitBench("chaos_sweep", argc, argv,
            {"--require-reconverge", "--min-agreement="});
  bool require_reconverge = false;
  double min_agreement = 0.95;
  for (int k = 1; k < argc; ++k) {
    if (std::strcmp(argv[k], "--require-reconverge") == 0) {
      require_reconverge = true;
    } else if (std::strncmp(argv[k], "--min-agreement=", 16) == 0) {
      min_agreement = std::atof(argv[k] + 16);
    }
  }

  if (core::ShardSupervisor::FindShardd("").empty()) {
    std::fprintf(stderr,
                 "[chaos_sweep] mobieyes_shardd not found; nothing to "
                 "stress\n");
    return FinishBench();
  }

  SweepObsOptions obs;
  obs.capture_results = true;

  constexpr int kShards = 4;
  // In-process baseline: the byte-identity reference every chaos cell must
  // still reproduce.
  SweepJob baseline = WithBenchFlags(MakeJob(kShards));
  baseline.label = "chaos_sweep baseline inproc";
  std::vector<SweepCellResult> base_cells =
      RunSweepObserved({baseline}, 1, obs);

  std::vector<SweepJob> jobs;
  for (const ChaosSpec& spec : kSpecs) {
    SweepJob job = WithBenchFlags(MakeJob(kShards));
    job.config.shard_transport =
        sim::SimulationConfig::ShardTransport::kProcess;
    job.config.shard_authority = true;
    Status st =
        net::ParseBackplaneFaultSpec(spec.fault, &job.config.backplane_fault);
    if (!st.ok()) {
      std::fprintf(stderr, "[chaos_sweep] %s\n", st.ToString().c_str());
      return 1;
    }
    job.label = std::string("chaos_sweep ") + spec.name +
                (spec.fault[0] != '\0' ? std::string(" ") + spec.fault : "");
    jobs.push_back(std::move(job));
  }
  // Strictly serial: every cell spawns its own daemon processes and a
  // parallel sweep would let them contend for cores.
  std::vector<SweepCellResult> cells = RunSweepObserved(jobs, 1, obs);

  std::vector<double> xs;
  std::vector<Series> recovery = {
      {"agreement", {}},   {"uplinks dropped", {}}, {"failovers", {}},
      {"cutovers", {}},    {"chaos frames", {}},    {"chaos kills", {}},
  };
  std::vector<Series> serving = {
      {"scans remote", {}}, {"scans local", {}}, {"restarts", {}},
      {"results match", {}},
  };
  bool all_ok = true;
  for (size_t k = 0; k < cells.size(); ++k) {
    const sim::RunMetrics& m = cells[k].metrics;
    xs.push_back(static_cast<double>(k));
    Progress(std::string("cell ") + std::to_string(k) + " = " +
             kSpecs[k].name);
    recovery[0].values.push_back(m.AverageAgreement());
    recovery[1].values.push_back(static_cast<double>(m.uplinks_dropped));
    recovery[2].values.push_back(
        static_cast<double>(m.backplane_failovers));
    recovery[3].values.push_back(
        static_cast<double>(m.backplane_cutovers));
    recovery[4].values.push_back(
        static_cast<double>(m.backplane_chaos_frames));
    recovery[5].values.push_back(
        static_cast<double>(m.backplane_chaos_kills));
    serving[0].values.push_back(
        static_cast<double>(m.backplane_scans_remote));
    serving[1].values.push_back(
        static_cast<double>(m.backplane_scans_local));
    serving[2].values.push_back(static_cast<double>(m.shard_restarts));
    // Reconvergence contract: byte-identical result sets to the in-process
    // baseline, agreement at the floor, zero uplinks lost to the chaos.
    const bool match =
        cells[k].query_results == base_cells[0].query_results;
    serving[3].values.push_back(match ? 1.0 : 0.0);
    const bool ok = match && m.AverageAgreement() >= min_agreement &&
                    m.uplinks_dropped == 0;
    if (!ok) {
      all_ok = false;
      std::fprintf(stderr,
                   "[chaos_sweep] VIOLATION %s: match=%d agreement=%.4f "
                   "uplinks_dropped=%llu\n",
                   jobs[k].label.c_str(), match ? 1 : 0,
                   m.AverageAgreement(),
                   static_cast<unsigned long long>(m.uplinks_dropped));
    }
  }
  PrintTable("Chaos sweep: recovery (authority mode)", "cell", xs, recovery);
  PrintTable("Chaos sweep: scan serving", "cell", xs, serving);

  int status = FinishBench();
  if (require_reconverge && !all_ok) {
    std::fprintf(stderr,
                 "[chaos_sweep] FAIL: a chaos cell did not reconverge\n");
    return 1;
  }
  return status;
}

#ifndef MOBIEYES_SIM_SIMULATION_H_
#define MOBIEYES_SIM_SIMULATION_H_

#include <memory>
#include <span>
#include <vector>

#include "mobieyes/baseline/central_messaging.h"
#include "mobieyes/baseline/object_index.h"
#include "mobieyes/baseline/query_index.h"
#include "mobieyes/common/random.h"
#include "mobieyes/common/status.h"
#include "mobieyes/core/client.h"
#include "mobieyes/core/client_fleet.h"
#include "mobieyes/core/options.h"
#include "mobieyes/core/server.h"
#include "mobieyes/core/shard_supervisor.h"
#include "mobieyes/geo/grid.h"
#include "mobieyes/mobility/world.h"
#include "mobieyes/net/base_station.h"
#include "mobieyes/net/bmap.h"
#include "mobieyes/net/fault_injection.h"
#include "mobieyes/net/network.h"
#include "mobieyes/obs/heatmap.h"
#include "mobieyes/obs/lifecycle.h"
#include "mobieyes/obs/metrics_registry.h"
#include "mobieyes/obs/step_sampler.h"
#include "mobieyes/obs/trace_recorder.h"
#include "mobieyes/sim/metrics.h"
#include "mobieyes/sim/oracle.h"
#include "mobieyes/sim/workload.h"

namespace mobieyes::sim {

// Which query processing scheme a simulation run exercises. The same seeded
// workload drives every mode, so runs are directly comparable.
enum class SimMode {
  kMobiEyesEager,    // MobiEyes with eager query propagation
  kMobiEyesLazy,     // MobiEyes with lazy query propagation (LQP)
  kObjectIndex,      // centralized R*-tree over object positions
  kQueryIndex,       // centralized R*-tree over query regions
  kNaive,            // messaging model: positions uplinked every step
  kCentralOptimal,   // messaging model: dead-reckoned velocity uplinks
};

const char* SimModeName(SimMode mode);

// Observability toggles for one simulation cell. Everything here is owned
// by the cell (thread-confined) so parallel sweep cells never share
// instruments; with every toggle off (the default), the only per-step cost
// is a handful of null-pointer tests.
struct ObservabilityOptions {
  // Per-MessageType/per-direction counters, byte/LQT-size histograms, and
  // per-step server/client processing-time histograms in a MetricsRegistry.
  bool enable_metrics = false;
  // Chrome-trace scoped spans (server handlers, client LQT evaluation,
  // world step, oracle evaluation). The trace covers setup and warmup too,
  // so installation storms stay visible.
  bool enable_trace = false;
  // Record a per-step sample every `sample_stride` measured steps into a
  // ring buffer of `sample_capacity` rows; 0 disables the sampler.
  int sample_stride = 0;
  size_t sample_capacity = 4096;
  // Per-grid-cell heat map (uplinks, RQI scan work, installs, object
  // residency; MobiEyes modes only). Every heatmap_window steps the window
  // is folded into an exponentially decayed view with factor heatmap_decay.
  bool enable_heatmap = false;
  int heatmap_window = 16;
  double heatmap_decay = 0.5;
  // Virtual-step protocol-round latencies (uplink round trips, client ack
  // rounds, install->first-result, crash recovery), measured on
  // the simulation's step clock — no wall time, so exports stay
  // deterministic.
  bool enable_lifecycle = false;

  bool any_enabled() const {
    return enable_metrics || enable_trace || sample_stride > 0 ||
           enable_heatmap || enable_lifecycle;
  }

  bool operator==(const ObservabilityOptions&) const = default;
};

struct SimulationConfig {
  SimulationParams params;
  SimMode mode = SimMode::kMobiEyesEager;
  // Optimization toggles for the MobiEyes modes; `propagation` is forced to
  // match `mode`.
  core::MobiEyesOptions mobieyes;
  // Compare reported results against the oracle every step (Fig. 2). Adds
  // oracle evaluation cost; off by default.
  bool measure_error = false;
  // Maintain per-object byte counters for the energy model (Fig. 9).
  bool track_per_object_bytes = false;
  // Steps run before measurement starts; stats reset afterwards.
  int warmup_steps = 2;
  ObservabilityOptions obs;
  // Fault injection (net::FaultyNetwork). An inactive plan (the default)
  // instantiates the plain WirelessNetwork, so fault-free runs pay nothing
  // beyond virtual dispatch. Faults start with the first step (setup-time
  // installation is unfaulted) and apply to warmup steps too.
  net::FaultPlan faults;
  // Crash recovery (MobiEyes modes): with checkpoint_stride > 0 the server
  // snapshots its state into a durable store every checkpoint_stride steps
  // (plus once at the end of setup). A planned server crash
  // (faults.server_crash_step) restores from that store; the store is also
  // attached — with a baseline checkpoint — whenever a crash is planned,
  // even at stride 0. wal_limit bounds the uplink log between checkpoints:
  // once full, newer uplinks go unlogged and the restored state is stale.
  int checkpoint_stride = 0;
  size_t wal_limit = 4096;
  // Shard transport (MobiEyes modes with num_shards > 1). kInProcess (the
  // default) keeps shards as in-memory state containers — the existing
  // byte-identical path. kProcess additionally runs one daemon process per
  // shard (core::ShardSupervisor over a framed socket backplane, DESIGN.md
  // §13); the router stays authoritative, so fault-free deterministic
  // exports are byte-identical to the in-process transport.
  enum class ShardTransport { kInProcess, kProcess };
  ShardTransport shard_transport = ShardTransport::kInProcess;
  // Daemon binary and listen address; kProcess only.
  core::SupervisorOptions supervisor;
  // Authority mode (kProcess only, DESIGN.md §14): daemons execute the RQI
  // scans and the router merges their digest-verified results; the local
  // shards become the warm failover mirror. Both paths serve identical
  // bytes, so deterministic exports stay byte-identical to in-process —
  // even across failovers.
  bool shard_authority = false;
  // Seeded backplane chaos (kProcess only): frame drops/delays/truncations
  // /bit-flips plus scheduled SIGKILLs. Seed 1 (the default) takes the
  // workload seed.
  net::BackplaneFaultPlan backplane_fault;
  // Fault event (kProcess only): SIGKILL the shard_kill_index daemon at sim
  // step shard_kill_step (counted like faults.server_crash_step: warmup
  // steps included; -1 disables). The shard runs degraded until the
  // supervisor respawns and resyncs it.
  int64_t shard_kill_step = -1;
  int shard_kill_index = 0;

  // Field-wise, so tests can compare whole configs (config_flags_test).
  bool operator==(const SimulationConfig&) const = default;
};

// One end-to-end simulation: a seeded workload, the mobility world, the
// wireless substrate, and the query processing scheme under test. Build
// with Make(), then Run() measured steps and read metrics().
class Simulation {
 public:
  static Result<std::unique_ptr<Simulation>> Make(SimulationConfig config);

  // Advances `steps` measured time steps.
  void Run(int steps);

  // Metrics accumulated since the end of warmup (finalized snapshot).
  RunMetrics metrics() const;

  // Mean over installed queries of the current result's missing fraction
  // vs the oracle (Fig. 2 error metric at this instant).
  double CurrentResultError() const;

  // Mean over installed queries of missing/spurious/agreement vs the oracle
  // at this instant (the accuracy-under-loss metrics).
  ExactOracle::AccuracyStats CurrentAccuracy() const;

  // --- Component access (tests, benches, examples) --------------------------

  const SimulationConfig& config() const { return config_; }
  const geo::Grid& grid() const { return *grid_; }
  mobility::World& world() { return *world_; }
  net::WirelessNetwork& network() { return *network_; }
  // Null unless config.faults is active.
  net::FaultyNetwork* faulty_network() { return faulty_; }
  const ExactOracle& oracle() const { return *oracle_; }
  // Null unless running a MobiEyes mode.
  core::MobiEyesServer* server() { return server_.get(); }
  // Null unless config.shard_transport == kProcess with a multi-shard
  // server.
  core::ShardSupervisor* supervisor() { return supervisor_.get(); }
  core::MobiEyesClient* client(ObjectId oid) {
    return fleet_ ? &fleet_->client(oid) : nullptr;
  }
  // Null unless running a MobiEyes mode.
  core::ClientFleet* fleet() { return fleet_.get(); }
  baseline::ObjectIndexProcessor* object_index() {
    return object_index_.get();
  }
  baseline::QueryIndexProcessor* query_index() { return query_index_.get(); }
  const std::vector<QueryId>& installed_queries() const {
    return installed_qids_;
  }
  const std::vector<QuerySpec>& query_specs() const { return query_specs_; }

  // --- Observability --------------------------------------------------------

  // Null unless the matching ObservabilityOptions toggle is on.
  obs::MetricsRegistry* metrics_registry() { return registry_.get(); }
  obs::TraceRecorder* trace_recorder() { return trace_.get(); }
  obs::StepSampler* step_sampler() { return sampler_.get(); }
  // The heat map and the lifecycle tracker, shared by network, clients and
  // server.
  obs::HeatMap* heatmap() { return heatmap_.get(); }
  const obs::HeatMap* heatmap() const { return heatmap_.get(); }
  // Close a partially filled heat-map window: take the residency snapshot
  // and fold the window into totals, exactly as a heatmap_window boundary
  // would. No-op when the last run ended on a boundary (or no heat map is
  // on), so exports never double-roll. Call before exporting a run whose
  // length is not a multiple of heatmap_window.
  void FlushHeatmap();
  obs::LifecycleTracker* lifecycle() { return lifecycle_.get(); }
  const obs::LifecycleTracker* lifecycle() const { return lifecycle_.get(); }

  // JSON report combining the registry and the per-step time series:
  //   {"mode": ..., "steps": N, "metrics": {...}, "series": {...}}
  // With include_timing=false, wall-clock-derived instruments and columns
  // are omitted and the output depends only on the workload seed — the form
  // the sweep harness persists so parallel sweeps stay deterministic.
  // Returns "{}" sections for disabled components.
  std::string ObservabilityJson(bool include_timing = true) const;

 private:
  explicit Simulation(SimulationConfig config);

  Status Setup();
  void SetupObservability();
  void StepOnce();
  void ResetMeasurement();
  // Process-death events (crash recovery): kill the server at its planned
  // crash step, restore it from the durable store when the recovery window
  // elapses, and cold-restart clients the fault plan selects.
  void CrashServer();
  void RestoreServer();
  // Periodic and post-restore checkpoint. Folds the closing WAL window's
  // refused records into metrics_ first: Snapshot::Install zeroes the
  // store's per-window counter.
  void CheckpointServer();
  // Feeds per-step histograms and the sampler after measured step `step`
  // (0-based); called only when some observability component is on.
  void RecordStepObservations(int64_t step);
  // Counts measured step `step` into the open heat-map window, and at
  // window boundaries snapshots object residency and rolls the decayed view.
  void RecordHeatmap(int64_t step);
  // Window-boundary work shared by RecordHeatmap and FlushHeatmap: the
  // residency snapshot plus RollWindow, clearing the pending-step count.
  void RollHeatmapWindow();
  // Every client of a MobiEyes mode; empty for the centralized baselines.
  std::span<core::MobiEyesClient> Clients() const {
    if (!fleet_) return {};
    return fleet_->clients();
  }
  // Reported result of installed query k under the current mode.
  const std::unordered_set<ObjectId>* ReportedResult(size_t k) const;

  SimulationConfig config_;
  Rng rng_;

  std::unique_ptr<geo::Grid> grid_;
  std::unique_ptr<mobility::World> world_;
  std::unique_ptr<net::BaseStationLayout> layout_;
  std::unique_ptr<net::Bmap> bmap_;
  std::unique_ptr<net::WirelessNetwork> network_;
  net::FaultyNetwork* faulty_ = nullptr;  // alias of network_ when faulted
  int64_t sim_step_ = 0;  // fault clock: counts every step incl. warmup
  std::unique_ptr<ExactOracle> oracle_;

  // MobiEyes deployment (modes kMobiEyesEager / kMobiEyesLazy). The
  // supervisor (null unless shard_transport == kProcess with a multi-shard
  // server) is declared before server_: its daemons outlive any one server
  // incarnation — a crash/restore re-attaches the new router and forces a
  // full resync.
  std::unique_ptr<core::ShardSupervisor> supervisor_;
  std::unique_ptr<core::MobiEyesServer> server_;
  std::unique_ptr<core::ClientFleet> fleet_;
  // Resolved MobiEyes options (propagation/threshold applied), kept so a
  // post-crash replacement server is constructed identically.
  core::MobiEyesOptions resolved_mobieyes_;
  // Stable storage for the server (outlives the server process by design).
  core::Snapshot snapshot_store_;
  // Share of snapshot_store_.wal_dropped (the open window's count) already
  // folded into metrics_ or discounted as pre-measurement drops.
  uint64_t wal_dropped_counted_ = 0;
  bool server_down_ = false;
  int64_t server_restore_step_ = -1;

  // Centralized baselines.
  std::unique_ptr<baseline::ObjectIndexProcessor> object_index_;
  std::unique_ptr<baseline::QueryIndexProcessor> query_index_;
  std::unique_ptr<baseline::NaiveTracker> naive_;
  std::unique_ptr<baseline::CentralOptimalTracker> central_optimal_;

  std::vector<QuerySpec> query_specs_;
  std::vector<QueryId> installed_qids_;

  // Batch-oracle inputs/outputs for CurrentAccuracy, reused across steps so
  // the per-step error measurement does not allocate per query.
  mutable std::vector<ExactOracle::BatchQuery> oracle_batch_;
  mutable std::vector<std::vector<ObjectId>> oracle_batch_results_;

  RunMetrics metrics_;

  // Observability (all null when the corresponding toggle is off).
  std::unique_ptr<obs::MetricsRegistry> registry_;
  std::unique_ptr<obs::TraceRecorder> trace_;
  std::unique_ptr<obs::StepSampler> sampler_;
  // Heat map (created once the grid exists; the server charges it through
  // a pointer) and the lifecycle tracker shared by network, clients and
  // server.
  std::unique_ptr<obs::HeatMap> heatmap_;
  int64_t heatmap_pending_steps_ = 0;  // steps counted since the last roll
  std::unique_ptr<obs::LifecycleTracker> lifecycle_;
  // Pre-resolved per-step histograms (owned by registry_).
  obs::Histogram* lqt_hist_ = nullptr;
  obs::Histogram* server_step_us_hist_ = nullptr;
  obs::Histogram* client_step_us_hist_ = nullptr;
  // Previous-step totals for per-step deltas of cumulative quantities.
  struct StepCursor {
    uint64_t uplink = 0;
    uint64_t downlink = 0;
    uint64_t broadcast = 0;
    uint64_t installs = 0;
    uint64_t skips = 0;
    double server_seconds = 0.0;
    double client_seconds = 0.0;
  };
  StepCursor cursor_;
};

}  // namespace mobieyes::sim

#endif  // MOBIEYES_SIM_SIMULATION_H_

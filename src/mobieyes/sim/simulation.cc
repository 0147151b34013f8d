#include "mobieyes/sim/simulation.h"

#include <cstdio>
#include <utility>

namespace mobieyes::sim {

const char* SimModeName(SimMode mode) {
  switch (mode) {
    case SimMode::kMobiEyesEager:
      return "MobiEyes-EQP";
    case SimMode::kMobiEyesLazy:
      return "MobiEyes-LQP";
    case SimMode::kObjectIndex:
      return "ObjectIndex";
    case SimMode::kQueryIndex:
      return "QueryIndex";
    case SimMode::kNaive:
      return "Naive";
    case SimMode::kCentralOptimal:
      return "CentralOptimal";
  }
  return "Unknown";
}

namespace {

bool IsMobiEyesMode(SimMode mode) {
  return mode == SimMode::kMobiEyesEager || mode == SimMode::kMobiEyesLazy;
}

}  // namespace

Simulation::Simulation(SimulationConfig config)
    : config_(std::move(config)), rng_(config_.params.seed) {}

Result<std::unique_ptr<Simulation>> Simulation::Make(SimulationConfig config) {
  MOBIEYES_RETURN_NOT_OK(config.params.Validate());
  auto simulation = std::unique_ptr<Simulation>(new Simulation(config));
  MOBIEYES_RETURN_NOT_OK(simulation->Setup());
  return simulation;
}

Status Simulation::Setup() {
  const SimulationParams& params = config_.params;

  SetupObservability();

  auto grid = geo::Grid::Make(params.universe(), params.alpha);
  MOBIEYES_RETURN_NOT_OK(grid.status());
  grid_ = std::make_unique<geo::Grid>(std::move(grid).value());
  if (config_.obs.enable_heatmap) {
    // Deferred from SetupObservability: the raster needs the grid extents.
    heatmap_ =
        std::make_unique<obs::HeatMap>(grid_->rows(), grid_->columns());
  }

  Workload workload = GenerateWorkload(params, rng_);
  query_specs_ = workload.queries;

  auto world = mobility::World::Make(*grid_, std::move(workload.objects));
  MOBIEYES_RETURN_NOT_OK(world.status());
  world_ = std::make_unique<mobility::World>(std::move(world).value());
  oracle_ = std::make_unique<ExactOracle>(*world_);

  if (config_.faults.active()) {
    auto faulty = std::make_unique<net::FaultyNetwork>(config_.faults);
    faulty_ = faulty.get();
    network_ = std::move(faulty);
  } else {
    network_ = std::make_unique<net::WirelessNetwork>();
  }
  network_->set_track_per_object_bytes(config_.track_per_object_bytes);
  if (registry_) network_->AttachMetrics(registry_.get());
  if (lifecycle_) network_->set_lifecycle(lifecycle_.get());
  network_->set_coverage_query(
      [this](const geo::Circle& circle,
             const std::function<void(ObjectId)>& fn) {
        world_->ForEachObjectInCircle(circle, fn);
      });

  if (IsMobiEyesMode(config_.mode)) {
    auto layout =
        net::BaseStationLayout::Make(params.universe(),
                                     params.base_station_side);
    MOBIEYES_RETURN_NOT_OK(layout.status());
    layout_ =
        std::make_unique<net::BaseStationLayout>(std::move(layout).value());
    auto bmap = net::Bmap::Make(*grid_, *layout_);
    MOBIEYES_RETURN_NOT_OK(bmap.status());
    bmap_ = std::make_unique<net::Bmap>(std::move(bmap).value());

    core::MobiEyesOptions options = config_.mobieyes;
    options.propagation = config_.mode == SimMode::kMobiEyesLazy
                              ? core::PropagationMode::kLazy
                              : core::PropagationMode::kEager;
    options.dead_reckoning_threshold = params.dead_reckoning_threshold;

    resolved_mobieyes_ = options;
    server_ = std::make_unique<core::MobiEyesServer>(*grid_, *layout_, *bmap_,
                                                     *network_, options);
    server_->set_trace_recorder(trace_.get());
    server_->set_heatmap(heatmap_.get());
    if (lifecycle_) server_->set_lifecycle(lifecycle_.get());
    network_->set_server_handler(
        [this](ObjectId from, const net::Message& message) {
          // server_ is null while the process is crashed; the fault layer
          // swallows uplinks then, so this guard is only a backstop.
          if (server_) server_->OnUplink(from, message);
        });

    fleet_ = std::make_unique<core::ClientFleet>(*world_, *network_, options);
    for (core::MobiEyesClient& client : fleet_->clients()) {
      client.set_trace_recorder(trace_.get());
      if (lifecycle_) client.set_lifecycle(lifecycle_.get());
    }

    for (const QuerySpec& spec : query_specs_) {
      auto qid = server_->InstallQuery(spec.focal_oid, spec.region,
                                       spec.filter_threshold);
      MOBIEYES_RETURN_NOT_OK(qid.status());
      installed_qids_.push_back(*qid);
    }

    // Durable storage: attach the store and take the baseline checkpoint
    // before any (possibly faulted) traffic, so a crash always has an image
    // to restore from even at stride 0.
    if (config_.checkpoint_stride > 0 ||
        config_.faults.server_crash_step >= 0) {
      snapshot_store_.wal_limit = config_.wal_limit;
      server_->set_durable_store(&snapshot_store_);
      server_->Checkpoint();
    }

    // Process transport: spawn one daemon per shard and complete the
    // config+sync handshake before any traffic. Attached after the install
    // storm above, so the initial sync images already hold every query —
    // the replicas start exactly where the authoritative shards are.
    if (config_.shard_transport ==
            SimulationConfig::ShardTransport::kProcess &&
        server_->num_shards() > 1) {
      net::BackplaneFaultPlan fault = config_.backplane_fault;
      if (fault.seed == 1) fault.seed = params.seed;
      supervisor_ = std::make_unique<core::ShardSupervisor>(
          config_.supervisor, config_.shard_authority, fault, params.seed);
      if (lifecycle_) supervisor_->set_lifecycle(lifecycle_.get());
      supervisor_->AttachRouter(&server_->router());
      MOBIEYES_RETURN_NOT_OK(supervisor_->Start());
    }
  } else {
    std::vector<double> attrs;
    std::vector<geo::Point> positions;
    attrs.reserve(world_->object_count());
    positions.reserve(world_->object_count());
    for (size_t oid = 0; oid < world_->object_count(); ++oid) {
      attrs.push_back(world_->attr(static_cast<ObjectId>(oid)));
      positions.push_back(world_->position(static_cast<ObjectId>(oid)));
    }

    switch (config_.mode) {
      case SimMode::kObjectIndex:
        object_index_ = std::make_unique<baseline::ObjectIndexProcessor>(
            attrs, positions);
        network_->set_server_handler(
            [this](ObjectId from, const net::Message& message) {
              if (message.type == net::MessageType::kPositionReport) {
                const auto& report =
                    std::get<net::PositionReport>(message.payload);
                object_index_->OnPositionReport(from, report.pos);
              }
            });
        naive_ = std::make_unique<baseline::NaiveTracker>(*world_, *network_);
        break;
      case SimMode::kQueryIndex:
        query_index_ = std::make_unique<baseline::QueryIndexProcessor>(
            attrs, positions);
        network_->set_server_handler(
            [this](ObjectId from, const net::Message& message) {
              if (message.type == net::MessageType::kPositionReport) {
                const auto& report =
                    std::get<net::PositionReport>(message.payload);
                query_index_->OnPositionReport(from, report.pos);
              }
            });
        naive_ = std::make_unique<baseline::NaiveTracker>(*world_, *network_);
        break;
      case SimMode::kNaive:
        naive_ = std::make_unique<baseline::NaiveTracker>(*world_, *network_);
        break;
      case SimMode::kCentralOptimal:
        central_optimal_ = std::make_unique<baseline::CentralOptimalTracker>(
            *world_, *network_, params.dead_reckoning_threshold);
        break;
      default:
        return Status::Internal("unhandled simulation mode");
    }

    for (size_t k = 0; k < query_specs_.size(); ++k) {
      const QuerySpec& spec = query_specs_[k];
      if (spec.region.shape != geo::QueryRegion::Shape::kCircle) {
        return Status::InvalidArgument(
            "centralized baseline modes support circular queries only");
      }
      baseline::CentralQuery query{static_cast<QueryId>(k), spec.focal_oid,
                                   spec.region.radius,
                                   spec.filter_threshold};
      if (object_index_) object_index_->AddQuery(query);
      if (query_index_) query_index_->AddQuery(query);
      installed_qids_.push_back(query.qid);
    }
  }

  for (int k = 0; k < config_.warmup_steps; ++k) {
    StepOnce();
  }
  ResetMeasurement();
  return Status::OK();
}

void Simulation::SetupObservability() {
  const ObservabilityOptions& obs = config_.obs;
  if (obs.enable_metrics) {
    registry_ = std::make_unique<obs::MetricsRegistry>();
    lqt_hist_ = registry_->GetHistogram(
        "client.lqt_size", {0, 1, 2, 4, 8, 16, 32, 64, 128, 256});
    server_step_us_hist_ = registry_->GetHistogram(
        "server.step_micros", obs::ExponentialBounds(1.0, 4.0, 12),
        /*timing=*/true);
    client_step_us_hist_ = registry_->GetHistogram(
        "client.step_micros", obs::ExponentialBounds(1.0, 4.0, 12),
        /*timing=*/true);
  }
  if (obs.enable_trace) {
    trace_ = std::make_unique<obs::TraceRecorder>();
  }
  if (obs.enable_lifecycle) {
    lifecycle_ = std::make_unique<obs::LifecycleTracker>();
  }
  // enable_heatmap is handled in Setup once the grid exists.
  if (obs.sample_stride > 0) {
    sampler_ = std::make_unique<obs::StepSampler>(
        std::vector<obs::StepSampler::Column>{
            {"uplink_msgs", false},
            {"downlink_msgs", false},
            {"broadcast_msgs", false},
            {"installs", false},
            {"lqt_size", false},
            {"safe_period_skips", false},
            {"server_us", true},
            {"client_us", true},
        },
        obs.sample_stride, obs.sample_capacity);
  }
}

void Simulation::ResetMeasurement() {
  metrics_ = RunMetrics{};
  metrics_.objects = static_cast<int64_t>(world_->object_count());
  network_->ResetStats();
  if (server_) server_->ResetLoadTimer();
  for (core::MobiEyesClient& client : Clients()) client.ResetCounters();
  if (object_index_) object_index_->ResetLoadTimer();
  if (query_index_) query_index_->ResetLoadTimer();
  // Metrics cover the measured window, like RunMetrics; the trace is *not*
  // cleared — setup and warmup transients (EQP install storms) are exactly
  // what it exists to show.
  if (registry_) registry_->Reset();
  if (sampler_) sampler_->Clear();
  if (heatmap_) {
    heatmap_->Reset();
    heatmap_pending_steps_ = 0;
  }
  if (lifecycle_) lifecycle_->Reset();
  cursor_ = StepCursor{};
  // WAL overflow before this point belongs to setup and warmup.
  wal_dropped_counted_ = snapshot_store_.wal_dropped;
}

void Simulation::Run(int steps) {
  const bool observing = registry_ != nullptr || sampler_ != nullptr;
  for (int k = 0; k < steps; ++k) {
    // The lifecycle clock ticks on measured steps (0-based): a round
    // stamped and resolved within one step has latency 0.
    if (lifecycle_) lifecycle_->set_step(metrics_.steps);
    StepOnce();
    ++metrics_.steps;
    metrics_.simulated_seconds += config_.params.time_step;
    for (const core::MobiEyesClient& client : Clients()) {
      metrics_.lqt_size_sum += client.lqt_size();
    }
    if (config_.measure_error) {
      ExactOracle::AccuracyStats accuracy = CurrentAccuracy();
      metrics_.error_sum += accuracy.missing;
      metrics_.spurious_sum += accuracy.spurious;
      metrics_.agreement_sum += accuracy.agreement;
      ++metrics_.error_samples;
      // Reconvergence after a crash: the first step where the reported
      // results agree with the oracle again closes the open round.
      if (lifecycle_ && accuracy.agreement >= 0.95) {
        lifecycle_->ResolveIfPending(obs::LifecycleTracker::kCrashReconverge,
                                     0);
      }
    }
    if (heatmap_) RecordHeatmap(metrics_.steps - 1);
    if (observing) RecordStepObservations(metrics_.steps - 1);
  }
}

void Simulation::RecordHeatmap(int64_t step) {
  ++heatmap_pending_steps_;
  const int window = config_.obs.heatmap_window > 0
                         ? config_.obs.heatmap_window
                         : 1;
  if ((step + 1) % window != 0) return;
  RollHeatmapWindow();
}

void Simulation::RollHeatmapWindow() {
  // Residency snapshot straight from the world's CSR span index: cell f
  // holds offsets[f+1] - offsets[f] objects right now. Recorded once per
  // window (a population snapshot, not per-step flow).
  const std::vector<uint32_t>& offsets = world_->cell_span_offsets();
  for (size_t f = 0; f + 1 < offsets.size(); ++f) {
    uint64_t count = offsets[f + 1] - offsets[f];
    if (count > 0) {
      heatmap_->AddFlat(obs::HeatMap::kResidency, static_cast<int64_t>(f),
                        count);
    }
  }
  heatmap_->RollWindow(config_.obs.heatmap_decay);
  heatmap_pending_steps_ = 0;
}

void Simulation::FlushHeatmap() {
  if (heatmap_ == nullptr || heatmap_pending_steps_ == 0) return;
  RollHeatmapWindow();
}

void Simulation::RecordStepObservations(int64_t step) {
  const net::NetworkStats& stats = network_->stats();

  // Per-step deltas of the cumulative run counters.
  uint64_t broadcast = stats.broadcast_messages - cursor_.broadcast;
  uint64_t uplink = stats.uplink_messages - cursor_.uplink;
  uint64_t downlink =
      stats.downlink_messages - cursor_.downlink - broadcast;  // one-to-one
  auto type_count = [&stats](net::MessageType type) {
    return stats.messages_by_type[static_cast<size_t>(type)];
  };
  uint64_t installs_total =
      type_count(net::MessageType::kQueryInstallBroadcast) +
      type_count(net::MessageType::kQueryUpdateBroadcast) +
      type_count(net::MessageType::kNewQueriesNotification);
  uint64_t installs = installs_total - cursor_.installs;

  double server_seconds = 0.0;
  if (server_) server_seconds = server_->load_seconds();
  if (object_index_) server_seconds = object_index_->load_seconds();
  if (query_index_) server_seconds = query_index_->load_seconds();
  double server_us = (server_seconds - cursor_.server_seconds) * 1e6;

  uint64_t lqt_total = 0;
  uint64_t skips_total = 0;
  double client_seconds = 0.0;
  for (const core::MobiEyesClient& client : Clients()) {
    size_t lqt_size = client.lqt_size();
    lqt_total += lqt_size;
    skips_total += client.safe_period_skips();
    client_seconds += client.processing_seconds();
    if (lqt_hist_ != nullptr) {
      lqt_hist_->Observe(static_cast<double>(lqt_size));
    }
  }
  uint64_t skips = skips_total - cursor_.skips;
  double client_us = (client_seconds - cursor_.client_seconds) * 1e6;

  if (server_step_us_hist_ != nullptr) {
    server_step_us_hist_->Observe(server_us);
    client_step_us_hist_->Observe(client_us);
  }
  if (sampler_ != nullptr && sampler_->ShouldSample(step)) {
    sampler_->Record(step, {static_cast<double>(uplink),
                            static_cast<double>(downlink),
                            static_cast<double>(broadcast),
                            static_cast<double>(installs),
                            static_cast<double>(lqt_total),
                            static_cast<double>(skips), server_us,
                            client_us});
  }

  // Per-shard operational gauges (timing-flagged: their values depend on the
  // shard layout, and deterministic exports must be identical across
  // --shards). Names are shard_id-tagged, e.g. "shard.02.queries".
  if (registry_ != nullptr && server_ != nullptr &&
      server_->num_shards() > 1) {
    const core::ShardRouter& router = server_->router();
    for (int s = 0; s < router.num_shards(); ++s) {
      const core::ServerShard& shard = router.shard(s);
      char tag[24];
      std::snprintf(tag, sizeof(tag), "shard.%02d.", s);
      std::string prefix(tag);
      registry_->GetGauge(prefix + "handoffs_in", /*timing=*/true)
          ->Set(static_cast<double>(shard.stats().handoffs_in));
      registry_->GetGauge(prefix + "handoffs_out", /*timing=*/true)
          ->Set(static_cast<double>(shard.stats().handoffs_out));
      registry_->GetGauge(prefix + "queries", /*timing=*/true)
          ->Set(static_cast<double>(shard.sqt().size()));
    }
  }

  // Process-transport backplane gauges: per-peer send-queue depth plus the
  // degraded-shard count. Timing-flagged like the per-shard gauges — socket
  // buffering depends on the host, never on the workload seed.
  if (registry_ != nullptr && supervisor_ != nullptr) {
    for (int s = 0; s < supervisor_->num_peers(); ++s) {
      char tag[32];
      std::snprintf(tag, sizeof(tag), "backplane.%02d.", s);
      registry_->GetGauge(std::string(tag) + "queue_depth", /*timing=*/true)
          ->Set(static_cast<double>(supervisor_->queue_bytes(s)));
    }
    registry_->GetGauge("backplane.down_shards", /*timing=*/true)
        ->Set(static_cast<double>(supervisor_->down_shards()));
    const core::SupervisorStats& sstats = supervisor_->stats();
    registry_->GetGauge("backplane.failovers", /*timing=*/true)
        ->Set(static_cast<double>(sstats.failovers));
    registry_->GetGauge("backplane.chaos_injections", /*timing=*/true)
        ->Set(static_cast<double>(sstats.chaos_frames + sstats.chaos_kills));
  }

  cursor_.uplink = stats.uplink_messages;
  cursor_.downlink = stats.downlink_messages;
  cursor_.broadcast = stats.broadcast_messages;
  cursor_.installs = installs_total;
  cursor_.skips = skips_total;
  cursor_.server_seconds = server_seconds;
  cursor_.client_seconds = client_seconds;
}

void Simulation::StepOnce() {
  obs::TraceRecorder* trace = trace_.get();
  TRACE_SPAN(trace, "sim.step");
  {
    TRACE_SPAN(trace, "world.step");
    world_->Step(config_.params.time_step,
                 config_.params.velocity_changes_per_step, rng_);
  }
  const int64_t step = sim_step_;
  // Process-death events fire at the start of the step, before any traffic:
  // a crash kills the server for [crash_step, crash_step + recovery_steps);
  // recovery_steps == 0 restores it immediately, so no traffic is lost to
  // downtime (the zero-downtime recovery-equivalence case).
  if (IsMobiEyesMode(config_.mode) &&
      config_.faults.server_crash_step >= 0) {
    if (step == config_.faults.server_crash_step) CrashServer();
    if (server_down_ && step >= server_restore_step_) RestoreServer();
  }
  // Advance the fault clock before the protocol acts: deferred deliveries
  // due this step flush here, and this step's disconnect windows take
  // effect for everything the protocol sends below.
  if (faulty_ != nullptr) faulty_->AdvanceStep(step);
  ++sim_step_;
  switch (config_.mode) {
    case SimMode::kMobiEyesEager:
    case SimMode::kMobiEyesLazy:
      if (supervisor_) {
        // Daemon fault event fires at the start of the step, like a server
        // crash: the shard degrades before any of this step's traffic.
        if (step == config_.shard_kill_step) {
          supervisor_->KillShard(config_.shard_kill_index);
        }
      }
      if (server_) server_->AdvanceTime(world_->now());
      // Cold client restarts happen between protocol turns: the device
      // reboots, loses its volatile state, and immediately reconciles.
      if (faulty_ != nullptr &&
          (config_.faults.client_restart_rate > 0.0 ||
           config_.faults.forced_restart_oid != kInvalidObjectId)) {
        for (core::MobiEyesClient& client : Clients()) {
          if (faulty_->ShouldRestartClient(client.oid(), step)) {
            client.Reset();
            ++metrics_.client_restarts;
          }
        }
      }
      for (core::MobiEyesClient& client : Clients()) client.OnTick();
      // Periodic checkpoint with the step's state settled.
      if (server_ && config_.checkpoint_stride > 0 &&
          (step + 1) % config_.checkpoint_stride == 0) {
        CheckpointServer();
      }
      // Backplane turn: flush this step's coalesced batches, read acks,
      // enforce deadlines, respawn dead daemons. Skipped while the server
      // itself is crashed (no authoritative state to mirror); the restore
      // path resyncs every replica. Right after the pump no ops are
      // pending, which is the invariant CaptureSyncAll needs — a sync
      // image plus replayed later batches must not double-apply.
      if (supervisor_ && server_) {
        supervisor_->PumpStep(step);
        if (config_.checkpoint_stride > 0 &&
            (step + 1) % config_.checkpoint_stride == 0) {
          supervisor_->CaptureSyncAll();
        }
      }
      break;
    case SimMode::kObjectIndex:
      naive_->OnTick();  // position stream into the index
      object_index_->EvaluateAllQueries();
      break;
    case SimMode::kQueryIndex:
      naive_->OnTick();  // differential evaluation happens per report
      break;
    case SimMode::kNaive:
      naive_->OnTick();
      break;
    case SimMode::kCentralOptimal:
      central_optimal_->OnTick();
      break;
  }
}

void Simulation::CrashServer() {
  // The process dies with all its in-memory state; only snapshot_store_
  // (stable storage) survives. The fault layer swallows uplinks while the
  // handler below finds server_ null.
  server_.reset();
  server_down_ = true;
  if (faulty_ != nullptr) faulty_->set_server_down(true);
  server_restore_step_ =
      config_.faults.server_crash_step + config_.faults.server_recovery_steps;
  ++metrics_.server_crashes;
  if (lifecycle_) {
    // Two rounds open at the moment of death: until the restore completes,
    // and until the reported results agree with the oracle again (resolved
    // in Run's accuracy pass; stays pending — counted — when measure_error
    // is off or agreement never recovers).
    lifecycle_->Stamp(obs::LifecycleTracker::kCrashRestore, 0);
    lifecycle_->Stamp(obs::LifecycleTracker::kCrashReconverge, 0);
  }
}

void Simulation::CheckpointServer() {
  metrics_.wal_records_dropped +=
      snapshot_store_.wal_dropped - wal_dropped_counted_;
  wal_dropped_counted_ = 0;
  server_->Checkpoint();
  ++metrics_.checkpoints_taken;
}

void Simulation::RestoreServer() {
  server_ = std::make_unique<core::MobiEyesServer>(
      *grid_, *layout_, *bmap_, *network_, resolved_mobieyes_);
  server_->set_trace_recorder(trace_.get());
  // Re-wire the observability taps the dead process held. The heat map
  // outlives the server and keeps everything charged before the crash;
  // replay suppresses new charges.
  server_->set_heatmap(heatmap_.get());
  if (lifecycle_) server_->set_lifecycle(lifecycle_.get());
  size_t replayed = 0;
  Status status = server_->Restore(snapshot_store_, &replayed);
  // The store is this process's own serialization; a decode failure here is
  // a bug the recovery tests exist to catch. The server then starts cold
  // and the soft-state machinery rebuilds what it can.
  (void)status;
  metrics_.wal_records_replayed += replayed;
  server_->set_durable_store(&snapshot_store_);
  // A recovering server checkpoints before serving, collapsing the replayed
  // WAL into a fresh baseline image.
  CheckpointServer();
  server_down_ = false;
  if (faulty_ != nullptr) faulty_->set_server_down(false);
  server_restore_step_ = -1;
  if (lifecycle_) {
    lifecycle_->ResolveIfPending(obs::LifecycleTracker::kCrashRestore, 0);
  }
  if (supervisor_) {
    // The daemons outlived the server process; point the supervisor at the
    // rebuilt router and force a full resync of every replica against the
    // restored state.
    supervisor_->AttachRouter(&server_->router());
    supervisor_->OnServerRestored();
  }
}

RunMetrics Simulation::metrics() const {
  RunMetrics snapshot = metrics_;
  snapshot.network += network_->stats();
  if (server_) {
    snapshot.server_seconds = server_->load_seconds();
    snapshot.server_step_seconds = server_->step_seconds();
    // Handoffs live in the router, not the wireless network; surface them
    // through the same stats struct (excluded from total_messages(), so the
    // wireless figures are unaffected).
    snapshot.network.inter_shard_handoffs = server_->router().handoffs();
  }
  // The open WAL window's refusals, not yet folded by a checkpoint.
  snapshot.wal_records_dropped +=
      snapshot_store_.wal_dropped - wal_dropped_counted_;
  if (supervisor_) {
    const core::SupervisorStats& bp = supervisor_->stats();
    snapshot.backplane_frames_sent = bp.frames_sent;
    snapshot.backplane_frames_received = bp.frames_received;
    snapshot.backplane_bytes_sent = bp.bytes_sent;
    snapshot.backplane_bytes_received = bp.bytes_received;
    snapshot.backplane_rpc_timeouts = bp.rpc_timeouts;
    snapshot.backplane_digest_mismatches = bp.digest_mismatches;
    snapshot.backplane_replayed_frames = bp.replayed_frames;
    snapshot.backplane_rtt_micros = bp.rtt_micros_total;
    snapshot.backplane_rtt_samples = bp.rtt_samples;
    snapshot.backplane_scans_remote = bp.scans_remote;
    snapshot.backplane_scans_local = bp.scans_local;
    snapshot.backplane_failovers = bp.failovers;
    snapshot.backplane_cutovers = bp.cutovers;
    snapshot.backplane_scan_rtt_micros = bp.scan_rtt_micros_total;
    snapshot.backplane_scan_rtt_samples = bp.scan_rtt_samples;
    snapshot.backplane_chaos_frames = bp.chaos_frames;
    snapshot.backplane_chaos_kills = bp.chaos_kills;
    snapshot.shard_restarts = static_cast<int64_t>(bp.restarts);
  }
  if (object_index_) snapshot.server_seconds = object_index_->load_seconds();
  if (query_index_) snapshot.server_seconds = query_index_->load_seconds();
  for (const core::MobiEyesClient& client : Clients()) {
    snapshot.client_processing_seconds += client.processing_seconds();
    snapshot.queries_evaluated += client.queries_evaluated();
    snapshot.safe_period_skips += client.safe_period_skips();
  }
  return snapshot;
}

const std::unordered_set<ObjectId>* Simulation::ReportedResult(
    size_t k) const {
  QueryId qid = installed_qids_[k];
  if (server_) {
    const core::MobiEyesServer::SqtEntry* entry = server_->FindQuery(qid);
    return entry == nullptr ? nullptr : &entry->result;
  }
  if (object_index_) return object_index_->QueryResult(qid);
  if (query_index_) return query_index_->QueryResult(qid);
  return nullptr;
}

double Simulation::CurrentResultError() const {
  return CurrentAccuracy().missing;
}

ExactOracle::AccuracyStats Simulation::CurrentAccuracy() const {
  ExactOracle::AccuracyStats mean;
  if (installed_qids_.empty()) return mean;
  TRACE_SPAN(trace_.get(), "oracle.evaluate");
  mean.agreement = 0.0;
  static const std::unordered_set<ObjectId> kEmpty;
  // One cell-major batch pass computes every query's exact result: each
  // populated cell span is streamed once against all queries touching it,
  // instead of re-walking the index per query.
  if (oracle_batch_.size() != installed_qids_.size()) {
    oracle_batch_.resize(installed_qids_.size());
    for (size_t k = 0; k < installed_qids_.size(); ++k) {
      const QuerySpec& spec = query_specs_[k];
      oracle_batch_[k] =
          ExactOracle::BatchQuery{spec.focal_oid, spec.region,
                                  spec.filter_threshold};
    }
  }
  oracle_->EvaluateAllInto(oracle_batch_, &oracle_batch_results_);
  for (size_t k = 0; k < installed_qids_.size(); ++k) {
    const std::unordered_set<ObjectId>* reported = ReportedResult(k);
    ExactOracle::AccuracyStats stats = ExactOracle::Compare(
        oracle_batch_results_[k], reported ? *reported : kEmpty);
    mean.missing += stats.missing;
    mean.spurious += stats.spurious;
    mean.agreement += stats.agreement;
  }
  double n = static_cast<double>(installed_qids_.size());
  mean.missing /= n;
  mean.spurious /= n;
  mean.agreement /= n;
  return mean;
}

std::string Simulation::ObservabilityJson(bool include_timing) const {
  std::string json = "{\"mode\": \"";
  json += SimModeName(config_.mode);
  json += "\", \"steps\": " + std::to_string(metrics_.steps) +
          ", \"network\": ";
  json += net::NetworkStatsJson(network_->stats());
  json += ", \"metrics\": ";
  json += registry_ ? registry_->ToJson(include_timing) : "{}";
  json += ", \"series\": ";
  json += sampler_ ? sampler_->ToJson(include_timing) : "{}";
  // Layout-dependent lifecycle kinds follow the timing flag: deterministic
  // exports must be identical across shard and thread counts and
  // transports.
  json += ", \"heatmap\": ";
  json += heatmap_ ? heatmap_->ToJson() : "{}";
  json += ", \"lifecycle\": ";
  json += lifecycle_ ? lifecycle_->ToJson(include_timing) : "{}";
  json += '}';
  return json;
}

}  // namespace mobieyes::sim

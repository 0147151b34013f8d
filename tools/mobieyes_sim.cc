// mobieyes_sim: command-line driver for the MobiEyes simulator. Runs one
// query-processing scheme over a Table 1-style workload and prints the full
// metrics report (server load, messaging cost, LQT sizes, result error,
// per-object power), plus the analytic alpha-model prediction.
//
// `mobieyes_sim --help` lists every flag. The flags that shape the
// simulation (workload, mode, faults, crash recovery, shards) come from the
// table in src/mobieyes/sim/config_flags.cc, which the benches share; this
// file owns only the run length and the output flags. --heatmap=PATH writes
// the per-cell heat maps as deterministic JSON, byte-identical across shard
// counts for the same seed; --report=PATH turns on every observability
// component and writes one self-contained HTML report (DESIGN.md §12).
//
// Unknown flags and malformed values are an error (exit 2), so typos never
// silently run the default configuration.

#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "mobieyes/net/energy.h"
#include "mobieyes/obs/report_html.h"
#include "mobieyes/obs/trace_recorder.h"
#include "mobieyes/sim/alpha_model.h"
#include "mobieyes/sim/config_flags.h"
#include "mobieyes/sim/simulation.h"

using namespace mobieyes;  // NOLINT(build/namespaces)

namespace {

// Usage of the flags this file owns; the config flags follow from the table.
constexpr char kUsage[] =
    "usage: mobieyes_sim [flags]\n"
    "  --steps=N                   measured steps (default 20)\n"
    "  --histogram                 print the per-message-type traffic mix\n"
    "  --trace=PATH                Chrome/Perfetto trace of the run\n"
    "  --metrics-json=PATH         metrics, series and lifecycle report\n"
    "  --sample-stride=N           per-step sampling stride (default 1 with\n"
    "                              --metrics-json or --report)\n"
    "  --heatmap=PATH              per-cell heat maps as deterministic JSON\n"
    "  --report=PATH               HTML report of every channel\n"
    "  --help                      this text\n";

struct CliOptions {
  sim::SimulationConfig config;
  int steps = 20;
  bool show_help = false;
  bool show_histogram = false;
  std::string trace_path;
  std::string metrics_path;
  std::string heatmap_path;
  std::string report_path;
};

// Writes `data` to `path`; prints an error and returns false on failure.
bool WriteFileOrComplain(const std::string& path, const std::string& data) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr ||
      std::fwrite(data.data(), 1, data.size(), f) != data.size()) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    if (f != nullptr) std::fclose(f);
    return false;
  }
  std::fclose(f);
  return true;
}

// Handles this file's flags and hands every other argument to the config
// flag table. Prints the problem and returns false on a bad argument.
bool ParseArgs(int argc, char** argv, CliOptions* cli) {
  cli->config.measure_error = true;
  cli->config.track_per_object_bytes = true;
  sim::ObservabilityOptions& obs = cli->config.obs;
  std::vector<std::string> config_flags;
  for (int k = 1; k < argc; ++k) {
    const std::string_view arg = argv[k];
    std::string_view value;
    bool valid = true;
    if (arg == "--help") {
      cli->show_help = true;
    } else if (sim::FlagValue(arg, "--steps=", &value)) {
      valid = sim::ParseIntFlag(value, 1, &cli->steps);
    } else if (arg == "--histogram") {
      cli->show_histogram = true;
    } else if (sim::FlagValue(arg, "--trace=", &value)) {
      cli->trace_path = value;
      obs.enable_trace = true;
    } else if (sim::FlagValue(arg, "--metrics-json=", &value)) {
      cli->metrics_path = value;
      obs.enable_metrics = true;
      // Lifecycle latency tables ride inside the metrics report, matching
      // the bench harness's --metrics-json behavior.
      obs.enable_lifecycle = true;
      if (obs.sample_stride == 0) obs.sample_stride = 1;
    } else if (sim::FlagValue(arg, "--sample-stride=", &value)) {
      valid = sim::ParseIntFlag(value, 0, &obs.sample_stride);
    } else if (sim::FlagValue(arg, "--heatmap=", &value)) {
      cli->heatmap_path = value;
      obs.enable_heatmap = true;
    } else if (sim::FlagValue(arg, "--report=", &value)) {
      // One flag turns on everything the HTML report can render.
      cli->report_path = value;
      obs.enable_metrics = true;
      obs.enable_heatmap = true;
      obs.enable_lifecycle = true;
      if (obs.sample_stride == 0) obs.sample_stride = 1;
    } else {
      config_flags.emplace_back(arg);
    }
    if (!valid) {
      std::fprintf(stderr, "bad value in %s\n", argv[k]);
      return false;
    }
  }
  Status st = sim::ApplyConfigFlags(config_flags, &cli->config);
  if (!st.ok()) std::fprintf(stderr, "%s\n", st.message().c_str());
  return st.ok();
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  if (!ParseArgs(argc, argv, &cli)) {
    std::fprintf(stderr, "see %s --help\n", argv[0]);
    return 2;
  }
  if (cli.show_help) {
    std::printf("%s%s", kUsage, sim::ConfigFlagUsage(false).c_str());
    return 0;
  }

  auto simulation = sim::Simulation::Make(cli.config);
  if (!simulation.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 simulation.status().ToString().c_str());
    return 1;
  }
  net::MessageHistogram histogram;
  if (cli.show_histogram) {
    (*simulation)->network().set_observer(
        [&histogram](net::Direction, int64_t, const net::Message& message) {
          histogram.Record(message);
        });
  }
  std::printf("mode=%s objects=%d queries=%d nmo=%d alpha=%.3g alen=%.3g "
              "area=%.4g seed=%llu\n",
              sim::SimModeName(cli.config.mode), cli.config.params.num_objects,
              cli.config.params.num_queries,
              cli.config.params.velocity_changes_per_step,
              cli.config.params.alpha, cli.config.params.base_station_side,
              cli.config.params.area_square_miles,
              static_cast<unsigned long long>(cli.config.params.seed));

  (*simulation)->Run(cli.steps);
  sim::RunMetrics metrics = (*simulation)->metrics();

  std::printf("\n-- run -------------------------------------------------\n");
  std::printf("steps                      %lld (%.0f simulated seconds)\n",
              static_cast<long long>(metrics.steps),
              metrics.simulated_seconds);
  std::printf("server load                %.6g s/step\n",
              metrics.ServerLoadPerStep());
  std::printf("\n-- wireless medium -------------------------------------\n");
  std::printf("messages/second            %.4g\n", metrics.MessagesPerSecond());
  std::printf("uplink messages/second     %.4g\n",
              metrics.UplinkMessagesPerSecond());
  std::printf("uplink messages            %llu (%llu bytes)\n",
              static_cast<unsigned long long>(metrics.network.uplink_messages),
              static_cast<unsigned long long>(metrics.network.uplink_bytes));
  std::printf("downlink messages          %llu (%llu bytes, %llu broadcast)\n",
              static_cast<unsigned long long>(
                  metrics.network.downlink_messages),
              static_cast<unsigned long long>(metrics.network.downlink_bytes),
              static_cast<unsigned long long>(
                  metrics.network.broadcast_messages));
  std::printf("broadcast receptions       %llu\n",
              static_cast<unsigned long long>(
                  metrics.network.broadcast_receptions));
  if (cli.config.track_per_object_bytes) {
    net::RadioEnergyModel radio;
    std::printf("per-object comm power      %.4g mW\n",
                metrics.AveragePowerMilliwatts(radio));
  }
  if (cli.config.mode == sim::SimMode::kMobiEyesEager ||
      cli.config.mode == sim::SimMode::kMobiEyesLazy) {
    std::printf("\n-- moving objects --------------------------------------\n");
    std::printf("average LQT size           %.4g queries/object\n",
                metrics.AverageLqtSize());
    std::printf("query evaluations          %llu (+%llu safe-period skips)\n",
                static_cast<unsigned long long>(metrics.queries_evaluated),
                static_cast<unsigned long long>(metrics.safe_period_skips));
    std::printf("client processing          %.6g s/step/object\n",
                metrics.ClientProcessingPerStep());
  }
  if (cli.config.measure_error) {
    std::printf("\n-- accuracy --------------------------------------------\n");
    std::printf("avg result error           %.4g (missing fraction)\n",
                metrics.AverageError());
    std::printf("avg spurious fraction      %.4g\n", metrics.AverageSpurious());
    std::printf("avg oracle agreement       %.4g (Jaccard)\n",
                metrics.AverageAgreement());
  }
  if (cli.config.faults.active()) {
    std::printf("\n-- injected faults (measured window) -------------------\n");
    std::printf("dropped                    %llu (%llu up, %llu down, "
                "%llu broadcast)\n",
                static_cast<unsigned long long>(
                    metrics.network.total_dropped()),
                static_cast<unsigned long long>(metrics.network.uplink_dropped),
                static_cast<unsigned long long>(
                    metrics.network.downlink_dropped),
                static_cast<unsigned long long>(
                    metrics.network.broadcast_dropped));
    std::printf("delayed                    %llu\n",
                static_cast<unsigned long long>(
                    metrics.network.delayed_messages));
    std::printf("duplicated                 %llu\n",
                static_cast<unsigned long long>(
                    metrics.network.duplicated_messages));
    std::printf("disconnect events          %llu\n",
                static_cast<unsigned long long>(
                    metrics.network.disconnect_events));
    std::printf("undeliverable downlinks    %llu\n",
                static_cast<unsigned long long>(
                    metrics.network.undeliverable_downlinks));
    std::printf("undeliverable (dead end)   %llu receiver-down, "
                "%llu server-down\n",
                static_cast<unsigned long long>(
                    metrics.network.undeliverable_by_reason[static_cast<
                        size_t>(net::NetworkStats::UndeliverableReason::
                                    kReceiverDisconnected)]),
                static_cast<unsigned long long>(
                    metrics.network.undeliverable_by_reason[static_cast<
                        size_t>(net::NetworkStats::UndeliverableReason::
                                    kServerDown)]));
  }
  {
    core::MobiEyesServer* server = (*simulation)->server();
    if (server != nullptr && server->num_shards() > 1) {
      const core::ShardRouter& router = server->router();
      std::printf(
          "\n-- server shards ---------------------------------------\n");
      std::printf("shards                     %d (row bands)\n",
                  router.num_shards());
      std::printf("step phase                 %.6g s total (%.6g s/step)\n",
                  metrics.server_step_seconds,
                  metrics.steps > 0 ? metrics.server_step_seconds /
                                          static_cast<double>(metrics.steps)
                                    : 0.0);
      std::printf("handoffs                   %llu\n",
                  static_cast<unsigned long long>(
                      metrics.network.inter_shard_handoffs));
      for (int s = 0; s < router.num_shards(); ++s) {
        const core::ServerShard& shard = router.shard(s);
        std::printf("shard %-2d                   %zu queries, %zu focals, "
                    "%llu in / %llu out handoffs\n",
                    s, shard.sqt().size(), shard.fot().size(),
                    static_cast<unsigned long long>(shard.stats().handoffs_in),
                    static_cast<unsigned long long>(
                        shard.stats().handoffs_out));
      }
    }
  }
  if (core::ShardSupervisor* supervisor = (*simulation)->supervisor()) {
    const core::SupervisorStats& bp = supervisor->stats();
    std::printf("\n-- shard backplane (process transport) -----------------\n");
    std::printf("daemons                    %d (%lld down now)\n",
                supervisor->num_peers(),
                static_cast<long long>(supervisor->down_shards()));
    std::printf("frames sent / received     %llu / %llu\n",
                static_cast<unsigned long long>(bp.frames_sent),
                static_cast<unsigned long long>(bp.frames_received));
    std::printf("bytes sent / received      %llu / %llu\n",
                static_cast<unsigned long long>(bp.bytes_sent),
                static_cast<unsigned long long>(bp.bytes_received));
    std::printf("batches / heartbeats       %llu / %llu\n",
                static_cast<unsigned long long>(bp.batches_sent),
                static_cast<unsigned long long>(bp.heartbeats_sent));
    std::printf("syncs / replayed frames    %llu / %llu\n",
                static_cast<unsigned long long>(bp.syncs_sent),
                static_cast<unsigned long long>(bp.replayed_frames));
    std::printf("mean RPC round trip        %.1f us over %llu acks\n",
                metrics.BackplaneRttMicros(),
                static_cast<unsigned long long>(bp.rtt_samples));
    std::printf("timeouts / digest misses   %llu / %llu\n",
                static_cast<unsigned long long>(bp.rpc_timeouts),
                static_cast<unsigned long long>(bp.digest_mismatches));
    std::printf("daemon restarts            %llu\n",
                static_cast<unsigned long long>(bp.restarts));
    if (metrics.backplane_scans_remote + metrics.backplane_scans_local > 0 ||
        metrics.backplane_failovers > 0 || metrics.backplane_cutovers > 0) {
      std::printf("authority scans            %llu remote / %llu local\n",
                  static_cast<unsigned long long>(
                      metrics.backplane_scans_remote),
                  static_cast<unsigned long long>(
                      metrics.backplane_scans_local));
      std::printf("failovers / cutovers       %llu / %llu\n",
                  static_cast<unsigned long long>(
                      metrics.backplane_failovers),
                  static_cast<unsigned long long>(
                      metrics.backplane_cutovers));
      std::printf("mean scan round trip       %.1f us over %llu scans\n",
                  metrics.BackplaneScanRttMicros(),
                  static_cast<unsigned long long>(
                      metrics.backplane_scan_rtt_samples));
    }
    if (metrics.backplane_chaos_frames + metrics.backplane_chaos_kills > 0) {
      std::printf("chaos injections           %llu frames, %llu kills\n",
                  static_cast<unsigned long long>(
                      metrics.backplane_chaos_frames),
                  static_cast<unsigned long long>(
                      metrics.backplane_chaos_kills));
    }
  }
  if (metrics.server_crashes > 0 || metrics.client_restarts > 0 ||
      metrics.checkpoints_taken > 0) {
    std::printf("\n-- crash recovery --------------------------------------\n");
    std::printf("server crashes             %lld\n",
                static_cast<long long>(metrics.server_crashes));
    std::printf("client restarts            %lld\n",
                static_cast<long long>(metrics.client_restarts));
    std::printf("checkpoints taken          %lld\n",
                static_cast<long long>(metrics.checkpoints_taken));
    std::printf("WAL records replayed       %llu (%llu lost to overflow)\n",
                static_cast<unsigned long long>(metrics.wal_records_replayed),
                static_cast<unsigned long long>(metrics.wal_records_dropped));
  }
  std::printf("\n-- message breakdown (measured window) -----------------\n");
  for (size_t t = 0; t < net::kNumMessageTypes; ++t) {
    uint64_t count = metrics.network.messages_by_type[t];
    uint64_t dropped = metrics.network.dropped_by_type[t];
    if (count == 0 && dropped == 0) continue;
    std::printf("%-26s %8llu msgs  %6.2f%%  %8llu dropped\n",
                net::MessageTypeName(static_cast<net::MessageType>(t)),
                static_cast<unsigned long long>(count),
                100.0 * static_cast<double>(count) /
                    static_cast<double>(metrics.network.total_messages()),
                static_cast<unsigned long long>(dropped));
  }
  if (cli.show_histogram) {
    std::printf("\n-- message mix (measured window) -----------------------\n");
    for (const auto& [type, row] : histogram.rows) {
      std::printf("%-26s %8llu msgs  %10llu bytes\n",
                  net::MessageTypeName(type),
                  static_cast<unsigned long long>(row.messages),
                  static_cast<unsigned long long>(row.bytes));
    }
  }
  if (cli.config.mode == sim::SimMode::kMobiEyesEager ||
      cli.config.mode == sim::SimMode::kMobiEyesLazy) {
    sim::AlphaCostModel model(cli.config.params);
    std::printf("\n-- analytic alpha model --------------------------------\n");
    std::printf("predicted msgs/second      %.4g at alpha=%.3g\n",
                model.MessagesPerSecond(cli.config.params.alpha),
                cli.config.params.alpha);
    double best = model.OptimalAlpha();
    std::printf("model-optimal alpha        %.3g (predicted %.4g msgs/s)\n",
                best, model.MessagesPerSecond(best));
  }
  if (!cli.trace_path.empty()) {
    const obs::TraceRecorder* trace = (*simulation)->trace_recorder();
    if (trace == nullptr ||
        !obs::TraceRecorder::WriteFile(cli.trace_path, trace->events())) {
      std::fprintf(stderr, "failed to write trace to %s\n",
                   cli.trace_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %zu trace events to %s\n",
                 trace->events().size(), cli.trace_path.c_str());
  }
  // Close any partially filled heat-map window before exporting: short runs
  // (steps not a multiple of heatmap_window) still get a residency snapshot
  // and folded totals.
  (*simulation)->FlushHeatmap();
  if (!cli.metrics_path.empty()) {
    std::string json = (*simulation)->ObservabilityJson();
    if (!WriteFileOrComplain(cli.metrics_path, json)) return 1;
    std::fprintf(stderr, "wrote metrics report to %s\n",
                 cli.metrics_path.c_str());
  }
  if (!cli.heatmap_path.empty()) {
    // Every channel is layout-invariant: exports from different --shards
    // runs of one seed byte-match.
    std::string json = (*simulation)->heatmap()->ToJson();
    if (!WriteFileOrComplain(cli.heatmap_path, json)) return 1;
    std::fprintf(stderr, "wrote heat-map export to %s\n",
                 cli.heatmap_path.c_str());
  }
  if (!cli.report_path.empty()) {
    std::string json = (*simulation)->ObservabilityJson();
    std::string error;
    std::unique_ptr<obs::JsonValue> root = obs::ParseJson(json, &error);
    if (root == nullptr) {
      std::fprintf(stderr, "internal error: observability JSON: %s\n",
                   error.c_str());
      return 1;
    }
    std::string title = std::string("mobieyes_sim ") +
                        sim::SimModeName(cli.config.mode) + " seed=" +
                        std::to_string(cli.config.params.seed);
    if (!WriteFileOrComplain(cli.report_path,
                             obs::RenderHtmlReport(*root, title))) {
      return 1;
    }
    std::fprintf(stderr, "wrote HTML report to %s\n", cli.report_path.c_str());
  }
  return 0;
}

#ifndef MOBIEYES_SIM_METRICS_H_
#define MOBIEYES_SIM_METRICS_H_

#include <cstdint>

#include "mobieyes/common/units.h"
#include "mobieyes/net/energy.h"
#include "mobieyes/net/network.h"

namespace mobieyes::sim {

// Aggregated measurements of one simulation run, accumulated over the
// measured (post-warmup) steps. Derived accessors produce exactly the
// quantities plotted in the paper's figures.
struct RunMetrics {
  int64_t steps = 0;
  Seconds simulated_seconds = 0.0;

  // Wall time spent in server-side logic (Figs. 1, 3).
  double server_seconds = 0.0;
  // Subset of server_seconds spent in the step phase (expiry/lease scans,
  // checkpoint encoding) — the per-shard work the shard bench compares
  // across --shards (DESIGN.md §10).
  double server_step_seconds = 0.0;

  // Network totals for the measured window (Figs. 4-8).
  net::NetworkStats network;

  // Sum over steps of the LQT size summed over all objects, and the object
  // count (Figs. 10-12 plot the per-object per-step average).
  uint64_t lqt_size_sum = 0;
  int64_t objects = 0;

  // Sum over steps of the per-query mean result error vs the oracle, and
  // the number of sampled steps (Fig. 2). Under fault injection the missing
  // fraction alone hides spurious members (stale flips never retracted), so
  // the dual spurious fraction and the Jaccard agreement are accumulated
  // over the same samples.
  double error_sum = 0.0;
  double spurious_sum = 0.0;
  double agreement_sum = 0.0;
  int64_t error_samples = 0;

  // Moving-object processing (Fig. 13).
  double client_processing_seconds = 0.0;
  uint64_t queries_evaluated = 0;
  uint64_t safe_period_skips = 0;

  // Crash-recovery events within the measured window (DESIGN.md §9).
  int64_t server_crashes = 0;
  int64_t client_restarts = 0;
  int64_t checkpoints_taken = 0;
  uint64_t wal_records_replayed = 0;
  // Uplinks the bounded WAL refused over the measured run, summed across
  // checkpoint windows: non-zero means a restore from the store would be
  // stale and leases/reconciliation would have to close the gap.
  uint64_t wal_records_dropped = 0;

  // Process-transport backplane (DESIGN.md §13). All zero under the
  // in-process transport. RTT fields are wall-clock measurements and, like
  // server_seconds, never feed deterministic exports.
  uint64_t backplane_frames_sent = 0;
  uint64_t backplane_frames_received = 0;
  uint64_t backplane_bytes_sent = 0;
  uint64_t backplane_bytes_received = 0;
  uint64_t backplane_rpc_timeouts = 0;
  uint64_t backplane_digest_mismatches = 0;
  uint64_t backplane_replayed_frames = 0;
  uint64_t backplane_rtt_micros = 0;
  uint64_t backplane_rtt_samples = 0;
  // Authority mode (DESIGN.md §14): scans answered by a daemon vs served
  // by the warm local mirror, authority handoffs in both directions, and
  // the blocking-scan round trip.
  uint64_t backplane_scans_remote = 0;
  uint64_t backplane_scans_local = 0;
  uint64_t backplane_failovers = 0;
  uint64_t backplane_cutovers = 0;
  uint64_t backplane_scan_rtt_micros = 0;
  uint64_t backplane_scan_rtt_samples = 0;
  // Chaos layer: injected frame faults and scheduled SIGKILLs.
  uint64_t backplane_chaos_frames = 0;
  uint64_t backplane_chaos_kills = 0;
  int64_t shard_restarts = 0;
  // Uplinks the server refused to dispatch. Always 0: the router
  // dispatches every uplink whether or not a shard daemon is up.
  uint64_t uplinks_dropped = 0;

  // --- Derived figures ------------------------------------------------------

  double MessagesPerSecond() const {
    return simulated_seconds > 0.0
               ? static_cast<double>(network.total_messages()) /
                     simulated_seconds
               : 0.0;
  }

  double UplinkMessagesPerSecond() const {
    return simulated_seconds > 0.0
               ? static_cast<double>(network.uplink_messages) /
                     simulated_seconds
               : 0.0;
  }

  double ServerLoadPerStep() const {
    return steps > 0 ? server_seconds / static_cast<double>(steps) : 0.0;
  }

  double AverageLqtSize() const {
    return steps > 0 && objects > 0
               ? static_cast<double>(lqt_size_sum) /
                     (static_cast<double>(steps) *
                      static_cast<double>(objects))
               : 0.0;
  }

  double AverageError() const {
    return error_samples > 0 ? error_sum / static_cast<double>(error_samples)
                             : 0.0;
  }

  double AverageSpurious() const {
    return error_samples > 0
               ? spurious_sum / static_cast<double>(error_samples)
               : 0.0;
  }

  // Mean oracle agreement; 1.0 when no samples were taken (nothing known to
  // disagree).
  double AverageAgreement() const {
    return error_samples > 0
               ? agreement_sum / static_cast<double>(error_samples)
               : 1.0;
  }

  // Backplane figures for the shard-sweep table: mean RPC round trip in
  // microseconds, and frames/bytes shipped per measured step.
  double BackplaneRttMicros() const {
    return backplane_rtt_samples > 0
               ? static_cast<double>(backplane_rtt_micros) /
                     static_cast<double>(backplane_rtt_samples)
               : 0.0;
  }

  // Mean blocking-scan round trip in authority mode, in microseconds.
  double BackplaneScanRttMicros() const {
    return backplane_scan_rtt_samples > 0
               ? static_cast<double>(backplane_scan_rtt_micros) /
                     static_cast<double>(backplane_scan_rtt_samples)
               : 0.0;
  }

  double BackplaneFramesPerStep() const {
    return steps > 0 ? static_cast<double>(backplane_frames_sent) /
                           static_cast<double>(steps)
                     : 0.0;
  }

  double BackplaneBytesPerStep() const {
    return steps > 0 ? static_cast<double>(backplane_bytes_sent) /
                           static_cast<double>(steps)
                     : 0.0;
  }

  // Per object per step, in seconds (Fig. 13).
  double ClientProcessingPerStep() const {
    return steps > 0 && objects > 0
               ? client_processing_seconds / (static_cast<double>(steps) *
                                              static_cast<double>(objects))
               : 0.0;
  }

  // Average per-object communication power in milliwatts (Fig. 9).
  double AveragePowerMilliwatts(const net::RadioEnergyModel& radio) const;
};

}  // namespace mobieyes::sim

#endif  // MOBIEYES_SIM_METRICS_H_

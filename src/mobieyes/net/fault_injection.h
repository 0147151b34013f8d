#ifndef MOBIEYES_NET_FAULT_INJECTION_H_
#define MOBIEYES_NET_FAULT_INJECTION_H_

#include <cstdint>
#include <deque>

#include "mobieyes/common/ids.h"
#include "mobieyes/common/random.h"
#include "mobieyes/net/base_station.h"
#include "mobieyes/net/network.h"

namespace mobieyes::net {

// Deterministic description of the faults injected into one run. All rates
// are probabilities per message (or per window for disconnects); a
// default-constructed plan injects nothing. The same seed always produces
// the same fault sequence for the same message sequence, so faulty runs are
// exactly as reproducible as fault-free ones.
struct FaultPlan {
  uint64_t seed = 0xFA17ULL;

  // Per-direction probability that a message is silently lost. The downlink
  // rate applies to one-to-one downlinks and to whole broadcasts alike.
  double uplink_drop_rate = 0.0;
  double downlink_drop_rate = 0.0;

  // Probability that a surviving message is deferred by a uniform
  // 1..max_delay_steps simulation steps instead of delivered inline.
  // Deferred messages are flushed by AdvanceStep in due order. Both fields
  // must be positive for delays to occur.
  double delay_rate = 0.0;
  int max_delay_steps = 0;

  // Probability that a surviving message is delivered twice (the second
  // copy counts as its own transmission on the medium).
  double duplicate_rate = 0.0;

  // Base-station outage windows: every outage_period_steps each station
  // goes dark for outage_duration_steps, at a per-station offset derived
  // from the seed so outages are staggered across stations. Broadcasts from
  // a dark station are lost whole. 0 disables outages.
  int outage_period_steps = 0;
  int outage_duration_steps = 0;

  // Object disconnect windows: in every span of disconnect_period_steps an
  // object is, with probability disconnect_rate, unreachable for
  // disconnect_duration_steps (uplinks from it and downlinks/broadcast
  // receptions to it are lost). Decisions are stateless hashes of
  // (seed, oid, window), so they do not perturb the message-level fault
  // stream. 0 period disables disconnects.
  double disconnect_rate = 0.0;
  int disconnect_period_steps = 0;
  int disconnect_duration_steps = 0;

  // Test knob: force exactly one object offline for the half-open step
  // window [forced_disconnect_from, forced_disconnect_until). Lets protocol
  // tests stage a deterministic disconnect/reconnect without probabilistic
  // draws.
  ObjectId forced_disconnect_oid = kInvalidObjectId;
  int64_t forced_disconnect_from = 0;
  int64_t forced_disconnect_until = 0;

  // --- Process-death events (crash recovery, DESIGN.md §9) -----------------

  // Server crash: the mediator process dies at the start of step
  // server_crash_step and is restored from its durable snapshot
  // server_recovery_steps later (0 = restored within the same step, before
  // any of that step's traffic — the zero-downtime case used by the
  // byte-identity recovery tests). While the server is down, uplinks —
  // including deferred ones coming due — are undeliverable, not "dropped":
  // the link worked, the endpoint was dead. -1 disables the crash.
  int64_t server_crash_step = -1;
  int server_recovery_steps = 0;

  // Client restarts: with probability client_restart_rate an object
  // cold-restarts at any given step, losing its volatile state (LQT,
  // pending uplinks, hasMQ). Decisions are stateless hashes of
  // (seed, oid, step) so they do not perturb the message-level fault
  // stream. The forced pair restarts exactly one object at one step for
  // deterministic tests.
  double client_restart_rate = 0.0;
  ObjectId forced_restart_oid = kInvalidObjectId;
  int64_t forced_restart_step = -1;

  // True when any fault can occur. An inactive plan makes FaultyNetwork
  // behave bit-for-bit like the plain WirelessNetwork: no RNG is consumed
  // and nothing is deferred, so a --drop-rate 0 run is byte-identical to a
  // fault-free one.
  bool active() const {
    return uplink_drop_rate > 0.0 || downlink_drop_rate > 0.0 ||
           (delay_rate > 0.0 && max_delay_steps > 0) ||
           duplicate_rate > 0.0 ||
           (outage_period_steps > 0 && outage_duration_steps > 0) ||
           (disconnect_rate > 0.0 && disconnect_period_steps > 0 &&
            disconnect_duration_steps > 0) ||
           forced_disconnect_oid != kInvalidObjectId ||
           server_crash_step >= 0 || client_restart_rate > 0.0 ||
           forced_restart_oid != kInvalidObjectId;
  }

  bool operator==(const FaultPlan&) const = default;
};

// WirelessNetwork that injects the faults described by a FaultPlan between
// senders and receivers: drops, bounded delays, duplicates, base-station
// outages and object disconnects. Every fault outcome is recorded in
// NetworkStats (and, when attached, the metrics registry), so accuracy
// degradation can always be correlated with the loss that caused it.
//
// The simulation clock drives the wrapper through AdvanceStep: messages
// sent before the first AdvanceStep call (query installation during setup)
// pass through unfaulted, and deferred deliveries flush when their due step
// is reached. Within one step, delivery is synchronous exactly like the
// base class.
class FaultyNetwork : public WirelessNetwork {
 public:
  explicit FaultyNetwork(FaultPlan plan)
      : plan_(plan), rng_(plan.seed ^ 0x9E3779B97F4A7C15ULL) {}

  const FaultPlan& plan() const { return plan_; }

  // Advances the fault clock to `step` (monotone), flushes deferred
  // deliveries that have come due, and accounts disconnect transitions.
  // Call once per simulation step, after the world advanced.
  void AdvanceStep(int64_t step);

  int64_t current_step() const { return step_; }

  // Whether `oid` is inside a disconnect window at `step` (stateless; the
  // same inputs always agree).
  bool IsDisconnected(ObjectId oid, int64_t step) const;

  // Whether station `sid` is inside an outage window at `step`.
  bool InOutage(BaseStationId sid, int64_t step) const;

  // Whether `oid` cold-restarts at `step` (stateless hash, plus the forced
  // test pair). The simulation polls this each step and calls
  // Client::Reset() on hits.
  bool ShouldRestartClient(ObjectId oid, int64_t step) const;

  // The simulation flips this while the server process is down; uplinks
  // (live or deferred coming due) are then recorded as undeliverable with
  // reason kServerDown instead of reaching the dead handler.
  void set_server_down(bool down) { server_down_ = down; }
  bool server_down() const { return server_down_; }

  // Wraps the query so broadcasts skip disconnected objects.
  void set_coverage_query(CoverageQuery query) override;

  void SendUplink(ObjectId from, Message message) override;
  bool SendDownlinkTo(ObjectId to, Message message) override;
  void Broadcast(const BaseStation& station, const Message& message) override;

  // Registers the base instruments plus fault counters ("net.fault.*").
  void AttachMetrics(obs::MetricsRegistry* registry) override;

 private:
  enum class Kind { kUplink, kDownlink, kBroadcast };

  struct Deferred {
    int64_t due_step = 0;
    Kind kind = Kind::kUplink;
    ObjectId party = kInvalidObjectId;  // sender (uplink) / recipient
    BaseStation station;                // kBroadcast only
    Message message;
  };

  bool FaultsApply() const { return step_ >= 0 && plan_.active(); }
  void RecordDrop(Kind kind, const Message& message);
  void RecordUndeliverable(NetworkStats::UndeliverableReason reason);
  // Draws the delay decision; when delayed, enqueues `copies` deliveries of
  // the message and returns true.
  bool MaybeDefer(Kind kind, ObjectId party, const BaseStation* station,
                  const Message& message, int copies);
  void DeliverDeferred(Deferred& entry);
  void AccountDisconnectTransitions(int64_t step);

  FaultPlan plan_;
  Rng rng_;
  int64_t step_ = -1;  // faults apply once AdvanceStep has run
  bool server_down_ = false;
  std::deque<Deferred> deferred_;

  struct FaultMetrics {
    obs::Counter* dropped = nullptr;
    obs::Counter* delayed = nullptr;
    obs::Counter* duplicated = nullptr;
    obs::Counter* disconnects = nullptr;
    obs::Counter* dead_endpoint = nullptr;
  };
  FaultMetrics fault_metrics_;
};

}  // namespace mobieyes::net

#endif  // MOBIEYES_NET_FAULT_INJECTION_H_

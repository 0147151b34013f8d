#ifndef MOBIEYES_OBS_LIFECYCLE_H_
#define MOBIEYES_OBS_LIFECYCLE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace mobieyes::obs {

// Virtual-step latency tracking for protocol rounds: a message (or larger
// protocol exchange) is stamped at origination and resolved at its matching
// terminal event; the elapsed *simulation steps* land in a per-kind
// fixed-bound histogram. No wall clock is involved anywhere, so the export
// is deterministic by construction — the same seed produces the same
// latencies on any host, shard count or thread count.
//
// The matching discipline is built for lossy protocols:
//  * Stamp on an already-pending key keeps the original stamp and counts a
//    restamp (a retry extends the same round, it does not start a new one).
//  * ResolveIfPending is a no-op on an absent key — duplicate terminal
//    events (retransmitted acks, repeated result inserts) cannot inflate
//    anything.
//  * Drop cancels a pending stamp (query removed, pending-slot evicted,
//    client restarted) and counts it as cancelled.
//  * Stamps still pending at export are *counted* (the `pending` field),
//    never silently leaked.
//
// The backplane RPC kind only fires under the process transport and
// resolves at socket speed, so it is flagged layout-dependent and omitted
// from deterministic exports.
class LifecycleTracker {
 public:
  enum Kind {
    kUplinkAck = 0,       // hardened client uplink -> matching server ack
    kInstallFirstResult,  // query installed -> first object enters result
    kCrashRestore,        // server crash -> checkpoint+WAL restore done
    kCrashReconverge,     // server crash -> accuracy back above threshold
    kBackplaneRpc,        // backplane frame sent -> ack (drop on timeout)
    kNumKinds,
  };

  static const char* KindName(Kind kind);
  static bool KindLayoutDependent(Kind kind);

  LifecycleTracker();

  // The virtual clock; the simulation advances it once per step.
  void set_step(int64_t step) { step_ = step; }
  int64_t step() const { return step_; }

  // Opens a round for (kind, key) at the current step. Keeps the original
  // stamp if one is already pending.
  void Stamp(Kind kind, uint64_t key);

  // Closes the round if one is pending and records its step latency.
  // Returns false (and does nothing) when no stamp is pending.
  bool ResolveIfPending(Kind kind, uint64_t key);

  // Cancels a pending round without recording a latency.
  void Drop(Kind kind, uint64_t key);

  // Zeroes every histogram and counter and forgets pending stamps
  // (measurement restart after warmup).
  void Reset();

  uint64_t stamped(Kind kind) const { return kinds_[kind].stamped; }
  uint64_t resolved(Kind kind) const { return kinds_[kind].resolved; }
  uint64_t restamped(Kind kind) const { return kinds_[kind].restamped; }
  uint64_t cancelled(Kind kind) const { return kinds_[kind].cancelled; }
  uint64_t pending(Kind kind) const { return kinds_[kind].pending.size(); }
  // counts().size() == bounds().size() + 1 (overflow bucket last).
  const std::vector<int64_t>& bounds() const { return bounds_; }
  const std::vector<uint64_t>& counts(Kind kind) const {
    return kinds_[kind].counts;
  }
  uint64_t latency_sum(Kind kind) const { return kinds_[kind].sum; }

  // {"step": N, "bounds": [...], "kinds": {name: {"stamped": n,
  //  "resolved": n, "restamped": n, "cancelled": n, "pending": n,
  //  "counts": [...], "sum": s}}} in fixed kind order. With
  // include_layout_dependent=false, layout-dependent kinds are omitted.
  std::string ToJson(bool include_layout_dependent = true) const;

 private:
  struct KindState {
    std::unordered_map<uint64_t, int64_t> pending;  // key -> stamp step
    std::vector<uint64_t> counts;
    uint64_t stamped = 0;
    uint64_t resolved = 0;
    uint64_t restamped = 0;
    uint64_t cancelled = 0;
    uint64_t sum = 0;  // sum of recorded step latencies
  };

  int64_t step_ = 0;
  std::vector<int64_t> bounds_;
  KindState kinds_[kNumKinds];
};

}  // namespace mobieyes::obs

#endif  // MOBIEYES_OBS_LIFECYCLE_H_

#include "mobieyes/obs/lifecycle.h"

namespace mobieyes::obs {

const char* LifecycleTracker::KindName(Kind kind) {
  switch (kind) {
    case kUplinkAck:
      return "uplink_ack";
    case kInstallFirstResult:
      return "install_first_result";
    case kCrashRestore:
      return "crash_restore";
    case kCrashReconverge:
      return "crash_reconverge";
    case kBackplaneRpc:
      return "backplane_rpc";
    default:
      return "unknown";
  }
}

bool LifecycleTracker::KindLayoutDependent(Kind kind) {
  // Backplane RPC rounds only exist with the process transport and resolve
  // at socket speed — real-deployment visibility, not simulation state.
  return kind == kBackplaneRpc;
}

LifecycleTracker::LifecycleTracker()
    : bounds_{0, 1, 2, 4, 8, 16, 32, 64} {
  for (KindState& kind : kinds_) {
    kind.counts.assign(bounds_.size() + 1, 0);
  }
}

void LifecycleTracker::Stamp(Kind kind, uint64_t key) {
  KindState& state = kinds_[kind];
  auto [it, inserted] = state.pending.try_emplace(key, step_);
  if (inserted) {
    ++state.stamped;
  } else {
    ++state.restamped;  // retry of an open round; the original stamp wins
  }
}

bool LifecycleTracker::ResolveIfPending(Kind kind, uint64_t key) {
  KindState& state = kinds_[kind];
  auto it = state.pending.find(key);
  if (it == state.pending.end()) return false;
  const int64_t latency = step_ - it->second;
  state.pending.erase(it);
  ++state.resolved;
  state.sum += static_cast<uint64_t>(latency);
  size_t bucket = 0;
  while (bucket < bounds_.size() && latency > bounds_[bucket]) ++bucket;
  ++state.counts[bucket];
  return true;
}

void LifecycleTracker::Drop(Kind kind, uint64_t key) {
  KindState& state = kinds_[kind];
  if (state.pending.erase(key) > 0) ++state.cancelled;
}

void LifecycleTracker::Reset() {
  for (KindState& state : kinds_) {
    state.pending.clear();
    state.counts.assign(bounds_.size() + 1, 0);
    state.stamped = 0;
    state.resolved = 0;
    state.restamped = 0;
    state.cancelled = 0;
    state.sum = 0;
  }
}

std::string LifecycleTracker::ToJson(bool include_layout_dependent) const {
  std::string json = "{\"step\": " + std::to_string(step_) + ", \"bounds\": [";
  for (size_t k = 0; k < bounds_.size(); ++k) {
    if (k > 0) json += ", ";
    json += std::to_string(bounds_[k]);
  }
  json += "], \"kinds\": {";
  bool first = true;
  for (int k = 0; k < kNumKinds; ++k) {
    const auto kind = static_cast<Kind>(k);
    if (KindLayoutDependent(kind) && !include_layout_dependent) continue;
    const KindState& state = kinds_[k];
    if (!first) json += ", ";
    first = false;
    json += '"';
    json += KindName(kind);
    json += "\": {\"stamped\": " + std::to_string(state.stamped) +
            ", \"resolved\": " + std::to_string(state.resolved) +
            ", \"restamped\": " + std::to_string(state.restamped) +
            ", \"cancelled\": " + std::to_string(state.cancelled) +
            ", \"pending\": " + std::to_string(state.pending.size()) +
            ", \"counts\": [";
    for (size_t b = 0; b < state.counts.size(); ++b) {
      if (b > 0) json += ", ";
      json += std::to_string(state.counts[b]);
    }
    json += "], \"sum\": " + std::to_string(state.sum) + '}';
  }
  json += "}}";
  return json;
}

}  // namespace mobieyes::obs

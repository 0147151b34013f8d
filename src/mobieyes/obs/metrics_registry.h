#ifndef MOBIEYES_OBS_METRICS_REGISTRY_H_
#define MOBIEYES_OBS_METRICS_REGISTRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace mobieyes::obs {

// Named instruments for the simulation hot paths. The design splits the two
// concerns that usually make metrics expensive:
//
//  * Updates are plain (non-atomic) writes through a handle resolved once at
//    wiring time. A simulation cell is single-threaded, so the owning thread
//    mutates its registry's instruments without any synchronization.
//  * Registration and snapshotting are mutex-guarded, so a registry can be
//    built from several components and read back after the owning thread
//    quiesced (the parallel sweep reads each cell's registry only after the
//    cell's future resolved, which also publishes the writes).
//
// Instruments flagged `timing` carry wall-clock-derived values (histograms
// of per-step processing time). Deterministic exports (the sweep harness,
// the determinism tests) exclude them so two runs of the same seed produce
// byte-identical output regardless of host speed or thread count.
//
// The registry holds no counters: what crossed the medium is counted once,
// in net::NetworkStats, and the other run totals live in sim::RunMetrics.

// Last-write-wins instantaneous value.
class Gauge {
 public:
  void Set(double value) { value_ = value; }
  double value() const { return value_; }
  void Reset() { value_ = 0.0; }

 private:
  double value_ = 0.0;
};

// Fixed-bucket histogram: `bounds` are inclusive upper bounds of the first
// N buckets; one overflow bucket catches everything above the last bound.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  const std::vector<double>& bounds() const { return bounds_; }
  // counts().size() == bounds().size() + 1 (last entry is the overflow).
  const std::vector<uint64_t>& counts() const { return counts_; }
  void Reset();

 private:
  std::vector<double> bounds_;
  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
  double sum_ = 0.0;
};

// Exponential bucket bounds `base * growth^k` for k in [0, count), e.g.
// ExponentialBounds(10, 4, 6) -> {10, 40, 160, 640, 2560, 10240}.
std::vector<double> ExponentialBounds(double base, double growth, int count);

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Find-or-create by name; returned handles stay valid for the registry's
  // lifetime. `timing` marks wall-clock-derived instruments, excluded from
  // deterministic exports. Re-registering an existing name returns the
  // existing instrument (the first registration's bounds/flag win).
  Gauge* GetGauge(const std::string& name, bool timing = false);
  Histogram* GetHistogram(const std::string& name, std::vector<double> bounds,
                          bool timing = false);

  // Zeroes every instrument (registrations survive; handles stay valid).
  // Used when measurement starts after simulation warmup.
  void Reset();

  // Deterministically ordered (name-sorted) JSON object:
  //   {"gauges": {...}, "histograms": {name:
  //    {"bounds": [...], "counts": [...], "count": n, "sum": s}}}
  // With include_timing=false, timing-flagged instruments are omitted, so
  // the output depends only on the simulation seed.
  std::string ToJson(bool include_timing = true) const;

 private:
  template <typename T>
  struct Entry {
    std::unique_ptr<T> instrument;
    bool timing = false;
  };

  mutable std::mutex mu_;
  std::map<std::string, Entry<Gauge>> gauges_;
  std::map<std::string, Entry<Histogram>> histograms_;
};

}  // namespace mobieyes::obs

#endif  // MOBIEYES_OBS_METRICS_REGISTRY_H_

#include "mobieyes/obs/metrics_registry.h"

#include <algorithm>
#include <cstdio>

namespace mobieyes::obs {

namespace {

// %.17g round-trips doubles exactly, so deterministic inputs produce
// byte-identical JSON across runs; integral values print without exponent.
void AppendDouble(std::string* out, double value) {
  char buffer[32];
  if (value == static_cast<double>(static_cast<int64_t>(value)) &&
      value >= -9.0e15 && value <= 9.0e15) {
    std::snprintf(buffer, sizeof(buffer), "%lld",
                  static_cast<long long>(value));
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  }
  *out += buffer;
}

void AppendKey(std::string* out, const std::string& name) {
  *out += '"';
  for (char c : name) {
    if (c == '"' || c == '\\') *out += '\\';
    *out += c;
  }
  *out += "\": ";
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::Observe(double value) {
  // Bucket = first bound >= value; bounds are few (tens), and the common
  // observations land in the low buckets, so a linear scan beats binary
  // search on branch prediction.
  size_t bucket = 0;
  while (bucket < bounds_.size() && value > bounds_[bucket]) ++bucket;
  ++counts_[bucket];
  ++count_;
  sum_ += value;
}

void Histogram::Reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  count_ = 0;
  sum_ = 0.0;
}

std::vector<double> ExponentialBounds(double base, double growth, int count) {
  std::vector<double> bounds;
  bounds.reserve(static_cast<size_t>(count));
  double bound = base;
  for (int k = 0; k < count; ++k) {
    bounds.push_back(bound);
    bound *= growth;
  }
  return bounds;
}

Gauge* MetricsRegistry::GetGauge(const std::string& name, bool timing) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& entry = gauges_[name];
  if (!entry.instrument) {
    entry.instrument = std::make_unique<Gauge>();
    entry.timing = timing;
  }
  return entry.instrument.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds,
                                         bool timing) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& entry = histograms_[name];
  if (!entry.instrument) {
    entry.instrument = std::make_unique<Histogram>(std::move(bounds));
    entry.timing = timing;
  }
  return entry.instrument.get();
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, entry] : gauges_) entry.instrument->Reset();
  for (auto& [name, entry] : histograms_) entry.instrument->Reset();
}

std::string MetricsRegistry::ToJson(bool include_timing) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string json = "{\"gauges\": {";
  bool first = true;
  for (const auto& [name, entry] : gauges_) {
    if (entry.timing && !include_timing) continue;
    if (!first) json += ", ";
    first = false;
    AppendKey(&json, name);
    AppendDouble(&json, entry.instrument->value());
  }
  json += "}, \"histograms\": {";
  first = true;
  for (const auto& [name, entry] : histograms_) {
    if (entry.timing && !include_timing) continue;
    if (!first) json += ", ";
    first = false;
    AppendKey(&json, name);
    const Histogram& hist = *entry.instrument;
    json += "{\"bounds\": [";
    for (size_t k = 0; k < hist.bounds().size(); ++k) {
      if (k > 0) json += ", ";
      AppendDouble(&json, hist.bounds()[k]);
    }
    json += "], \"counts\": [";
    for (size_t k = 0; k < hist.counts().size(); ++k) {
      if (k > 0) json += ", ";
      json += std::to_string(hist.counts()[k]);
    }
    json += "], \"count\": " + std::to_string(hist.count()) + ", \"sum\": ";
    AppendDouble(&json, hist.sum());
    json += '}';
  }
  json += "}}";
  return json;
}

}  // namespace mobieyes::obs

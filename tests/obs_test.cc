// Unit tests for the observability layer: MetricsRegistry instrument
// semantics, StepSampler striding and ring wraparound, and TraceRecorder
// output. The trace/metrics JSON is validated by parsing it back with a
// minimal recursive-descent JSON parser defined below, so a malformed
// escape or trailing comma fails the test rather than Perfetto.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mobieyes/obs/heatmap.h"
#include "mobieyes/obs/lifecycle.h"
#include "mobieyes/obs/metrics_registry.h"
#include "mobieyes/obs/step_sampler.h"
#include "mobieyes/obs/trace_recorder.h"

namespace mobieyes::obs {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON parser (objects, arrays, strings, numbers, literals). Enough
// to round-trip everything the obs layer emits; strict about syntax.

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind =
      Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  // Returns nullptr (and sets error()) on malformed input or trailing junk.
  std::unique_ptr<JsonValue> Parse() {
    auto value = std::make_unique<JsonValue>();
    if (!ParseValue(value.get())) return nullptr;
    SkipSpace();
    if (pos_ != text_.size()) {
      error_ = "trailing characters at offset " + std::to_string(pos_);
      return nullptr;
    }
    return value;
  }

  const std::string& error() const { return error_; }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Fail(const std::string& what) {
    if (error_.empty()) {
      error_ = what + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ >= text_.size() || text_[pos_] != c) {
      return Fail(std::string("expected '") + c + "'");
    }
    ++pos_;
    return true;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return Fail("unterminated escape");
        char e = text_[pos_++];
        switch (e) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'n': out->push_back('\n'); break;
          case 't': out->push_back('\t'); break;
          case 'r': out->push_back('\r'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return Fail("short \\u escape");
            pos_ += 4;  // decoded value not needed by these tests
            out->push_back('?');
            break;
          }
          default: return Fail("bad escape");
        }
      } else {
        out->push_back(c);
      }
    }
    return Fail("unterminated string");
  }

  bool ParseValue(JsonValue* out) {
    SkipSpace();
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out->kind = JsonValue::Kind::kObject;
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      while (true) {
        std::string key;
        if (!ParseString(&key)) return false;
        if (!Consume(':')) return false;
        JsonValue value;
        if (!ParseValue(&value)) return false;
        out->object.emplace(std::move(key), std::move(value));
        SkipSpace();
        if (pos_ >= text_.size()) return Fail("unterminated object");
        if (text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        return Consume('}');
      }
    }
    if (c == '[') {
      ++pos_;
      out->kind = JsonValue::Kind::kArray;
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      while (true) {
        JsonValue value;
        if (!ParseValue(&value)) return false;
        out->array.push_back(std::move(value));
        SkipSpace();
        if (pos_ >= text_.size()) return Fail("unterminated array");
        if (text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        return Consume(']');
      }
    }
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return ParseString(&out->string);
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = true;
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      out->kind = JsonValue::Kind::kBool;
      pos_ += 5;
      return true;
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return true;
    }
    size_t consumed = 0;
    try {
      out->number = std::stod(text_.substr(pos_), &consumed);
    } catch (...) {
      return Fail("bad value");
    }
    if (consumed == 0) return Fail("bad value");
    out->kind = JsonValue::Kind::kNumber;
    pos_ += consumed;
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
  std::string error_;
};

std::unique_ptr<JsonValue> ParseJsonOrDie(const std::string& text) {
  JsonParser parser(text);
  auto value = parser.Parse();
  EXPECT_NE(value, nullptr) << parser.error() << "\nin: " << text;
  return value;
}

// ---------------------------------------------------------------------------
// MetricsRegistry

TEST(MetricsRegistryTest, GaugeSemantics) {
  MetricsRegistry registry;
  Gauge* gauge = registry.GetGauge("load");
  gauge->Set(1.5);
  gauge->Set(2.5);
  EXPECT_EQ(gauge->value(), 2.5);
  // Find-or-create returns the same instrument.
  EXPECT_EQ(registry.GetGauge("load"), gauge);

  registry.Reset();
  EXPECT_EQ(gauge->value(), 0.0);  // handle survives Reset
}

TEST(MetricsRegistryTest, HistogramBucketsAndOverflow) {
  Histogram histogram({1.0, 10.0, 100.0});
  histogram.Observe(0.5);    // bucket 0 (<= 1)
  histogram.Observe(1.0);    // bucket 0 (bounds are inclusive)
  histogram.Observe(7.0);    // bucket 1
  histogram.Observe(1000.0); // overflow
  ASSERT_EQ(histogram.counts().size(), 4u);
  EXPECT_EQ(histogram.counts()[0], 2u);
  EXPECT_EQ(histogram.counts()[1], 1u);
  EXPECT_EQ(histogram.counts()[2], 0u);
  EXPECT_EQ(histogram.counts()[3], 1u);
  EXPECT_EQ(histogram.count(), 4u);
  EXPECT_EQ(histogram.sum(), 1008.5);
}

TEST(MetricsRegistryTest, ExponentialBoundsGrow) {
  std::vector<double> bounds = ExponentialBounds(10.0, 4.0, 4);
  EXPECT_EQ(bounds, (std::vector<double>{10.0, 40.0, 160.0, 640.0}));
}

TEST(MetricsRegistryTest, JsonIsValidAndFiltersTimingInstruments) {
  MetricsRegistry registry;
  registry.GetGauge("b.gauge")->Set(0.25);
  registry.GetHistogram("c.hist", {1.0, 2.0})->Observe(1.5);
  registry.GetHistogram("d.wall_micros", {10.0}, /*timing=*/true)
      ->Observe(123.0);

  auto full = ParseJsonOrDie(registry.ToJson(/*include_timing=*/true));
  ASSERT_NE(full, nullptr);
  EXPECT_EQ(full->object.at("gauges").object.at("b.gauge").number, 0.25);
  EXPECT_TRUE(full->object.at("histograms").object.contains("d.wall_micros"));
  const JsonValue& hist = full->object.at("histograms").object.at("c.hist");
  EXPECT_EQ(hist.object.at("count").number, 1.0);
  EXPECT_EQ(hist.object.at("counts").array.size(), 3u);  // 2 bounds + overflow

  auto deterministic =
      ParseJsonOrDie(registry.ToJson(/*include_timing=*/false));
  ASSERT_NE(deterministic, nullptr);
  EXPECT_TRUE(deterministic->object.at("histograms").object.contains("c.hist"));
  EXPECT_FALSE(
      deterministic->object.at("histograms").object.contains("d.wall_micros"));
}

// ---------------------------------------------------------------------------
// StepSampler

TEST(StepSamplerTest, StrideSelectsEveryNthStep) {
  StepSampler sampler({{"x"}}, /*stride=*/3, /*capacity=*/16);
  std::vector<int64_t> sampled;
  for (int64_t step = 0; step < 10; ++step) {
    if (sampler.ShouldSample(step)) {
      sampler.Record(step, {static_cast<double>(step)});
      sampled.push_back(step);
    }
  }
  EXPECT_EQ(sampled, (std::vector<int64_t>{0, 3, 6, 9}));
  EXPECT_EQ(sampler.size(), 4u);
  EXPECT_EQ(sampler.total_recorded(), 4u);

  StepSampler off({{"x"}}, /*stride=*/0, /*capacity=*/16);
  for (int64_t step = 0; step < 10; ++step) {
    EXPECT_FALSE(off.ShouldSample(step));
  }
}

TEST(StepSamplerTest, RingKeepsMostRecentWindow) {
  StepSampler sampler({{"x"}}, /*stride=*/1, /*capacity=*/4);
  for (int64_t step = 0; step < 10; ++step) {
    sampler.Record(step, {static_cast<double>(step * step)});
  }
  EXPECT_EQ(sampler.size(), 4u);
  EXPECT_EQ(sampler.total_recorded(), 10u);
  std::vector<StepSampler::Row> rows = sampler.rows();
  ASSERT_EQ(rows.size(), 4u);
  // Oldest surviving row first: steps 6..9.
  for (size_t k = 0; k < rows.size(); ++k) {
    int64_t step = static_cast<int64_t>(6 + k);
    EXPECT_EQ(rows[k].step, step);
    EXPECT_EQ(rows[k].values[0], static_cast<double>(step * step));
  }
}

TEST(StepSamplerTest, JsonSeriesMatchRowsAndFilterTiming) {
  StepSampler sampler({{"det"}, {"wall_us", /*timing=*/true}}, /*stride=*/1,
                      /*capacity=*/8);
  sampler.Record(0, {1.0, 100.0});
  sampler.Record(1, {2.0, 200.0});

  auto full = ParseJsonOrDie(sampler.ToJson(/*include_timing=*/true));
  ASSERT_NE(full, nullptr);
  EXPECT_EQ(full->object.at("total_recorded").number, 2.0);
  EXPECT_EQ(full->object.at("columns").array.size(), 2u);
  EXPECT_EQ(full->object.at("series").object.at("wall_us").array[1].number,
            200.0);

  auto deterministic = ParseJsonOrDie(sampler.ToJson(/*include_timing=*/false));
  ASSERT_NE(deterministic, nullptr);
  EXPECT_EQ(deterministic->object.at("columns").array.size(), 1u);
  EXPECT_FALSE(deterministic->object.at("series").object.contains("wall_us"));
  const JsonValue& det = deterministic->object.at("series").object.at("det");
  ASSERT_EQ(det.array.size(), 2u);
  EXPECT_EQ(det.array[0].number, 1.0);
  EXPECT_EQ(det.array[1].number, 2.0);

  // CSV keeps every column and emits header + one line per row.
  std::string csv = sampler.ToCsv();
  EXPECT_NE(csv.find("step,det,wall_us"), std::string::npos);
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);
}

// ---------------------------------------------------------------------------
// TraceRecorder

TEST(TraceRecorderTest, EmitsValidChromeTraceJson) {
  TraceRecorder recorder;
  {
    TRACE_SPAN(&recorder, "outer");
    TRACE_SPAN(&recorder, "inner");
  }
  recorder.AddComplete("manual", "net", 10, 5);
  ASSERT_EQ(recorder.events().size(), 3u);

  auto trace = ParseJsonOrDie(
      TraceRecorder::ToJson(recorder.events(), {"cell zero"}));
  ASSERT_NE(trace, nullptr);
  const JsonValue& events = trace->object.at("traceEvents");
  ASSERT_EQ(events.kind, JsonValue::Kind::kArray);
  // 3 spans + 1 process_name metadata event for pid 0.
  ASSERT_EQ(events.array.size(), 4u);
  bool saw_metadata = false;
  for (const JsonValue& event : events.array) {
    const std::string& ph = event.object.at("ph").string;
    if (ph == "M") {
      saw_metadata = true;
      EXPECT_EQ(event.object.at("name").string, "process_name");
      EXPECT_EQ(event.object.at("args").object.at("name").string, "cell zero");
      continue;
    }
    EXPECT_EQ(ph, "X");
    EXPECT_TRUE(event.object.contains("ts"));
    EXPECT_TRUE(event.object.contains("dur"));
    EXPECT_TRUE(event.object.contains("pid"));
    EXPECT_TRUE(event.object.contains("tid"));
  }
  EXPECT_TRUE(saw_metadata);
  // Metadata first, then spans in completion order: the inner span closed
  // before the outer one, so it was recorded first.
  EXPECT_EQ(events.array[1].object.at("name").string, "inner");
  EXPECT_EQ(events.array[2].object.at("name").string, "outer");
  EXPECT_LE(events.array[1].object.at("ts").number +
                events.array[1].object.at("dur").number,
            events.array[2].object.at("ts").number +
                events.array[2].object.at("dur").number + 1);
}

TEST(TraceRecorderTest, NullRecorderIsNoOpAndSetPidRestamps) {
  { TRACE_SPAN(static_cast<TraceRecorder*>(nullptr), "ignored"); }

  TraceRecorder recorder;
  recorder.AddComplete("before", "sim", 0, 1);
  recorder.SetPid(7);
  recorder.AddComplete("after", "sim", 2, 1);
  ASSERT_EQ(recorder.events().size(), 2u);
  EXPECT_EQ(recorder.events()[0].pid, 7);  // restamped retroactively
  EXPECT_EQ(recorder.events()[1].pid, 7);

  std::vector<TraceEvent> taken = recorder.TakeEvents();
  EXPECT_EQ(taken.size(), 2u);
  EXPECT_TRUE(recorder.events().empty());
}

// ---------------------------------------------------------------------------
// HeatMap

TEST(HeatMapTest, RollWindowFoldsIntoTotalsAndDecayedView) {
  HeatMap map(2, 2);
  map.Add(HeatMap::kResidency, 0, 0, 8);
  map.RollWindow(0.5);
  EXPECT_EQ(map.rolls(), 1u);
  EXPECT_EQ(map.window(HeatMap::kResidency, 0, 0), 0u);  // window cleared
  EXPECT_EQ(map.total(HeatMap::kResidency, 0, 0), 8u);
  EXPECT_EQ(map.decayed(HeatMap::kResidency, 0, 0), 8.0);

  map.Add(HeatMap::kResidency, 0, 0, 2);
  map.RollWindow(0.5);
  EXPECT_EQ(map.total(HeatMap::kResidency, 0, 0), 10u);
  EXPECT_EQ(map.decayed(HeatMap::kResidency, 0, 0), 8.0 * 0.5 + 2.0);

  map.Reset();
  EXPECT_EQ(map.rolls(), 0u);
  EXPECT_EQ(map.total(HeatMap::kResidency, 0, 0), 0u);
  EXPECT_EQ(map.decayed(HeatMap::kResidency, 0, 0), 0.0);
}

TEST(HeatMapTest, JsonListsEveryChannelRowMajor) {
  HeatMap map(2, 3);
  map.Add(HeatMap::kUplinks, 1, 0, 4);

  auto json = ParseJsonOrDie(map.ToJson());
  ASSERT_NE(json, nullptr);
  EXPECT_EQ(json->object.at("rows").number, 2.0);
  EXPECT_EQ(json->object.at("cols").number, 3.0);
  const JsonValue& channels = json->object.at("channels");
  EXPECT_EQ(channels.object.size(), static_cast<size_t>(HeatMap::kNumChannels));
  for (const char* name : {"uplinks", "rqi_scan", "installs", "residency"}) {
    EXPECT_TRUE(channels.object.contains(name)) << name;
  }
  const JsonValue& uplinks = channels.object.at("uplinks");
  ASSERT_EQ(uplinks.object.at("window").array.size(), 6u);
  EXPECT_EQ(uplinks.object.at("window").array[1].number, 4.0);  // flat 0*3+1
}

TEST(HeatMapTest, AsciiAndCsvRenderNonEmptyCells) {
  HeatMap map(2, 2);
  map.Add(HeatMap::kInstalls, 0, 0, 9);
  map.Add(HeatMap::kInstalls, 1, 1, 1);
  std::string ascii = map.ToAscii(HeatMap::kInstalls);
  EXPECT_EQ(ascii[0], '9');  // brightest cell
  EXPECT_NE(ascii.find('.'), std::string::npos);  // empty cells

  std::string csv = map.ToCsv();
  EXPECT_NE(csv.find("installs,0,0,0,9,0"), std::string::npos);
  EXPECT_NE(csv.find("installs,1,1,0,1,0"), std::string::npos);
  // Empty cells are omitted: header + 2 data lines.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);
}

// ---------------------------------------------------------------------------
// LifecycleTracker

TEST(LifecycleTrackerTest, StampResolveRecordsStepLatency) {
  LifecycleTracker tracker;
  tracker.set_step(2);
  tracker.Stamp(LifecycleTracker::kUplinkAck, 42);
  tracker.set_step(5);
  EXPECT_TRUE(tracker.ResolveIfPending(LifecycleTracker::kUplinkAck, 42));
  EXPECT_EQ(tracker.resolved(LifecycleTracker::kUplinkAck), 1u);
  EXPECT_EQ(tracker.latency_sum(LifecycleTracker::kUplinkAck), 3u);
  EXPECT_EQ(tracker.pending(LifecycleTracker::kUplinkAck), 0u);
  // Bucket for latency 3 with bounds {0,1,2,4,...}: first bound >= 3.
  ASSERT_EQ(tracker.counts(LifecycleTracker::kUplinkAck).size(),
            tracker.bounds().size() + 1);
  uint64_t recorded = 0;
  for (uint64_t c : tracker.counts(LifecycleTracker::kUplinkAck)) {
    recorded += c;
  }
  EXPECT_EQ(recorded, 1u);
}

TEST(LifecycleTrackerTest, DuplicateResolveIsNoOp) {
  LifecycleTracker tracker;
  tracker.Stamp(LifecycleTracker::kUplinkAck, 7);
  EXPECT_TRUE(tracker.ResolveIfPending(LifecycleTracker::kUplinkAck, 7));
  // A retransmitted terminal event finds no pending stamp.
  EXPECT_FALSE(tracker.ResolveIfPending(LifecycleTracker::kUplinkAck, 7));
  EXPECT_EQ(tracker.resolved(LifecycleTracker::kUplinkAck), 1u);
}

TEST(LifecycleTrackerTest, RestampKeepsOriginalStamp) {
  LifecycleTracker tracker;
  tracker.set_step(1);
  tracker.Stamp(LifecycleTracker::kUplinkAck, 9);
  tracker.set_step(3);
  tracker.Stamp(LifecycleTracker::kUplinkAck, 9);  // retry, same round
  EXPECT_EQ(tracker.restamped(LifecycleTracker::kUplinkAck), 1u);
  tracker.set_step(4);
  EXPECT_TRUE(tracker.ResolveIfPending(LifecycleTracker::kUplinkAck, 9));
  // Latency measured from the original stamp, not the retry.
  EXPECT_EQ(tracker.latency_sum(LifecycleTracker::kUplinkAck), 3u);
}

TEST(LifecycleTrackerTest, DropCancelsWithoutRecording) {
  LifecycleTracker tracker;
  tracker.Stamp(LifecycleTracker::kInstallFirstResult, 5);
  tracker.Drop(LifecycleTracker::kInstallFirstResult, 5);
  EXPECT_EQ(tracker.cancelled(LifecycleTracker::kInstallFirstResult), 1u);
  EXPECT_FALSE(
      tracker.ResolveIfPending(LifecycleTracker::kInstallFirstResult, 5));
  EXPECT_EQ(tracker.resolved(LifecycleTracker::kInstallFirstResult), 0u);
  EXPECT_EQ(tracker.pending(LifecycleTracker::kInstallFirstResult), 0u);
  // Dropping an absent key counts nothing.
  tracker.Drop(LifecycleTracker::kInstallFirstResult, 6);
  EXPECT_EQ(tracker.cancelled(LifecycleTracker::kInstallFirstResult), 1u);
}

TEST(LifecycleTrackerTest, JsonCountsPendingAndFiltersLayoutDependent) {
  LifecycleTracker tracker;
  tracker.set_step(1);
  tracker.Stamp(LifecycleTracker::kUplinkAck, 1);  // left pending
  tracker.Stamp(LifecycleTracker::kBackplaneRpc, 2);
  tracker.ResolveIfPending(LifecycleTracker::kBackplaneRpc, 2);

  auto full = ParseJsonOrDie(tracker.ToJson(/*include_layout_dependent=*/true));
  ASSERT_NE(full, nullptr);
  const JsonValue& kinds = full->object.at("kinds");
  EXPECT_EQ(kinds.object.at("uplink_ack").object.at("pending").number, 1.0);
  EXPECT_TRUE(kinds.object.contains("backplane_rpc"));

  auto det = ParseJsonOrDie(tracker.ToJson(/*include_layout_dependent=*/false));
  ASSERT_NE(det, nullptr);
  EXPECT_FALSE(det->object.at("kinds").object.contains("backplane_rpc"));
  EXPECT_TRUE(det->object.at("kinds").object.contains("uplink_ack"));

  tracker.Reset();
  EXPECT_EQ(tracker.pending(LifecycleTracker::kUplinkAck), 0u);
  EXPECT_EQ(tracker.resolved(LifecycleTracker::kBackplaneRpc), 0u);
}

}  // namespace
}  // namespace mobieyes::obs

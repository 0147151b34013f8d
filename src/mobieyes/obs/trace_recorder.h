#ifndef MOBIEYES_OBS_TRACE_RECORDER_H_
#define MOBIEYES_OBS_TRACE_RECORDER_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace mobieyes::obs {

// One complete ("ph":"X") event in the Chrome trace-event format. `name`
// and `cat` must point at storage outliving the recorder — in practice
// string literals, which is what the TRACE_SPAN macro produces. Events are
// grouped by (pid, tid) tracks in the viewer; the sweep harness assigns one
// pid per sweep cell so a whole sweep loads as one multi-process trace.
struct TraceEvent {
  const char* name = "";
  const char* cat = "sim";
  uint64_t ts_us = 0;   // microseconds since the recorder's epoch
  uint64_t dur_us = 0;  // span duration in microseconds
  int32_t pid = 0;
  int32_t tid = 0;
};

// Collects scoped-span events for chrome://tracing / Perfetto. The recorder
// is thread-confined like the rest of a simulation cell: spans are appended
// by the owning thread with no synchronization, and the buffer is read back
// after the cell finished. Instrumented code holds a TraceRecorder* that is
// null when tracing is off, so the disabled cost of a TRACE_SPAN is one
// pointer test per scope.
class TraceRecorder {
 public:
  TraceRecorder() : epoch_(Clock::now()) { events_.reserve(4096); }

  uint64_t NowMicros() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                              epoch_)
            .count());
  }

  void AddComplete(const char* name, const char* cat, uint64_t ts_us,
                   uint64_t dur_us) {
    events_.push_back(TraceEvent{name, cat, ts_us, dur_us, pid_, 0});
  }

  const std::vector<TraceEvent>& events() const { return events_; }
  std::vector<TraceEvent> TakeEvents();
  void Clear() { events_.clear(); }

  // Process id stamped on subsequent events (sweep cells use their job
  // index); also retroactively restamps already-recorded events so a cell
  // can be tagged after it ran.
  void SetPid(int32_t pid);

  // {"traceEvents": [...], "displayTimeUnit": "ms"} — the JSON object form
  // of the trace-event format, loadable by Perfetto and chrome://tracing.
  // `process_names` (optional, indexed by pid) adds process_name metadata
  // events so the viewer labels each cell's track.
  static std::string ToJson(const std::vector<TraceEvent>& events,
                            const std::vector<std::string>& process_names = {});
  std::string ToJson() const { return ToJson(events_); }

  // Writes ToJson to `path`; returns false on I/O failure.
  static bool WriteFile(const std::string& path,
                        const std::vector<TraceEvent>& events,
                        const std::vector<std::string>& process_names = {});

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point epoch_;
  std::vector<TraceEvent> events_;
  int32_t pid_ = 0;
};

// RAII span: records a complete event covering its scope. A null recorder
// makes construction and destruction no-ops (the runtime-disabled path).
class TraceSpan {
 public:
  TraceSpan(TraceRecorder* recorder, const char* name, const char* cat = "sim")
      : recorder_(recorder), name_(name), cat_(cat) {
    if (recorder_ != nullptr) start_us_ = recorder_->NowMicros();
  }
  ~TraceSpan() {
    if (recorder_ != nullptr) {
      recorder_->AddComplete(name_, cat_, start_us_,
                             recorder_->NowMicros() - start_us_);
    }
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  TraceRecorder* recorder_;
  const char* name_;
  const char* cat_;
  uint64_t start_us_ = 0;
};

// Scoped span over the rest of the enclosing block:
//   TRACE_SPAN(trace_, "server.handle_cell_change");
// `recorder` is a TraceRecorder* that may be null (disabled).
#define MOBIEYES_TRACE_CONCAT_INNER(a, b) a##b
#define MOBIEYES_TRACE_CONCAT(a, b) MOBIEYES_TRACE_CONCAT_INNER(a, b)
#define TRACE_SPAN(recorder, name)                                    \
  ::mobieyes::obs::TraceSpan MOBIEYES_TRACE_CONCAT(trace_span_,       \
                                                   __LINE__)(recorder, name)

}  // namespace mobieyes::obs

#endif  // MOBIEYES_OBS_TRACE_RECORDER_H_

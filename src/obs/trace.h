#ifndef OPENIMA_OBS_TRACE_H_
#define OPENIMA_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/obs_config.h"
#include "src/util/status.h"

namespace openima::obs {

#if OPENIMA_OBS_ENABLED

/// RAII phase span. Spans nest per thread (a thread-local stack), forming
/// slash-joined paths like "epoch/pseudo_label_refresh/kmeans/lloyd".
/// Closing a span does two things:
///
///  1. Always: records the duration (nanoseconds) into the global
///     MetricsRegistry histogram "time/<path>" — the data behind
///     PhaseBreakdown() and RunReport phase tables.
///  2. When tracing is active (StartTracing / OPENIMA_TRACE): appends a
///     chrome://tracing complete event to the thread's trace buffer.
///
/// `name` must outlive the span (string literals in practice). Spans cost
/// two clock reads plus one histogram lookup at close — they belong around
/// epochs, refreshes and clustering calls, not inner loops.
class Phase {
 public:
  explicit Phase(const char* name);
  ~Phase();

  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

 private:
  const char* name_;
  int64_t start_ns_;
};

/// RAII root span for one serving request. Every request records its
/// latency (nanoseconds) into the windowed global histogram `latency_name`
/// (kDefaultWindowTicks ticks), so live p50/p99 cover recent traffic. While
/// tracing is active, every Nth request is also *sampled*
/// (SetTraceSamplePeriod / OPENIMA_TRACE_SAMPLE): the span opens like a
/// Phase, so the request's inner phases (serve_sample/gather/forward/
/// distance) nest under it in the chrome trace, and SetMeta key/values ride
/// along in the root event's args. The other N-1 requests are *suppressed*:
/// their phase spans still feed the "time/..." histograms (metrics stay
/// complete) but emit no trace events, which is what keeps full-fidelity
/// tracing affordable under production request rates.
class RequestTrace {
 public:
  RequestTrace(const char* name, const char* latency_name);
  ~RequestTrace();

  RequestTrace(const RequestTrace&) = delete;
  RequestTrace& operator=(const RequestTrace&) = delete;

  /// Attaches request metadata (batch size, tag, novel count, ...) to the
  /// root trace event. No-op on unsampled requests.
  void SetMeta(const char* key, const std::string& value);
  void SetMeta(const char* key, int64_t value);

  bool sampled() const { return sampled_; }

 private:
  const char* name_;
  const char* latency_name_;
  int64_t start_ns_;
  bool active_ = false;    ///< tracing was on when the request began
  bool sampled_ = false;
  bool prev_suppress_ = false;
  std::vector<std::pair<std::string, std::string>> meta_;
};

#else  // !OPENIMA_OBS_ENABLED

class Phase {
 public:
  explicit Phase(const char*) {}
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;
};

class RequestTrace {
 public:
  RequestTrace(const char*, const char*) {}
  RequestTrace(const RequestTrace&) = delete;
  RequestTrace& operator=(const RequestTrace&) = delete;
  void SetMeta(const char*, const std::string&) {}
  void SetMeta(const char*, int64_t) {}
  bool sampled() const { return false; }
};

#endif  // OPENIMA_OBS_ENABLED

/// 1-in-N sampling period for RequestTrace (1 = every request, the
/// default). Values < 1 clamp to 1. Set from OPENIMA_TRACE_SAMPLE by
/// InitFromEnv() or from --trace-sample in openima_serve.
void SetTraceSamplePeriod(int64_t period);
int64_t TraceSamplePeriod();

/// Begins collecting trace events; they are written to `path` (chrome trace
/// JSON) by StopTracing, or at process exit by the hook the first call
/// installs — so `--trace=PATH` and OPENIMA_TRACE share one flush path.
/// Returns FailedPrecondition when tracing is already active, or when the
/// layer is compiled out (OPENIMA_OBS=OFF).
Status StartTracing(const std::string& path);

/// True between StartTracing and StopTracing (always false when compiled
/// out).
bool TracingActive();

/// Stops collection and writes the accumulated events as a chrome
/// trace-event JSON document ({"traceEvents": [...]} — loadable in
/// about:tracing and Perfetto). No-op OK when tracing was never started.
Status StopTracing();

/// Reads OPENIMA_TRACE; when set and non-empty, starts tracing to that path
/// (written at process exit, see StartTracing). Also applies the other obs
/// env knobs: telemetry, watchdog, OPENIMA_ROLLING_WALL_MS, the exporter and
/// OPENIMA_TRACE_SAMPLE. Binaries call this once at the top of main() — it
/// is what makes `OPENIMA_TRACE=run.json ./quickstart` work. Safe to call
/// repeatedly.
void InitFromEnv();

/// Plain-text table of every "time/<path>" histogram in the global
/// registry: path, calls, total ms, mean ms — the human-readable
/// counterpart of the trace file. Empty string when nothing was timed.
std::string PhaseBreakdown();

/// Drops recorded trace events without writing (test isolation). Phase
/// histograms live in the MetricsRegistry and are reset there.
void ResetTraceForTest();

}  // namespace openima::obs

#endif  // OPENIMA_OBS_TRACE_H_

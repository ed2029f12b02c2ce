#include "src/obs/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <vector>

#include "src/obs/exporter.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/telemetry.h"
#include "src/obs/watchdog.h"
#include "src/util/flags.h"
#include "src/util/string_util.h"

namespace openima::obs {

#if OPENIMA_OBS_ENABLED

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One completed span, recorded per thread while tracing is active.
struct TraceEvent {
  std::string path;   ///< slash-joined nesting path
  int64_t start_ns;   ///< absolute steady-clock time
  int64_t dur_ns;
  int tid;
  /// Extra args (request metadata) — only RequestTrace roots set these.
  std::vector<std::pair<std::string, std::string>> meta;
};

/// Request-trace sampling state (see RequestTrace): a process-wide request
/// counter picks every `period`-th request for full tracing.
std::atomic<int64_t> g_trace_sample_period{1};
std::atomic<int64_t> g_trace_request_counter{0};

/// Global trace state. Event buffers are thread-local (lock-free appends);
/// each thread's buffer is spliced into `events` under the mutex when the
/// thread exits or when StopTracing drains the registered buffers.
struct Tracer {
  std::atomic<bool> active{false};
  std::mutex mu;
  std::string path;
  int64_t start_ns = 0;
  std::vector<TraceEvent> events;                    // drained buffers
  std::vector<std::vector<TraceEvent>*> thread_bufs; // live buffers
};

Tracer* GlobalTracer() {
  static Tracer* tracer = new Tracer();  // never freed
  return tracer;
}

/// Thread-local span stack + trace buffer. The buffer registers itself with
/// the tracer on first use and hands its events back on thread exit.
struct ThreadTraceState {
  std::vector<const char*> stack;
  std::vector<TraceEvent> buffer;
  bool registered = false;
  /// True inside an unsampled RequestTrace: phase histograms still record,
  /// trace events are dropped.
  bool suppress = false;
  int tid;

  ThreadTraceState() {
    static std::atomic<int> next_tid{0};
    tid = next_tid.fetch_add(1, std::memory_order_relaxed);
  }

  ~ThreadTraceState() {
    Tracer* tracer = GlobalTracer();
    std::lock_guard<std::mutex> lock(tracer->mu);
    for (auto& e : buffer) tracer->events.push_back(std::move(e));
    for (auto it = tracer->thread_bufs.begin();
         it != tracer->thread_bufs.end(); ++it) {
      if (*it == &buffer) {
        tracer->thread_bufs.erase(it);
        break;
      }
    }
  }
};

ThreadTraceState& ThreadState() {
  thread_local ThreadTraceState state;
  return state;
}

std::string JoinedPath(const std::vector<const char*>& stack) {
  std::string path;
  for (size_t i = 0; i < stack.size(); ++i) {
    if (i > 0) path += '/';
    path += stack[i];
  }
  return path;
}

void RecordEvent(std::string path, int64_t start_ns, int64_t dur_ns,
                 std::vector<std::pair<std::string, std::string>> meta = {}) {
  ThreadTraceState& state = ThreadState();
  Tracer* tracer = GlobalTracer();
  if (!state.registered) {
    std::lock_guard<std::mutex> lock(tracer->mu);
    tracer->thread_bufs.push_back(&state.buffer);
    state.registered = true;
  }
  state.buffer.push_back(TraceEvent{std::move(path), start_ns, dur_ns,
                                    state.tid, std::move(meta)});
}

void AtExitFlush() {
  Status s = StopTracing();
  if (!s.ok()) {
    std::fprintf(stderr, "trace flush failed: %s\n", s.ToString().c_str());
  }
}

}  // namespace

Phase::Phase(const char* name) : name_(name), start_ns_(NowNs()) {
  ThreadState().stack.push_back(name);
}

Phase::~Phase() {
  const int64_t end_ns = NowNs();
  ThreadTraceState& state = ThreadState();
  std::string path = JoinedPath(state.stack);
  state.stack.pop_back();
  // Phase histogram: always on while compiled in (epoch-granular cost).
  static_cast<void>(name_);
  MetricsRegistry::Global()
      ->histogram("time/" + path)
      ->Record(end_ns - start_ns_);
  Tracer* tracer = GlobalTracer();
  if (tracer->active.load(std::memory_order_relaxed) && !state.suppress &&
      start_ns_ >= tracer->start_ns) {
    RecordEvent(std::move(path), start_ns_, end_ns - start_ns_);
  }
}

RequestTrace::RequestTrace(const char* name, const char* latency_name)
    : name_(name), latency_name_(latency_name), start_ns_(NowNs()) {
  active_ = TracingActive();
  if (!active_) return;
  const int64_t period = g_trace_sample_period.load(std::memory_order_relaxed);
  const int64_t r =
      g_trace_request_counter.fetch_add(1, std::memory_order_relaxed);
  sampled_ = (r % period == 0);
  ThreadTraceState& state = ThreadState();
  if (sampled_) {
    state.stack.push_back(name_);
  } else {
    prev_suppress_ = state.suppress;
    state.suppress = true;
  }
}

RequestTrace::~RequestTrace() {
  const int64_t end_ns = NowNs();
  MetricsRegistry::Global()
      ->histogram(latency_name_, kDefaultWindowTicks)
      ->Record(end_ns - start_ns_);
  if (!active_) return;
  ThreadTraceState& state = ThreadState();
  if (!sampled_) {
    state.suppress = prev_suppress_;
    return;
  }
  std::string path = JoinedPath(state.stack);
  state.stack.pop_back();
  Tracer* tracer = GlobalTracer();
  if (tracer->active.load(std::memory_order_relaxed) &&
      start_ns_ >= tracer->start_ns) {
    RecordEvent(std::move(path), start_ns_, end_ns - start_ns_,
                std::move(meta_));
  }
}

void RequestTrace::SetMeta(const char* key, const std::string& value) {
  if (!sampled_) return;
  meta_.emplace_back(key, value);
}

void RequestTrace::SetMeta(const char* key, int64_t value) {
  if (!sampled_) return;
  meta_.emplace_back(key, std::to_string(value));
}

void SetTraceSamplePeriod(int64_t period) {
  g_trace_sample_period.store(period < 1 ? 1 : period,
                              std::memory_order_relaxed);
}

int64_t TraceSamplePeriod() {
  return g_trace_sample_period.load(std::memory_order_relaxed);
}

Status StartTracing(const std::string& path) {
  if (path.empty()) {
    return Status::InvalidArgument("trace path must not be empty");
  }
  Tracer* tracer = GlobalTracer();
  std::lock_guard<std::mutex> lock(tracer->mu);
  if (tracer->active.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition("tracing already active");
  }
  tracer->path = path;
  tracer->start_ns = NowNs();
  tracer->events.clear();
  tracer->active.store(true, std::memory_order_relaxed);
  static const bool flush_registered = std::atexit(AtExitFlush) == 0;
  static_cast<void>(flush_registered);
  return Status::OK();
}

bool TracingActive() {
  return GlobalTracer()->active.load(std::memory_order_relaxed);
}

Status StopTracing() {
  Tracer* tracer = GlobalTracer();
  std::lock_guard<std::mutex> lock(tracer->mu);
  if (!tracer->active.load(std::memory_order_relaxed)) return Status::OK();
  tracer->active.store(false, std::memory_order_relaxed);
  // Drain buffers of still-live threads (the main thread in particular).
  for (auto* buf : tracer->thread_bufs) {
    for (auto& e : *buf) tracer->events.push_back(std::move(e));
    buf->clear();
  }
  // Stable order: chrome://tracing sorts internally, but a deterministic
  // file (given deterministic span timings-independent ordering) diffs
  // better — sort by (tid, start, longer-first) so parents precede children.
  std::sort(tracer->events.begin(), tracer->events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.dur_ns > b.dur_ns;
            });
  json::Value events = json::Value::Array();
  for (const TraceEvent& e : tracer->events) {
    json::Value ev = json::Value::Object();
    // The span name shown in the viewer is the leaf; the full nesting path
    // rides along in args (nesting itself is conveyed by ts/dur containment).
    const size_t slash = e.path.rfind('/');
    ev.Set("name", json::Value::Str(slash == std::string::npos
                                        ? e.path
                                        : e.path.substr(slash + 1)));
    ev.Set("cat", json::Value::Str("openima"));
    ev.Set("ph", json::Value::Str("X"));
    ev.Set("ts", json::Value::Double(
                     static_cast<double>(e.start_ns - tracer->start_ns) /
                     1e3));
    ev.Set("dur", json::Value::Double(static_cast<double>(e.dur_ns) / 1e3));
    ev.Set("pid", json::Value::Int(0));
    ev.Set("tid", json::Value::Int(e.tid));
    json::Value args = json::Value::Object();
    args.Set("path", json::Value::Str(e.path));
    for (const auto& [key, value] : e.meta) {
      args.Set(key, json::Value::Str(value));
    }
    ev.Set("args", std::move(args));
    events.Append(std::move(ev));
  }
  json::Value doc = json::Value::Object();
  doc.Set("traceEvents", std::move(events));
  doc.Set("displayTimeUnit", json::Value::Str("ms"));
  tracer->events.clear();
  return WriteTextFile(tracer->path, doc.Dump(1));
}

void InitFromEnv() {
  static bool initialized = false;
  if (initialized) return;
  initialized = true;
  // Sibling env hookups ride along so one InitFromEnv() call in main()
  // covers the whole observability layer.
  InitTelemetryFromEnv();
  InitWatchdogFromEnv();
  if (int64_t ms = 0; ReadEnvKnob<int64_t>("OPENIMA_ROLLING_WALL_MS", 1,
                                           INT_MAX, &ms)) {
    RollingClock::EnableWallClock(ms);
  }
  InitExporterFromEnv();
  if (int64_t period = 1;
      ReadEnvKnob<int64_t>("OPENIMA_TRACE_SAMPLE", 1, INT_MAX, &period)) {
    SetTraceSamplePeriod(period);
  }
  const char* path = std::getenv("OPENIMA_TRACE");
  if (path == nullptr || path[0] == '\0') return;
  if (Status s = StartTracing(path); !s.ok()) {
    std::fprintf(stderr, "OPENIMA_TRACE: %s\n", s.ToString().c_str());
  }
}

std::string PhaseBreakdown() {
  const MetricsSnapshot snap = MetricsRegistry::Global()->Snapshot();
  std::string out;
  for (const auto& [name, h] : snap.histograms) {
    if (name.rfind("time/", 0) != 0 || h.count == 0) continue;
    if (out.empty()) {
      out += StrFormat("%-56s %10s %12s %12s\n", "phase", "calls",
                       "total ms", "mean ms");
    }
    const std::string path = name.substr(5);
    out += StrFormat("%-56s %10lld %12.3f %12.3f\n", path.c_str(),
                     static_cast<long long>(h.count),
                     static_cast<double>(h.sum) / 1e6, h.Mean() / 1e6);
  }
  return out;
}

void ResetTraceForTest() {
  Tracer* tracer = GlobalTracer();
  std::lock_guard<std::mutex> lock(tracer->mu);
  tracer->active.store(false, std::memory_order_relaxed);
  for (auto* buf : tracer->thread_bufs) buf->clear();
  tracer->events.clear();
  g_trace_request_counter.store(0, std::memory_order_relaxed);
  ThreadState().suppress = false;
}

#else  // !OPENIMA_OBS_ENABLED

Status StartTracing(const std::string&) {
  return Status::FailedPrecondition(
      "observability compiled out (OPENIMA_OBS=OFF)");
}

bool TracingActive() { return false; }

Status StopTracing() { return Status::OK(); }

void SetTraceSamplePeriod(int64_t) {}

int64_t TraceSamplePeriod() { return 1; }

void InitFromEnv() {}

std::string PhaseBreakdown() { return std::string(); }

void ResetTraceForTest() {}

#endif  // OPENIMA_OBS_ENABLED

}  // namespace openima::obs

#ifndef OPENIMA_OBS_OBS_H_
#define OPENIMA_OBS_OBS_H_

/// Umbrella header for the observability layer (DESIGN.md §2.4):
///
///  - MetricsRegistry: the one metric model — named counters/gauges/
///    histograms with lock-free striped updates and a deterministic merged
///    snapshot; a counter or histogram created with a window also keeps a
///    ring over the last N RollingClock ticks (metrics.h).
///  - Phase: RAII spans that nest into a phase tree, feed "time/<path>"
///    histograms, and emit chrome://tracing JSON when OPENIMA_TRACE /
///    --trace is set (trace.h).
///  - RunReport: the unified JSON record of a run (report.h).
///  - TelemetryLog / EpochRecord: per-epoch training time-series written as
///    JSONL when OPENIMA_TELEMETRY / --telemetry is set (telemetry.h).
///  - Watchdog: NaN/Inf + norm-explosion scans over gradients and Adam
///    updates with record/warn/abort policies (watchdog.h).
///  - run_diff: tolerance-ruled diff/validation of run artifacts backing
///    the tools/run_diff regression gate (run_diff.h).
///  - MetricsExporter: periodic Prometheus + JSON exposition snapshots via
///    atomic rename, OPENIMA_METRICS_EXPORT / --metrics-export (exporter.h).
///  - RequestTrace: the serve request's root span — windowed latency for
///    every request, 1-in-N sampled trace events with metadata,
///    OPENIMA_TRACE_SAMPLE (trace.h).
///  - DriftMonitor: online novel-fraction / entropy / distance drift alerts
///    on the serve path, OPENIMA_DRIFT (drift.h).
///
/// Instrument code with the macros below — they compile to nothing under
/// -DOPENIMA_OBS=OFF, which is the zero-overhead guarantee the BM_TrainEpoch
/// comparison holds the layer to.

#include "src/obs/drift.h"
#include "src/obs/exporter.h"
#include "src/obs/metrics.h"
#include "src/obs/obs_config.h"
#include "src/obs/report.h"
#include "src/obs/run_diff.h"
#include "src/obs/telemetry.h"
#include "src/obs/trace.h"
#include "src/obs/watchdog.h"

#if OPENIMA_OBS_ENABLED

#define OPENIMA_OBS_CONCAT_INNER(a, b) a##b
#define OPENIMA_OBS_CONCAT(a, b) OPENIMA_OBS_CONCAT_INNER(a, b)

/// Opens a phase span for the rest of the enclosing scope. `name` must be a
/// string literal (it becomes a path segment: no slashes).
#define OPENIMA_OBS_PHASE(name)                                        \
  ::openima::obs::Phase OPENIMA_OBS_CONCAT(openima_obs_phase_,         \
                                           __COUNTER__)(name)

/// Adds `delta` to the named counter. The registry lookup happens once per
/// call site (function-local static); the update itself is lock-free.
#define OPENIMA_OBS_COUNT(name, delta)                                  \
  do {                                                                  \
    static ::openima::obs::Counter* openima_obs_counter =               \
        ::openima::obs::MetricsRegistry::Global()->counter(name);       \
    openima_obs_counter->Add(delta);                                    \
  } while (0)

/// Sets the named gauge (last write wins).
#define OPENIMA_OBS_GAUGE(name, value)                                  \
  do {                                                                  \
    static ::openima::obs::Gauge* openima_obs_gauge =                   \
        ::openima::obs::MetricsRegistry::Global()->gauge(name);         \
    openima_obs_gauge->Set(static_cast<double>(value));                 \
  } while (0)

/// Adds `delta` to the named windowed counter: its cumulative total and
/// its window over the last kDefaultWindowTicks RollingClock ticks (the
/// windowed rate live dashboards show). A name takes one of the two COUNT
/// macros, never both: the registry CHECK-fails on a second window for a
/// name.
#define OPENIMA_OBS_WINDOWED_COUNT(name, delta)                         \
  do {                                                                  \
    static ::openima::obs::Counter* openima_obs_wcounter =              \
        ::openima::obs::MetricsRegistry::Global()->counter(             \
            name, ::openima::obs::kDefaultWindowTicks);                 \
    openima_obs_wcounter->Add(static_cast<int64_t>(delta));             \
  } while (0)

/// Advances the RollingClock by one tick. The serve path ticks once per
/// request, the trainer once per epoch; under the wall-clock opt-in
/// (OPENIMA_ROLLING_WALL_MS) this is a no-op.
#define OPENIMA_OBS_TICK() ::openima::obs::RollingClock::Tick()

#else  // !OPENIMA_OBS_ENABLED

// The argument expressions are swallowed unevaluated ((void)sizeof keeps
// variables "used" for -Wunused without generating any code).
#define OPENIMA_OBS_PHASE(name) \
  do {                          \
  } while (0)
#define OPENIMA_OBS_COUNT(name, delta)  \
  do {                                  \
    (void)sizeof(delta);                \
  } while (0)
#define OPENIMA_OBS_GAUGE(name, value)  \
  do {                                  \
    (void)sizeof(value);                \
  } while (0)
#define OPENIMA_OBS_WINDOWED_COUNT(name, delta) \
  do {                                          \
    (void)sizeof(delta);                        \
  } while (0)
#define OPENIMA_OBS_TICK() \
  do {                     \
  } while (0)

#endif  // OPENIMA_OBS_ENABLED

#endif  // OPENIMA_OBS_OBS_H_

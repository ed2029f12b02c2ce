#ifndef OPENIMA_OBS_EXPORTER_H_
#define OPENIMA_OBS_EXPORTER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/obs_config.h"
#include "src/util/status.h"

namespace openima::obs {

/// Configuration for a MetricsExporter. `path` receives the ordered-JSON
/// snapshot ("openima-metrics-snapshot" schema, EXPERIMENTS.md); the
/// Prometheus text-exposition twin is written next to it at `path` + ".prom".
/// The registry defaults to the process-global one; tests point it at a
/// local instance for isolation.
struct ExporterOptions {
  std::string path;
  int interval_ms = 1000;
  MetricsRegistry* registry = nullptr;   ///< nullptr: MetricsRegistry::Global()
};

/// Background thread that periodically serializes the metrics registry,
/// cumulative and windowed views alike, to disk so external tools —
/// openima_top, Prometheus' textfile collector, run_diff --validate — can
/// watch a live trainer or server. Every export writes to `<path>.tmp` then
/// renames, so readers never observe a torn file. Snapshots carry the
/// logical-clock tick and an export sequence number but no wall-clock
/// timestamps: under the logical clock the bytes are a pure function of the
/// recorded updates (tests/live_obs_test.cc pins byte-identity across
/// thread counts).
class MetricsExporter {
 public:
  explicit MetricsExporter(const ExporterOptions& options);
  ~MetricsExporter();

  MetricsExporter(const MetricsExporter&) = delete;
  MetricsExporter& operator=(const MetricsExporter&) = delete;

  /// Starts the periodic export thread (idempotent).
  Status Start();

  /// Stops the thread after one final export.
  void Stop();

  /// Serializes and writes one snapshot pair (JSON + .prom) synchronously.
  /// Usable without Start() for end-of-run exports and tests.
  Status ExportNow();

  /// Wakes the export thread early (epoch heartbeat: the trainer notifies
  /// after each epoch so the snapshot on disk is never a stale interval
  /// behind, regardless of epoch duration).
  void Notify();

  int64_t exports_done() const {
    return exports_done_.load(std::memory_order_acquire);
  }
  const ExporterOptions& options() const { return options_; }

  /// The snapshot document (shared by ExportNow and the tests).
  static json::Value SnapshotJson(const MetricsSnapshot& snapshot,
                                  int64_t sequence);

  /// Prometheus text-exposition rendering of the same snapshot. Metric
  /// names are sanitized ([^a-zA-Z0-9_] -> '_') and prefixed "openima_".
  static std::string PrometheusText(const MetricsSnapshot& snapshot,
                                    int64_t sequence);

 private:
  void ThreadMain();

  ExporterOptions options_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool running_ = false;
  std::thread thread_;
  std::atomic<int64_t> exports_done_{0};
  int64_t sequence_ = 0;
};

/// Sets the cumulative members of a snapshot document on the object `out`:
/// "counters" and "gauges" as name -> value, "histograms" as name ->
/// {count, sum, min, max, mean, p50, p99, p999}. The one serializer of
/// SnapshotJson and RunReport::AddMetrics.
void SetMetricsJson(const MetricsSnapshot& snapshot, json::Value* out);

#if OPENIMA_OBS_ENABLED

/// Starts the process-global exporter (at most one; later calls replace the
/// path only if none is running). Returns FailedPrecondition when one is
/// already active.
Status StartMetricsExporter(const ExporterOptions& options);

/// Stops and destroys the global exporter after a final export (no-op when
/// none is running).
void StopMetricsExporter();

/// The running global exporter, or nullptr.
MetricsExporter* GlobalMetricsExporter();

/// Wakes the global exporter if one is running (cheap: one atomic load on
/// the common no-exporter path).
void NotifyMetricsExporter();

/// Reads OPENIMA_METRICS_EXPORT (snapshot path; empty/unset disables) and
/// OPENIMA_METRICS_EXPORT_INTERVAL_MS (default 1000) and starts the global
/// exporter. Called from InitFromEnv().
void InitExporterFromEnv();

#else  // !OPENIMA_OBS_ENABLED

inline Status StartMetricsExporter(const ExporterOptions&) {
  return Status::FailedPrecondition(
      "metrics export requires an OPENIMA_OBS=ON build");
}
inline void StopMetricsExporter() {}
inline MetricsExporter* GlobalMetricsExporter() { return nullptr; }
inline void NotifyMetricsExporter() {}
inline void InitExporterFromEnv() {}

#endif  // OPENIMA_OBS_ENABLED

}  // namespace openima::obs

#endif  // OPENIMA_OBS_EXPORTER_H_

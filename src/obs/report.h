#ifndef OPENIMA_OBS_REPORT_H_
#define OPENIMA_OBS_REPORT_H_

#include <string>

#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/util/status.h"

namespace openima::obs {

/// Unified machine-readable record of one run: named sections of JSON,
/// typically "run" (identity/config), "train" (TrainStats), "memory" (pool
/// and tape counters), "metrics" (a MetricsSnapshot) and "phases" (the
/// span-duration histograms). This replaces each layer printing its own
/// counters its own way — benches and examples assemble a RunReport and
/// write one JSON file (see EXPERIMENTS.md for the schema).
///
/// Assembly happens once per run, never on a hot path, so RunReport is
/// available in OPENIMA_OBS=OFF builds too (the metrics/phases sections are
/// simply empty there).
class RunReport {
 public:
  /// The constructor auto-populates the "run" section with build/host
  /// metadata: git SHA, compiler + flags, build type, and the effective
  /// OPENIMA_OBS / OPENIMA_THREADS / sanitizer settings. Callers keep
  /// adding their own run-identity keys on top via Set("run", ...).
  explicit RunReport(const std::string& run_name);

  /// Adds (or returns the existing) named section object.
  json::Value* Section(const std::string& name);

  /// Convenience setters into a section.
  void Set(const std::string& section, const std::string& key, json::Value v);

  /// Serializes a MetricsSnapshot's cumulative views under the "metrics"
  /// section with the exporter's serializer (SetMetricsJson): counters and
  /// gauges as flat name->value objects, histograms as {count, sum, min,
  /// max, mean, p50, p99, p999}. "time/<path>" histograms are left to
  /// AddPhaseBreakdown.
  void AddMetrics(const MetricsSnapshot& snapshot);

  /// Captures every "time/<path>" histogram of the global registry under
  /// the "phases" section as {calls, total_ms, mean_ms} per path.
  void AddPhaseBreakdown();

  /// The whole document (an object: {"run_name": ..., sections...}).
  const json::Value& root() const { return root_; }

  std::string ToJson(int indent = 2) const { return root_.Dump(indent); }

  Status WriteFile(const std::string& path) const;

  /// Reparses a serialized report — the round-trip check behind
  /// `quickstart --obs-smoke`.
  static StatusOr<json::Value> Parse(const std::string& text) {
    return json::Value::Parse(text);
  }

 private:
  json::Value root_;
};

}  // namespace openima::obs

#endif  // OPENIMA_OBS_REPORT_H_

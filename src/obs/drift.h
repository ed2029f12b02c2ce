#ifndef OPENIMA_OBS_DRIFT_H_
#define OPENIMA_OBS_DRIFT_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/obs/obs_config.h"
#include "src/obs/watchdog.h"
#include "src/util/status.h"

namespace openima::obs {

/// Configuration for the online drift monitor (DESIGN.md §2.10). The
/// monitor reuses the watchdog's policy ladder: kOff disables it, kRecord
/// counts alerts into the metrics registry, kWarn additionally logs
/// (rate-limited), kAbort makes ConsumeStatus() return an error so the
/// serve loop can refuse to keep classifying a distribution it was never
/// calibrated on.
struct DriftMonitorOptions {
  WatchdogPolicy policy = WatchdogPolicy::kOff;

  /// Observations per evaluation window. Signals are recomputed and
  /// compared against the baseline every time a window fills.
  int window = 256;

  /// Number of completed windows averaged into the frozen baseline before
  /// alerting starts (the "calibration" phase — the first traffic a fresh
  /// service sees is assumed in-distribution).
  int baseline_windows = 1;

  /// EWMA smoothing factor for the per-observation series (novel indicator,
  /// distance-to-center); exported as gauges for dashboards.
  double ewma_alpha = 0.05;

  /// Alert when the windowed novel fraction moves more than this
  /// (absolute) from the baseline. POWN-style open-world serving expects a
  /// roughly stable share of novel-class traffic; a jump means the input
  /// mix shifted.
  double novel_fraction_delta = 0.15;

  /// Alert when the windowed prediction-entropy (Shannon, nats, over the
  /// predicted-class histogram) moves more than this from the baseline.
  double entropy_delta = 0.5;

  /// Alert when the windowed mean distance-to-center moves more than this
  /// *relative* fraction from the baseline (|d - b| > delta * |b|).
  double distance_rel_delta = 0.5;
};

/// Windowed + smoothed state of a DriftMonitor, for reports and tests.
struct DriftStats {
  int64_t observations = 0;
  int64_t windows_completed = 0;
  int64_t alerts = 0;
  bool baseline_set = false;

  double baseline_novel_fraction = 0.0;
  double baseline_entropy = 0.0;
  double baseline_distance2 = 0.0;

  /// Signals of the most recently completed window (-1 before the first).
  double last_novel_fraction = -1.0;
  double last_entropy = -1.0;
  double last_distance2 = -1.0;

  double ewma_novel_fraction = 0.0;
  double ewma_distance2 = 0.0;
};

#if OPENIMA_OBS_ENABLED

/// Online drift monitor for the serve path. Each classified node feeds
/// Observe(predicted class, novel flag, squared distance to its cluster
/// center); every `window` observations the monitor closes a window,
/// recomputes novel-fraction / prediction-entropy / mean-distance, and —
/// once the baseline is frozen — fires a policy alert for each signal that
/// moved beyond its threshold. Alert counts land in the metrics registry
/// (`drift.alerts`, `drift/<signal>`) and the latest signals in gauges, so
/// the exporter/openima_top surface them live.
///
/// Thread-safe: Observe takes a small mutex (the serve path is dominated by
/// the forward pass). Determinism: all signals are pure functions of the
/// observation multiset per window, and windows close on exact observation
/// counts — no wall clock anywhere.
class DriftMonitor {
 public:
  DriftMonitor(const DriftMonitorOptions& options, int num_classes);

  /// Feeds one classified node. `class_id` indexes the predicted final
  /// class (clamped into [0, num_classes)), `is_novel` the open-world
  /// novel-vs-seen call, `distance2` the squared distance to the winning
  /// center.
  void Observe(int class_id, bool is_novel, double distance2);

  DriftStats stats() const;

  /// OK unless an alert fired under the kAbort policy (sticky, like the
  /// watchdog trip).
  Status ConsumeStatus() const;

  bool enabled() const { return options_.policy != WatchdogPolicy::kOff; }
  const DriftMonitorOptions& options() const { return options_; }

 private:
  void CompleteWindowLocked();
  void AlertLocked(const char* signal, const std::string& detail);

  DriftMonitorOptions options_;
  int num_classes_;

  mutable std::mutex mu_;
  // Current (partial) window.
  int64_t window_count_ = 0;
  int64_t window_novel_ = 0;
  double window_distance2_sum_ = 0.0;
  std::vector<int64_t> window_class_counts_;
  // Baseline accumulation, then frozen averages.
  double baseline_novel_sum_ = 0.0;
  double baseline_entropy_sum_ = 0.0;
  double baseline_distance2_sum_ = 0.0;
  // Rolled-up state (mirrors DriftStats).
  DriftStats stats_;
  int warns_emitted_ = 0;
  bool tripped_ = false;
  std::string trip_message_;
};

#else  // !OPENIMA_OBS_ENABLED

/// Compiled-out drift monitor: Observe vanishes, stats are all-zero and
/// enabled() is false, so serve call sites need no #if of their own.
class DriftMonitor {
 public:
  DriftMonitor(const DriftMonitorOptions&, int) {}
  void Observe(int, bool, double) {}
  DriftStats stats() const { return DriftStats(); }
  Status ConsumeStatus() const { return Status::OK(); }
  constexpr bool enabled() const { return false; }
  DriftMonitorOptions options() const { return DriftMonitorOptions(); }
};

#endif  // OPENIMA_OBS_ENABLED

/// Reads the drift env knobs into a DriftMonitorOptions: OPENIMA_DRIFT
/// (off|record|warn|abort — the policy), OPENIMA_DRIFT_WINDOW,
/// OPENIMA_DRIFT_NOVEL_DELTA, OPENIMA_DRIFT_ENTROPY_DELTA,
/// OPENIMA_DRIFT_DISTANCE_DELTA. Unset keeps the defaults (policy off); a
/// malformed policy warns on stderr and stays off.
DriftMonitorOptions DriftOptionsFromEnv();

}  // namespace openima::obs

#endif  // OPENIMA_OBS_DRIFT_H_

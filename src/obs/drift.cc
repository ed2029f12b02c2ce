#include "src/obs/drift.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "src/obs/metrics.h"
#include "src/util/flags.h"

namespace openima::obs {

DriftMonitorOptions DriftOptionsFromEnv() {
  DriftMonitorOptions options;
  const char* policy = std::getenv("OPENIMA_DRIFT");
  if (policy != nullptr && policy[0] != '\0') {
    StatusOr<WatchdogPolicy> parsed = ParseWatchdogPolicy(policy);
    if (parsed.ok()) {
      options.policy = parsed.value();
    } else {
      std::fprintf(stderr, "openima: ignoring OPENIMA_DRIFT=%s (%s)\n", policy,
                   parsed.status().ToString().c_str());
    }
  }
  // A delta of `inf` switches its signal's alert off.
  constexpr double kMaxDelta = std::numeric_limits<double>::infinity();
  ReadEnvKnob("OPENIMA_DRIFT_WINDOW", 1, INT_MAX, &options.window);
  ReadEnvKnob("OPENIMA_DRIFT_NOVEL_DELTA", 0.0, kMaxDelta,
              &options.novel_fraction_delta);
  ReadEnvKnob("OPENIMA_DRIFT_ENTROPY_DELTA", 0.0, kMaxDelta,
              &options.entropy_delta);
  ReadEnvKnob("OPENIMA_DRIFT_DISTANCE_DELTA", 0.0, kMaxDelta,
              &options.distance_rel_delta);
  return options;
}

#if OPENIMA_OBS_ENABLED

DriftMonitor::DriftMonitor(const DriftMonitorOptions& options, int num_classes)
    : options_(options), num_classes_(num_classes < 1 ? 1 : num_classes) {
  if (options_.window < 1) options_.window = 1;
  if (options_.baseline_windows < 1) options_.baseline_windows = 1;
  if (options_.ewma_alpha <= 0.0 || options_.ewma_alpha > 1.0) {
    options_.ewma_alpha = 0.05;
  }
  window_class_counts_.assign(static_cast<size_t>(num_classes_), 0);
}

void DriftMonitor::Observe(int class_id, bool is_novel, double distance2) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  stats_.observations += 1;
  const double novel = is_novel ? 1.0 : 0.0;
  if (stats_.observations == 1) {
    stats_.ewma_novel_fraction = novel;
    stats_.ewma_distance2 = distance2;
  } else {
    const double a = options_.ewma_alpha;
    stats_.ewma_novel_fraction =
        a * novel + (1.0 - a) * stats_.ewma_novel_fraction;
    stats_.ewma_distance2 = a * distance2 + (1.0 - a) * stats_.ewma_distance2;
  }
  window_count_ += 1;
  if (is_novel) window_novel_ += 1;
  window_distance2_sum_ += distance2;
  int c = class_id;
  if (c < 0) c = 0;
  if (c >= num_classes_) c = num_classes_ - 1;
  window_class_counts_[static_cast<size_t>(c)] += 1;
  if (window_count_ >= options_.window) CompleteWindowLocked();
}

void DriftMonitor::CompleteWindowLocked() {
  const double n = static_cast<double>(window_count_);
  const double novel_fraction = static_cast<double>(window_novel_) / n;
  const double mean_distance2 = window_distance2_sum_ / n;
  double entropy = 0.0;
  for (int64_t count : window_class_counts_) {
    if (count <= 0) continue;
    const double p = static_cast<double>(count) / n;
    entropy -= p * std::log(p);
  }

  stats_.windows_completed += 1;
  stats_.last_novel_fraction = novel_fraction;
  stats_.last_entropy = entropy;
  stats_.last_distance2 = mean_distance2;

  MetricsRegistry* registry = MetricsRegistry::Global();
  registry->counter("drift.windows")->Increment();
  registry->gauge("drift.novel_fraction")->Set(novel_fraction);
  registry->gauge("drift.entropy")->Set(entropy);
  registry->gauge("drift.distance2")->Set(mean_distance2);
  registry->gauge("drift.ewma_novel_fraction")->Set(stats_.ewma_novel_fraction);
  registry->gauge("drift.ewma_distance2")->Set(stats_.ewma_distance2);

  if (!stats_.baseline_set) {
    baseline_novel_sum_ += novel_fraction;
    baseline_entropy_sum_ += entropy;
    baseline_distance2_sum_ += mean_distance2;
    if (stats_.windows_completed >= options_.baseline_windows) {
      const double windows = static_cast<double>(stats_.windows_completed);
      stats_.baseline_novel_fraction = baseline_novel_sum_ / windows;
      stats_.baseline_entropy = baseline_entropy_sum_ / windows;
      stats_.baseline_distance2 = baseline_distance2_sum_ / windows;
      stats_.baseline_set = true;
    }
  } else {
    char detail[160];
    if (std::fabs(novel_fraction - stats_.baseline_novel_fraction) >
        options_.novel_fraction_delta) {
      std::snprintf(detail, sizeof(detail),
                    "novel fraction %.3f vs baseline %.3f (delta > %.3f)",
                    novel_fraction, stats_.baseline_novel_fraction,
                    options_.novel_fraction_delta);
      AlertLocked("novel_fraction", detail);
    }
    if (std::fabs(entropy - stats_.baseline_entropy) > options_.entropy_delta) {
      std::snprintf(detail, sizeof(detail),
                    "prediction entropy %.3f vs baseline %.3f (delta > %.3f)",
                    entropy, stats_.baseline_entropy, options_.entropy_delta);
      AlertLocked("entropy", detail);
    }
    if (std::fabs(mean_distance2 - stats_.baseline_distance2) >
        options_.distance_rel_delta *
            std::max(std::fabs(stats_.baseline_distance2), 1e-12)) {
      std::snprintf(detail, sizeof(detail),
                    "mean distance2 %.4f vs baseline %.4f (rel delta > %.3f)",
                    mean_distance2, stats_.baseline_distance2,
                    options_.distance_rel_delta);
      AlertLocked("distance2", detail);
    }
  }

  window_count_ = 0;
  window_novel_ = 0;
  window_distance2_sum_ = 0.0;
  window_class_counts_.assign(static_cast<size_t>(num_classes_), 0);
}

void DriftMonitor::AlertLocked(const char* signal, const std::string& detail) {
  stats_.alerts += 1;
  MetricsRegistry* registry = MetricsRegistry::Global();
  registry->counter("drift.alerts")->Increment();
  registry->counter(std::string("drift/") + signal)->Increment();
  if (options_.policy == WatchdogPolicy::kWarn && warns_emitted_ < 8) {
    warns_emitted_ += 1;
    std::fprintf(stderr, "openima drift WARNING [%s]: %s\n", signal,
                 detail.c_str());
  }
  if (options_.policy == WatchdogPolicy::kAbort && !tripped_) {
    tripped_ = true;
    trip_message_ =
        std::string("drift alert [") + signal + "]: " + detail;
  }
}

DriftStats DriftMonitor::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

Status DriftMonitor::ConsumeStatus() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!tripped_) return Status::OK();
  return Status::Internal(trip_message_);
}

#endif  // OPENIMA_OBS_ENABLED

}  // namespace openima::obs

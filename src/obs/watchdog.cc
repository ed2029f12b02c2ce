#include "src/obs/watchdog.h"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <sstream>

#include "src/obs/metrics.h"
#include "src/util/flags.h"
#include "src/util/logging.h"

namespace openima::obs {

StatusOr<WatchdogPolicy> ParseWatchdogPolicy(const std::string& text) {
  if (text == "off") return WatchdogPolicy::kOff;
  if (text == "record") return WatchdogPolicy::kRecord;
  if (text == "warn") return WatchdogPolicy::kWarn;
  if (text == "abort") return WatchdogPolicy::kAbort;
  return Status::InvalidArgument("unknown watchdog policy '" + text +
                                 "' (want off|record|warn|abort)");
}

const char* WatchdogPolicyName(WatchdogPolicy policy) {
  switch (policy) {
    case WatchdogPolicy::kOff:
      return "off";
    case WatchdogPolicy::kRecord:
      return "record";
    case WatchdogPolicy::kWarn:
      return "warn";
    case WatchdogPolicy::kAbort:
      return "abort";
  }
  return "off";
}

#if OPENIMA_OBS_ENABLED

namespace {

constexpr int kMaxWarnings = 8;  ///< rate limit for kWarn log lines

struct WatchdogState {
  std::atomic<int> policy{static_cast<int>(WatchdogPolicy::kOff)};
  std::atomic<double> max_grad_norm{1e8};
  std::atomic<int64_t> events{0};
  std::atomic<int64_t> warnings{0};
  std::atomic<bool> tripped{false};
  std::mutex mu;
  std::string trip_message;  // first anomaly under kAbort, guarded by mu
};

WatchdogState* State() {
  static WatchdogState* state = new WatchdogState();  // never freed
  return state;
}

/// Applies the configured policy to one observed anomaly. `count` is the
/// number of bad elements (1 for a norm explosion); `detail` describes what
/// was seen at `site`.
void HandleAnomaly(const char* site, int64_t count, const std::string& detail) {
  WatchdogState* state = State();
  state->events.fetch_add(count, std::memory_order_relaxed);
  MetricsRegistry::Global()->counter("watchdog.anomalies")->Add(count);
  MetricsRegistry::Global()
      ->counter(std::string("watchdog/") + site)
      ->Add(count);

  const auto policy =
      static_cast<WatchdogPolicy>(state->policy.load(std::memory_order_relaxed));
  if (policy == WatchdogPolicy::kWarn) {
    if (state->warnings.fetch_add(1, std::memory_order_relaxed) <
        kMaxWarnings) {
      OPENIMA_LOG(Warning) << "watchdog: " << detail << " at " << site;
    }
  } else if (policy == WatchdogPolicy::kAbort) {
    std::lock_guard<std::mutex> lock(state->mu);
    if (!state->tripped.load(std::memory_order_relaxed)) {
      state->trip_message = detail + " at " + site;
      state->tripped.store(true, std::memory_order_release);
    }
  }
}

}  // namespace

void Watchdog::Configure(const WatchdogOptions& options) {
  WatchdogState* state = State();
  std::lock_guard<std::mutex> lock(state->mu);
  state->policy.store(static_cast<int>(options.policy),
                      std::memory_order_relaxed);
  state->max_grad_norm.store(options.max_grad_norm, std::memory_order_relaxed);
  state->events.store(0, std::memory_order_relaxed);
  state->warnings.store(0, std::memory_order_relaxed);
  state->tripped.store(false, std::memory_order_relaxed);
  state->trip_message.clear();
}

WatchdogOptions Watchdog::options() {
  WatchdogState* state = State();
  WatchdogOptions out;
  out.policy =
      static_cast<WatchdogPolicy>(state->policy.load(std::memory_order_relaxed));
  out.max_grad_norm = state->max_grad_norm.load(std::memory_order_relaxed);
  return out;
}

bool Watchdog::active() {
  return State()->policy.load(std::memory_order_relaxed) !=
         static_cast<int>(WatchdogPolicy::kOff);
}

int64_t Watchdog::CheckTensor(const char* site, const float* data, int64_t n) {
  if (!active()) return 0;
  int64_t bad = 0;
  for (int64_t i = 0; i < n; ++i) {
    if (!std::isfinite(data[i])) ++bad;
  }
  if (bad > 0) {
    std::ostringstream msg;
    msg << bad << "/" << n << " non-finite values";
    HandleAnomaly(site, bad, msg.str());
  }
  return bad;
}

void Watchdog::CheckNorm(const char* site, double norm) {
  if (!active()) return;
  const double limit =
      State()->max_grad_norm.load(std::memory_order_relaxed);
  if (std::isfinite(norm) && norm <= limit) return;
  std::ostringstream msg;
  msg << "norm " << norm << " exceeds limit " << limit;
  HandleAnomaly(site, 1, msg.str());
}

int64_t Watchdog::events() {
  return State()->events.load(std::memory_order_relaxed);
}

bool Watchdog::tripped() {
  return State()->tripped.load(std::memory_order_acquire);
}

Status Watchdog::ConsumeStatus() {
  WatchdogState* state = State();
  if (!state->tripped.load(std::memory_order_acquire)) return Status::OK();
  std::lock_guard<std::mutex> lock(state->mu);
  return Status::Internal("numeric watchdog tripped: " + state->trip_message);
}

void Watchdog::ResetForTest() { Configure(WatchdogOptions()); }

#endif  // OPENIMA_OBS_ENABLED

void InitWatchdogFromEnv() {
#if OPENIMA_OBS_ENABLED
  const char* policy_env = std::getenv("OPENIMA_WATCHDOG");
  if (policy_env == nullptr || policy_env[0] == '\0') return;
  auto policy = ParseWatchdogPolicy(policy_env);
  if (!policy.ok()) {
    std::fprintf(stderr, "OPENIMA_WATCHDOG: %s\n",
                 policy.status().ToString().c_str());
    return;
  }
  WatchdogOptions options;
  options.policy = *policy;
  // Any positive limit; `inf` switches the norm check off.
  ReadEnvKnob("OPENIMA_WATCHDOG_MAX_NORM",
              std::numeric_limits<double>::denorm_min(),
              std::numeric_limits<double>::infinity(), &options.max_grad_norm);
  Watchdog::Configure(options);
#endif
}

}  // namespace openima::obs

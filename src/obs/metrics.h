#ifndef OPENIMA_OBS_METRICS_H_
#define OPENIMA_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/obs/obs_config.h"

namespace openima::obs {

/// Number of lock-free shards each counter/histogram stripes its updates
/// over. Threads map to shards by a process-stable thread index
/// (ThreadShardIndex()), so up to kMetricShards concurrent writers never
/// contend on a cache line.
inline constexpr int kMetricShards = 16;

/// Window width, in ticks, of the windowed metrics the serve path and the
/// trainer keep (OPENIMA_OBS_WINDOWED_COUNT, RequestTrace's latency).
inline constexpr int kDefaultWindowTicks = 64;

/// The process-wide clock every metric window buckets against (DESIGN.md
/// §2.10). Logical by default: the serve path ticks once per request, the
/// trainer once per epoch, so windowed values are pure functions of the
/// update sequence and tests stay deterministic. Wall-clock ticking is an
/// explicit opt-in (OPENIMA_ROLLING_WALL_MS) for dashboards that want "the
/// last minute" rather than "the last 64 requests".
class RollingClock {
 public:
  /// Current tick. Logical mode: the number of Tick() calls so far.
  /// Wall-clock mode: elapsed nanoseconds since EnableWallClock divided by
  /// the configured tick length.
  static int64_t Now();

  /// Advances the logical clock by one and returns the new tick. In
  /// wall-clock mode this is a no-op returning Now() — call sites (one per
  /// request / epoch) need no mode check.
  static int64_t Tick();

  /// Switches to wall-clock ticks of `ms_per_tick` milliseconds (> 0).
  static void EnableWallClock(int64_t ms_per_tick);
  static void DisableWallClock();
  static bool wall_clock();

  /// Back to logical mode at tick 0.
  static void ResetForTest();
};

/// Merged view of one histogram. All fields are exact: values are recorded
/// as int64 (durations in nanoseconds, sizes, counts), so count/sum/min/max
/// and the power-of-two bucket counts are integer sums — identical for any
/// thread count or interleaving of the same Record calls.
struct HistogramSnapshot {
  int64_t count = 0;
  int64_t sum = 0;
  int64_t min = 0;  ///< 0 when count == 0
  int64_t max = 0;
  /// buckets[b] counts values v with 2^(b-1) <= v < 2^b (b=0: v <= 0);
  /// trailing empty buckets are trimmed.
  std::vector<int64_t> buckets;

  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

namespace metrics_internal {

/// One cell of a Counter. The same type serves as a shard of the
/// cumulative total and as the slot of one tick in the window ring
/// (`tick` is only read there).
struct alignas(64) CounterCell {
  using View = int64_t;
  std::atomic<int64_t> tick{-1};
  std::atomic<int64_t> value{0};

  void Update(int64_t delta);
  void MergeInto(int64_t* total) const;
  void Clear();
};

/// One cell of a Histogram, in the same two roles: count/sum/min/max plus
/// the power-of-two buckets.
struct alignas(64) HistogramCell {
  using View = HistogramSnapshot;
  static constexpr int kNumBuckets = 64;
  std::atomic<int64_t> tick{-1};
  std::atomic<int64_t> count{0};
  std::atomic<int64_t> sum{0};
  std::atomic<int64_t> min{INT64_MAX};
  std::atomic<int64_t> max{INT64_MIN};
  std::atomic<int64_t> buckets[kNumBuckets] = {};

  void Update(int64_t value);
  /// Adds this cell into `out`; an empty cell adds nothing, so merging any
  /// set of cells into a fresh snapshot yields the canonical empty one.
  void MergeInto(HistogramSnapshot* out) const;
  void Clear();
};

/// kMetricShards cumulative cells plus, for a metric created with a
/// window, a ring of window+1 tick-stamped cells. Update lands in the
/// caller's shard and in the ring cell of the current tick; a cell is
/// recycled under a mutex on the first update of its new tick, so that
/// mutex is only contended at tick boundaries. Merged() folds the shards
/// and Window(now) the ring cells stamped in (now - window, now], both in
/// ascending order through the one Cell::MergeInto. Each cell holds exact
/// int64 sums, so either view depends only on which updates landed in
/// which tick — never on thread interleaving or the thread count.
template <typename Cell>
class CellSet {
 public:
  using View = typename Cell::View;

  explicit CellSet(int window_ticks);

  void Update(int64_t value);
  View Merged() const;
  View Window(int64_t now) const;
  int window_ticks() const { return window_; }
  void Clear();

 private:
  Cell shards_[kMetricShards];
  int window_;  ///< 0: cumulative only, no ring
  std::vector<Cell> ring_;
  std::mutex rotate_mu_;
};

}  // namespace metrics_internal

/// Monotonic counter with lock-free per-thread-shard updates (see
/// CellSet): Total() is the cumulative sum. The sum over a window, for a
/// counter created with one, is read from MetricsRegistry::Snapshot().
class Counter {
 public:
  explicit Counter(int window_ticks = 0) : cells_(window_ticks) {}

  void Add(int64_t delta) { cells_.Update(delta); }
  void Increment() { Add(1); }
  int64_t Total() const { return cells_.Merged(); }
  int window_ticks() const { return cells_.window_ticks(); }

 private:
  friend class MetricsRegistry;
  metrics_internal::CellSet<metrics_internal::CounterCell> cells_;
};

/// Last-write-wins instantaneous value (epoch loss, pseudo-label count).
/// A single relaxed atomic — unlike counters/histograms, concurrent
/// writers race by design; callers set gauges from the driving thread.
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double Get() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Histogram over integer-valued measurements with power-of-two buckets,
/// striped like Counter. Record is lock-free (relaxed adds + CAS min/max on
/// the caller's shard). For a histogram created with a window, the
/// registry snapshot also carries the merged view of the window, which
/// feeds HistogramQuantile for windowed p50/p99/p999.
class Histogram {
 public:
  static constexpr int kNumBuckets = metrics_internal::HistogramCell::kNumBuckets;

  explicit Histogram(int window_ticks = 0) : cells_(window_ticks) {}

  void Record(int64_t value) { cells_.Update(value); }
  HistogramSnapshot Snapshot() const { return cells_.Merged(); }
  int window_ticks() const { return cells_.window_ticks(); }

  /// Bucket a value lands in: 0 for v <= 0, else floor(log2(v)) + 1.
  static int BucketFor(int64_t value);

 private:
  friend class MetricsRegistry;
  metrics_internal::CellSet<metrics_internal::HistogramCell> cells_;
};

/// Windowed view of a counter at a snapshot's tick.
struct CounterWindow {
  int window = 0;      ///< window width in ticks
  int64_t total = 0;   ///< sum over the last `window` ticks

  double rate_per_tick() const {
    return static_cast<double>(total) / static_cast<double>(window);
  }
};

/// Windowed view of a histogram at a snapshot's tick.
struct HistogramWindow {
  int window = 0;
  HistogramSnapshot hist;
};

/// Deterministic merged view of every metric in a registry, keyed by name
/// (sorted — std::map — so iteration order is reproducible). Every metric
/// appears in the cumulative maps; those created with a window appear in
/// the window maps too, taken at `tick`.
struct MetricsSnapshot {
  int64_t tick = 0;  ///< RollingClock::Now() when the snapshot was taken
  std::map<std::string, int64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
  std::map<std::string, CounterWindow> window_counters;
  std::map<std::string, HistogramWindow> window_histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
};

/// Named metric registry. Lookup/creation is mutex-guarded (hot paths cache
/// the returned pointer — the OPENIMA_OBS_* macros do this with a
/// function-local static); updates through the returned handles are
/// lock-free. Handles stay valid for the registry's lifetime; the global
/// registry is never destroyed.
class MetricsRegistry {
 public:
  /// The process-wide registry every OPENIMA_OBS_* macro records into.
  static MetricsRegistry* Global();

  /// `window_ticks` > 0 gives the metric a window as well. A metric keeps
  /// the window it was created with: asking for an existing name with
  /// another window CHECK-fails, since the windowed view would otherwise
  /// appear or vanish depending on which call site ran first.
  Counter* counter(const std::string& name, int window_ticks = 0);
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name, int window_ticks = 0);

  /// Deterministic merged snapshot (see CellSet).
  MetricsSnapshot Snapshot() const;

  /// Zeroes every metric in place (handles stay valid). Not safe against
  /// concurrent writers — for test isolation and per-run report scoping.
  void Reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Stable per-thread shard index in [0, kMetricShards): assigned from a
/// process-wide counter on each thread's first metric update.
int ThreadShardIndex();

/// q-quantile (q in [0, 1]) of a histogram snapshot, estimated from the
/// power-of-two buckets: walks to the bucket holding the ceil(q * count)-th
/// recorded value, interpolates linearly inside it, and clamps by the exact
/// recorded min/max (so q = 0 / q = 1 return min / max exactly). The serve
/// benchmark's p50/p99 latencies come from here. Returns 0 for an empty
/// snapshot.
double HistogramQuantile(const HistogramSnapshot& snapshot, double q);

}  // namespace openima::obs

#endif  // OPENIMA_OBS_METRICS_H_

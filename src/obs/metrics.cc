#include "src/obs/metrics.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "src/util/logging.h"

namespace openima::obs {
namespace {

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Clock state. `wall_ns_per_tick` == 0 means logical mode; in wall mode
// `wall_epoch_ns` anchors tick 0 at the moment EnableWallClock was called.
std::atomic<int64_t> g_logical_tick{0};
std::atomic<int64_t> g_wall_ns_per_tick{0};
std::atomic<int64_t> g_wall_epoch_ns{0};

void AtomicMin(std::atomic<int64_t>* target, int64_t value) {
  int64_t observed = target->load(std::memory_order_relaxed);
  while (value < observed &&
         !target->compare_exchange_weak(observed, value,
                                        std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<int64_t>* target, int64_t value) {
  int64_t observed = target->load(std::memory_order_relaxed);
  while (value > observed &&
         !target->compare_exchange_weak(observed, value,
                                        std::memory_order_relaxed)) {
  }
}

// The metric `name` in `metrics`, created with `window_ticks` on first use
// (a negative window means none, as in CellSet).
template <typename Metric>
Metric* FindOrCreate(std::map<std::string, std::unique_ptr<Metric>>* metrics,
                     const std::string& name, int window_ticks) {
  auto& slot = (*metrics)[name];
  if (slot == nullptr) slot = std::make_unique<Metric>(window_ticks);
  OPENIMA_CHECK_EQ(slot->window_ticks(), std::max(window_ticks, 0))
      << "metric '" << name << "' has window " << slot->window_ticks()
      << ", asked for window " << window_ticks;
  return slot.get();
}

}  // namespace

int64_t RollingClock::Now() {
  const int64_t ns_per_tick = g_wall_ns_per_tick.load(std::memory_order_acquire);
  if (ns_per_tick > 0) {
    const int64_t elapsed =
        SteadyNowNs() - g_wall_epoch_ns.load(std::memory_order_acquire);
    return elapsed >= 0 ? elapsed / ns_per_tick : 0;
  }
  return g_logical_tick.load(std::memory_order_acquire);
}

int64_t RollingClock::Tick() {
  if (g_wall_ns_per_tick.load(std::memory_order_acquire) > 0) return Now();
  return g_logical_tick.fetch_add(1, std::memory_order_acq_rel) + 1;
}

void RollingClock::EnableWallClock(int64_t ms_per_tick) {
  if (ms_per_tick <= 0) return;
  g_wall_epoch_ns.store(SteadyNowNs(), std::memory_order_release);
  g_wall_ns_per_tick.store(ms_per_tick * 1000000, std::memory_order_release);
}

void RollingClock::DisableWallClock() {
  g_wall_ns_per_tick.store(0, std::memory_order_release);
}

bool RollingClock::wall_clock() {
  return g_wall_ns_per_tick.load(std::memory_order_acquire) > 0;
}

void RollingClock::ResetForTest() {
  g_wall_ns_per_tick.store(0, std::memory_order_release);
  g_logical_tick.store(0, std::memory_order_release);
}

int ThreadShardIndex() {
  static std::atomic<int> next{0};
  thread_local const int index =
      next.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
  return index;
}

namespace metrics_internal {

void CounterCell::Update(int64_t delta) {
  value.fetch_add(delta, std::memory_order_relaxed);
}

void CounterCell::MergeInto(int64_t* total) const {
  *total += value.load(std::memory_order_relaxed);
}

void CounterCell::Clear() { value.store(0, std::memory_order_relaxed); }

void HistogramCell::Update(int64_t value) {
  count.fetch_add(1, std::memory_order_relaxed);
  sum.fetch_add(value, std::memory_order_relaxed);
  buckets[Histogram::BucketFor(value)].fetch_add(1,
                                                 std::memory_order_relaxed);
  AtomicMin(&min, value);
  AtomicMax(&max, value);
}

void HistogramCell::MergeInto(HistogramSnapshot* out) const {
  const int64_t n = count.load(std::memory_order_relaxed);
  if (n == 0) return;
  const int64_t lo = min.load(std::memory_order_relaxed);
  const int64_t hi = max.load(std::memory_order_relaxed);
  out->min = out->count == 0 ? lo : std::min(out->min, lo);
  out->max = out->count == 0 ? hi : std::max(out->max, hi);
  out->count += n;
  out->sum += sum.load(std::memory_order_relaxed);
  for (int b = 0; b < kNumBuckets; ++b) {
    const int64_t in_bucket = buckets[b].load(std::memory_order_relaxed);
    if (in_bucket == 0) continue;
    // Growing only up to this cell's highest non-empty bucket keeps the
    // merged vector trimmed without a second pass.
    if (out->buckets.size() <= static_cast<size_t>(b)) {
      out->buckets.resize(static_cast<size_t>(b) + 1, 0);
    }
    out->buckets[static_cast<size_t>(b)] += in_bucket;
  }
}

void HistogramCell::Clear() {
  count.store(0, std::memory_order_relaxed);
  sum.store(0, std::memory_order_relaxed);
  min.store(INT64_MAX, std::memory_order_relaxed);
  max.store(INT64_MIN, std::memory_order_relaxed);
  for (auto& b : buckets) b.store(0, std::memory_order_relaxed);
}

template <typename Cell>
CellSet<Cell>::CellSet(int window_ticks)
    : window_(std::max(window_ticks, 0)),
      ring_(window_ == 0 ? 0 : static_cast<size_t>(window_) + 1) {}

template <typename Cell>
void CellSet<Cell>::Update(int64_t value) {
  shards_[ThreadShardIndex()].Update(value);
  if (window_ == 0) return;
  const int64_t t = RollingClock::Now();
  Cell& cell = ring_[static_cast<size_t>(t % static_cast<int64_t>(ring_.size()))];
  if (cell.tick.load(std::memory_order_acquire) != t) {
    // First update of this tick in this cell: recycle it under the rotate
    // mutex so concurrent updaters can't zero each other's values.
    std::lock_guard<std::mutex> lock(rotate_mu_);
    if (cell.tick.load(std::memory_order_relaxed) != t) {
      cell.Clear();
      cell.tick.store(t, std::memory_order_release);
    }
  }
  cell.Update(value);
}

template <typename Cell>
typename Cell::View CellSet<Cell>::Merged() const {
  View out{};
  for (const Cell& cell : shards_) cell.MergeInto(&out);
  return out;
}

template <typename Cell>
typename Cell::View CellSet<Cell>::Window(int64_t now) const {
  View out{};
  for (const Cell& cell : ring_) {
    const int64_t t = cell.tick.load(std::memory_order_acquire);
    if (t > now - window_ && t <= now) cell.MergeInto(&out);
  }
  return out;
}

template <typename Cell>
void CellSet<Cell>::Clear() {
  for (Cell& cell : shards_) cell.Clear();
  std::lock_guard<std::mutex> lock(rotate_mu_);
  for (Cell& cell : ring_) {
    cell.Clear();
    cell.tick.store(-1, std::memory_order_release);
  }
}

template class CellSet<CounterCell>;
template class CellSet<HistogramCell>;

}  // namespace metrics_internal

int Histogram::BucketFor(int64_t value) {
  if (value <= 0) return 0;
  int b = 0;
  for (uint64_t v = static_cast<uint64_t>(value); v != 0; v >>= 1) ++b;
  return b < kNumBuckets ? b : kNumBuckets - 1;
}

MetricsRegistry* MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never freed
  return registry;
}

Counter* MetricsRegistry::counter(const std::string& name, int window_ticks) {
  std::lock_guard<std::mutex> lock(mu_);
  return FindOrCreate(&counters_, name, window_ticks);
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::histogram(const std::string& name,
                                      int window_ticks) {
  std::lock_guard<std::mutex> lock(mu_);
  return FindOrCreate(&histograms_, name, window_ticks);
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot out;
  out.tick = RollingClock::Now();
  for (const auto& [name, c] : counters_) {
    out.counters[name] = c->Total();
    if (const int w = c->window_ticks(); w > 0) {
      out.window_counters[name] = {w, c->cells_.Window(out.tick)};
    }
  }
  for (const auto& [name, g] : gauges_) {
    out.gauges[name] = g->Get();
  }
  for (const auto& [name, h] : histograms_) {
    out.histograms[name] = h->Snapshot();
    if (const int w = h->window_ticks(); w > 0) {
      out.window_histograms[name] = {w, h->cells_.Window(out.tick)};
    }
  }
  return out;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->cells_.Clear();
  for (auto& [name, g] : gauges_) g->Set(0.0);
  for (auto& [name, h] : histograms_) h->cells_.Clear();
}

double HistogramQuantile(const HistogramSnapshot& snapshot, double q) {
  if (snapshot.count == 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  // Rank of the target value, 1-based: the smallest r with q*count <= r.
  const int64_t target =
      std::max<int64_t>(1, static_cast<int64_t>(
                               std::ceil(q * static_cast<double>(snapshot.count))));
  int64_t cum = 0;
  for (size_t b = 0; b < snapshot.buckets.size(); ++b) {
    const int64_t in_bucket = snapshot.buckets[b];
    if (in_bucket == 0) continue;
    if (cum + in_bucket < target) {
      cum += in_bucket;
      continue;
    }
    // Bucket b holds values in [lo, hi): b=0 is v <= 0, else
    // [2^(b-1), 2^b). Interpolate by rank within the bucket.
    const double lo = b == 0 ? 0.0 : std::exp2(static_cast<double>(b - 1));
    const double hi = b == 0 ? 0.0 : std::exp2(static_cast<double>(b));
    const double frac = static_cast<double>(target - cum) /
                        static_cast<double>(in_bucket);
    double value = lo + frac * (hi - lo);
    value = std::max(value, static_cast<double>(snapshot.min));
    value = std::min(value, static_cast<double>(snapshot.max));
    return value;
  }
  return static_cast<double>(snapshot.max);
}

}  // namespace openima::obs

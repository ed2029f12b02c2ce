#include "src/exec/context.h"

#include <algorithm>
#include <climits>
#include <mutex>
#include <thread>
#include <vector>

#include "src/util/flags.h"

namespace openima::exec {

namespace {

/// True while the current thread is executing a ParallelFor* range. Nested
/// parallel sections run inline instead of re-entering the pool: a worker
/// blocking in Wait() for sub-tasks could deadlock the pool, and inline
/// execution keeps the fixed chunk layout (and thus determinism) intact.
thread_local bool tls_in_parallel_region = false;

class ScopedParallelRegion {
 public:
  ScopedParallelRegion() : prev_(tls_in_parallel_region) {
    tls_in_parallel_region = true;
  }
  ~ScopedParallelRegion() { tls_in_parallel_region = prev_; }

 private:
  bool prev_;
};

}  // namespace

Context::Context(int num_threads) {
  if (num_threads == 0) {
    num_threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  num_threads_ = std::max(1, num_threads);
  if (num_threads_ > 1) {
    pool_ = std::make_unique<ThreadPool>(num_threads_);
  }
}

Context::~Context() = default;

int64_t Context::NumChunks(int64_t n, int64_t grain) {
  if (n <= 0) return 0;
  grain = std::max<int64_t>(1, grain);
  return (n + grain - 1) / grain;
}

std::pair<int64_t, int64_t> Context::ChunkBounds(int64_t n, int64_t grain,
                                                 int64_t chunk) {
  grain = std::max<int64_t>(1, grain);
  const int64_t begin = chunk * grain;
  return {begin, std::min(n, begin + grain)};
}

int64_t Context::GrainForMaxChunks(int64_t n, int64_t min_grain,
                                   int64_t max_chunks) {
  max_chunks = std::max<int64_t>(1, max_chunks);
  const int64_t spread = (n + max_chunks - 1) / max_chunks;
  return std::max<int64_t>(std::max<int64_t>(1, min_grain), spread);
}

void Context::ParallelFor(
    int64_t n, int64_t grain,
    const std::function<void(int64_t, int64_t)>& fn) const {
  if (n <= 0) return;
  grain = std::max<int64_t>(1, grain);
  if (pool_ == nullptr || tls_in_parallel_region || n <= grain) {
    ScopedParallelRegion region;
    fn(0, n);
    return;
  }
  // At most 4 ranges per worker (load balancing), each at least `grain`
  // long. Range boundaries here are a scheduling detail: each index runs
  // exactly once, so disjoint-output kernels stay deterministic.
  const int64_t max_ranges =
      std::min<int64_t>((n + grain - 1) / grain, 4LL * num_threads_);
  const int64_t range_size = (n + max_ranges - 1) / max_ranges;
  for (int64_t begin = 0; begin < n; begin += range_size) {
    const int64_t end = std::min(n, begin + range_size);
    pool_->Submit([&fn, begin, end] {
      ScopedParallelRegion region;
      fn(begin, end);
    });
  }
  pool_->Wait();
}

void Context::ParallelForChunks(
    int64_t n, int64_t grain,
    const std::function<void(int64_t, int64_t, int64_t)>& fn) const {
  const int64_t chunks = NumChunks(n, grain);
  if (chunks <= 0) return;
  if (pool_ == nullptr || tls_in_parallel_region || chunks == 1) {
    ScopedParallelRegion region;
    for (int64_t c = 0; c < chunks; ++c) {
      const auto [begin, end] = ChunkBounds(n, grain, c);
      fn(c, begin, end);
    }
    return;
  }
  for (int64_t c = 0; c < chunks; ++c) {
    const auto [begin, end] = ChunkBounds(n, grain, c);
    pool_->Submit([&fn, c, begin = begin, end = end] {
      ScopedParallelRegion region;
      fn(c, begin, end);
    });
  }
  pool_->Wait();
}

namespace {

std::mutex g_default_mu;

/// Every default context ever made, the current one last. Never freed:
/// kernels may still hold a replaced default, and the list keeps each one
/// reachable, so leak checkers do not report it.
std::vector<Context*>& Defaults() {
  static auto* defaults = new std::vector<Context*>;
  return *defaults;
}

}  // namespace

Context* Default() {
  std::lock_guard<std::mutex> lock(g_default_mu);
  if (Defaults().empty()) {
    int threads = 0;  // host CPUs unless OPENIMA_THREADS parses
    ReadEnvKnob("OPENIMA_THREADS", 0, INT_MAX, &threads);
    Defaults().push_back(new Context(threads));
  }
  return Defaults().back();
}

void SetDefaultNumThreads(int num_threads) {
  std::lock_guard<std::mutex> lock(g_default_mu);
  Defaults().push_back(new Context(num_threads));
}

}  // namespace openima::exec

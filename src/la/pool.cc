#include "src/la/pool.h"

#include <sys/mman.h>

#include <atomic>
#include <new>

#include "src/util/logging.h"

namespace openima::la {

namespace {

std::atomic<int64_t> g_unpooled_allocs{0};
std::atomic<int64_t> g_unpooled_bytes{0};

thread_local Pool* t_bound_pool = nullptr;

// All float storage is 32-byte aligned so that rows of AVX2-friendly widths
// start on a full 256-bit vector boundary and unaligned loads never split
// cache lines. Plain new float[] only guarantees 16 bytes on this ABI,
// which made vector-kernel throughput depend on heap history (the same
// kernel measured up to ~1.8x slower when an allocation landed on an odd
// 16-byte slot).
float* AllocFloats(int64_t count) {
  return static_cast<float*>(::operator new[](
      static_cast<size_t>(count) * sizeof(float), std::align_val_t{32}));
}

void FreeFloats(float* ptr) {
  ::operator delete[](ptr, std::align_val_t{32});
}

// Pool buckets of at least glibc's default mmap threshold are mapped
// straight from the kernel, so Trim() and ~Pool hand them back. Through
// operator new[] they would be heap memory once glibc raised its dynamic
// threshold (freeing one large mmapped chunk raises it), and a heap that
// glibc does not trim keeps a dead model's buckets resident for the rest
// of the process.
constexpr int64_t kMapBytes = int64_t{128} << 10;

int64_t BucketBytes(size_t bucket) {
  return (int64_t{64} << bucket) * static_cast<int64_t>(sizeof(float));
}

float* AllocBucket(size_t bucket) {
  const int64_t bytes = BucketBytes(bucket);
  if (bytes < kMapBytes) {
    return AllocFloats(bytes / static_cast<int64_t>(sizeof(float)));
  }
  void* ptr = mmap(nullptr, static_cast<size_t>(bytes), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  OPENIMA_CHECK(ptr != MAP_FAILED) << "mmap of a " << bytes
                                   << "-byte pool bucket failed";
  return static_cast<float*>(ptr);
}

void FreeBucket(size_t bucket, float* ptr) {
  const int64_t bytes = BucketBytes(bucket);
  if (bytes < kMapBytes) {
    FreeFloats(ptr);
  } else {
    munmap(ptr, static_cast<size_t>(bytes));
  }
}

}  // namespace

Pool::~Pool() {
  std::lock_guard<std::mutex> lock(mu_);
  OPENIMA_CHECK_EQ(stats_.outstanding, 0)
      << "pool destroyed with buffers still in use";
  for (size_t b = 0; b < free_lists_.size(); ++b) {
    for (float* ptr : free_lists_[b]) FreeBucket(b, ptr);
  }
}

int64_t Pool::Capacity(int64_t count) {
  int64_t cap = 64;
  while (cap < count) cap <<= 1;
  return cap;
}

float* Pool::Acquire(int64_t count) {
  OPENIMA_CHECK_GT(count, 0);
  const int64_t cap = Capacity(count);
  int bucket = 0;
  while ((int64_t{64} << bucket) < cap) ++bucket;
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.acquires;
  ++stats_.outstanding;
  stats_.bytes_acquired += cap * static_cast<int64_t>(sizeof(float));
  if (static_cast<size_t>(bucket) < free_lists_.size() &&
      !free_lists_[static_cast<size_t>(bucket)].empty()) {
    ++stats_.hits;
    stats_.bytes_cached -= cap * static_cast<int64_t>(sizeof(float));
    float* ptr = free_lists_[static_cast<size_t>(bucket)].back();
    free_lists_[static_cast<size_t>(bucket)].pop_back();
    return ptr;
  }
  ++stats_.misses;
  stats_.bytes_allocated += cap * static_cast<int64_t>(sizeof(float));
  return AllocBucket(static_cast<size_t>(bucket));
}

void Pool::Release(float* ptr, int64_t count) {
  OPENIMA_CHECK(ptr != nullptr);
  const int64_t cap = Capacity(count);
  int bucket = 0;
  while ((int64_t{64} << bucket) < cap) ++bucket;
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.releases;
  --stats_.outstanding;
  stats_.bytes_cached += cap * static_cast<int64_t>(sizeof(float));
  if (static_cast<size_t>(bucket) >= free_lists_.size()) {
    free_lists_.resize(static_cast<size_t>(bucket) + 1);
  }
  free_lists_[static_cast<size_t>(bucket)].push_back(ptr);
}

PoolStats Pool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void Pool::ResetStats() {
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t outstanding = stats_.outstanding;
  const int64_t cached = stats_.bytes_cached;
  stats_ = PoolStats();
  stats_.outstanding = outstanding;
  stats_.bytes_cached = cached;
}

void Pool::Trim() {
  std::lock_guard<std::mutex> lock(mu_);
  OPENIMA_CHECK_EQ(stats_.outstanding, 0)
      << "Trim() with buffers still in use";
  for (size_t b = 0; b < free_lists_.size(); ++b) {
    for (float* ptr : free_lists_[b]) FreeBucket(b, ptr);
    free_lists_[b].clear();
  }
  stats_.bytes_cached = 0;
}

PoolBinding::PoolBinding(Pool* pool) : previous_(t_bound_pool) {
  t_bound_pool = pool;
}

PoolBinding::~PoolBinding() { t_bound_pool = previous_; }

Pool* BoundPool() { return t_bound_pool; }

int64_t UnpooledAllocCount() {
  return g_unpooled_allocs.load(std::memory_order_relaxed);
}

int64_t UnpooledAllocBytes() {
  return g_unpooled_bytes.load(std::memory_order_relaxed);
}

namespace internal {

float* AcquireStorage(Pool* pool, int64_t count) {
  if (pool != nullptr) return pool->Acquire(count);
  g_unpooled_allocs.fetch_add(1, std::memory_order_relaxed);
  g_unpooled_bytes.fetch_add(count * static_cast<int64_t>(sizeof(float)),
                             std::memory_order_relaxed);
  return AllocFloats(count);
}

void ReleaseStorage(Pool* pool, float* ptr, int64_t count) {
  if (pool != nullptr) {
    pool->Release(ptr, count);
  } else {
    FreeFloats(ptr);
  }
}

}  // namespace internal

}  // namespace openima::la

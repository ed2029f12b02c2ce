#ifndef OPENIMA_LA_POOL_H_
#define OPENIMA_LA_POOL_H_

#include <cstdint>
#include <mutex>
#include <vector>

namespace openima::la {

/// Counters describing a Pool's traffic. Byte counts refer to the rounded
/// bucket capacities actually handed out, not the requested sizes.
struct PoolStats {
  int64_t acquires = 0;        ///< total Acquire() calls served
  int64_t hits = 0;            ///< served from a free list
  int64_t misses = 0;          ///< served by a fresh heap allocation
  int64_t releases = 0;        ///< buffers returned to the pool
  int64_t outstanding = 0;     ///< buffers currently held by callers
  int64_t bytes_acquired = 0;  ///< cumulative bytes handed out
  int64_t bytes_cached = 0;    ///< bytes sitting in free lists right now
  int64_t bytes_allocated = 0; ///< bytes ever heap-allocated by this pool
};

/// Size-bucketed recycling allocator for float buffers — the storage arena
/// behind the training loop's (near-)zero-allocation steady state. Requests
/// are rounded up to power-of-two capacities; each bucket keeps a LIFO free
/// list. The first epoch populates the buckets (misses); later epochs are
/// served entirely from the free lists (hits), so a steady-state epoch
/// performs no heap allocation for matrix storage. Buckets of 128 KiB and
/// more (glibc's default mmap threshold) are mapped with mmap and unmapped
/// by Trim() and the destructor, so a freed pool returns its large buckets
/// to the system whatever the heap's state; smaller ones come from the
/// 32-byte-aligned operator new[].
///
/// Thread safety: Acquire/Release/stats are mutex-guarded, so buffers may be
/// released from a different thread than the one that acquired them. The
/// pool must outlive every buffer acquired from it; the destructor CHECKs
/// that all buffers were returned (a dangling pooled matrix would otherwise
/// read freed memory).
class Pool {
 public:
  Pool() = default;
  ~Pool();

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  /// Returns an uninitialized buffer of at least `count` floats (the actual
  /// capacity is Capacity(count)). `count` must be > 0.
  float* Acquire(int64_t count);

  /// Returns a buffer obtained from Acquire(count) with the same count.
  void Release(float* ptr, int64_t count);

  /// Bucket capacity (in floats) a request of `count` floats maps to:
  /// the smallest power of two >= max(count, 64).
  static int64_t Capacity(int64_t count);

  /// Snapshot of the traffic counters.
  PoolStats stats() const;

  /// Zeroes the cumulative counters (outstanding/bytes_cached are live
  /// quantities and are preserved). Epoch-granular accounting diffs
  /// snapshots instead; this is for test isolation.
  void ResetStats();

  /// Frees every cached buffer (unmapping the large buckets). CHECK-fails
  /// when buffers are still outstanding.
  void Trim();

 private:
  mutable std::mutex mu_;
  // free_lists_[i] holds buffers of capacity 2^i floats.
  std::vector<std::vector<float*>> free_lists_;
  PoolStats stats_;
};

/// RAII thread-local binding: while alive, every la::Matrix allocated on
/// this thread draws its storage from `pool` (and releases it back on
/// destruction, whichever thread that happens on). Bindings nest; the
/// innermost wins. Binding nullptr forces the plain heap path.
class PoolBinding {
 public:
  explicit PoolBinding(Pool* pool);
  ~PoolBinding();

  PoolBinding(const PoolBinding&) = delete;
  PoolBinding& operator=(const PoolBinding&) = delete;

 private:
  Pool* previous_;
};

/// The pool bound to the current thread (nullptr when none).
Pool* BoundPool();

/// Number of matrix/buffer storage allocations that bypassed every pool
/// (process-wide, monotonically increasing). The allocation-regression test
/// asserts this does not move during a steady-state training epoch.
int64_t UnpooledAllocCount();

/// Bytes counterpart of UnpooledAllocCount().
int64_t UnpooledAllocBytes();

namespace internal {
/// Storage backend shared by la::Matrix and PoolBuffer: acquires `count`
/// floats from `pool` (nullptr = heap, counted as unpooled) without
/// initializing them.
float* AcquireStorage(Pool* pool, int64_t count);
void ReleaseStorage(Pool* pool, float* ptr, int64_t count);
}  // namespace internal

/// Uninitialized scratch buffer of floats drawn from the bound pool (heap
/// when none). RAII + move-only; the workhorse for kernel scratch (per-edge
/// attention coefficients, packed GEMM panels) that previously reached for
/// std::vector<float> and paid an allocation plus a zero-fill per call.
class PoolBuffer {
 public:
  PoolBuffer() = default;
  explicit PoolBuffer(int64_t count)
      : pool_(BoundPool()), count_(count),
        data_(count > 0 ? internal::AcquireStorage(pool_, count) : nullptr) {}
  ~PoolBuffer() {
    if (data_ != nullptr) internal::ReleaseStorage(pool_, data_, count_);
  }

  PoolBuffer(PoolBuffer&& other) noexcept
      : pool_(other.pool_), count_(other.count_), data_(other.data_) {
    other.data_ = nullptr;
    other.count_ = 0;
  }
  PoolBuffer& operator=(PoolBuffer&& other) noexcept {
    if (this != &other) {
      if (data_ != nullptr) internal::ReleaseStorage(pool_, data_, count_);
      pool_ = other.pool_;
      count_ = other.count_;
      data_ = other.data_;
      other.data_ = nullptr;
      other.count_ = 0;
    }
    return *this;
  }
  PoolBuffer(const PoolBuffer&) = delete;
  PoolBuffer& operator=(const PoolBuffer&) = delete;

  float* data() { return data_; }
  const float* data() const { return data_; }
  int64_t size() const { return count_; }
  float& operator[](int64_t i) { return data_[i]; }
  float operator[](int64_t i) const { return data_[i]; }

 private:
  Pool* pool_ = nullptr;
  int64_t count_ = 0;
  float* data_ = nullptr;
};

}  // namespace openima::la

#endif  // OPENIMA_LA_POOL_H_

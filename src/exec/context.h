#ifndef OPENIMA_EXEC_CONTEXT_H_
#define OPENIMA_EXEC_CONTEXT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include "src/util/thread_pool.h"

namespace openima::la::backend {
class KernelBackend;  // src/la/backend/backend.h — non-owning pointer
}

namespace openima::exec {

/// Execution context: a thread-pool handle plus the chunking policy every
/// parallel kernel in the compute stack (la, nn, cluster, metrics) routes
/// through. Layers receive a `const Context*` — nullptr means "use the
/// process-wide default" (see Default() below) — so callers can pin a
/// model, a clustering run, or a whole experiment to an explicit thread
/// budget without touching globals.
///
/// Determinism contract: every reduction built on ParallelForChunks is
/// bit-identical for any thread count (including the inline num_threads<=1
/// path), because chunk boundaries depend only on (n, grain) — never on the
/// worker count — and callers combine per-chunk partials in chunk order.
/// ParallelFor makes the weaker (but sufficient) guarantee that each index
/// is processed exactly once; kernels that only write disjoint outputs
/// per-index are deterministic under it as well.
class Context {
 public:
  /// `num_threads == 0` sizes the pool to the host CPU;
  /// `num_threads <= 1` runs everything inline on the calling thread.
  explicit Context(int num_threads = 0);
  ~Context();

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  /// Worker threads available (1 when running inline).
  int num_threads() const { return num_threads_; }

  /// Runs `fn(begin, end)` over a partition of [0, n) into contiguous
  /// ranges of at least `grain` indices, in parallel when the context has
  /// workers. Blocks until every range completes. Ranges may be merged for
  /// scheduling — use ParallelForChunks when chunk identity matters.
  /// Nested calls (from inside a running range) execute inline.
  void ParallelFor(int64_t n, int64_t grain,
                   const std::function<void(int64_t, int64_t)>& fn) const;

  /// Deterministic chunked driver: partitions [0, n) into exactly
  /// NumChunks(n, grain) chunks whose boundaries depend only on (n, grain),
  /// and runs `fn(chunk, begin, end)` for each — possibly concurrently, but
  /// every chunk exactly once. Reductions allocate one private accumulator
  /// per chunk and combine them in ascending chunk order after this
  /// returns; the combine order makes the result independent of the thread
  /// count. Nested calls execute inline (chunk layout unchanged).
  void ParallelForChunks(
      int64_t n, int64_t grain,
      const std::function<void(int64_t chunk, int64_t begin, int64_t end)>& fn)
      const;

  /// Number of fixed chunks ParallelForChunks uses: ceil(n / max(1, grain)).
  static int64_t NumChunks(int64_t n, int64_t grain);

  /// [begin, end) of one fixed chunk.
  static std::pair<int64_t, int64_t> ChunkBounds(int64_t n, int64_t grain,
                                                 int64_t chunk);

  /// Grain that caps the chunk count (bounding per-chunk accumulator
  /// memory) while keeping chunks at least `min_grain` long. Depends only
  /// on n — safe for deterministic reductions.
  static int64_t GrainForMaxChunks(int64_t n, int64_t min_grain,
                                   int64_t max_chunks);

  /// Optional kernel-backend pin carried alongside the thread budget.
  /// Kernels resolve their backend via la::backend::Resolve(ctx): an
  /// explicit context backend wins over the process default (which the
  /// OPENIMA_BACKEND env var / SetDefault select). The backend instances
  /// are process-lifetime singletons. Non-owning.
  const la::backend::KernelBackend* kernel_backend() const {
    return kernel_backend_;
  }
  void set_kernel_backend(const la::backend::KernelBackend* backend) {
    kernel_backend_ = backend;
  }

 private:
  int num_threads_ = 1;
  std::unique_ptr<ThreadPool> pool_;  // null when running inline
  const la::backend::KernelBackend* kernel_backend_ = nullptr;
};

/// Process-wide default context. Sized from the OPENIMA_THREADS environment
/// variable when set (<= 1 forces single-threaded execution), else from the
/// host CPU. Never destroyed.
Context* Default();

/// Replaces the default context with one of the given size (0 = host CPU).
/// The `--threads` flag of the bench binaries lands here. The previous
/// default is intentionally leaked: kernels may still hold it.
void SetDefaultNumThreads(int num_threads);

/// Resolves the ubiquitous "nullptr means default" convention.
inline const Context& Get(const Context* ctx) {
  return ctx != nullptr ? *ctx : *Default();
}

}  // namespace openima::exec

#endif  // OPENIMA_EXEC_CONTEXT_H_

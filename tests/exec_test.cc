#include "src/exec/context.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

namespace openima::exec {
namespace {

TEST(ChunkMathTest, NumChunks) {
  EXPECT_EQ(Context::NumChunks(0, 16), 0);
  EXPECT_EQ(Context::NumChunks(1, 16), 1);
  EXPECT_EQ(Context::NumChunks(16, 16), 1);
  EXPECT_EQ(Context::NumChunks(17, 16), 2);
  EXPECT_EQ(Context::NumChunks(32, 16), 2);
  EXPECT_EQ(Context::NumChunks(33, 16), 3);
  // Degenerate grain is clamped to 1.
  EXPECT_EQ(Context::NumChunks(5, 0), 5);
  EXPECT_EQ(Context::NumChunks(5, -3), 5);
}

TEST(ChunkMathTest, ChunkBoundsTileTheRange) {
  for (int64_t n : {0, 1, 5, 16, 17, 100, 1000}) {
    for (int64_t grain : {1, 3, 16, 64, 5000}) {
      const int64_t chunks = Context::NumChunks(n, grain);
      int64_t expected_begin = 0;
      for (int64_t c = 0; c < chunks; ++c) {
        const auto [begin, end] = Context::ChunkBounds(n, grain, c);
        EXPECT_EQ(begin, expected_begin) << "n=" << n << " grain=" << grain;
        EXPECT_GT(end, begin);
        EXPECT_LE(end, n);
        expected_begin = end;
      }
      EXPECT_EQ(expected_begin, n) << "n=" << n << " grain=" << grain;
    }
  }
}

TEST(ChunkMathTest, GrainForMaxChunksRespectsBothBounds) {
  for (int64_t n : {0, 1, 100, 257, 10000, 1000000}) {
    for (int64_t min_grain : {1, 16, 256}) {
      for (int64_t max_chunks : {1, 8, 64}) {
        const int64_t grain = Context::GrainForMaxChunks(n, min_grain,
                                                         max_chunks);
        EXPECT_GE(grain, min_grain);
        EXPECT_LE(Context::NumChunks(n, grain), max_chunks)
            << "n=" << n << " min_grain=" << min_grain
            << " max_chunks=" << max_chunks;
      }
    }
  }
}

/// Every index in [0, n) must be visited exactly once, for inline and
/// threaded contexts alike.
void CheckParallelForCoverage(const Context& ctx, int64_t n, int64_t grain) {
  std::vector<std::atomic<int>> visits(static_cast<size_t>(n));
  ctx.ParallelFor(n, grain, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      visits[static_cast<size_t>(i)].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_EQ(visits[static_cast<size_t>(i)].load(), 1)
        << "index " << i << " n=" << n << " grain=" << grain;
  }
}

TEST(ContextTest, ParallelForCoversEveryIndexOnce) {
  Context inline_ctx(1);
  Context pool_ctx(4);
  for (int64_t n : {0, 1, 7, 64, 1000}) {
    for (int64_t grain : {1, 16, 10000}) {
      CheckParallelForCoverage(inline_ctx, n, grain);
      CheckParallelForCoverage(pool_ctx, n, grain);
    }
  }
}

/// ParallelForChunks must run exactly the fixed chunks ChunkBounds
/// describes, regardless of thread count.
void CheckChunkIdentity(const Context& ctx, int64_t n, int64_t grain) {
  const int64_t chunks = Context::NumChunks(n, grain);
  std::vector<std::atomic<int>> seen(static_cast<size_t>(chunks));
  ctx.ParallelForChunks(n, grain, [&](int64_t chunk, int64_t begin,
                                      int64_t end) {
    ASSERT_GE(chunk, 0);
    ASSERT_LT(chunk, chunks);
    const auto [eb, ee] = Context::ChunkBounds(n, grain, chunk);
    EXPECT_EQ(begin, eb);
    EXPECT_EQ(end, ee);
    seen[static_cast<size_t>(chunk)].fetch_add(1, std::memory_order_relaxed);
  });
  for (int64_t c = 0; c < chunks; ++c) {
    EXPECT_EQ(seen[static_cast<size_t>(c)].load(), 1);
  }
}

TEST(ContextTest, ParallelForChunksMatchesChunkBounds) {
  Context inline_ctx(1);
  Context pool_ctx(4);
  for (int64_t n : {0, 1, 15, 16, 17, 500}) {
    for (int64_t grain : {1, 16, 64}) {
      CheckChunkIdentity(inline_ctx, n, grain);
      CheckChunkIdentity(pool_ctx, n, grain);
    }
  }
}

TEST(ContextTest, NestedCallsRunInlineWithoutDeadlock) {
  Context ctx(4);
  std::atomic<int64_t> total{0};
  ctx.ParallelFor(8, 1, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      // A nested region must not be resubmitted to the (busy) pool.
      ctx.ParallelFor(10, 1, [&](int64_t b, int64_t e) {
        total.fetch_add(e - b, std::memory_order_relaxed);
      });
    }
  });
  EXPECT_EQ(total.load(), 8 * 10);
}

/// The determinism contract in one test: a chunked floating-point
/// reduction combined in chunk order is bit-identical across thread
/// counts, even though float addition is not associative.
double ChunkedSum(const Context& ctx, const std::vector<float>& values) {
  const int64_t n = static_cast<int64_t>(values.size());
  const int64_t grain = Context::GrainForMaxChunks(n, 16, 64);
  const int64_t chunks = Context::NumChunks(n, grain);
  std::vector<double> partial(static_cast<size_t>(chunks), 0.0);
  ctx.ParallelForChunks(n, grain, [&](int64_t chunk, int64_t begin,
                                      int64_t end) {
    double acc = 0.0;
    for (int64_t i = begin; i < end; ++i) {
      acc += static_cast<double>(values[static_cast<size_t>(i)]);
    }
    partial[static_cast<size_t>(chunk)] = acc;
  });
  double total = 0.0;
  for (double p : partial) total += p;  // ascending chunk order
  return total;
}

TEST(ContextTest, ChunkedReductionIsThreadCountInvariant) {
  std::vector<float> values(10007);
  // Wildly varying magnitudes so any reassociation would change the sum.
  uint64_t state = 0x9e3779b97f4a7c15ull;
  for (size_t i = 0; i < values.size(); ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const float mag = static_cast<float>((state >> 40) % 1000) - 500.0f;
    values[i] = mag * (1.0f + static_cast<float>(i % 13) * 1e-3f);
  }
  Context c1(1);
  Context c2(2);
  Context c4(4);
  const double s1 = ChunkedSum(c1, values);
  EXPECT_EQ(s1, ChunkedSum(c2, values));
  EXPECT_EQ(s1, ChunkedSum(c4, values));
}

TEST(ContextTest, DefaultAndOverride) {
  Context* before = Default();
  ASSERT_NE(before, nullptr);
  EXPECT_GE(before->num_threads(), 1);
  SetDefaultNumThreads(1);
  EXPECT_EQ(Default()->num_threads(), 1);
  EXPECT_EQ(&Get(nullptr), Default());
  Context explicit_ctx(2);
  EXPECT_EQ(&Get(&explicit_ctx), &explicit_ctx);
  SetDefaultNumThreads(0);  // restore a host-sized default for other tests
}

/// OPENIMA_THREADS sizes the process default as --threads does: a whole
/// number >= 0, with 0 meaning the host CPUs. Any other value gets a stderr
/// note and keeps the host default. The default is built once per process,
/// so each value is read in a fresh child.
TEST(ContextTest, ThreadsEnvParsesStrictly) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const std::string host = std::to_string(
      std::max(1u, std::thread::hardware_concurrency()));
  struct Case {
    const char* value;  // nullptr = unset
    std::string threads;
    bool noted;  // an invalid value: a stderr note, then the host default
  };
  for (const Case& c :
       {Case{nullptr, host, false}, Case{"3", "3", false},
        Case{"1", "1", false}, Case{"0", host, false}, Case{"abc", host, true},
        Case{"3x", host, true}, Case{"-2", host, true},
        Case{"2.5", host, true}}) {
    const std::string note =
        c.noted ? "OPENIMA_THREADS: invalid value '" + std::string(c.value) +
                      "' \\(ignored\\)\n"
                : "";
    const std::string expected = "^" + note + "threads=" + c.threads + ";";
    EXPECT_EXIT(
        {
          if (c.value == nullptr) {
            unsetenv("OPENIMA_THREADS");
          } else {
            setenv("OPENIMA_THREADS", c.value, 1);
          }
          std::fprintf(stderr, "threads=%d;", Default()->num_threads());
          std::exit(0);
        },
        ::testing::ExitedWithCode(0), expected)
        << (c.value == nullptr ? "unset" : c.value);
  }
}

}  // namespace
}  // namespace openima::exec

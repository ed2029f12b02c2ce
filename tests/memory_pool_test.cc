#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <random>
#include <vector>

#include "src/autograd/ops.h"
#include "src/autograd/tape.h"
#include "src/autograd/variable.h"
#include "src/core/openima.h"
#include "src/graph/splits.h"
#include "src/graph/synthetic.h"
#include "src/la/matrix.h"
#include "src/la/pool.h"
#include "src/nn/arena.h"
#include "src/util/rng.h"

/// The memory layer's contract: while a pool/tape is bound, every matrix,
/// scratch buffer and graph node recycles through the arena — and after the
/// first epoch has populated the buckets, training steps stop touching the
/// heap entirely. These tests pin the bucketing rules, the RAII binding
/// semantics, and the end-to-end allocation-free steady state.
namespace openima {
namespace {

namespace ops = openima::autograd::ops;

// ---------------------------------------------------------------------------
// Bucketing and reuse
// ---------------------------------------------------------------------------

TEST(PoolTest, CapacityRoundsUpToPowerOfTwoBuckets) {
  EXPECT_EQ(la::Pool::Capacity(1), 64);
  EXPECT_EQ(la::Pool::Capacity(64), 64);
  EXPECT_EQ(la::Pool::Capacity(65), 128);
  EXPECT_EQ(la::Pool::Capacity(1000), 1024);
  EXPECT_EQ(la::Pool::Capacity(1024), 1024);
  EXPECT_EQ(la::Pool::Capacity(1025), 2048);
}

TEST(PoolTest, ReusesReleasedBuffersFromTheSameBucket) {
  la::Pool pool;
  float* a = pool.Acquire(100);  // bucket 128
  pool.Release(a, 100);
  float* b = pool.Acquire(80);  // same bucket -> same block back (LIFO)
  EXPECT_EQ(a, b);
  const la::PoolStats& s = pool.stats();
  EXPECT_EQ(s.acquires, 2);
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.outstanding, 1);
  pool.Release(b, 80);
  EXPECT_EQ(pool.stats().outstanding, 0);
  pool.Trim();
  EXPECT_EQ(pool.stats().bytes_cached, 0);
}

TEST(PoolTest, StressMixedShapesShuffledReleaseOrder) {
  la::Pool pool;
  // Mixed sizes spanning several buckets, including bucket-exact and
  // sub-minimum counts.
  const std::vector<int64_t> sizes = {1,   7,    64,  65,   100, 128,
                                      500, 1000, 777, 2048, 33,  4096};
  std::mt19937 shuffler(1234);
  int64_t misses_after_first_round = -1;
  for (int round = 0; round < 20; ++round) {
    std::vector<std::pair<float*, int64_t>> live;
    live.reserve(sizes.size());
    for (int64_t n : sizes) {
      float* p = pool.Acquire(n);
      // Touch the full requested extent: ASan (OPENIMA_SANITIZE=address)
      // turns any bucket-accounting bug into a hard failure here.
      std::fill(p, p + n, static_cast<float>(n));
      live.emplace_back(p, n);
    }
    for (auto& [p, n] : live) {
      EXPECT_EQ(p[0], static_cast<float>(n));
      EXPECT_EQ(p[n - 1], static_cast<float>(n));
    }
    // Release in a different order every round: free-list reuse must not
    // depend on acquisition order.
    std::shuffle(live.begin(), live.end(), shuffler);
    for (auto& [p, n] : live) pool.Release(p, n);
    if (round == 0) misses_after_first_round = pool.stats().misses;
  }
  const la::PoolStats& s = pool.stats();
  // Every round after the first is served entirely from the free lists.
  EXPECT_EQ(s.misses, misses_after_first_round);
  EXPECT_EQ(s.acquires, static_cast<int64_t>(sizes.size()) * 20);
  EXPECT_EQ(s.releases, s.acquires);
  EXPECT_EQ(s.outstanding, 0);
  EXPECT_EQ(s.hits + s.misses, s.acquires);
}

#if defined(__GLIBC__)
/// Resident set size of this process, from /proc/self/statm.
int64_t ResidentBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return -1;
  long size = 0, resident = 0;
  const int got = std::fscanf(f, "%ld %ld", &size, &resident);
  std::fclose(f);
  return got == 2 ? int64_t{resident} * sysconf(_SC_PAGESIZE) : -1;
}

/// Large buckets go back to the system on Trim() whatever glibc's state.
/// Freeing a large mmapped block raises glibc's dynamic mmap threshold past
/// it; operator new[] then serves 4 MiB from a heap that glibc does not
/// trim, so a pool that took its buckets there stayed resident.
TEST(PoolTest, TrimReturnsLargeBucketsToTheSystem) {
  char* volatile block = new char[16 << 20];
  block[0] = 1;
  delete[] block;

  constexpr int64_t kFloats = int64_t{1} << 20;  // 4 MiB buckets
  la::Pool pool;
  float* a = pool.Acquire(kFloats);
  float* b = pool.Acquire(kFloats);
  std::fill(a, a + kFloats, 1.0f);
  std::fill(b, b + kFloats, 2.0f);
  pool.Release(a, kFloats);
  pool.Release(b, kFloats);
  const int64_t before = ResidentBytes();
  ASSERT_GT(before, 0);
  pool.Trim();
  EXPECT_GE(before - ResidentBytes(), int64_t{7} << 20)
      << "Trim() kept the 8 MiB of buckets resident";
}
#endif

// ---------------------------------------------------------------------------
// Bindings: thread-local routing of Matrix / PoolBuffer storage
// ---------------------------------------------------------------------------

TEST(PoolBindingTest, MatrixStorageRoutesThroughBoundPool) {
  la::Pool pool;
  const int64_t unpooled_before = la::UnpooledAllocCount();
  {
    la::PoolBinding bind(&pool);
    EXPECT_EQ(la::BoundPool(), &pool);
    Rng rng(7);
    la::Matrix m = la::Matrix::Normal(30, 20, 0.0f, 1.0f, &rng);
    la::Matrix copy = m;         // pooled copy
    la::Matrix moved = std::move(copy);  // move: no new storage
    EXPECT_TRUE(m == moved);
    EXPECT_GT(pool.stats().acquires, 0);
  }
  // Everything created under the binding came back to the pool...
  EXPECT_EQ(pool.stats().outstanding, 0);
  // ...and none of it touched the global heap path.
  EXPECT_EQ(la::UnpooledAllocCount(), unpooled_before);
}

TEST(PoolBindingTest, UnboundMatrixAllocationsCountAsUnpooled) {
  ASSERT_EQ(la::BoundPool(), nullptr);
  const int64_t before = la::UnpooledAllocCount();
  la::Matrix m(16, 16);
  EXPECT_GT(la::UnpooledAllocCount(), before);
}

TEST(PoolBindingTest, NullBindingForcesHeapInsideOuterBinding) {
  la::Pool pool;
  la::PoolBinding outer(&pool);
  const int64_t acquires_before = pool.stats().acquires;
  const int64_t unpooled_before = la::UnpooledAllocCount();
  {
    la::PoolBinding escape(nullptr);  // nested opt-out
    EXPECT_EQ(la::BoundPool(), nullptr);
    la::Matrix m(8, 8);
  }
  EXPECT_EQ(la::BoundPool(), &pool);  // outer binding restored
  EXPECT_EQ(pool.stats().acquires, acquires_before);
  EXPECT_GT(la::UnpooledAllocCount(), unpooled_before);
}

TEST(PoolBufferTest, DrawsFromBoundPoolAndReleasesOnDestruction) {
  la::Pool pool;
  la::PoolBinding bind(&pool);
  {
    la::PoolBuffer buf(200);
    ASSERT_EQ(buf.size(), 200);
    for (int64_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<float>(i);
    EXPECT_EQ(buf[199], 199.0f);
    EXPECT_EQ(pool.stats().outstanding, 1);
    la::PoolBuffer stolen = std::move(buf);  // move transfers ownership
    EXPECT_EQ(stolen.size(), 200);
    EXPECT_EQ(pool.stats().outstanding, 1);
  }
  EXPECT_EQ(pool.stats().outstanding, 0);
  EXPECT_EQ(pool.stats().hits + pool.stats().misses, pool.stats().acquires);
}

// ---------------------------------------------------------------------------
// Tape: graph-node recycling across epochs
// ---------------------------------------------------------------------------

TEST(TapeTest, SecondStepIsServedFromRecycledBlocks) {
  autograd::Tape tape;
  auto one_step = [&] {
    autograd::TapeBinding bind(&tape);
    autograd::Variable x =
        autograd::Variable::Leaf(la::Matrix({{1.0f, 2.0f}, {3.0f, 4.0f}}),
                                 true);
    autograd::Variable y = ops::Scale(ops::Mul(x, x), 0.5f);
    autograd::Variable loss = ops::SumAll(y);
    loss.Backward();
    EXPECT_NEAR(loss.value()(0, 0), 15.0f, 1e-5);
  };

  one_step();
  tape.Reset();
  const autograd::TapeStats after_first = tape.stats();
  EXPECT_GT(after_first.nodes, 0);
  EXPECT_GT(after_first.misses, 0);
  EXPECT_EQ(after_first.outstanding, 0);

  one_step();  // identical graph: every node block recycles
  tape.Reset();
  const autograd::TapeStats after_second = tape.stats();
  EXPECT_EQ(after_second.misses, after_first.misses);
  EXPECT_EQ(after_second.hits, after_first.hits + after_first.nodes);
  EXPECT_EQ(after_second.bytes_allocated, after_first.bytes_allocated);
  EXPECT_EQ(after_second.outstanding, 0);
  EXPECT_EQ(after_second.resets, 2);
}

TEST(TrainingArenaTest, EndEpochRecyclesWholeSteps) {
  nn::TrainingArena arena;
  for (int epoch = 0; epoch < 3; ++epoch) {
    nn::TrainingArena::Binding bind(&arena);
    arena.EndEpoch();
    autograd::Variable x =
        autograd::Variable::Leaf(la::Matrix({{0.5f, -0.25f}}), true);
    autograd::Variable loss = ops::MeanAll(ops::Elu(x));
    loss.Backward();
  }
  EXPECT_EQ(arena.pool().stats().outstanding, 0);
  EXPECT_EQ(arena.tape().stats().outstanding, 0);
  // Epochs 1 and 2 re-used epoch 0's blocks.
  EXPECT_GT(arena.tape().stats().hits, 0);
}

// ---------------------------------------------------------------------------
// Allocation regression: steady-state training epochs are allocation-free
// ---------------------------------------------------------------------------

/// Trains a small OpenIMA model end-to-end and asserts the tentpole claim:
/// after the warmup epochs have populated the arena (including the first
/// pseudo-label refresh, which introduces the last new shapes), epochs
/// perform zero unpooled matrix allocations and zero pool misses.
TEST(AllocationRegressionTest, SteadyStateEpochsAreAllocationFree) {
  graph::SbmConfig sbm;
  sbm.num_nodes = 120;
  sbm.num_classes = 4;
  sbm.feature_dim = 10;
  sbm.avg_degree = 8.0;
  sbm.homophily = 0.85;
  sbm.feature_noise = 1.0;
  auto dataset = graph::GenerateSbm(sbm, 21, "alloc-regression");
  ASSERT_TRUE(dataset.ok());
  graph::SplitOptions so;
  so.labeled_per_class = 8;
  so.val_per_class = 4;
  auto split = graph::MakeOpenWorldSplit(*dataset, so, 22);
  ASSERT_TRUE(split.ok());

  core::OpenImaConfig config;
  config.encoder.in_dim = dataset->feature_dim();
  config.encoder.hidden_dim = 16;
  config.encoder.embedding_dim = 16;
  config.encoder.num_heads = 2;
  config.num_seen = split->num_seen;
  config.num_novel = split->num_novel;
  config.epochs = 6;
  config.batch_size = 128;
  config.use_memory_pool = true;
  core::OpenImaModel model(config, dataset->feature_dim(), 23);
  ASSERT_TRUE(model.Train(*dataset, *split).ok());

  const core::TrainStats& stats = model.train_stats();
  ASSERT_EQ(stats.epoch_unpooled_allocs.size(), 6u);
  ASSERT_EQ(stats.epoch_pool_misses.size(), 6u);
  // Epoch 0 populates the pool; pseudo-labeling starts at epoch
  // pseudo_warmup_epochs (= 2) and brings the final new shapes. Everything
  // after that must be served entirely from the arena.
  for (size_t e = 3; e < 6; ++e) {
    EXPECT_EQ(stats.epoch_unpooled_allocs[e], 0)
        << "epoch " << e << " made unpooled matrix allocations";
    EXPECT_EQ(stats.epoch_pool_misses[e], 0)
        << "epoch " << e << " missed the pool";
  }
  // The pool saw real traffic and every buffer it handed out while training
  // either came back or is retained by the live model (params, Adam state).
  EXPECT_GT(stats.pool_stats.hits, stats.pool_stats.misses);
  EXPECT_GT(stats.tape_stats.hits, 0);
  EXPECT_EQ(stats.tape_stats.outstanding, 0);

  // Pseudo-label refreshes run at epochs 2..5 (warmup = 2, refresh every
  // epoch). The first refresh introduces the clustering shapes (distance
  // matrices, Lloyd bound buffers, norm scratch); every later refresh must
  // be served entirely from the arena — the clustering stage is as
  // allocation-free as the training step.
  ASSERT_EQ(stats.refresh_unpooled_allocs.size(), 4u);
  ASSERT_EQ(stats.refresh_pool_misses.size(), 4u);
  for (size_t r = 1; r < stats.refresh_unpooled_allocs.size(); ++r) {
    EXPECT_EQ(stats.refresh_unpooled_allocs[r], 0)
        << "refresh " << r << " made unpooled matrix allocations";
    EXPECT_EQ(stats.refresh_pool_misses[r], 0)
        << "refresh " << r << " missed the pool";
  }
}

/// Predict and HeadPredict run on the model's arena too: once Train and one
/// warm call have populated its buckets, a second call allocates no matrix
/// storage outside it — in two-stage mode (K-Means and alignment over eval
/// embeddings) and in large-graph head mode (argmax over eval logits).
TEST(AllocationRegressionTest, WarmPredictIsAllocationFree) {
  graph::SbmConfig sbm;
  sbm.num_nodes = 120;
  sbm.num_classes = 4;
  sbm.feature_dim = 10;
  sbm.avg_degree = 8.0;
  sbm.homophily = 0.85;
  sbm.feature_noise = 1.0;
  auto dataset = graph::GenerateSbm(sbm, 41, "alloc-predict");
  ASSERT_TRUE(dataset.ok());
  graph::SplitOptions so;
  so.labeled_per_class = 8;
  so.val_per_class = 4;
  auto split = graph::MakeOpenWorldSplit(*dataset, so, 42);
  ASSERT_TRUE(split.ok());

  for (const bool large_graph : {false, true}) {
    SCOPED_TRACE(large_graph ? "large-graph head mode" : "two-stage mode");
    core::OpenImaConfig config;
    config.encoder.in_dim = dataset->feature_dim();
    config.encoder.hidden_dim = 16;
    config.encoder.embedding_dim = 16;
    config.encoder.num_heads = 2;
    config.num_seen = split->num_seen;
    config.num_novel = split->num_novel;
    config.epochs = 3;
    config.batch_size = 128;
    config.large_graph_mode = large_graph;
    config.use_memory_pool = true;
    core::OpenImaModel model(config, dataset->feature_dim(), 43);
    ASSERT_TRUE(model.Train(*dataset, *split).ok());
    ASSERT_TRUE(model.Predict(*dataset, *split).ok());
    model.HeadPredict(*dataset);

    int64_t before = la::UnpooledAllocCount();
    model.HeadPredict(*dataset);
    EXPECT_EQ(la::UnpooledAllocCount() - before, 0) << "HeadPredict";
    before = la::UnpooledAllocCount();
    ASSERT_TRUE(model.Predict(*dataset, *split).ok());
    EXPECT_EQ(la::UnpooledAllocCount() - before, 0) << "Predict";
  }
}

/// The same training run with the pool disabled allocates every epoch —
/// the counter the regression test relies on actually measures something.
TEST(AllocationRegressionTest, UnpooledPathAllocatesEveryEpoch) {
  graph::SbmConfig sbm;
  sbm.num_nodes = 80;
  sbm.num_classes = 3;
  sbm.feature_dim = 8;
  sbm.avg_degree = 6.0;
  sbm.homophily = 0.85;
  sbm.feature_noise = 1.0;
  auto dataset = graph::GenerateSbm(sbm, 31, "alloc-regression-off");
  ASSERT_TRUE(dataset.ok());
  graph::SplitOptions so;
  so.labeled_per_class = 6;
  so.val_per_class = 3;
  auto split = graph::MakeOpenWorldSplit(*dataset, so, 32);
  ASSERT_TRUE(split.ok());

  core::OpenImaConfig config;
  config.encoder.in_dim = dataset->feature_dim();
  config.encoder.hidden_dim = 8;
  config.encoder.embedding_dim = 8;
  config.encoder.num_heads = 2;
  config.num_seen = split->num_seen;
  config.num_novel = split->num_novel;
  config.epochs = 4;
  config.batch_size = 64;
  config.use_memory_pool = false;
  core::OpenImaModel model(config, dataset->feature_dim(), 33);
  ASSERT_TRUE(model.Train(*dataset, *split).ok());

  const core::TrainStats& stats = model.train_stats();
  for (int64_t allocs : stats.epoch_unpooled_allocs) EXPECT_GT(allocs, 0);
  EXPECT_EQ(stats.pool_stats.acquires, 0);
}

}  // namespace
}  // namespace openima

// Micro-benchmarks for the substrates behind OpenIMA and the §IV-C
// complexity claims: GEMM, GAT forward/backward, K-Means (full and
// mini-batch), Hungarian assignment, the BPCL contrastive loss, silhouette,
// and a full OpenIMA training epoch as a function of graph size N (the
// paper argues ~O(N log N) per iteration for fixed d, K, N_b).

#include <benchmark/benchmark.h>

#include <cstdio>

#include "src/assign/hungarian.h"
#include "src/autograd/ops.h"
#include "src/cluster/kmeans.h"
#include "src/cluster/silhouette.h"
#include "src/core/novel_count.h"
#include "src/core/openima.h"
#include "src/core/positive_sets.h"
#include "src/exec/context.h"
#include "src/graph/sampler.h"
#include "src/graph/splits.h"
#include "src/graph/synthetic.h"
#include "src/la/backend/backend.h"
#include "src/la/distance.h"
#include "src/la/matrix_ops.h"
#include "src/nn/gat.h"
#include "src/obs/obs.h"

namespace openima {
namespace {

namespace ops = autograd::ops;
using autograd::Variable;

// benchmark_main owns main(); honor OPENIMA_TRACE via a static initializer
// so `OPENIMA_TRACE=trace.json ./bench_micro` records the span timeline of
// every benchmarked epoch/clustering call.
[[maybe_unused]] const bool kObsInit = [] {
  obs::InitFromEnv();
  return true;
}();

// ---------------------------------------------------------------------------
// Kernel benchmarks: the seed's naive i-k-j loop (MatmulReference) vs the
// blocked register-tiled GEMM, serial and under explicit thread counts.
// The two kernels are bit-identical (see kernel_parity_test), so any gap is
// pure blocking/parallelism.

/// The seed kernel: naive i-k-j GEMM, no tiling, no threads.
void BM_GemmReference(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  la::Matrix a = la::Matrix::Normal(n, n, 0.0f, 1.0f, &rng);
  la::Matrix b = la::Matrix::Normal(n, n, 0.0f, 1.0f, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(la::MatmulReference(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_GemmReference)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

/// Blocked GEMM through the process-default execution context.
void BM_Gemm(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  la::Matrix a = la::Matrix::Normal(n, n, 0.0f, 1.0f, &rng);
  la::Matrix b = la::Matrix::Normal(n, n, 0.0f, 1.0f, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(la::Matmul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

/// Blocked GEMM pinned to an explicit thread count (second arg).
void BM_GemmThreads(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  exec::Context ctx(threads);
  Rng rng(1);
  la::Matrix a = la::Matrix::Normal(n, n, 0.0f, 1.0f, &rng);
  la::Matrix b = la::Matrix::Normal(n, n, 0.0f, 1.0f, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(la::Matmul(a, b, &ctx));
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_GemmThreads)
    ->UseRealTime()
    ->Args({256, 1})
    ->Args({256, 2})
    ->Args({256, 4})
    ->Args({512, 1})
    ->Args({512, 4});

graph::Dataset MakeBenchGraph(int n, int classes = 6, int dim = 32) {
  graph::SbmConfig c;
  c.num_nodes = n;
  c.num_classes = classes;
  c.feature_dim = dim;
  c.avg_degree = 12.0;
  auto ds = graph::GenerateSbm(c, 7, "bench");
  return std::move(ds).value();
}

// The eval-mode forward as the library's eval callers run it: tape-free.
void BM_GatForward(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  graph::Dataset ds = MakeBenchGraph(n);
  Rng rng(2);
  nn::GatEncoderConfig cfg;
  cfg.in_dim = ds.feature_dim();
  cfg.hidden_dim = 64;
  cfg.embedding_dim = 64;
  cfg.num_heads = 4;
  cfg.dropout = 0.0f;
  nn::GatEncoder encoder(cfg, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.ForwardFrozen(ds.graph, ds.features));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_GatForward)->Arg(500)->Arg(1000)->Arg(2000);

void BM_GatForwardBackward(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  graph::Dataset ds = MakeBenchGraph(n);
  Rng rng(3);
  nn::GatEncoderConfig cfg;
  cfg.in_dim = ds.feature_dim();
  cfg.hidden_dim = 64;
  cfg.embedding_dim = 64;
  cfg.num_heads = 4;
  nn::GatEncoder encoder(cfg, &rng);
  Variable features = Variable::Leaf(ds.features, false);
  for (auto _ : state) {
    encoder.ZeroGrad();
    Variable out = encoder.Forward(ds.graph, features, true, &rng);
    ops::MeanAll(ops::Mul(out, out)).Backward();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_GatForwardBackward)->Arg(500)->Arg(1000);

/// GAT forward + backward pinned to an explicit thread count (second arg);
/// the attention/aggregation loops and the gather-based backward both
/// parallelize over node ranges.
void BM_GatForwardBackwardThreads(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  exec::Context ctx(threads);
  graph::Dataset ds = MakeBenchGraph(n);
  Rng rng(3);
  nn::GatEncoderConfig cfg;
  cfg.in_dim = ds.feature_dim();
  cfg.hidden_dim = 64;
  cfg.embedding_dim = 64;
  cfg.num_heads = 4;
  cfg.exec = &ctx;
  nn::GatEncoder encoder(cfg, &rng);
  Variable features = Variable::Leaf(ds.features, false);
  for (auto _ : state) {
    encoder.ZeroGrad();
    Variable out = encoder.Forward(ds.graph, features, true, &rng);
    ops::MeanAll(ops::Mul(out, out)).Backward();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_GatForwardBackwardThreads)
    ->UseRealTime()
    ->Args({1000, 1})
    ->Args({1000, 2})
    ->Args({1000, 4});

// Second arg: 0 = plain Lloyd, 1 = triangle-inequality accelerated Lloyd
// (bit-identical results — cluster_parity_test — so the gap is pure
// pruning + the shared vectorized distance kernel).
void BM_KMeans(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(4);
  la::Matrix points = la::Matrix::Normal(n, 64, 0.0f, 1.0f, &rng);
  cluster::KMeansOptions options;
  options.num_clusters = 10;
  options.max_iterations = 20;
  options.accelerated = state.range(1) != 0;
  for (auto _ : state) {
    Rng local(5);
    benchmark::DoNotOptimize(cluster::KMeans(points, options, &local));
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel(options.accelerated ? "accelerated" : "plain");
}
BENCHMARK(BM_KMeans)
    ->Args({1000, 0})
    ->Args({1000, 1})
    ->Args({4000, 0})
    ->Args({4000, 1});

/// One Lloyd iteration (fused assignment + center accumulation) pinned to
/// an explicit thread count (second arg). Seeding dominates at small n, so
/// max_iterations=1 isolates the parallelized inner loop as much as a
/// public-API benchmark can.
void BM_KMeansIteration(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  exec::Context ctx(threads);
  Rng rng(4);
  la::Matrix points = la::Matrix::Normal(n, 64, 0.0f, 1.0f, &rng);
  cluster::KMeansOptions options;
  options.num_clusters = 10;
  options.max_iterations = 1;
  options.exec = &ctx;
  for (auto _ : state) {
    Rng local(5);
    benchmark::DoNotOptimize(cluster::KMeans(points, options, &local));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_KMeansIteration)
    ->UseRealTime()
    ->Args({4000, 1})
    ->Args({4000, 2})
    ->Args({4000, 4});

void BM_MiniBatchKMeans(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(6);
  la::Matrix points = la::Matrix::Normal(n, 64, 0.0f, 1.0f, &rng);
  cluster::MiniBatchKMeansOptions options;
  options.num_clusters = 10;
  options.batch_size = 256;
  options.max_iterations = 50;
  for (auto _ : state) {
    Rng local(7);
    benchmark::DoNotOptimize(cluster::MiniBatchKMeans(points, options, &local));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_MiniBatchKMeans)->Arg(4000)->Arg(16000);

void BM_Hungarian(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(8);
  std::vector<std::vector<double>> cost(static_cast<size_t>(n),
                                        std::vector<double>(static_cast<size_t>(n)));
  for (auto& row : cost) {
    for (auto& v : row) v = rng.Uniform();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(assign::MinCostAssignment(cost));
  }
}
BENCHMARK(BM_Hungarian)->Arg(16)->Arg(64)->Arg(256);

void BM_SupConLoss(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  Rng rng(9);
  la::Matrix z = la::Matrix::Normal(2 * batch, 64, 0.0f, 1.0f, &rng);
  la::RowL2NormalizeInPlace(&z);
  std::vector<int> labels(static_cast<size_t>(batch));
  for (auto& l : labels) l = static_cast<int>(rng.UniformInt(8));
  const auto positives = core::BuildPositiveSets(labels);
  for (auto _ : state) {
    Variable zv = Variable::Leaf(z, true);
    Variable loss = ops::SupConLoss(zv, positives, 0.7f);
    loss.Backward();
    benchmark::DoNotOptimize(loss.value()(0, 0));
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_SupConLoss)->Arg(256)->Arg(512)->Arg(1024);

// Second arg: 0 = scalar per-pair double loop (the historical path), 1 =
// anchor-block x point-tile kernel over the shared GEMM micro-tiles.
void BM_Silhouette(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(10);
  la::Matrix points = la::Matrix::Normal(n, 32, 0.0f, 1.0f, &rng);
  std::vector<int> labels(static_cast<size_t>(n));
  for (auto& l : labels) l = static_cast<int>(rng.UniformInt(6));
  cluster::SilhouetteOptions options;
  options.max_samples = 500;
  options.use_blocked = state.range(1) != 0;
  for (auto _ : state) {
    Rng local(11);
    benchmark::DoNotOptimize(
        cluster::SilhouetteCoefficient(points, labels, options, &local));
  }
  state.SetLabel(options.use_blocked ? "blocked" : "scalar");
}
BENCHMARK(BM_Silhouette)
    ->Args({1000, 0})
    ->Args({1000, 1})
    ->Args({4000, 0})
    ->Args({4000, 1});

// The §V-E novel-class-count estimator: a K-Means + silhouette sweep over
// k = num_seen + [min_novel, max_novel] on mixture data shaped like the
// paper's embedding matrices. Second arg: warm-start the sweep's K-Means
// from the previous candidate's centers (1) vs cold k-means++ per k (0).
void BM_NovelCountSweep(benchmark::State& state) {
  const int n = 2000, d = 32, true_k = 8;
  Rng rng(12);
  la::Matrix points(n, d);
  for (int i = 0; i < n; ++i) {
    const int c = i % true_k;
    for (int j = 0; j < d; ++j) {
      const double center = (j % true_k == c) ? 4.0 : 0.0;
      points(i, j) = static_cast<float>(center + rng.Normal());
    }
  }
  core::NovelCountOptions options;
  options.num_seen = 4;
  options.min_novel = 2;
  options.max_novel = 7;
  options.kmeans_max_iterations = 30;
  options.silhouette_max_samples = 1000;
  options.warm_start_sweep = state.range(0) != 0;
  for (auto _ : state) {
    Rng local(13);
    benchmark::DoNotOptimize(
        core::EstimateNovelClassCount(points, options, &local));
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel(options.warm_start_sweep ? "warm-start" : "cold");
}
BENCHMARK(BM_NovelCountSweep)->Arg(0)->Arg(1);

// §IV-C: one OpenIMA training epoch (pseudo-labeling + two views + BPCL +
// CE + backward + K-Means) as a function of N.
void BM_OpenImaEpoch(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  graph::Dataset ds = MakeBenchGraph(n);
  graph::SplitOptions so;
  so.labeled_per_class = 20;
  so.val_per_class = 10;
  auto split = graph::MakeOpenWorldSplit(ds, so, 1);
  core::OpenImaConfig config;
  config.encoder.in_dim = ds.feature_dim();
  config.encoder.hidden_dim = 32;
  config.encoder.embedding_dim = 32;
  config.encoder.num_heads = 2;
  config.num_seen = split->num_seen;
  config.num_novel = split->num_novel;
  config.epochs = 1;
  config.batch_size = 512;
  for (auto _ : state) {
    core::OpenImaModel model(config, ds.feature_dim(), 3);
    benchmark::DoNotOptimize(model.Train(ds, *split));
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel("one full epoch, Nb=512");
}
BENCHMARK(BM_OpenImaEpoch)->Arg(500)->Arg(1000)->Arg(2000);

// Steady-state training epochs with the memory arena on (second arg 1) vs
// off (0). Each benchmark iteration trains one model for kArenaBenchEpochs
// epochs; the first epoch populates the pool, later ones recycle it, so the
// per-epoch time reported via items/s approaches the steady state as epochs
// grow. Counters expose the allocation story: `allocs/epoch` is the final
// epoch's heap allocations that bypassed the pool (matrix/scratch storage),
// `pool_miss/epoch` the pool's own fresh allocations that epoch. With the
// arena on, both must read 0 — that is the zero-allocation claim, and
// allocation_regression_test enforces it.
constexpr int kArenaBenchEpochs = 8;

void BM_TrainEpoch(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const bool pooled = state.range(1) != 0;
  graph::Dataset ds = MakeBenchGraph(n);
  graph::SplitOptions so;
  so.labeled_per_class = 20;
  so.val_per_class = 10;
  auto split = graph::MakeOpenWorldSplit(ds, so, 1);
  core::OpenImaConfig config;
  config.encoder.in_dim = ds.feature_dim();
  config.encoder.hidden_dim = 32;
  config.encoder.embedding_dim = 32;
  config.encoder.num_heads = 2;
  config.num_seen = split->num_seen;
  config.num_novel = split->num_novel;
  config.epochs = kArenaBenchEpochs;
  config.batch_size = 512;
  config.use_memory_pool = pooled;
  int64_t last_allocs = 0;
  int64_t last_misses = 0;
  for (auto _ : state) {
    core::OpenImaModel model(config, ds.feature_dim(), 3);
    benchmark::DoNotOptimize(model.Train(ds, *split));
    const core::TrainStats& ts = model.train_stats();
    last_allocs = ts.epoch_unpooled_allocs.back();
    last_misses = ts.epoch_pool_misses.back();
  }
  state.SetItemsProcessed(state.iterations() * kArenaBenchEpochs);
  state.counters["allocs/epoch"] =
      benchmark::Counter(static_cast<double>(last_allocs));
  state.counters["pool_miss/epoch"] =
      benchmark::Counter(static_cast<double>(last_misses));
  state.SetLabel(pooled ? "arena" : "plain heap");
}
BENCHMARK(BM_TrainEpoch)
    ->Args({500, 0})
    ->Args({500, 1})
    ->Args({1000, 0})
    ->Args({1000, 1})
    ->Args({2000, 0})
    ->Args({2000, 1});

// The same pooled training epochs with the live-observability stack on: a
// background MetricsExporter publishing snapshots each interval plus 1-in-64
// request/trace sampling. Compare against BM_TrainEpoch/<n>/1 — the
// acceptance bar for the live stack is "within noise" (the exporter thread
// serializes off the hot path; unsampled spans cost one atomic load).
void BM_TrainEpochLiveObs(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  graph::Dataset ds = MakeBenchGraph(n);
  graph::SplitOptions so;
  so.labeled_per_class = 20;
  so.val_per_class = 10;
  auto split = graph::MakeOpenWorldSplit(ds, so, 1);
  core::OpenImaConfig config;
  config.encoder.in_dim = ds.feature_dim();
  config.encoder.hidden_dim = 32;
  config.encoder.embedding_dim = 32;
  config.encoder.num_heads = 2;
  config.num_seen = split->num_seen;
  config.num_novel = split->num_novel;
  config.epochs = kArenaBenchEpochs;
  config.batch_size = 512;
  config.use_memory_pool = true;

  const int64_t saved_period = obs::TraceSamplePeriod();
  obs::SetTraceSamplePeriod(64);
  obs::ExporterOptions export_options;
  export_options.path = "bench_live_obs_metrics.json";
  export_options.interval_ms = 250;
  obs::MetricsExporter exporter(export_options);
  const bool exporting = exporter.Start().ok();  // false under OBS=OFF builds

  for (auto _ : state) {
    core::OpenImaModel model(config, ds.feature_dim(), 3);
    benchmark::DoNotOptimize(model.Train(ds, *split));
  }

  exporter.Stop();
  obs::SetTraceSamplePeriod(saved_period);
  std::remove("bench_live_obs_metrics.json");
  std::remove("bench_live_obs_metrics.json.prom");
  state.SetItemsProcessed(state.iterations() * kArenaBenchEpochs);
  state.SetLabel(exporting ? "arena + exporter + 1/64 trace sampling"
                           : "arena (obs compiled out)");
}
BENCHMARK(BM_TrainEpochLiveObs)->Arg(500)->Arg(1000)->Arg(2000);

// ---------------------------------------------------------------------------
// Per-kernel-backend benchmarks: one row per backend registered at runtime
// (scalar always; avx2 when the host CPU qualifies), so the output carries
// backend-suffixed rows — BM_GemmBackend/scalar/256 vs
// BM_GemmBackend/avx2/256. Registered dynamically because the backend
// list is a CPUID-time fact, not a compile-time one. Single-threaded with
// the backend pinned on the context, so the gap is pure kernel codegen.

void GemmBackendBody(benchmark::State& state,
                     const la::backend::KernelBackend* be) {
  const int n = static_cast<int>(state.range(0));
  exec::Context ctx(1);
  ctx.set_kernel_backend(be);
  Rng rng(1);
  la::Matrix a = la::Matrix::Normal(n, n, 0.0f, 1.0f, &rng);
  la::Matrix b = la::Matrix::Normal(n, n, 0.0f, 1.0f, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(la::Matmul(a, b, &ctx));
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}

/// The expansion-distance kernel itself (the kmeans/silhouette inner
/// loop), arg = dimensionality. The row-pair working set is sized to stay
/// cache-resident (n*d fixed), so the measurement is kernel arithmetic —
/// not memory bandwidth, per-pair dispatch, or the norm precomputation of
/// the PairwiseSquaredDistances wrapper.
void DistanceBackendBody(benchmark::State& state,
                         const la::backend::KernelBackend* be) {
  const int d = static_cast<int>(state.range(0));
  const int n = 8192 / d;
  Rng rng(14);
  la::Matrix x = la::Matrix::Normal(n, d, 0.0f, 1.0f, &rng);
  la::Matrix y = la::Matrix::Normal(n, d, 0.0f, 1.0f, &rng);
  const std::vector<float> xsq = la::RowSquaredNorms(x);
  const std::vector<float> ysq = la::RowSquaredNorms(y);
  // Results land in an output row exactly as PairwiseSquaredDistancesInto
  // writes them; accumulating into one float instead would thread a serial
  // add chain through every call and cap the measurable speedup.
  std::vector<float> out(static_cast<size_t>(n));
  for (auto _ : state) {
    for (int i = 0; i < n; ++i) {
      out[static_cast<size_t>(i)] = be->ExpansionSquaredDistance(
          x.Row(i), y.Row(i), d, xsq[static_cast<size_t>(i)],
          ysq[static_cast<size_t>(i)]);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n) * d);
}

/// Full training epochs under each backend. The backend is installed as
/// the process default for the duration (autograd's backward closures and
/// pseudo-label refresh all resolve through it), then restored.
void TrainEpochBackendBody(benchmark::State& state,
                           const la::backend::KernelBackend* be) {
  const std::string previous = la::backend::Default().name();
  (void)la::backend::SetDefault(be->name());
  const int n = static_cast<int>(state.range(0));
  graph::Dataset ds = MakeBenchGraph(n);
  graph::SplitOptions so;
  so.labeled_per_class = 20;
  so.val_per_class = 10;
  auto split = graph::MakeOpenWorldSplit(ds, so, 1);
  core::OpenImaConfig config;
  config.encoder.in_dim = ds.feature_dim();
  config.encoder.hidden_dim = 32;
  config.encoder.embedding_dim = 32;
  config.encoder.num_heads = 2;
  config.num_seen = split->num_seen;
  config.num_novel = split->num_novel;
  config.epochs = kArenaBenchEpochs;
  config.batch_size = 512;
  config.use_memory_pool = true;
  for (auto _ : state) {
    core::OpenImaModel model(config, ds.feature_dim(), 3);
    benchmark::DoNotOptimize(model.Train(ds, *split));
  }
  state.SetItemsProcessed(state.iterations() * kArenaBenchEpochs);
  (void)la::backend::SetDefault(previous);
}

/// Neighbor sampling of one 2-layer fanout-10 block per iteration. The
/// sampler's counter-based draws are backend-independent; the per-backend
/// rows pin that its cost stays flat when the rest of the pipeline switches
/// codegen.
void SampleBackendBody(benchmark::State& state,
                       const la::backend::KernelBackend* be) {
  const int n = static_cast<int>(state.range(0));
  exec::Context ctx(1);
  ctx.set_kernel_backend(be);
  graph::Dataset ds = MakeBenchGraph(n);
  graph::SamplerConfig sc;
  sc.num_layers = 2;
  sc.fanout = 10;
  graph::NeighborSampler sampler(&ds.graph, sc);
  std::vector<int> seeds;
  for (int v = 0; v < std::min(n, 512); ++v) seeds.push_back(v);
  uint64_t tag = 0;
  int64_t frontier = 0;
  for (auto _ : state) {
    graph::SampledBlock block = sampler.Sample(seeds, tag++, &ctx);
    frontier = block.num_input();
    benchmark::DoNotOptimize(block.input_nodes.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(seeds.size()));
  state.counters["frontier"] =
      benchmark::Counter(static_cast<double>(frontier));
}

/// The blocked row-gather kernel on a sampled frontier's feature rows —
/// the memory-bound stage between sampling and the sampled GAT forward.
void GatherBackendBody(benchmark::State& state,
                       const la::backend::KernelBackend* be) {
  const int n = static_cast<int>(state.range(0));
  graph::Dataset ds = MakeBenchGraph(n);
  graph::SamplerConfig sc;
  sc.num_layers = 2;
  sc.fanout = 10;
  graph::NeighborSampler sampler(&ds.graph, sc);
  std::vector<int> seeds;
  for (int v = 0; v < std::min(n, 512); ++v) seeds.push_back(v);
  const graph::SampledBlock block = sampler.Sample(seeds, 0);
  const int64_t fd = ds.feature_dim();
  la::Matrix out(block.num_input(), static_cast<int>(fd));
  for (auto _ : state) {
    be->GatherRows(ds.features.data(), fd, block.input_nodes.data(),
                   block.num_input(), fd, out.data(), fd);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * block.num_input() * fd);
}

/// Sampled-minibatch training epochs under each backend — the tentpole
/// path end to end (sample, gather, sampled GAT forward/backward,
/// per-batch steps), comparable row-for-row with BM_TrainEpochBackend's
/// full-graph epochs.
void TrainEpochSampledBackendBody(benchmark::State& state,
                                  const la::backend::KernelBackend* be) {
  const std::string previous = la::backend::Default().name();
  (void)la::backend::SetDefault(be->name());
  const int n = static_cast<int>(state.range(0));
  graph::Dataset ds = MakeBenchGraph(n);
  graph::SplitOptions so;
  so.labeled_per_class = 20;
  so.val_per_class = 10;
  auto split = graph::MakeOpenWorldSplit(ds, so, 1);
  core::OpenImaConfig config;
  config.encoder.in_dim = ds.feature_dim();
  config.encoder.hidden_dim = 32;
  config.encoder.embedding_dim = 32;
  config.encoder.num_heads = 2;
  config.num_seen = split->num_seen;
  config.num_novel = split->num_novel;
  config.epochs = kArenaBenchEpochs;
  config.sampled_training = true;
  config.sample_fanout = 10;
  config.batch_nodes = 256;
  config.use_memory_pool = true;
  for (auto _ : state) {
    core::OpenImaModel model(config, ds.feature_dim(), 3);
    benchmark::DoNotOptimize(model.Train(ds, *split));
  }
  state.SetItemsProcessed(state.iterations() * kArenaBenchEpochs);
  (void)la::backend::SetDefault(previous);
}

/// Deterministic data-parallel sampled epochs under each backend, arg =
/// worker count (n fixed at 1000 so rows are comparable with
/// BM_TrainEpochSampledBackend's serial epochs). Measures the whole round
/// machinery — replica forward/backward, tree all-reduce, one Adam step
/// per round, weight broadcast — whose results are bit-identical to the
/// serial schedule, so the row isolates pure wall-clock scaling.
void TrainEpochDataParallelBackendBody(benchmark::State& state,
                                       const la::backend::KernelBackend* be) {
  const std::string previous = la::backend::Default().name();
  (void)la::backend::SetDefault(be->name());
  const int workers = static_cast<int>(state.range(0));
  graph::Dataset ds = MakeBenchGraph(1000);
  graph::SplitOptions so;
  so.labeled_per_class = 20;
  so.val_per_class = 10;
  auto split = graph::MakeOpenWorldSplit(ds, so, 1);
  core::OpenImaConfig config;
  config.encoder.in_dim = ds.feature_dim();
  config.encoder.hidden_dim = 32;
  config.encoder.embedding_dim = 32;
  config.encoder.num_heads = 2;
  config.num_seen = split->num_seen;
  config.num_novel = split->num_novel;
  config.epochs = kArenaBenchEpochs;
  config.sampled_training = true;
  config.sample_fanout = 10;
  config.batch_nodes = 256;
  config.use_memory_pool = true;
  config.workers = workers;
  for (auto _ : state) {
    core::OpenImaModel model(config, ds.feature_dim(), 3);
    benchmark::DoNotOptimize(model.Train(ds, *split));
  }
  state.SetItemsProcessed(state.iterations() * kArenaBenchEpochs);
  (void)la::backend::SetDefault(previous);
}

// Registered kernel-first, backend-inner, so each scalar/avx2 pair runs
// back-to-back: the recorded ratio then compares measurements taken
// seconds apart instead of minutes apart, which keeps it meaningful on
// shared hosts whose absolute speed drifts over a run.
[[maybe_unused]] const bool kBackendBenchInit = [] {
  const auto& backends = la::backend::RegisteredBackends();
  for (const la::backend::KernelBackend* be : backends) {
    benchmark::RegisterBenchmark(
        ("BM_GemmBackend/" + std::string(be->name())).c_str(),
        GemmBackendBody, be)
        ->Arg(256)
        ->Arg(512);
  }
  for (const la::backend::KernelBackend* be : backends) {
    benchmark::RegisterBenchmark(
        ("BM_DistanceBackend/" + std::string(be->name())).c_str(),
        DistanceBackendBody, be)
        ->Arg(64)
        ->Arg(256)
        ->Arg(1024);
  }
  for (const la::backend::KernelBackend* be : backends) {
    benchmark::RegisterBenchmark(
        ("BM_TrainEpochBackend/" + std::string(be->name())).c_str(),
        TrainEpochBackendBody, be)
        ->Arg(1000);
  }
  for (const la::backend::KernelBackend* be : backends) {
    benchmark::RegisterBenchmark(
        ("BM_SampleBackend/" + std::string(be->name())).c_str(),
        SampleBackendBody, be)
        ->Arg(2000);
  }
  for (const la::backend::KernelBackend* be : backends) {
    benchmark::RegisterBenchmark(
        ("BM_GatherBackend/" + std::string(be->name())).c_str(),
        GatherBackendBody, be)
        ->Arg(2000);
  }
  for (const la::backend::KernelBackend* be : backends) {
    benchmark::RegisterBenchmark(
        ("BM_TrainEpochSampledBackend/" + std::string(be->name())).c_str(),
        TrainEpochSampledBackendBody, be)
        ->Arg(1000);
  }
  for (const la::backend::KernelBackend* be : backends) {
    benchmark::RegisterBenchmark(
        ("BM_TrainEpochDataParallelBackend/" + std::string(be->name()))
            .c_str(),
        TrainEpochDataParallelBackendBody, be)
        ->Arg(2)
        ->Arg(8)
        // The epochs run on worker threads, so the registering thread's
        // CPU clock sees almost nothing — time (and the epochs/s counter)
        // against wall clock like the other threaded rows.
        ->UseRealTime();
  }
  return true;
}();

}  // namespace
}  // namespace openima

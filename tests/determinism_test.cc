#include <gtest/gtest.h>

#include <vector>

#include "src/cluster/gmm.h"
#include "src/cluster/kmeans.h"
#include "src/cluster/silhouette.h"
#include "src/core/openima.h"
#include "src/eval/method_factory.h"
#include "src/exec/context.h"
#include "src/graph/splits.h"
#include "src/graph/synthetic.h"
#include "src/la/matrix.h"
#include "src/la/matrix_ops.h"
#include "src/metrics/clustering_accuracy.h"
#include "src/util/rng.h"

/// The execution layer promises bit-identical results for any thread
/// count: disjoint-write kernels under ParallelFor, and fixed-chunk
/// reductions (combined in chunk order) everywhere a float sum crosses
/// threads. These tests compare full runs pinned to Context(1) vs
/// Context(4) with EXPECT_EQ — exact equality, no tolerances.
namespace openima {
namespace {

la::Matrix RandomPoints(int n, int d, uint64_t seed) {
  Rng rng(seed);
  la::Matrix m(n, d);
  for (int64_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.Normal());
  }
  return m;
}

TEST(ClusterDeterminismTest, KMeansIsThreadCountInvariant) {
  const la::Matrix points = RandomPoints(300, 8, 11);
  exec::Context c1(1);
  exec::Context c4(4);
  auto run = [&](const exec::Context* ctx) {
    cluster::KMeansOptions options;
    options.num_clusters = 5;
    options.num_init = 2;
    options.exec = ctx;
    Rng rng(99);  // identical rng stream for both runs
    auto result = cluster::KMeans(points, options, &rng);
    EXPECT_TRUE(result.ok());
    return std::move(result).value();
  };
  const auto r1 = run(&c1);
  const auto r4 = run(&c4);
  EXPECT_TRUE(r1.centers == r4.centers);
  EXPECT_EQ(r1.assignments, r4.assignments);
  EXPECT_EQ(r1.inertia, r4.inertia);
  EXPECT_EQ(r1.iterations, r4.iterations);
}

TEST(ClusterDeterminismTest, MiniBatchKMeansIsThreadCountInvariant) {
  const la::Matrix points = RandomPoints(400, 6, 12);
  exec::Context c1(1);
  exec::Context c4(4);
  auto run = [&](const exec::Context* ctx) {
    cluster::MiniBatchKMeansOptions options;
    options.num_clusters = 4;
    options.batch_size = 64;
    options.max_iterations = 20;
    options.exec = ctx;
    Rng rng(7);
    auto result = cluster::MiniBatchKMeans(points, options, &rng);
    EXPECT_TRUE(result.ok());
    return std::move(result).value();
  };
  const auto r1 = run(&c1);
  const auto r4 = run(&c4);
  EXPECT_TRUE(r1.centers == r4.centers);
  EXPECT_EQ(r1.assignments, r4.assignments);
  EXPECT_EQ(r1.inertia, r4.inertia);
}

TEST(ClusterDeterminismTest, GmmIsThreadCountInvariant) {
  const la::Matrix points = RandomPoints(250, 5, 13);
  exec::Context c1(1);
  exec::Context c4(4);
  auto run = [&](const exec::Context* ctx) {
    cluster::GmmOptions options;
    options.num_components = 3;
    options.exec = ctx;
    Rng rng(21);
    auto result = cluster::FitGmm(points, options, &rng);
    EXPECT_TRUE(result.ok());
    return std::move(result).value();
  };
  const auto r1 = run(&c1);
  const auto r4 = run(&c4);
  EXPECT_TRUE(r1.means == r4.means);
  EXPECT_TRUE(r1.variances == r4.variances);
  EXPECT_EQ(r1.weights, r4.weights);
  EXPECT_EQ(r1.assignments, r4.assignments);
  EXPECT_EQ(r1.mean_log_likelihood, r4.mean_log_likelihood);
  EXPECT_EQ(r1.iterations, r4.iterations);
}

TEST(ClusterDeterminismTest, SilhouetteIsThreadCountInvariant) {
  const la::Matrix points = RandomPoints(350, 4, 14);
  std::vector<int> assignments(350);
  for (int i = 0; i < 350; ++i) assignments[static_cast<size_t>(i)] = i % 3;
  exec::Context c1(1);
  exec::Context c4(4);
  auto run = [&](const exec::Context* ctx) {
    cluster::SilhouetteOptions options;
    options.exec = ctx;
    Rng rng(5);
    auto sc = cluster::SilhouetteCoefficient(points, assignments, options,
                                             &rng);
    EXPECT_TRUE(sc.ok());
    return sc.value();
  };
  EXPECT_EQ(run(&c1), run(&c4));
}

/// End-to-end: the full OpenIMA pipeline (GAT encoder training with
/// cross-entropy + supervised-contrastive losses, variance-reduced
/// pseudo-labels from spherical K-Means, prediction) must produce the
/// same bits when pinned to one or four threads.
TEST(PipelineDeterminismTest, OpenImaIsThreadCountInvariant) {
  graph::SbmConfig sbm;
  sbm.num_nodes = 160;
  sbm.num_classes = 4;
  sbm.feature_dim = 12;
  sbm.avg_degree = 8.0;
  sbm.homophily = 0.85;
  sbm.feature_noise = 1.0;
  auto dataset = graph::GenerateSbm(sbm, 3, "determinism");
  ASSERT_TRUE(dataset.ok());
  graph::SplitOptions so;
  so.labeled_per_class = 10;
  so.val_per_class = 5;
  auto split = graph::MakeOpenWorldSplit(*dataset, so, 4);
  ASSERT_TRUE(split.ok());

  exec::Context c1(1);
  exec::Context c4(4);
  struct RunOutput {
    la::Matrix embeddings;
    std::vector<int> predictions;
    std::vector<double> epoch_losses;
    double accuracy = 0.0;
  };
  auto run = [&](const exec::Context* ctx) {
    core::OpenImaConfig config;
    config.encoder.in_dim = dataset->feature_dim();
    config.encoder.hidden_dim = 16;
    config.encoder.embedding_dim = 16;
    config.encoder.num_heads = 2;
    config.num_seen = split->num_seen;
    config.num_novel = split->num_novel;
    config.epochs = 5;
    config.batch_size = 256;
    config.lr = 5e-3f;
    config.exec = ctx;
    core::OpenImaModel model(config, dataset->feature_dim(), 99);
    EXPECT_TRUE(model.Train(*dataset, *split).ok());
    RunOutput out;
    out.embeddings = model.Embeddings(*dataset);
    auto preds = model.Predict(*dataset, *split);
    EXPECT_TRUE(preds.ok());
    out.predictions = std::move(preds).value();
    out.epoch_losses = model.train_stats().epoch_losses;
    std::vector<int> pred_test, label_test;
    for (int v : split->test_nodes) {
      pred_test.push_back(out.predictions[static_cast<size_t>(v)]);
      label_test.push_back(split->remapped_labels[static_cast<size_t>(v)]);
    }
    auto acc = metrics::EvaluateOpenWorld(pred_test, label_test,
                                          split->num_seen,
                                          split->num_total_classes());
    EXPECT_TRUE(acc.ok());
    out.accuracy = acc->all;
    return out;
  };

  const RunOutput r1 = run(&c1);
  const RunOutput r4 = run(&c4);
  EXPECT_TRUE(r1.embeddings == r4.embeddings)
      << "embeddings differ across thread counts";
  EXPECT_EQ(r1.predictions, r4.predictions);
  EXPECT_EQ(r1.epoch_losses, r4.epoch_losses);
  EXPECT_EQ(r1.accuracy, r4.accuracy);
}

/// The six baselines (eight variants) train through one full-graph loop;
/// each must give the same predictions and embeddings pinned to one or four
/// threads. Seven epochs pass OpenLDN's warm-up, so its self-training runs.
TEST(PipelineDeterminismTest, BaselinesAreThreadCountInvariant) {
  graph::SbmConfig sbm;
  sbm.num_nodes = 160;
  sbm.num_classes = 4;
  sbm.feature_dim = 12;
  sbm.avg_degree = 8.0;
  sbm.homophily = 0.85;
  sbm.feature_noise = 1.0;
  auto dataset = graph::GenerateSbm(sbm, 3, "determinism");
  ASSERT_TRUE(dataset.ok());
  graph::SplitOptions so;
  so.labeled_per_class = 10;
  so.val_per_class = 5;
  auto split = graph::MakeOpenWorldSplit(*dataset, so, 4);
  ASSERT_TRUE(split.ok());

  exec::Context c1(1);
  exec::Context c4(4);
  struct RunOutput {
    la::Matrix embeddings;
    std::vector<int> predictions;
  };
  auto run = [&](const char* key, const exec::Context* ctx) {
    eval::MethodContext mc;
    mc.in_dim = dataset->feature_dim();
    mc.num_seen = split->num_seen;
    mc.num_novel = split->num_novel;
    mc.seed = 99;
    mc.encoder.hidden_dim = 16;
    mc.encoder.embedding_dim = 16;
    mc.encoder.num_heads = 2;
    mc.encoder.exec = ctx;
    mc.exec = ctx;
    mc.epochs = 7;
    mc.batch_size = 64;
    mc.lr = 5e-3f;
    RunOutput out;
    auto model = eval::MakeClassifier(key, mc);
    EXPECT_TRUE(model.ok());
    if (!model.ok()) return out;
    EXPECT_TRUE((*model)->Train(*dataset, *split).ok());
    out.embeddings = (*model)->Embeddings(*dataset);
    auto preds = (*model)->Predict(*dataset, *split);
    EXPECT_TRUE(preds.ok());
    if (preds.ok()) out.predictions = std::move(preds).value();
    return out;
  };

  for (const char* key : {"orca", "orca_zm", "opencon", "opencon_2stage",
                          "simgcd", "openldn", "oodgat", "openwgl"}) {
    SCOPED_TRACE(key);
    const RunOutput r1 = run(key, &c1);
    const RunOutput r4 = run(key, &c4);
    EXPECT_FALSE(r1.predictions.empty());
    EXPECT_TRUE(r1.embeddings == r4.embeddings)
        << "embeddings differ across thread counts";
    EXPECT_EQ(r1.predictions, r4.predictions);
  }
}

/// The memory arena is a pure storage optimization: where a buffer lives
/// must never change what a kernel computes. A full OpenIMA run with the
/// pool/tape enabled is bit-identical to the plain-heap run.
TEST(PipelineDeterminismTest, OpenImaIsMemoryPoolInvariant) {
  graph::SbmConfig sbm;
  sbm.num_nodes = 160;
  sbm.num_classes = 4;
  sbm.feature_dim = 12;
  sbm.avg_degree = 8.0;
  sbm.homophily = 0.85;
  sbm.feature_noise = 1.0;
  auto dataset = graph::GenerateSbm(sbm, 3, "determinism");
  ASSERT_TRUE(dataset.ok());
  graph::SplitOptions so;
  so.labeled_per_class = 10;
  so.val_per_class = 5;
  auto split = graph::MakeOpenWorldSplit(*dataset, so, 4);
  ASSERT_TRUE(split.ok());

  struct RunOutput {
    la::Matrix embeddings;
    std::vector<int> predictions;
    std::vector<double> epoch_losses;
  };
  auto run = [&](bool pooled) {
    core::OpenImaConfig config;
    config.encoder.in_dim = dataset->feature_dim();
    config.encoder.hidden_dim = 16;
    config.encoder.embedding_dim = 16;
    config.encoder.num_heads = 2;
    config.num_seen = split->num_seen;
    config.num_novel = split->num_novel;
    config.epochs = 5;
    config.batch_size = 256;
    config.lr = 5e-3f;
    config.use_memory_pool = pooled;
    core::OpenImaModel model(config, dataset->feature_dim(), 99);
    EXPECT_TRUE(model.Train(*dataset, *split).ok());
    RunOutput out;
    out.embeddings = model.Embeddings(*dataset);
    auto preds = model.Predict(*dataset, *split);
    EXPECT_TRUE(preds.ok());
    out.predictions = std::move(preds).value();
    out.epoch_losses = model.train_stats().epoch_losses;
    return out;
  };

  const RunOutput pooled = run(true);
  const RunOutput heap = run(false);
  EXPECT_TRUE(pooled.embeddings == heap.embeddings)
      << "embeddings differ between pooled and plain-heap training";
  EXPECT_EQ(pooled.predictions, heap.predictions);
  EXPECT_EQ(pooled.epoch_losses, heap.epoch_losses);
}

}  // namespace
}  // namespace openima

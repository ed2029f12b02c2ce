#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>

#include "src/core/encoder_with_head.h"
#include "src/core/novel_count.h"
#include "src/core/positive_sets.h"
#include "src/core/pseudo_labels.h"
#include "src/graph/synthetic.h"
#include "src/la/matrix_ops.h"
#include "src/util/rng.h"

namespace openima::core {
namespace {

// ---------------------------------------------------------------------------
// Positive sets (Eq. 7 batch construction)
// ---------------------------------------------------------------------------

TEST(PositiveSetsTest, UnlabeledAnchorsGetTwinOnly) {
  auto pos = BuildPositiveSets({-1, -1, -1});
  ASSERT_EQ(pos.size(), 6u);
  EXPECT_EQ(pos[0], (std::vector<int>{3}));
  EXPECT_EQ(pos[3], (std::vector<int>{0}));
  EXPECT_EQ(pos[2], (std::vector<int>{5}));
  EXPECT_EQ(pos[5], (std::vector<int>{2}));
}

TEST(PositiveSetsTest, LabeledAnchorsGetAllSameLabel) {
  // Nodes 0 and 2 share label 1.
  auto pos = BuildPositiveSets({1, -1, 1});
  // Data points with label 1: 0, 2, 3, 5.
  EXPECT_EQ(pos[0], (std::vector<int>{2, 3, 5}));
  EXPECT_EQ(pos[3], (std::vector<int>{0, 2, 5}));
  // Unlabeled node 1: twin only.
  EXPECT_EQ(pos[1], (std::vector<int>{4}));
}

TEST(PositiveSetsTest, NoAnchorContainsItself) {
  auto pos = BuildPositiveSets({0, 0, 1, 1, -1});
  for (size_t i = 0; i < pos.size(); ++i) {
    EXPECT_EQ(std::count(pos[i].begin(), pos[i].end(), static_cast<int>(i)),
              0);
    EXPECT_FALSE(pos[i].empty());
  }
}

TEST(PositiveSetsTest, TwinAlwaysPositiveForLabeled) {
  auto pos = BuildPositiveSets({3, 7});
  // Anchor 0's twin is 2; they share label 3.
  EXPECT_NE(std::find(pos[0].begin(), pos[0].end(), 2), pos[0].end());
}

TEST(PositiveSetsTest, SymmetryOfPositivity) {
  auto pos = BuildPositiveSets({0, 1, 0, -1});
  for (size_t i = 0; i < pos.size(); ++i) {
    for (int j : pos[i]) {
      const auto& back = pos[static_cast<size_t>(j)];
      EXPECT_NE(std::find(back.begin(), back.end(), static_cast<int>(i)),
                back.end())
          << i << " -> " << j << " not symmetric";
    }
  }
}

TEST(PositiveSetsTest, NearestNeighborPairsFindsMostSimilar) {
  la::Matrix z({{1, 0}, {0.99f, 0.1f}, {0, 1}});
  la::RowL2NormalizeInPlace(&z);
  auto pairs = NearestNeighborPairs(z, {0, 1, 2});
  ASSERT_EQ(pairs.size(), 3u);
  EXPECT_EQ(pairs[0].j, 1);
  EXPECT_EQ(pairs[1].j, 0);
  EXPECT_EQ(pairs[0].target, 1.0f);

  // A NaN row has no finite similarity: it gets no pair and is never
  // picked as a peer, and the finite rows keep their pairs.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  la::Matrix zn({{1, 0}, {0.99f, 0.1f}, {nan, nan}, {0, 1}});
  la::RowL2NormalizeInPlace(&zn);
  auto finite = NearestNeighborPairs(zn, {0, 1, 2, 3});
  ASSERT_EQ(finite.size(), 3u);
  EXPECT_EQ(finite[0].i, 0);
  EXPECT_EQ(finite[0].j, 1);
  EXPECT_EQ(finite[1].i, 1);
  EXPECT_EQ(finite[1].j, 0);
  EXPECT_EQ(finite[2].i, 3);
  EXPECT_EQ(finite[2].j, 1);
  EXPECT_TRUE(NearestNeighborPairs(zn, {2, 0}).empty());
}

// ---------------------------------------------------------------------------
// Bias-reduced pseudo labels
// ---------------------------------------------------------------------------

/// Embeddings with 3 tight blobs of 20 points: classes 0 (seen), 1, 2.
la::Matrix BlobEmbeddings(std::vector<int>* labels, Rng* rng,
                          double spread = 0.1) {
  la::Matrix emb(60, 2);
  labels->clear();
  const float centers[3][2] = {{0, 0}, {10, 0}, {0, 10}};
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < 20; ++i) {
      const int row = c * 20 + i;
      emb(row, 0) = centers[c][0] + static_cast<float>(rng->Normal(0, spread));
      emb(row, 1) = centers[c][1] + static_cast<float>(rng->Normal(0, spread));
      labels->push_back(c);
    }
  }
  return emb;
}

TEST(PseudoLabelsTest, SeparatedBlobsGetCorrectLabels) {
  Rng rng(1);
  std::vector<int> labels;
  la::Matrix emb = BlobEmbeddings(&labels, &rng);
  // Class 0 is seen; first 5 nodes are labeled.
  std::vector<int> train_nodes = {0, 1, 2, 3, 4};
  std::vector<int> train_labels(5, 0);
  PseudoLabelOptions options;
  options.num_clusters = 3;
  options.select_rate_pct = 100.0;
  auto result = GenerateBiasReducedPseudoLabels(emb, train_nodes, train_labels,
                                                /*num_seen=*/1, options, &rng);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // All class-0 nodes must carry pseudo/manual label 0.
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(result->labels[static_cast<size_t>(i)], 0);
  }
  // The two novel blobs get two distinct ids >= 1.
  std::set<int> novel_ids;
  for (int i = 20; i < 60; ++i) {
    EXPECT_GE(result->labels[static_cast<size_t>(i)], 1);
    novel_ids.insert(result->labels[static_cast<size_t>(i)]);
  }
  EXPECT_EQ(novel_ids.size(), 2u);
  EXPECT_EQ(result->num_pseudo_labeled, 55);  // 60 - 5 labeled
}

TEST(PseudoLabelsTest, SelectionRateLimitsCount) {
  Rng rng(2);
  std::vector<int> labels;
  la::Matrix emb = BlobEmbeddings(&labels, &rng, /*spread=*/1.0);
  std::vector<int> train_nodes = {0, 1, 2};
  std::vector<int> train_labels(3, 0);
  PseudoLabelOptions options;
  options.num_clusters = 3;
  options.select_rate_pct = 50.0;
  auto result = GenerateBiasReducedPseudoLabels(emb, train_nodes, train_labels,
                                                1, options, &rng);
  ASSERT_TRUE(result.ok());
  // At most 50% of 60 = 30 nodes are reliable; labeled nodes keep manual
  // labels regardless, so pseudo-labeled <= 30.
  EXPECT_LE(result->num_pseudo_labeled, 30);
  EXPECT_GT(result->num_pseudo_labeled, 0);
  // Unreliable nodes stay -1.
  int unlabeled = 0;
  for (int l : result->labels) unlabeled += l == -1;
  EXPECT_GE(unlabeled, 27);
}

TEST(PseudoLabelsTest, ManualLabelsAlwaysKept) {
  Rng rng(3);
  std::vector<int> labels;
  la::Matrix emb = BlobEmbeddings(&labels, &rng, 3.0);  // noisy
  std::vector<int> train_nodes = {0, 25, 45};  // one per blob
  std::vector<int> train_labels = {0, 0, 0};   // deliberately "wrong"
  PseudoLabelOptions options;
  options.num_clusters = 3;
  options.select_rate_pct = 10.0;
  auto result = GenerateBiasReducedPseudoLabels(emb, train_nodes, train_labels,
                                                1, options, &rng);
  ASSERT_TRUE(result.ok());
  for (size_t t = 0; t < train_nodes.size(); ++t) {
    EXPECT_EQ(result->labels[static_cast<size_t>(train_nodes[t])], 0);
  }
}

TEST(PseudoLabelsTest, ConfidenceOrderingPrefersCentralNodes) {
  // Two blobs; one far outlier appended to blob 0. With a tight selection
  // budget the outlier must not receive a pseudo label.
  la::Matrix emb(11, 2);
  for (int i = 0; i < 5; ++i) {
    emb(i, 0) = 0.01f * static_cast<float>(i);
  }
  for (int i = 5; i < 10; ++i) {
    emb(i, 0) = 10.0f + 0.01f * static_cast<float>(i);
  }
  emb(10, 0) = 4.0f;  // outlier between blobs
  std::vector<int> train_nodes = {0};
  std::vector<int> train_labels = {0};
  PseudoLabelOptions options;
  options.num_clusters = 2;
  options.select_rate_pct = 80.0;  // 8 of 11 reliable
  Rng rng(4);
  auto result = GenerateBiasReducedPseudoLabels(emb, train_nodes, train_labels,
                                                1, options, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->labels[10], -1) << "outlier must be filtered";
}

TEST(PseudoLabelsTest, RejectsBadOptions) {
  Rng rng(5);
  la::Matrix emb(10, 2);
  PseudoLabelOptions options;
  options.num_clusters = 1;
  EXPECT_FALSE(GenerateBiasReducedPseudoLabels(emb, {0}, {0}, 2, options, &rng)
                   .ok());
  options.num_clusters = 3;
  options.select_rate_pct = 120.0;
  EXPECT_FALSE(GenerateBiasReducedPseudoLabels(emb, {0}, {0}, 2, options, &rng)
                   .ok());
  options.select_rate_pct = 50.0;
  EXPECT_FALSE(
      GenerateBiasReducedPseudoLabels(emb, {0}, {0, 1}, 2, options, &rng).ok());
}

TEST(PseudoLabelsTest, WarmStartReproducesAndBadShapeFallsBackToCold) {
  Rng rng(18);
  std::vector<int> labels;
  la::Matrix emb = BlobEmbeddings(&labels, &rng);
  std::vector<int> train_nodes = {0, 1, 2, 3, 4};
  std::vector<int> train_labels(5, 0);
  PseudoLabelOptions options;
  options.num_clusters = 3;
  options.select_rate_pct = 100.0;
  auto cold = GenerateBiasReducedPseudoLabels(emb, train_nodes, train_labels,
                                              1, options, &rng);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold->centers.rows(), 3);
  EXPECT_EQ(cold->centers.cols(), 2);

  // Warm-starting from the previous refresh's centers reproduces the
  // labeling (well-separated blobs: the centers are already a fixed point).
  options.warm_start_centers = cold->centers;
  auto warm = GenerateBiasReducedPseudoLabels(emb, train_nodes, train_labels,
                                              1, options, &rng);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->labels, cold->labels);

  // Stale centers (wrong shape, e.g. after an embedding-dim change) must
  // degrade to a cold start, never an error.
  options.warm_start_centers = la::Matrix(3, 5);
  Rng rng2(18);
  auto fallback = GenerateBiasReducedPseudoLabels(
      emb, train_nodes, train_labels, 1, options, &rng2);
  ASSERT_TRUE(fallback.ok());
  EXPECT_EQ(fallback->centers.rows(), 3);
  EXPECT_EQ(fallback->centers.cols(), 2);
}

// ---------------------------------------------------------------------------
// Novel-class-count estimation (§V-E)
// ---------------------------------------------------------------------------

TEST(NovelCountTest, FindsTrueCountOnSeparatedBlobs) {
  Rng rng(6);
  std::vector<int> labels;
  la::Matrix emb = BlobEmbeddings(&labels, &rng, 0.2);
  NovelCountOptions options;
  options.num_seen = 1;  // blobs: 1 seen + 2 novel
  options.min_novel = 1;
  options.max_novel = 6;
  auto est = EstimateNovelClassCount(emb, options, &rng);
  ASSERT_TRUE(est.ok()) << est.status().ToString();
  EXPECT_EQ(est->best_novel, 2);
  EXPECT_EQ(est->silhouettes.size(), 6u);
}

TEST(NovelCountTest, RejectsBadRange) {
  Rng rng(7);
  la::Matrix emb(10, 2);
  NovelCountOptions options;
  options.min_novel = 3;
  options.max_novel = 2;
  EXPECT_FALSE(EstimateNovelClassCount(emb, options, &rng).ok());
}

// ---------------------------------------------------------------------------
// EncoderWithHead
// ---------------------------------------------------------------------------

graph::Dataset TinyDataset() {
  graph::SbmConfig c;
  c.num_nodes = 40;
  c.num_classes = 2;
  c.feature_dim = 6;
  c.avg_degree = 6.0;
  auto ds = graph::GenerateSbm(c, 11, "tiny");
  EXPECT_TRUE(ds.ok());
  return std::move(ds).value();
}

TEST(EncoderWithHeadTest, ShapesAndDeterminism) {
  Rng rng(8);
  nn::GatEncoderConfig enc;
  enc.in_dim = 6;
  enc.hidden_dim = 8;
  enc.embedding_dim = 5;
  enc.num_heads = 2;
  EncoderWithHead model(enc, /*num_classes=*/4, &rng);
  graph::Dataset ds = TinyDataset();

  la::Matrix emb = model.EvalEmbeddings(ds);
  EXPECT_EQ(emb.rows(), 40);
  EXPECT_EQ(emb.cols(), 5);
  la::Matrix logits = model.EvalLogits(ds);
  EXPECT_EQ(logits.cols(), 4);
  EXPECT_TRUE(model.EvalEmbeddings(ds) == emb) << "eval is deterministic";
  EXPECT_EQ(model.num_classes(), 4);
}

}  // namespace
}  // namespace openima::core

#include "src/baselines/oodgat.h"

#include <algorithm>
#include <cmath>

#include "src/la/matrix_ops.h"

namespace openima::baselines {

namespace ops = autograd::ops;
using autograd::Variable;

namespace {

/// Per-row prediction entropy of softmax(logits).
std::vector<double> PredictionEntropies(const la::Matrix& logits) {
  la::Matrix probs = la::RowSoftmax(logits);
  std::vector<double> out(static_cast<size_t>(probs.rows()));
  for (int i = 0; i < probs.rows(); ++i) {
    const float* p = probs.Row(i);
    double h = 0.0;
    for (int c = 0; c < probs.cols(); ++c) {
      if (p[c] > 1e-12f) h -= static_cast<double>(p[c]) * std::log(p[c]);
    }
    out[static_cast<size_t>(i)] = h;
  }
  return out;
}

}  // namespace

// C+1 method: the head covers only the seen classes.
OodGatClassifier::OodGatClassifier(const BaselineConfig& config,
                                   const OodGatOptions& options, int in_dim,
                                   uint64_t seed)
    : FullGraphBaseline("OODGAT", config, in_dim, seed, config.num_seen),
      options_(options) {}

Variable OodGatClassifier::EpochLoss(const graph::Dataset& dataset,
                                     const graph::OpenWorldSplit& split,
                                     int epoch) {
  (void)epoch;
  const std::vector<int> unlabeled = split.UnlabeledNodes();
  // Split unlabeled nodes into current inliers/outliers by entropy.
  std::vector<int> inliers, outliers;
  if (options_.entropy_sep_weight > 0.0f && !unlabeled.empty()) {
    const std::vector<double> all_entropy =
        PredictionEntropies(model_->EvalLogits(dataset));
    std::vector<double> scores;
    scores.reserve(unlabeled.size());
    for (int v : unlabeled) scores.push_back(all_entropy[static_cast<size_t>(v)]);
    const std::vector<bool> ood = OodSplitByScore(scores);
    for (size_t i = 0; i < unlabeled.size(); ++i) {
      (ood[i] ? outliers : inliers).push_back(unlabeled[i]);
    }
  }

  Variable z = model_->Embed(dataset, /*training=*/true, &rng_);
  Variable logits = model_->Logits(z);

  Variable total;
  if (!split.train_nodes.empty()) {
    AddLoss(&total,
            ops::SoftmaxCrossEntropy(ops::GatherRows(logits, split.train_nodes),
                                     TrainLabels(split)));
  }

  // Entropy separation: sharpen inliers, diffuse outliers.
  if (options_.entropy_sep_weight > 0.0f) {
    if (!inliers.empty()) {
      AddLoss(&total, ops::Scale(ops::MeanRowEntropy(logits, inliers),
                                 options_.entropy_sep_weight));
    }
    if (!outliers.empty()) {
      AddLoss(&total, ops::Scale(ops::MeanRowEntropy(logits, outliers),
                                 -options_.entropy_sep_weight));
    }
  }

  // Edge consistency: sampled neighboring nodes should agree.
  if (options_.consistency_weight > 0.0f &&
      dataset.graph.num_undirected_edges() > 0) {
    std::vector<ops::Pair> pairs;
    const int n = dataset.num_nodes();
    const int samples = std::min<int>(options_.consistency_edges,
                                      static_cast<int>(dataset.graph.num_directed_edges()));
    pairs.reserve(static_cast<size_t>(samples));
    for (int t = 0; t < samples; ++t) {
      const int u = static_cast<int>(rng_.UniformInt(static_cast<uint64_t>(n)));
      auto [begin, end] = dataset.graph.Neighbors(u);
      const int deg = static_cast<int>(end - begin);
      if (deg == 0) continue;
      const int v = begin[rng_.UniformInt(static_cast<uint64_t>(deg))];
      if (u == v) continue;
      pairs.push_back({u, v, 1.0f});
    }
    if (!pairs.empty()) {
      AddLoss(&total, ops::Scale(ops::PairwiseDotBce(logits, pairs),
                                 options_.consistency_weight));
    }
  }
  return total;
}

StatusOr<std::vector<int>> OodGatClassifier::Predict(
    const graph::Dataset& dataset, const graph::OpenWorldSplit& split) {
  const la::Matrix logits = model_->EvalLogits(dataset);
  std::vector<int> seen_pred = la::RowArgmax(logits);
  const std::vector<double> entropy = PredictionEntropies(logits);

  // Only unlabeled nodes can be flagged OOD; labeled nodes are seen by
  // construction.
  std::vector<bool> ood_mask(static_cast<size_t>(dataset.num_nodes()), false);
  const std::vector<int> unlabeled = split.UnlabeledNodes();
  if (!unlabeled.empty()) {
    std::vector<double> scores;
    scores.reserve(unlabeled.size());
    for (int v : unlabeled) scores.push_back(entropy[static_cast<size_t>(v)]);
    const std::vector<bool> ood = OodSplitByScore(scores);
    for (size_t i = 0; i < unlabeled.size(); ++i) {
      ood_mask[static_cast<size_t>(unlabeled[i])] = ood[i];
    }
  }
  return ClusterDetectedOod(model_->EvalEmbeddings(dataset), seen_pred,
                            ood_mask, split.num_seen, config_.num_novel,
                            &rng_, config_.encoder.exec);
}

}  // namespace openima::baselines

#include "src/baselines/openldn.h"

#include <algorithm>
#include <cmath>

#include "src/core/positive_sets.h"
#include "src/la/matrix_ops.h"

namespace openima::baselines {

namespace ops = autograd::ops;
using autograd::Variable;

OpenLdnClassifier::OpenLdnClassifier(const BaselineConfig& config,
                                     const OpenLdnOptions& options, int in_dim,
                                     uint64_t seed)
    : FullGraphBaseline("OpenLDN", config, in_dim, seed, config.num_classes()),
      options_(options) {}

Variable OpenLdnClassifier::EpochLoss(const graph::Dataset& dataset,
                                      const graph::OpenWorldSplit& split,
                                      int epoch) {
  const int n = dataset.num_nodes();
  la::Matrix pair_emb = model_->EvalEmbeddings(dataset);
  la::RowL2NormalizeInPlace(&pair_emb);

  // Confident head pseudo labels for the self-training phase.
  std::vector<int> pseudo_nodes;
  std::vector<int> pseudo_targets;
  if (epoch >= options_.warmup_epochs && options_.pseudo_ce_weight > 0.0f) {
    std::vector<bool> is_labeled(static_cast<size_t>(n), false);
    for (int v : split.train_nodes) is_labeled[static_cast<size_t>(v)] = true;
    la::Matrix probs = la::RowSoftmax(model_->EvalLogits(dataset));
    for (int v = 0; v < n; ++v) {
      if (is_labeled[static_cast<size_t>(v)]) continue;
      const float* row = probs.Row(v);
      int best = 0;
      for (int c = 1; c < probs.cols(); ++c) {
        if (row[c] > row[best]) best = c;
      }
      if (row[best] >= options_.pseudo_confidence) {
        pseudo_nodes.push_back(v);
        pseudo_targets.push_back(best);
      }
    }
  }

  Variable z = model_->Embed(dataset, /*training=*/true, &rng_);
  Variable logits = model_->Logits(z);

  Variable total;
  // Supervised CE on labeled nodes.
  if (!split.train_nodes.empty()) {
    AddLoss(&total,
            ops::SoftmaxCrossEntropy(ops::GatherRows(logits, split.train_nodes),
                                     TrainLabels(split)));
  }

  // Pairwise similarity BCE: nearest neighbor -> positive, a random
  // far node (the block's least similar) -> negative.
  if (options_.pairwise_weight > 0.0f) {
    const auto blocks = ShuffledBlocks(n, config_.batch_size, &rng_);
    const float scale =
        options_.pairwise_weight / static_cast<float>(blocks.size());
    for (const auto& block : blocks) {
      std::vector<ops::Pair> pairs =
          core::NearestNeighborPairs(pair_emb, block);
      // Negative pairs: pair each node with its least similar block peer.
      for (size_t a = 0; a < block.size(); ++a) {
        const float* za = pair_emb.Row(block[a]);
        int worst = -1;
        float worst_sim = 2.0f;
        for (size_t b = 0; b < block.size(); ++b) {
          if (a == b) continue;
          const float* zb = pair_emb.Row(block[b]);
          float sim = 0.0f;
          for (int j = 0; j < pair_emb.cols(); ++j) sim += za[j] * zb[j];
          if (sim < worst_sim) {
            worst_sim = sim;
            worst = static_cast<int>(b);
          }
        }
        // All-NaN similarities leave no negative peer for this node.
        if (worst < 0) continue;
        pairs.push_back({block[a], block[static_cast<size_t>(worst)], 0.0f});
      }
      if (!pairs.empty()) {
        AddLoss(&total, ops::Scale(ops::PairwiseDotBce(logits, pairs), scale));
      }
    }
  }

  // Self-training CE on confident pseudo labels (the bias-prone step).
  if (!pseudo_nodes.empty()) {
    AddLoss(&total, ops::Scale(ops::SoftmaxCrossEntropy(
                                   ops::GatherRows(logits, pseudo_nodes),
                                   pseudo_targets),
                               options_.pseudo_ce_weight));
  }

  // Collapse-prevention regularizer.
  if (options_.entropy_weight > 0.0f) {
    AddLoss(&total, ops::Scale(ops::NegMeanPredictionEntropy(logits),
                               options_.entropy_weight));
  }
  return total;
}

}  // namespace openima::baselines

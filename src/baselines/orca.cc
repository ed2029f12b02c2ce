#include "src/baselines/orca.h"

#include <algorithm>
#include <cmath>

#include "src/core/positive_sets.h"
#include "src/la/matrix_ops.h"

namespace openima::baselines {

namespace ops = autograd::ops;
using autograd::Variable;

OrcaClassifier::OrcaClassifier(const BaselineConfig& config,
                               const OrcaOptions& options, int in_dim,
                               uint64_t seed)
    : FullGraphBaseline("ORCA", config, in_dim, seed, config.num_classes()),
      options_(options) {}

Variable OrcaClassifier::EpochLoss(const graph::Dataset& dataset,
                                   const graph::OpenWorldSplit& split,
                                   int epoch) {
  (void)epoch;
  const int n = dataset.num_nodes();
  const std::vector<int> unlabeled = split.UnlabeledNodes();
  // Uncertainty = 1 - mean max-softmax confidence on unlabeled nodes
  // (computed in eval mode, as in the reference implementation).
  float margin = 0.0f;
  if (options_.margin_scale != 0.0f && !unlabeled.empty()) {
    la::Matrix probs = la::RowSoftmax(model_->EvalLogits(dataset));
    double conf = 0.0;
    for (int v : unlabeled) {
      const float* row = probs.Row(v);
      float mx = row[0];
      for (int c = 1; c < probs.cols(); ++c) mx = std::max(mx, row[c]);
      conf += mx;
    }
    conf /= static_cast<double>(unlabeled.size());
    margin = options_.margin_scale * static_cast<float>(1.0 - conf);
  }

  la::Matrix pair_emb = model_->EvalEmbeddings(dataset);
  la::RowL2NormalizeInPlace(&pair_emb);

  Variable z = model_->Embed(dataset, /*training=*/true, &rng_);
  Variable logits = model_->Logits(z);

  Variable total;
  // (1) Margin cross-entropy on labeled nodes.
  if (!split.train_nodes.empty() && options_.ce_weight > 0.0f) {
    const std::vector<int> train_labels = TrainLabels(split);
    Variable tl = ops::GatherRows(logits, split.train_nodes);
    std::vector<float> margins(train_labels.size(), margin);
    AddLoss(&total, ops::Scale(ops::MarginSoftmaxCrossEntropy(
                                   tl, train_labels, margins),
                               options_.ce_weight));
  }

  // (2) Pairwise BCE on nearest-neighbor pseudo-positives, block-wise.
  if (options_.pairwise_weight > 0.0f) {
    const auto blocks = ShuffledBlocks(n, config_.batch_size, &rng_);
    const float scale =
        options_.pairwise_weight / static_cast<float>(blocks.size());
    for (const auto& block : blocks) {
      auto pairs = core::NearestNeighborPairs(pair_emb, block);
      if (pairs.empty()) continue;
      AddLoss(&total, ops::Scale(ops::PairwiseDotBce(logits, pairs), scale));
    }
  }

  // (3) Collapse-prevention regularizer.
  if (options_.entropy_weight > 0.0f) {
    AddLoss(&total, ops::Scale(ops::NegMeanPredictionEntropy(logits),
                               options_.entropy_weight));
  }
  return total;
}

}  // namespace openima::baselines

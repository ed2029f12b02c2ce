#include "src/baselines/orca.h"

#include <algorithm>
#include <cmath>

#include "src/core/positive_sets.h"
#include "src/la/matrix_ops.h"
#include "src/obs/obs.h"
#include "src/util/logging.h"

namespace openima::baselines {

namespace ops = autograd::ops;
using autograd::Variable;

OrcaClassifier::OrcaClassifier(const BaselineConfig& config,
                               const OrcaOptions& options, int in_dim,
                               uint64_t seed)
    : config_(config), options_(options), rng_(seed) {
  nn::GatEncoderConfig enc = config.encoder;
  enc.in_dim = in_dim;
  config_.encoder = enc;
  model_ = std::make_unique<core::EncoderWithHead>(enc, config.num_classes(),
                                                   &rng_);
  nn::AdamOptions adam;
  adam.lr = config.lr;
  adam.weight_decay = config.weight_decay;
  optimizer_ = std::make_unique<nn::Adam>(model_->parameters(), adam);
}

Status OrcaClassifier::Train(const graph::Dataset& dataset,
                             const graph::OpenWorldSplit& split) {
  const int n = dataset.num_nodes();
  const std::vector<int> train_labels = TrainLabels(split);
  const std::vector<int> unlabeled = split.UnlabeledNodes();

  // Arena-backed training: matrices and graph nodes built per step
  // recycle through arena_, so steady-state epochs stop allocating.
  nn::TrainingArena::Binding arena_binding(&arena_);

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    OPENIMA_OBS_PHASE("epoch");
    // The previous iteration's graph is freed by now; recycle it.
    arena_.EndEpoch();
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
    auto add_loss = [&total](const Variable& piece) {
      total = total.defined() ? ops::Add(total, piece) : piece;
    };

    // (1) Margin cross-entropy on labeled nodes.
    if (!split.train_nodes.empty() && options_.ce_weight > 0.0f) {
      Variable tl = ops::GatherRows(logits, split.train_nodes);
      std::vector<float> margins(train_labels.size(), margin);
      add_loss(ops::Scale(
          ops::MarginSoftmaxCrossEntropy(tl, train_labels, margins),
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
        add_loss(ops::Scale(ops::PairwiseDotBce(logits, pairs), scale));
      }
    }

    // (3) Collapse-prevention regularizer.
    if (options_.entropy_weight > 0.0f) {
      add_loss(ops::Scale(ops::NegMeanPredictionEntropy(logits),
                          options_.entropy_weight));
    }

    if (!total.defined()) {
      return Status::FailedPrecondition("no ORCA loss component active");
    }
    const int64_t watchdog_before = obs::Watchdog::events();
    model_->ZeroGrad();
    total.Backward();
    optimizer_->Step();
    OPENIMA_RETURN_IF_ERROR(FinishEpochTelemetry(
        "ORCA", epoch, total.value()(0, 0), model_->parameters(),
        watchdog_before));
  }
  return Status::OK();
}

StatusOr<std::vector<int>> OrcaClassifier::Predict(
    const graph::Dataset& dataset, const graph::OpenWorldSplit& split) {
  (void)split;
  return la::RowArgmax(model_->EvalLogits(dataset));
}

la::Matrix OrcaClassifier::Embeddings(const graph::Dataset& dataset) const {
  return model_->EvalEmbeddings(dataset);
}

}  // namespace openima::baselines

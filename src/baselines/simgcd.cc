#include "src/baselines/simgcd.h"

#include <algorithm>
#include <cmath>

#include "src/core/positive_sets.h"
#include "src/la/matrix_ops.h"
#include "src/obs/obs.h"
#include "src/util/logging.h"

namespace openima::baselines {

namespace ops = autograd::ops;
using autograd::Variable;

namespace {

/// Sharpened teacher distribution: softmax(logits / temp), detached.
la::Matrix SharpenedProbs(const la::Matrix& logits, float temp) {
  la::Matrix scaled = logits;
  scaled *= 1.0f / temp;
  return la::RowSoftmax(scaled);
}

}  // namespace

SimGcdClassifier::SimGcdClassifier(const BaselineConfig& config,
                                   const SimGcdOptions& options, int in_dim,
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

Status SimGcdClassifier::Train(const graph::Dataset& dataset,
                               const graph::OpenWorldSplit& split) {
  const int n = dataset.num_nodes();
  const std::vector<int> train_labels = TrainLabels(split);

  // Contrastive label layout for SupCon/InfoNCE positives.
  std::vector<int> cl_labels(static_cast<size_t>(n), -1);
  for (int v : split.train_nodes) {
    cl_labels[static_cast<size_t>(v)] =
        split.remapped_labels[static_cast<size_t>(v)];
  }

  // Arena-backed training: matrices and graph nodes built per step
  // recycle through arena_, so steady-state epochs stop allocating.
  nn::TrainingArena::Binding arena_binding(&arena_);

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    OPENIMA_OBS_PHASE("epoch");
    // The previous iteration's graph is freed by now; recycle it.
    arena_.EndEpoch();
    Variable z1 = model_->Embed(dataset, /*training=*/true, &rng_);
    Variable z2 = model_->Embed(dataset, /*training=*/true, &rng_);
    Variable logits1 = model_->Logits(z1);
    Variable logits2 = model_->Logits(z2);

    Variable total;
    auto add_loss = [&total](const Variable& piece) {
      total = total.defined() ? ops::Add(total, piece) : piece;
    };

    // (a) Symmetric self-distillation toward the sharpened other view.
    if (options_.distill_weight > 0.0f) {
      const float inv_s = 1.0f / options_.student_temp;
      la::Matrix t2 = SharpenedProbs(logits2.value(), options_.teacher_temp);
      la::Matrix t1 = SharpenedProbs(logits1.value(), options_.teacher_temp);
      Variable d1 = ops::SoftCrossEntropy(ops::Scale(logits1, inv_s), t2);
      Variable d2 = ops::SoftCrossEntropy(ops::Scale(logits2, inv_s), t1);
      add_loss(ops::Scale(ops::Add(d1, d2), 0.5f * options_.distill_weight));
    }

    // (b) Mean-entropy maximization.
    if (options_.entropy_weight > 0.0f) {
      add_loss(ops::Scale(ops::NegMeanPredictionEntropy(logits1),
                          options_.entropy_weight));
    }

    // (c) Supervised CE on labeled nodes (both views).
    if (options_.supervised_weight > 0.0f && !split.train_nodes.empty()) {
      std::vector<int> both = train_labels;
      both.insert(both.end(), train_labels.begin(), train_labels.end());
      Variable tl = ops::ConcatRows({ops::GatherRows(logits1, split.train_nodes),
                                     ops::GatherRows(logits2, split.train_nodes)});
      add_loss(ops::Scale(ops::SoftmaxCrossEntropy(tl, both),
                          options_.supervised_weight));
    }

    // (c') SupCon on labeled + InfoNCE on all, block-wise.
    if (options_.unsup_con_weight > 0.0f) {
      const auto blocks = ShuffledBlocks(n, config_.batch_size, &rng_);
      const float scale =
          options_.unsup_con_weight / static_cast<float>(blocks.size());
      for (const auto& block : blocks) {
        std::vector<int> batch_labels;
        batch_labels.reserve(block.size());
        for (int v : block) {
          batch_labels.push_back(cl_labels[static_cast<size_t>(v)]);
        }
        const auto positives = core::BuildPositiveSets(batch_labels);
        Variable zb = ops::ConcatRows(
            {ops::GatherRows(z1, block), ops::GatherRows(z2, block)});
        zb = ops::RowL2Normalize(zb);
        add_loss(ops::Scale(ops::SupConLoss(zb, positives, options_.con_temp,
                                            config_.encoder.exec),
                            scale));
      }
    }

    if (!total.defined()) {
      return Status::FailedPrecondition("no SimGCD loss component active");
    }
    const int64_t watchdog_before = obs::Watchdog::events();
    model_->ZeroGrad();
    total.Backward();
    optimizer_->Step();
    OPENIMA_RETURN_IF_ERROR(FinishEpochTelemetry(
        "SimGCD", epoch, total.value()(0, 0), model_->parameters(),
        watchdog_before));
  }
  return Status::OK();
}

StatusOr<std::vector<int>> SimGcdClassifier::Predict(
    const graph::Dataset& dataset, const graph::OpenWorldSplit& split) {
  (void)split;
  return la::RowArgmax(model_->EvalLogits(dataset));
}

la::Matrix SimGcdClassifier::Embeddings(const graph::Dataset& dataset) const {
  return model_->EvalEmbeddings(dataset);
}

}  // namespace openima::baselines

#include "src/baselines/simgcd.h"

#include <algorithm>
#include <cmath>

#include "src/core/positive_sets.h"
#include "src/la/matrix_ops.h"

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
    : FullGraphBaseline("SimGCD", config, in_dim, seed, config.num_classes()),
      options_(options) {}

Variable SimGcdClassifier::EpochLoss(const graph::Dataset& dataset,
                                     const graph::OpenWorldSplit& split,
                                     int epoch) {
  (void)epoch;
  const int n = dataset.num_nodes();
  Variable z1 = model_->Embed(dataset, /*training=*/true, &rng_);
  Variable z2 = model_->Embed(dataset, /*training=*/true, &rng_);
  Variable logits1 = model_->Logits(z1);
  Variable logits2 = model_->Logits(z2);

  Variable total;
  // (a) Symmetric self-distillation toward the sharpened other view.
  if (options_.distill_weight > 0.0f) {
    const float inv_s = 1.0f / options_.student_temp;
    la::Matrix t2 = SharpenedProbs(logits2.value(), options_.teacher_temp);
    la::Matrix t1 = SharpenedProbs(logits1.value(), options_.teacher_temp);
    Variable d1 = ops::SoftCrossEntropy(ops::Scale(logits1, inv_s), t2);
    Variable d2 = ops::SoftCrossEntropy(ops::Scale(logits2, inv_s), t1);
    AddLoss(&total,
            ops::Scale(ops::Add(d1, d2), 0.5f * options_.distill_weight));
  }

  // (b) Mean-entropy maximization.
  if (options_.entropy_weight > 0.0f) {
    AddLoss(&total, ops::Scale(ops::NegMeanPredictionEntropy(logits1),
                               options_.entropy_weight));
  }

  // (c) Supervised CE on labeled nodes (both views).
  if (options_.supervised_weight > 0.0f && !split.train_nodes.empty()) {
    const std::vector<int> train_labels = TrainLabels(split);
    std::vector<int> both = train_labels;
    both.insert(both.end(), train_labels.begin(), train_labels.end());
    Variable tl =
        ops::ConcatRows({ops::GatherRows(logits1, split.train_nodes),
                         ops::GatherRows(logits2, split.train_nodes)});
    AddLoss(&total, ops::Scale(ops::SoftmaxCrossEntropy(tl, both),
                               options_.supervised_weight));
  }

  // (c') SupCon on labeled + InfoNCE on all, block-wise: labeled nodes are
  // positives by class, every other node only of its twin view.
  if (options_.unsup_con_weight > 0.0f) {
    std::vector<int> cl_labels(static_cast<size_t>(n), -1);
    for (int v : split.train_nodes) {
      cl_labels[static_cast<size_t>(v)] =
          split.remapped_labels[static_cast<size_t>(v)];
    }
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
      AddLoss(&total, ops::Scale(ops::SupConLoss(zb, positives,
                                                 options_.con_temp,
                                                 config_.encoder.exec),
                                 scale));
    }
  }
  return total;
}

}  // namespace openima::baselines

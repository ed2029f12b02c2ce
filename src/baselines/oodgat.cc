#include "src/baselines/oodgat.h"

#include <algorithm>
#include <cmath>

#include "src/la/matrix_ops.h"
#include "src/obs/obs.h"
#include "src/util/logging.h"

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

OodGatClassifier::OodGatClassifier(const BaselineConfig& config,
                                   const OodGatOptions& options, int in_dim,
                                   uint64_t seed)
    : config_(config), options_(options), rng_(seed) {
  nn::GatEncoderConfig enc = config.encoder;
  enc.in_dim = in_dim;
  config_.encoder = enc;
  // C+1 method: the head covers only the seen classes.
  model_ =
      std::make_unique<core::EncoderWithHead>(enc, config.num_seen, &rng_);
  nn::AdamOptions adam;
  adam.lr = config.lr;
  adam.weight_decay = config.weight_decay;
  optimizer_ = std::make_unique<nn::Adam>(model_->parameters(), adam);
}

Status OodGatClassifier::Train(const graph::Dataset& dataset,
                               const graph::OpenWorldSplit& split) {
  const std::vector<int> train_labels = TrainLabels(split);
  const std::vector<int> unlabeled = split.UnlabeledNodes();

  // Arena-backed training: matrices and graph nodes built per step
  // recycle through arena_, so steady-state epochs stop allocating.
  nn::TrainingArena::Binding arena_binding(&arena_);

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    OPENIMA_OBS_PHASE("epoch");
    // The previous iteration's graph is freed by now; recycle it.
    arena_.EndEpoch();
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
    auto add_loss = [&total](const Variable& piece) {
      total = total.defined() ? ops::Add(total, piece) : piece;
    };

    if (!split.train_nodes.empty()) {
      add_loss(ops::SoftmaxCrossEntropy(
          ops::GatherRows(logits, split.train_nodes), train_labels));
    }

    // Entropy separation: sharpen inliers, diffuse outliers.
    if (options_.entropy_sep_weight > 0.0f) {
      if (!inliers.empty()) {
        add_loss(ops::Scale(ops::MeanRowEntropy(logits, inliers),
                            options_.entropy_sep_weight));
      }
      if (!outliers.empty()) {
        add_loss(ops::Scale(ops::MeanRowEntropy(logits, outliers),
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
        add_loss(ops::Scale(ops::PairwiseDotBce(logits, pairs),
                            options_.consistency_weight));
      }
    }

    if (!total.defined()) {
      return Status::FailedPrecondition("no OODGAT loss component active");
    }
    const int64_t watchdog_before = obs::Watchdog::events();
    model_->ZeroGrad();
    total.Backward();
    optimizer_->Step();
    OPENIMA_RETURN_IF_ERROR(FinishEpochTelemetry(
        "OODGAT", epoch, total.value()(0, 0), model_->parameters(),
        watchdog_before));
  }
  return Status::OK();
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

la::Matrix OodGatClassifier::Embeddings(const graph::Dataset& dataset) const {
  return model_->EvalEmbeddings(dataset);
}

}  // namespace openima::baselines

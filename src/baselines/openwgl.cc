#include "src/baselines/openwgl.h"

#include <algorithm>
#include <cmath>

#include "src/autograd/ops.h"
#include "src/la/matrix_ops.h"
#include "src/obs/obs.h"
#include "src/util/logging.h"

namespace openima::baselines {

namespace ops = autograd::ops;
using autograd::Variable;

OpenWglClassifier::OpenWglClassifier(const BaselineConfig& config,
                                     const OpenWglOptions& options, int in_dim,
                                     uint64_t seed)
    : config_(config), options_(options), rng_(seed) {
  nn::GatEncoderConfig enc = config.encoder;
  enc.in_dim = in_dim;
  config_.encoder = enc;
  encoder_ = std::make_unique<nn::GatEncoder>(enc, &rng_);
  const int d = enc.embedding_dim;
  mu_layer_ = std::make_unique<nn::Linear>(d, d, /*use_bias=*/true, &rng_);
  logvar_layer_ = std::make_unique<nn::Linear>(d, d, /*use_bias=*/true, &rng_);
  head_ = std::make_unique<nn::Linear>(d, config.num_seen, /*use_bias=*/false,
                                       &rng_);
  decoder_ = std::make_unique<nn::Linear>(d, in_dim, /*use_bias=*/true, &rng_);

  std::vector<autograd::Variable> params = encoder_->parameters();
  for (const auto& m : {mu_layer_.get(), logvar_layer_.get(), head_.get(),
                        decoder_.get()}) {
    const auto& p = m->parameters();
    params.insert(params.end(), p.begin(), p.end());
  }
  nn::AdamOptions adam;
  adam.lr = config.lr;
  adam.weight_decay = config.weight_decay;
  optimizer_ = std::make_unique<nn::Adam>(std::move(params), adam);
}

la::Matrix OpenWglClassifier::EvalMu(const graph::Dataset& dataset) const {
  return mu_layer_->ForwardFrozen(
      encoder_->ForwardFrozen(dataset.graph, dataset.features));
}

Status OpenWglClassifier::Train(const graph::Dataset& dataset,
                                const graph::OpenWorldSplit& split) {
  const std::vector<int> train_labels = TrainLabels(split);
  const std::vector<int> unlabeled = split.UnlabeledNodes();
  const int n = dataset.num_nodes();
  const int d = config_.encoder.embedding_dim;

  // Arena-backed training: matrices and graph nodes built per step
  // recycle through arena_, so steady-state epochs stop allocating.
  nn::TrainingArena::Binding arena_binding(&arena_);

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    OPENIMA_OBS_PHASE("epoch");
    // The previous iteration's graph is freed by now; recycle it.
    arena_.EndEpoch();
    Variable features =
        autograd::Variable::Leaf(dataset.features, /*requires_grad=*/false);
    Variable h = encoder_->Forward(dataset.graph, features, /*training=*/true,
                                   &rng_);
    Variable mu = mu_layer_->Forward(h);
    Variable logvar = logvar_layer_->Forward(h);

    // Reparameterized latent: z = mu + eps (*) exp(0.5 * logvar).
    la::Matrix eps(n, d);
    for (int64_t i = 0; i < eps.size(); ++i) {
      eps.data()[i] = static_cast<float>(rng_.Normal());
    }
    Variable z = ops::Add(
        mu, ops::Mul(autograd::Variable::Leaf(std::move(eps), false),
                     ops::Exp(ops::Scale(logvar, 0.5f))));
    Variable logits = head_->Forward(z);

    Variable total;
    auto add_loss = [&total](const Variable& piece) {
      total = total.defined() ? ops::Add(total, piece) : piece;
    };

    if (!split.train_nodes.empty()) {
      add_loss(ops::SoftmaxCrossEntropy(
          ops::GatherRows(logits, split.train_nodes), train_labels));
    }
    if (options_.kl_weight > 0.0f) {
      add_loss(ops::Scale(ops::GaussianKl(mu, logvar), options_.kl_weight));
    }
    if (options_.recon_weight > 0.0f) {
      add_loss(ops::Scale(ops::MseLoss(decoder_->Forward(z), dataset.features),
                          options_.recon_weight));
    }
    // Class-uncertainty: keep currently low-confidence unlabeled nodes
    // uncertain (maximize their entropy).
    if (options_.uncertainty_weight > 0.0f && !unlabeled.empty()) {
      la::Matrix probs = la::RowSoftmax(logits.value());
      const std::vector<float> maxp = la::RowMax(probs);
      std::vector<double> scores;  // 1 - confidence
      scores.reserve(unlabeled.size());
      for (int v : unlabeled) {
        scores.push_back(1.0 - static_cast<double>(maxp[static_cast<size_t>(v)]));
      }
      const std::vector<bool> uncertain = OodSplitByScore(scores);
      std::vector<int> uncertain_nodes;
      for (size_t i = 0; i < unlabeled.size(); ++i) {
        if (uncertain[i]) uncertain_nodes.push_back(unlabeled[i]);
      }
      if (!uncertain_nodes.empty()) {
        add_loss(ops::Scale(ops::MeanRowEntropy(logits, uncertain_nodes),
                            -options_.uncertainty_weight));
      }
    }

    if (!total.defined()) {
      return Status::FailedPrecondition("no OpenWGL loss component active");
    }
    const int64_t watchdog_before = obs::Watchdog::events();
    encoder_->ZeroGrad();
    mu_layer_->ZeroGrad();
    logvar_layer_->ZeroGrad();
    head_->ZeroGrad();
    decoder_->ZeroGrad();
    total.Backward();
    optimizer_->Step();
    std::vector<autograd::Variable> all_params = encoder_->parameters();
    for (const auto& m : {mu_layer_.get(), logvar_layer_.get(), head_.get(),
                          decoder_.get()}) {
      const auto& p = m->parameters();
      all_params.insert(all_params.end(), p.begin(), p.end());
    }
    OPENIMA_RETURN_IF_ERROR(FinishEpochTelemetry(
        "OpenWGL", epoch, total.value()(0, 0), all_params, watchdog_before));
  }
  return Status::OK();
}

StatusOr<std::vector<int>> OpenWglClassifier::Predict(
    const graph::Dataset& dataset, const graph::OpenWorldSplit& split) {
  la::Matrix mu = EvalMu(dataset);
  Variable muv = autograd::Variable::Leaf(mu, false);
  la::Matrix logits = head_->Forward(muv).value();
  la::Matrix probs = la::RowSoftmax(logits);
  std::vector<int> seen_pred = la::RowArgmax(probs);
  const std::vector<float> maxp = la::RowMax(probs);

  std::vector<bool> ood_mask(static_cast<size_t>(dataset.num_nodes()), false);
  const std::vector<int> unlabeled = split.UnlabeledNodes();
  if (!unlabeled.empty()) {
    std::vector<double> scores;
    scores.reserve(unlabeled.size());
    for (int v : unlabeled) {
      scores.push_back(1.0 - static_cast<double>(maxp[static_cast<size_t>(v)]));
    }
    const std::vector<bool> ood = OodSplitByScore(scores);
    for (size_t i = 0; i < unlabeled.size(); ++i) {
      ood_mask[static_cast<size_t>(unlabeled[i])] = ood[i];
    }
  }
  return ClusterDetectedOod(mu, seen_pred, ood_mask, split.num_seen,
                            config_.num_novel, &rng_, config_.encoder.exec);
}

la::Matrix OpenWglClassifier::Embeddings(const graph::Dataset& dataset) const {
  return EvalMu(dataset);
}

}  // namespace openima::baselines

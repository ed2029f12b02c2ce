#include "src/baselines/openwgl.h"

#include <algorithm>
#include <cmath>

#include "src/autograd/ops.h"
#include "src/la/matrix_ops.h"

namespace openima::baselines {

namespace ops = autograd::ops;
using autograd::Variable;

OpenWglClassifier::OpenWglClassifier(const BaselineConfig& config,
                                     const OpenWglOptions& options, int in_dim,
                                     uint64_t seed)
    : FullGraphBaseline("OpenWGL", config, in_dim, seed, /*head_outputs=*/0),
      options_(options) {
  encoder_ = std::make_unique<nn::GatEncoder>(config_.encoder, &rng_);
  const int d = config_.encoder.embedding_dim;
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
  InitOptimizer(std::move(params));
}

Variable OpenWglClassifier::EpochLoss(const graph::Dataset& dataset,
                                      const graph::OpenWorldSplit& split,
                                      int epoch) {
  (void)epoch;
  const std::vector<int> unlabeled = split.UnlabeledNodes();
  const int n = dataset.num_nodes();
  const int d = config_.encoder.embedding_dim;
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
  if (!split.train_nodes.empty()) {
    AddLoss(&total,
            ops::SoftmaxCrossEntropy(ops::GatherRows(logits, split.train_nodes),
                                     TrainLabels(split)));
  }
  if (options_.kl_weight > 0.0f) {
    AddLoss(&total,
            ops::Scale(ops::GaussianKl(mu, logvar), options_.kl_weight));
  }
  if (options_.recon_weight > 0.0f) {
    AddLoss(&total,
            ops::Scale(ops::MseLoss(decoder_->Forward(z), dataset.features),
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
      AddLoss(&total, ops::Scale(ops::MeanRowEntropy(logits, uncertain_nodes),
                                 -options_.uncertainty_weight));
    }
  }
  return total;
}

StatusOr<std::vector<int>> OpenWglClassifier::Predict(
    const graph::Dataset& dataset, const graph::OpenWorldSplit& split) {
  const la::Matrix mu = Embeddings(dataset);
  la::Matrix probs = la::RowSoftmax(head_->ForwardFrozen(mu));
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
  return mu_layer_->ForwardFrozen(
      encoder_->ForwardFrozen(dataset.graph, dataset.features));
}

}  // namespace openima::baselines

#ifndef OPENIMA_BASELINES_OPENWGL_H_
#define OPENIMA_BASELINES_OPENWGL_H_

#include <memory>
#include <string>

#include "src/baselines/common.h"
#include "src/nn/gat.h"
#include "src/nn/linear.h"

namespace openima::baselines {

/// OpenWGL-specific options (Wu, Pan & Zhu, KAIS 2021).
struct OpenWglOptions {
  float kl_weight = 0.1f;       ///< variational KL regularizer
  float recon_weight = 1.0f;    ///< feature-reconstruction loss
  /// Low-confidence unlabeled nodes get their entropy maximized so that
  /// unseen-class nodes stay uncertain (class-uncertainty loss).
  float uncertainty_weight = 0.5f;
};

/// OpenWGL(dagger): open-world graph learning with a variational GAT
/// encoder. The latent representation z ~ N(mu, sigma) is regularized with
/// KL to the unit Gaussian and must reconstruct the input features; a
/// seen-class head is trained with CE plus a class-uncertainty loss that
/// keeps likely-unseen nodes uncertain. Prediction: confidence thresholding
/// (1 - max softmax) detects OOD nodes, which are post-clustered into
/// num_novel K-Means clusters (the dagger extension).
class OpenWglClassifier : public FullGraphBaseline {
 public:
  OpenWglClassifier(const BaselineConfig& config,
                    const OpenWglOptions& options, int in_dim, uint64_t seed);

  StatusOr<std::vector<int>> Predict(
      const graph::Dataset& dataset,
      const graph::OpenWorldSplit& split) override;
  /// Mean latent (mu) embeddings in eval mode.
  la::Matrix Embeddings(const graph::Dataset& dataset) const override;
  std::string name() const override { return "OpenWGL"; }

 private:
  autograd::Variable EpochLoss(const graph::Dataset& dataset,
                               const graph::OpenWorldSplit& split,
                               int epoch) override;

  OpenWglOptions options_;
  std::unique_ptr<nn::GatEncoder> encoder_;
  std::unique_ptr<nn::Linear> mu_layer_;
  std::unique_ptr<nn::Linear> logvar_layer_;
  std::unique_ptr<nn::Linear> head_;   // seen classes
  std::unique_ptr<nn::Linear> decoder_;  // feature reconstruction
};

}  // namespace openima::baselines

#endif  // OPENIMA_BASELINES_OPENWGL_H_

#ifndef OPENIMA_BASELINES_OPENCON_H_
#define OPENIMA_BASELINES_OPENCON_H_

#include <string>

#include "src/baselines/common.h"

namespace openima::baselines {

/// OpenCon-specific options (Sun & Li, TMLR 2023).
struct OpenConOptions {
  float con_temp = 0.7f;
  float proto_momentum = 0.9f;  ///< EMA factor for prototype updates
  float ce_weight = 1.0f;       ///< supervised CE on labeled nodes
  float con_weight = 1.0f;      ///< prototype-pseudo-label contrastive loss
  /// OOD threshold quantile: an unlabeled node whose max seen-prototype
  /// cosine similarity falls below this quantile of the labeled nodes'
  /// similarities is treated as novel.
  double ood_quantile = 0.1;
  /// Two-stage variant (OpenCon with a double dagger in the paper): run
  /// K-Means over the learned embeddings instead of predicting with
  /// prototypes.
  bool two_stage_predict = false;
};

/// OpenCon: open-world contrastive learning with learnable class
/// prototypes. Unlabeled nodes are split into seen/novel by prototype
/// similarity, pseudo-labeled with their nearest (novel or seen) prototype,
/// and learned with a SupCon-style loss over the pseudo labels; prototypes
/// track class means by EMA. Predicts by nearest prototype (or two-stage
/// K-Means for the dagger variant).
class OpenConClassifier : public FullGraphBaseline {
 public:
  OpenConClassifier(const BaselineConfig& config,
                    const OpenConOptions& options, int in_dim, uint64_t seed);

  StatusOr<std::vector<int>> Predict(
      const graph::Dataset& dataset,
      const graph::OpenWorldSplit& split) override;
  std::string name() const override {
    return options_.two_stage_predict ? "OpenCon-2stage" : "OpenCon";
  }

 private:
  autograd::Variable EpochLoss(const graph::Dataset& dataset,
                               const graph::OpenWorldSplit& split,
                               int epoch) override;

  /// Pseudo label of every node from the current prototypes (manual labels
  /// for training nodes). Also refreshes the prototype matrix by EMA.
  std::vector<int> PrototypePseudoLabels(const la::Matrix& normalized_emb,
                                         const graph::OpenWorldSplit& split);

  OpenConOptions options_;
  la::Matrix prototypes_;  // num_classes x embedding_dim, L2-normalized rows
  bool prototypes_initialized_ = false;
};

}  // namespace openima::baselines

#endif  // OPENIMA_BASELINES_OPENCON_H_

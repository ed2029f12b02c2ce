#ifndef OPENIMA_BASELINES_OPENLDN_H_
#define OPENIMA_BASELINES_OPENLDN_H_

#include <string>

#include "src/baselines/common.h"

namespace openima::baselines {

/// OpenLDN-specific options (Rizve et al., ECCV 2022).
struct OpenLdnOptions {
  float pairwise_weight = 1.0f;
  float entropy_weight = 0.1f;
  /// Epochs of pairwise-only warm-up before pseudo-label self-training.
  int warmup_epochs = 5;
  /// Confidence threshold for accepting a head prediction as pseudo label.
  float pseudo_confidence = 0.9f;
  float pseudo_ce_weight = 1.0f;
};

/// OpenLDN: learns pairwise similarity predictions (BCE on prediction
/// agreement for embedding-nearest positive pairs and farthest negative
/// pairs), then self-trains with cross-entropy on the classifier's own
/// confident pseudo labels — the supervised pseudo-labeling style whose
/// seen-class bias the OpenIMA paper analyzes. Predicts with the head.
class OpenLdnClassifier : public FullGraphBaseline {
 public:
  OpenLdnClassifier(const BaselineConfig& config,
                    const OpenLdnOptions& options, int in_dim, uint64_t seed);

  std::string name() const override { return "OpenLDN"; }

 private:
  autograd::Variable EpochLoss(const graph::Dataset& dataset,
                               const graph::OpenWorldSplit& split,
                               int epoch) override;

  OpenLdnOptions options_;
};

}  // namespace openima::baselines

#endif  // OPENIMA_BASELINES_OPENLDN_H_

#ifndef OPENIMA_BASELINES_ORCA_H_
#define OPENIMA_BASELINES_ORCA_H_

#include <string>

#include "src/baselines/common.h"

namespace openima::baselines {

/// ORCA-specific options (Cao, Brbic & Leskovec, ICLR 2022).
struct OrcaOptions {
  /// Scale of the uncertainty-adaptive margin; 0 yields ORCA-ZM.
  float margin_scale = 1.0f;
  float ce_weight = 1.0f;
  float pairwise_weight = 1.0f;
  float entropy_weight = 0.1f;
};

/// ORCA: an end-to-end C + C-bar classifier trained with
///   (1) cross-entropy on labeled nodes with an uncertainty-adaptive margin
///       subtracted from the target logit — the mechanism that slows seen-
///       class learning until the unlabeled data is confidently predicted,
///       equalizing intra-class variances;
///   (2) a pairwise BCE objective on batch nearest-neighbor pseudo-positive
///       pairs; and
///   (3) a mean-prediction entropy regularizer preventing collapse onto the
///       seen classes.
/// Predicts with the classification head. `margin_scale = 0` gives the
/// paper's ORCA-ZM ablation.
class OrcaClassifier : public FullGraphBaseline {
 public:
  OrcaClassifier(const BaselineConfig& config, const OrcaOptions& options,
                 int in_dim, uint64_t seed);

  std::string name() const override {
    return options_.margin_scale == 0.0f ? "ORCA-ZM" : "ORCA";
  }

 private:
  autograd::Variable EpochLoss(const graph::Dataset& dataset,
                               const graph::OpenWorldSplit& split,
                               int epoch) override;

  OrcaOptions options_;
};

}  // namespace openima::baselines

#endif  // OPENIMA_BASELINES_ORCA_H_

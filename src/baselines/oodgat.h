#ifndef OPENIMA_BASELINES_OODGAT_H_
#define OPENIMA_BASELINES_OODGAT_H_

#include <string>

#include "src/baselines/common.h"

namespace openima::baselines {

/// OODGAT-specific options (Song & Wang, KDD 2022).
struct OodGatOptions {
  /// Weight of the entropy-separation term (push unlabeled entropy up for
  /// detected outliers, down for confident inliers).
  float entropy_sep_weight = 0.5f;
  /// Weight of the edge-consistency regularizer (neighboring predictions
  /// should agree).
  float consistency_weight = 0.5f;
  /// Edges sampled per epoch for the consistency term.
  int consistency_edges = 2048;
};

/// OODGAT(dagger): a C+1 open-world node classifier extended to the
/// open-world SSL setting per the paper's protocol. A GAT classifier over
/// the SEEN classes is trained with CE, an entropy-separation loss that
/// bimodalizes unlabeled prediction entropy, and an edge-consistency
/// regularizer. At prediction time, entropy is the OOD score; detected OOD
/// nodes are post-clustered into num_novel K-Means clusters (the dagger).
class OodGatClassifier : public FullGraphBaseline {
 public:
  OodGatClassifier(const BaselineConfig& config, const OodGatOptions& options,
                   int in_dim, uint64_t seed);

  StatusOr<std::vector<int>> Predict(
      const graph::Dataset& dataset,
      const graph::OpenWorldSplit& split) override;
  std::string name() const override { return "OODGAT"; }

 private:
  autograd::Variable EpochLoss(const graph::Dataset& dataset,
                               const graph::OpenWorldSplit& split,
                               int epoch) override;

  OodGatOptions options_;
};

}  // namespace openima::baselines

#endif  // OPENIMA_BASELINES_OODGAT_H_

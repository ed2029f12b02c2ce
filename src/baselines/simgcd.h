#ifndef OPENIMA_BASELINES_SIMGCD_H_
#define OPENIMA_BASELINES_SIMGCD_H_

#include <string>

#include "src/baselines/common.h"

namespace openima::baselines {

/// SimGCD-specific options (Wen, Zhao & Qi, ICCV 2023).
struct SimGcdOptions {
  float student_temp = 0.1f;   ///< tau_s
  float teacher_temp = 0.05f;  ///< tau_t (sharper than the student)
  float distill_weight = 1.0f;
  float entropy_weight = 1.0f;   ///< mean-entropy maximization
  float supervised_weight = 1.0f;  ///< CE + SupCon on labeled nodes
  float unsup_con_weight = 1.0f;   ///< InfoNCE on twin views
  float con_temp = 0.7f;
};

/// SimGCD: a parametric generalized-category-discovery classifier trained
/// with (a) self-distillation between two stochastic views — the student's
/// softened predictions match a sharpened teacher from the other view, (b)
/// a mean-entropy maximization regularizer, and (c) supervised CE + SupCon
/// on labeled nodes plus unsupervised InfoNCE. Predicts with the head.
class SimGcdClassifier : public FullGraphBaseline {
 public:
  SimGcdClassifier(const BaselineConfig& config, const SimGcdOptions& options,
                   int in_dim, uint64_t seed);

  std::string name() const override { return "SimGCD"; }

 private:
  autograd::Variable EpochLoss(const graph::Dataset& dataset,
                               const graph::OpenWorldSplit& split,
                               int epoch) override;

  SimGcdOptions options_;
};

}  // namespace openima::baselines

#endif  // OPENIMA_BASELINES_SIMGCD_H_

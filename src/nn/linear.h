#ifndef OPENIMA_NN_LINEAR_H_
#define OPENIMA_NN_LINEAR_H_

#include "src/exec/context.h"
#include "src/nn/module.h"
#include "src/util/rng.h"

namespace openima::nn {

/// Fully connected layer: y = x W (+ b). The paper's classification head is
/// a bias-free Linear whose normalized outputs feed the logit-level BPCL
/// loss (Eq. 8).
class Linear : public Module {
 public:
  /// `exec` (nullptr = process default) runs the forward/backward matmuls;
  /// an explicit context must outlive the layer's backward passes.
  Linear(int in_dim, int out_dim, bool use_bias, Rng* rng,
         const exec::Context* exec = nullptr);

  autograd::Variable Forward(const autograd::Variable& x) const;

  /// Tape-free Forward: the same bits as Forward(Leaf(x)).value(), with no
  /// graph node or gradient buffer.
  la::Matrix ForwardFrozen(const la::Matrix& x) const;

  const autograd::Variable& weight() const { return weight_; }

  int in_dim() const { return weight_.rows(); }
  int out_dim() const { return weight_.cols(); }

 private:
  autograd::Variable weight_;  // in_dim x out_dim
  autograd::Variable bias_;    // 1 x out_dim, undefined when bias disabled
  const exec::Context* exec_ = nullptr;
};

}  // namespace openima::nn

#endif  // OPENIMA_NN_LINEAR_H_

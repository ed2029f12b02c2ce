#include "src/nn/linear.h"

#include "src/autograd/ops.h"
#include "src/la/matrix_ops.h"
#include "src/nn/init.h"

namespace openima::nn {

Linear::Linear(int in_dim, int out_dim, bool use_bias, Rng* rng,
               const exec::Context* exec)
    : exec_(exec) {
  weight_ = AddParameter(GlorotUniform(in_dim, out_dim, rng));
  if (use_bias) {
    bias_ = AddParameter(la::Matrix(1, out_dim));
  }
}

autograd::Variable Linear::Forward(const autograd::Variable& x) const {
  autograd::Variable out = autograd::ops::Matmul(x, weight_, exec_);
  if (bias_.defined()) {
    out = autograd::ops::AddRowBroadcast(out, bias_);
  }
  return out;
}

la::Matrix Linear::ForwardFrozen(const la::Matrix& x) const {
  la::Matrix out = la::Matmul(x, weight_.value(), exec_);
  if (bias_.defined()) la::AddRowBroadcastInPlace(bias_.value(), &out);
  return out;
}

}  // namespace openima::nn

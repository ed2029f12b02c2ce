#ifndef OPENIMA_NN_GCN_H_
#define OPENIMA_NN_GCN_H_

#include <memory>

#include "src/nn/encoder.h"
#include "src/nn/gat.h"
#include "src/nn/linear.h"

namespace openima::nn {

/// Symmetric-normalized GCN aggregation (Kipf & Welling, ICLR 2017):
/// out = D^{-1/2} (A + I) D^{-1/2} x, where the self-loops are part of
/// `graph`. The operator is symmetric, so its backward is itself. Forward
/// and backward parallelize row-wise through `exec` (nullptr = process
/// default; an explicit context must outlive the backward pass).
autograd::Variable GcnAggregate(const graph::Graph& graph,
                                const autograd::Variable& x,
                                const exec::Context* exec = nullptr);

/// Two-layer GCN encoder:
///   z = Â · ELU( Â · dropout(X) W1 + b1 ) W2 + b2,  Â the normalized
/// adjacency. Reuses the shared GatEncoderConfig sizing fields (heads and
/// attention dropout are ignored).
class GcnEncoder : public Encoder {
 public:
  GcnEncoder(const GatEncoderConfig& config, Rng* rng);

  autograd::Variable Forward(const graph::Graph& graph,
                             const autograd::Variable& features, bool training,
                             Rng* rng) const override;

  la::Matrix ForwardFrozen(const graph::Graph& graph,
                           const la::Matrix& features) const override;

  int embedding_dim() const override { return config_.embedding_dim; }

  const GatEncoderConfig& config() const { return config_; }

 private:
  GatEncoderConfig config_;
  std::unique_ptr<Linear> layer1_;
  std::unique_ptr<Linear> layer2_;
};

/// Builds the encoder selected by `config.arch`.
std::unique_ptr<Encoder> MakeEncoder(const GatEncoderConfig& config, Rng* rng);

}  // namespace openima::nn

#endif  // OPENIMA_NN_GCN_H_

#ifndef OPENIMA_NN_ENCODER_H_
#define OPENIMA_NN_ENCODER_H_

#include "src/graph/graph.h"
#include "src/graph/sampler.h"
#include "src/nn/module.h"
#include "src/util/logging.h"
#include "src/util/rng.h"

namespace openima::nn {

/// Interface of a graph node encoder: features -> embeddings. Implemented
/// by GatEncoder (the paper's choice) and GcnEncoder (a common ablation).
class Encoder : public Module {
 public:
  /// features: num_nodes x in_dim (a constant leaf). Returns embeddings
  /// num_nodes x embedding_dim(). In training mode fresh dropout masks are
  /// drawn (two calls give the SimCSE positive pair).
  virtual autograd::Variable Forward(const graph::Graph& graph,
                                     const autograd::Variable& features,
                                     bool training, Rng* rng) const = 0;

  /// True when the encoder implements ForwardSampled (minibatch training
  /// over sampled blocks). Config validation rejects sampled training for
  /// encoders that do not.
  virtual bool SupportsSampled() const { return false; }

  /// Sampled counterpart of Forward: `features` covers the block's input
  /// frontier (block.num_input() x in_dim); returns block.num_output() x
  /// embedding_dim() rows for the seed nodes. Only valid when
  /// SupportsSampled() is true.
  virtual autograd::Variable ForwardSampled(const graph::SampledBlock& block,
                                            const autograd::Variable& features,
                                            bool training, Rng* rng) const {
    (void)block;
    (void)features;
    (void)training;
    (void)rng;
    OPENIMA_CHECK(false) << "encoder does not support sampled forward";
    return {};
  }

  /// Tape-free eval forward: the same bits as
  /// Forward(graph, Leaf(features), /*training=*/false, ...).value(), but it
  /// draws no graph node, backward closure or parameter gradient and skips
  /// the eval dropout copies. For callers that never backpropagate (eval
  /// embeddings, head prediction, serving); Forward in eval mode keeps the
  /// tape for callers that do.
  virtual la::Matrix ForwardFrozen(const graph::Graph& graph,
                                   const la::Matrix& features) const = 0;

  /// Tape-free counterpart of ForwardSampled in eval mode. Only valid when
  /// SupportsSampled() is true.
  virtual la::Matrix ForwardSampledFrozen(const graph::SampledBlock& block,
                                          const la::Matrix& features) const {
    (void)block;
    (void)features;
    OPENIMA_CHECK(false) << "encoder does not support sampled forward";
    return {};
  }

  virtual int embedding_dim() const = 0;
};

}  // namespace openima::nn

#endif  // OPENIMA_NN_ENCODER_H_

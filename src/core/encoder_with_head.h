#ifndef OPENIMA_CORE_ENCODER_WITH_HEAD_H_
#define OPENIMA_CORE_ENCODER_WITH_HEAD_H_

#include <memory>

#include "src/graph/dataset.h"
#include "src/nn/encoder.h"
#include "src/nn/gat.h"
#include "src/nn/gcn.h"
#include "src/nn/linear.h"
#include "src/nn/module.h"

namespace openima::core {

/// The model shared by OpenIMA and every end-to-end baseline: a graph
/// encoder (GAT by default, GCN via config.arch) producing node embeddings
/// plus a bias-free linear classification head producing logits over
/// num_classes = |C_l| + |C_n| outputs.
class EncoderWithHead : public nn::Module {
 public:
  EncoderWithHead(const nn::GatEncoderConfig& encoder_config, int num_classes,
                  Rng* rng);

  /// Embeddings for all nodes; training=true draws fresh dropout masks.
  /// In eval mode (training=false) the result is a constant leaf computed
  /// by the tape-free frozen forward: nothing backpropagates through it.
  autograd::Variable Embed(const graph::Dataset& dataset, bool training,
                           Rng* rng) const;

  /// Sampled-minibatch embeddings for a block's seed nodes. `gathered`
  /// holds the features of the block's input frontier (block.num_input() x
  /// in_dim, gathered by the caller — the trainer routes this through the
  /// backend GatherRows kernel under the "gather" phase timer). Only valid
  /// when encoder().SupportsSampled(). Eval mode returns a constant leaf,
  /// as Embed does.
  autograd::Variable EmbedSampled(const graph::SampledBlock& block,
                                  const la::Matrix& gathered, bool training,
                                  Rng* rng) const;

  /// Head logits from embeddings.
  autograd::Variable Logits(const autograd::Variable& embeddings) const;

  /// Deterministic (eval-mode) embeddings as a plain matrix, from the
  /// tape-free frozen forward (no graph node, no parameter gradient).
  la::Matrix EvalEmbeddings(const graph::Dataset& dataset) const;

  /// Deterministic (eval-mode) head logits for all nodes, tape-free.
  la::Matrix EvalLogits(const graph::Dataset& dataset) const;

  const nn::Encoder& encoder() const { return *encoder_; }
  const nn::Linear& head() const { return *head_; }
  int num_classes() const { return head_->out_dim(); }

 private:
  std::unique_ptr<nn::Encoder> encoder_;
  std::unique_ptr<nn::Linear> head_;
};

}  // namespace openima::core

#endif  // OPENIMA_CORE_ENCODER_WITH_HEAD_H_

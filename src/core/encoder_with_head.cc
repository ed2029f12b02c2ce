#include "src/core/encoder_with_head.h"

#include "src/util/logging.h"

namespace openima::core {

EncoderWithHead::EncoderWithHead(const nn::GatEncoderConfig& encoder_config,
                                 int num_classes, Rng* rng) {
  OPENIMA_CHECK_GT(num_classes, 0);
  encoder_ = nn::MakeEncoder(encoder_config, rng);
  head_ = std::make_unique<nn::Linear>(encoder_config.embedding_dim,
                                       num_classes, /*use_bias=*/false, rng,
                                       encoder_config.exec);
  RegisterSubmodule(*encoder_);
  RegisterSubmodule(*head_);
}

autograd::Variable EncoderWithHead::Embed(const graph::Dataset& dataset,
                                          bool training, Rng* rng) const {
  if (!training) {
    return autograd::Variable::Leaf(EvalEmbeddings(dataset),
                                    /*requires_grad=*/false);
  }
  autograd::Variable features =
      autograd::Variable::Leaf(dataset.features, /*requires_grad=*/false);
  return encoder_->Forward(dataset.graph, features, training, rng);
}

autograd::Variable EncoderWithHead::EmbedSampled(
    const graph::SampledBlock& block, const la::Matrix& gathered,
    bool training, Rng* rng) const {
  if (!training) {
    return autograd::Variable::Leaf(
        encoder_->ForwardSampledFrozen(block, gathered),
        /*requires_grad=*/false);
  }
  autograd::Variable features =
      autograd::Variable::Leaf(gathered, /*requires_grad=*/false);
  return encoder_->ForwardSampled(block, features, training, rng);
}

autograd::Variable EncoderWithHead::Logits(
    const autograd::Variable& embeddings) const {
  return head_->Forward(embeddings);
}

la::Matrix EncoderWithHead::EvalEmbeddings(
    const graph::Dataset& dataset) const {
  return encoder_->ForwardFrozen(dataset.graph, dataset.features);
}

la::Matrix EncoderWithHead::EvalLogits(const graph::Dataset& dataset) const {
  return head_->ForwardFrozen(EvalEmbeddings(dataset));
}

}  // namespace openima::core

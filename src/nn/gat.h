#ifndef OPENIMA_NN_GAT_H_
#define OPENIMA_NN_GAT_H_

#include <memory>
#include <vector>

#include "src/exec/context.h"
#include "src/graph/graph.h"
#include "src/graph/sampler.h"
#include "src/nn/encoder.h"
#include "src/nn/module.h"
#include "src/util/rng.h"

namespace openima::nn {

// The CSR view the attention kernel runs over (defined in gat.cc).
struct AttentionView;

/// Fused graph-attention aggregation (one head), differentiable w.r.t. the
/// projected features `wh` and attention vectors `a_src`/`a_dst`:
///
///   e_ij     = LeakyReLU(wh_i . a_dst + wh_j . a_src)   for j in N(i)
///   alpha_ij = softmax_j(e_ij)
///   out_i    = sum_j alpha_ij * wh_j
///
/// (self-loops in `graph` make every node attend to itself). With
/// `attn_dropout` > 0 in training mode, normalized coefficients are dropped
/// (inverted dropout, no renormalization — GAT reference semantics).
/// Forward and backward are parallelized over node ranges through `exec`
/// (nullptr = process default) and deterministic for any thread count.
///
/// This and GatAttentionSampled are one attention op over two views of the
/// adjacency: a destination-major CSR plus its source-major transpose, which
/// the backward walks to turn scatter-adds into per-source gathers. The full
/// graph is its own transpose through Graph::reverse_edge(). One kernel
/// computes the forward, accumulating through the backend AxpyRow (pinned
/// bit-identical across backends); GatLayer::ForwardFrozen runs the same
/// kernel, and this op adds the tape node and the per-edge state its
/// backward reads. `graph` must outlive the backward pass.
autograd::Variable GatAttention(const graph::Graph& graph,
                                const autograd::Variable& wh,
                                const autograd::Variable& a_src,
                                const autograd::Variable& a_dst,
                                float leaky_slope, float attn_dropout,
                                bool training, Rng* rng,
                                const exec::Context* exec = nullptr);

/// GatAttention over one sampled bipartite layer: `wh` holds the projected
/// features of the layer's source frontier (num_src x f); the result is the
/// aggregation over the layer's destination rows (num_dst x f). Because dst
/// local ids are a prefix of the src ids, wh row i doubles as dst node i's
/// own projection for the s_dst score. The backward walks the layer's own
/// transpose view. It differs from the full graph's in one piece of
/// arithmetic: its last pass adds dssrc_i * a_src and dsdst_i * a_dst to
/// dwh_i as two AxpyRow calls, where the full graph adds both products in
/// one expression. `layer` must outlive the backward pass (the SampledBlock
/// is owned by the trainer for the batch).
autograd::Variable GatAttentionSampled(const graph::SampledLayer& layer,
                                       const autograd::Variable& wh,
                                       const autograd::Variable& a_src,
                                       const autograd::Variable& a_dst,
                                       float leaky_slope, float attn_dropout,
                                       bool training, Rng* rng,
                                       const exec::Context* exec = nullptr);

/// Configuration shared by both GAT layers of the encoder.
struct GatLayerConfig {
  int in_dim = 0;
  int out_dim = 0;   ///< per-head output width
  int num_heads = 1;
  bool concat_heads = true;  ///< concat (hidden layers) vs average (final)
  float leaky_slope = 0.2f;
  float attn_dropout = 0.0f;

  /// When true, Forward applies the layer bias and an ELU activation as one
  /// fused node (ops::AddBiasElu) instead of leaving the bias-only output
  /// for the caller to activate — one graph node and one sweep fewer per
  /// step. Hidden layers of the encoder enable this; the final layer keeps
  /// the raw bias-only output.
  bool fused_bias_elu = false;

  /// Execution context for the layer's kernels; nullptr = process default.
  /// Must outlive the layer's backward passes.
  const exec::Context* exec = nullptr;
};

/// One multi-head graph attention layer (Velickovic et al., ICLR 2018).
class GatLayer : public Module {
 public:
  GatLayer(const GatLayerConfig& config, Rng* rng);

  /// x: num_nodes x in_dim. Returns num_nodes x (out_dim * heads) when
  /// concatenating, else num_nodes x out_dim.
  autograd::Variable Forward(const graph::Graph& graph,
                             const autograd::Variable& x, bool training,
                             Rng* rng) const;

  /// Sampled-layer counterpart: x covers the layer's source frontier
  /// (num_src x in_dim); returns num_dst rows.
  autograd::Variable ForwardSampled(const graph::SampledLayer& layer,
                                    const autograd::Variable& x, bool training,
                                    Rng* rng) const;

  /// Tape-free eval forward: the bits of Forward(graph, x, false, ...) with
  /// no graph node, closure or gradient buffer — each head's projection and
  /// attention kernel run straight into the combined output.
  la::Matrix ForwardFrozen(const graph::Graph& graph,
                           const la::Matrix& x) const;

  /// Tape-free counterpart of ForwardSampled in eval mode.
  la::Matrix ForwardSampledFrozen(const graph::SampledLayer& layer,
                                  const la::Matrix& x) const;

  const GatLayerConfig& config() const { return config_; }

 private:
  // The taped and the frozen forward over one attention view.
  autograd::Variable Heads(const AttentionView& view,
                           const autograd::Variable& x, bool training,
                           Rng* rng) const;
  la::Matrix FrozenHeads(const AttentionView& view, const la::Matrix& x) const;

  GatLayerConfig config_;
  std::vector<autograd::Variable> weights_;  // per head, in_dim x out_dim
  std::vector<autograd::Variable> a_src_;    // per head, 1 x out_dim
  std::vector<autograd::Variable> a_dst_;    // per head, 1 x out_dim
  autograd::Variable bias_;                  // 1 x final_out_dim
};

/// Which encoder architecture an EncoderWithHead builds.
enum class EncoderArch {
  kGat,  ///< graph attention network (the paper's encoder)
  kGcn,  ///< graph convolutional network (symmetric-normalized averaging)
};

/// Configuration of the paper's encoder (§VII): 2 GAT layers, hidden 128,
/// 8 heads, dropout 0.5. The CPU-scaled experiment configs shrink hidden
/// size and heads; tests use tiny values. `arch` switches the architecture
/// (GCN ignores the attention-specific fields).
struct GatEncoderConfig {
  EncoderArch arch = EncoderArch::kGat;
  int in_dim = 0;
  int hidden_dim = 64;    ///< total across heads (must divide num_heads)
  int embedding_dim = 64; ///< output width
  int num_heads = 4;
  float dropout = 0.5f;
  float attn_dropout = 0.0f;

  /// Execution context threaded into every layer kernel (projection
  /// matmuls, attention forward/backward, GCN aggregation); nullptr =
  /// process default. Must outlive the encoder's backward passes.
  const exec::Context* exec = nullptr;
};

/// Two-layer GAT producing node embeddings. Calling Forward twice in
/// training mode draws independent dropout masks — the SimCSE-style positive
/// pair construction used by the paper's contrastive losses.
class GatEncoder : public Encoder {
 public:
  GatEncoder(const GatEncoderConfig& config, Rng* rng);

  autograd::Variable Forward(const graph::Graph& graph,
                             const autograd::Variable& features, bool training,
                             Rng* rng) const override;

  bool SupportsSampled() const override { return true; }

  /// Sampled minibatch forward: `features` covers the block's input
  /// frontier (block.num_input() x in_dim, already gathered); the block
  /// must have exactly 2 layers (the encoder's depth). Returns
  /// block.num_output() x embedding_dim rows for the seed nodes.
  autograd::Variable ForwardSampled(const graph::SampledBlock& block,
                                    const autograd::Variable& features,
                                    bool training, Rng* rng) const override;

  la::Matrix ForwardFrozen(const graph::Graph& graph,
                           const la::Matrix& features) const override;

  la::Matrix ForwardSampledFrozen(const graph::SampledBlock& block,
                                  const la::Matrix& features) const override;

  int embedding_dim() const override { return config_.embedding_dim; }

  const GatEncoderConfig& config() const { return config_; }

 private:
  GatEncoderConfig config_;
  std::unique_ptr<GatLayer> layer1_;
  std::unique_ptr<GatLayer> layer2_;
};

}  // namespace openima::nn

#endif  // OPENIMA_NN_GAT_H_

#include "src/nn/gat.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "src/autograd/ops.h"
#include "src/exec/context.h"
#include "src/la/backend/backend.h"
#include "src/la/matrix_ops.h"
#include "src/la/pool.h"
#include "src/nn/init.h"
#include "src/util/logging.h"

namespace openima::nn {

// The CSR view one attention head runs over. Destination row i lists its
// edges row_ptr[i]..row_ptr[i+1] into col_idx, a local source id in
// [0, num_src); destination ids are a prefix of the source ids, so wh row i
// doubles as destination i's own projection. The source-major transpose
// lists, for source s, entries src_row_ptr[s]..src_row_ptr[s+1]: entry t is
// edge src_edge_pos[t] (a position in col_idx), feeding destination
// src_dst_idx[t], in ascending edge position. A sampled layer carries its
// transpose; the full graph is its own through Graph::reverse_edge().
struct AttentionView {
  int num_src;
  int num_dst;
  int64_t num_edges;
  const int64_t* row_ptr;
  const int* col_idx;
  const int64_t* src_row_ptr;
  const int* src_dst_idx;
  const int64_t* src_edge_pos;
  // The backward's last pass, dwh_i += dssrc_i * a_src + dsdst_i * a_dst,
  // as one expression per element (the full graph) or as two AxpyRow calls
  // (a sampled layer). The two round differently, so each view keeps its
  // own and neither trainer's bits move.
  bool fused_last_pass;
};

namespace {
using autograd::MakeOp;
using autograd::Node;
using autograd::Variable;

// Rows per task for node-range loops; disjoint-write kernels are
// deterministic under any split, so this only tunes task granularity.
int64_t NodeGrain(int64_t n) { return std::max<int64_t>(64, n / 256); }

AttentionView GraphView(const graph::Graph& graph) {
  OPENIMA_CHECK(graph.has_self_loops())
      << "GAT requires self-loops so every node attends to itself";
  // Row j's entry t is the edge from source col_idx[t] into destination j;
  // its mirror reverse_edge[t] is the edge from source j into destination
  // col_idx[t]. Row j thus lists every edge source j feeds, by ascending
  // destination and so by ascending edge position.
  const int n = graph.num_nodes();
  return {n,
          n,
          graph.num_directed_edges(),
          graph.row_ptr().data(),
          graph.col_idx().data(),
          graph.row_ptr().data(),
          graph.col_idx().data(),
          graph.reverse_edge().data(),
          /*fused_last_pass=*/true};
}

AttentionView LayerView(const graph::SampledLayer& layer) {
  return {layer.num_src,
          layer.num_dst,
          layer.num_edges(),
          layer.row_ptr.data(),
          layer.col_idx.data(),
          layer.src_row_ptr.data(),
          layer.src_dst_idx.data(),
          layer.src_edge_pos.data(),
          /*fused_last_pass=*/false};
}

// One head's attention forward over `view`, shared by the autograd op and
// the frozen forward: per-node scores, then for each destination row its
// LeakyReLU pre-activations (`pre`) and softmax coefficients (`alpha`, both
// in CSR order, every entry written), and the aggregation accumulated
// through the backend AxpyRow kernel (pinned bit-identical across
// backends) into the caller-zeroed row i of `out` (row stride
// `out_stride`, so a head can write straight into its concat slice).
// `mask` (nullptr = none) scales each coefficient as it is applied.
void Attend(const AttentionView& view, const la::Matrix& whv,
            const float* asrc, const float* adst, float leaky_slope,
            const float* mask, float* pre, float* alpha, float* out,
            int64_t out_stride, const exec::Context* exec_ctx) {
  const int num_src = view.num_src;
  const int num_dst = view.num_dst;
  const int f = whv.cols();
  OPENIMA_CHECK_EQ(whv.rows(), num_src);
  OPENIMA_CHECK_GE(num_src, num_dst);  // dst ids are a prefix of src ids
  const exec::Context& ex = exec::Get(exec_ctx);
  const la::backend::KernelBackend& be = la::backend::Resolve(exec_ctx);
  const int64_t* row_ptr = view.row_ptr;
  const int* col_idx = view.col_idx;

  // Per-node attention scores s_src(i) = wh_i . a_src, and s_dst likewise
  // on the destination prefix. Disjoint writes per node; per-node
  // accumulation order is fixed. Pooled uninitialized scratch: every entry
  // is written before it is read.
  la::PoolBuffer ssrc(num_src), sdst(std::max(num_dst, 1));
  ex.ParallelFor(num_src, std::max<int64_t>(1, 8192 / std::max(1, f)),
                 [&](int64_t r0, int64_t r1) {
                   for (int64_t i = r0; i < r1; ++i) {
                     const float* row = whv.Row(static_cast<int>(i));
                     double d1 = 0.0, d2 = 0.0;
                     for (int j = 0; j < f; ++j) {
                       d1 += static_cast<double>(row[j]) * asrc[j];
                       d2 += static_cast<double>(row[j]) * adst[j];
                     }
                     ssrc[static_cast<size_t>(i)] = static_cast<float>(d1);
                     if (i < num_dst) {
                       sdst[static_cast<size_t>(i)] = static_cast<float>(d2);
                     }
                   }
                 });

  // Edge softmax with max-shift plus aggregation, parallel over destination
  // rows. Each row owns its CSR entries of pre/alpha and its output row, so
  // writes are disjoint and the result is identical for any range split.
  ex.ParallelFor(num_dst, NodeGrain(num_dst), [&](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      const int64_t begin = row_ptr[i];
      const int64_t end = row_ptr[i + 1];
      float mx = -std::numeric_limits<float>::infinity();
      for (int64_t e = begin; e < end; ++e) {
        float v = sdst[static_cast<size_t>(i)] +
                  ssrc[static_cast<size_t>(col_idx[e])];
        if (v <= 0.0f) v *= leaky_slope;
        pre[e] = v;
        mx = std::max(mx, v);
      }
      double denom = 0.0;
      for (int64_t e = begin; e < end; ++e) {
        const float a = std::exp(pre[e] - mx);
        alpha[e] = a;
        denom += a;
      }
      const float inv = static_cast<float>(1.0 / denom);
      float* orow = out + i * out_stride;
      for (int64_t e = begin; e < end; ++e) {
        alpha[e] *= inv;
        float coeff = alpha[e];
        if (mask != nullptr) coeff *= mask[e];
        be.AxpyRow(coeff, whv.Row(col_idx[e]), orow, f);
      }
    }
  });
}

// Training-mode dropout mask over `num_edges` attention coefficients (empty
// when no attention dropout applies). The draw stays serial: the Rng draw
// order is part of the reproducibility contract.
la::Matrix AttentionMask(int64_t num_edges, float attn_dropout, bool training,
                         Rng* rng) {
  if (!training || attn_dropout <= 0.0f) return la::Matrix();
  OPENIMA_CHECK(rng != nullptr);
  la::Matrix mask(1, static_cast<int>(num_edges));
  const float keep_scale = 1.0f / (1.0f - attn_dropout);
  for (int64_t e = 0; e < num_edges; ++e) {
    mask.data()[e] = rng->Bernoulli(attn_dropout) ? 0.0f : keep_scale;
  }
  return mask;
}

// The autograd attention op over `view`: Attend into per-edge state kept
// for the backward. The graph or sampled layer behind the view (owned by
// the caller's Dataset or the trainer's per-batch block) must outlive the
// backward pass, like an explicit execution context.
Variable Attention(const AttentionView& view, const Variable& wh,
                   const Variable& a_src, const Variable& a_dst,
                   float leaky_slope, float attn_dropout, bool training,
                   Rng* rng, const exec::Context* exec_ctx) {
  const int f = wh.cols();
  OPENIMA_CHECK_EQ(a_src.rows(), 1);
  OPENIMA_CHECK_EQ(a_src.cols(), f);
  OPENIMA_CHECK_EQ(a_dst.rows(), 1);
  OPENIMA_CHECK_EQ(a_dst.cols(), f);
  const int ne = static_cast<int>(view.num_edges);
  OPENIMA_CHECK_EQ(static_cast<int64_t>(ne), view.num_edges);

  // Per-edge pre-activations, softmax coefficients, and dropout mask,
  // stored in CSR order for the backward pass. These live in the backward
  // closure, which std::function requires to be copyable — so they are
  // pool-backed la::Matrix rows rather than (move-only) PoolBuffers.
  la::Matrix pre(1, ne);
  la::Matrix alpha(1, ne);
  la::Matrix mask = AttentionMask(view.num_edges, attn_dropout, training, rng);
  const bool use_mask = !mask.empty();
  la::Matrix out(view.num_dst, f);
  Attend(view, wh.value(), a_src.value().Row(0), a_dst.value().Row(0),
         leaky_slope, use_mask ? mask.data() : nullptr, pre.data(),
         alpha.data(), out.data(), f, exec_ctx);

  return MakeOp(
      "gat_attention", std::move(out), {wh, a_src, a_dst},
      [view, exec_ctx, leaky_slope, use_mask, pre = std::move(pre),
       alpha = std::move(alpha), mask = std::move(mask)](Node* nd) {
        const exec::Context& ex = exec::Get(exec_ctx);
        const la::backend::KernelBackend& be = la::backend::Resolve(exec_ctx);
        const la::Matrix& whv = nd->inputs[0]->value;
        const la::Matrix& g = nd->grad;
        const int num_src = view.num_src;
        const int num_dst = view.num_dst;
        const int f = whv.cols();
        const int64_t* row_ptr = view.row_ptr;
        const int* col_idx = view.col_idx;

        const bool need_wh = nd->inputs[0]->requires_grad;
        const bool need_asrc = nd->inputs[1]->requires_grad;
        const bool need_adst = nd->inputs[2]->requires_grad;
        if (!need_wh && !need_asrc && !need_adst) return;

        // Two-pass gather formulation so every parallel write is row-local.
        //
        // Pass A (parallel over destination rows i): per-edge gradient
        //   de_ij = dLeakyReLU(dSoftmax(g_i . wh_j)) stored densely in CSR
        //   order, plus dsdst[i] = sum_j de_ij (row-local accumulation).
        // Pooled uninitialized scratch: pass A writes every de/dsdst entry,
        // pass B writes every dssrc entry, before anything reads them.
        la::PoolBuffer de(view.num_edges);
        la::PoolBuffer dssrc(num_src);
        la::PoolBuffer dsdst(std::max(num_dst, 1));
        la::Matrix* dwh = need_wh ? &nd->inputs[0]->grad : nullptr;

        ex.ParallelFor(num_dst, NodeGrain(num_dst), [&](int64_t r0,
                                                        int64_t r1) {
          std::vector<float> dalpha;  // scratch reused across rows
          for (int64_t i = r0; i < r1; ++i) {
            const int64_t begin = row_ptr[i];
            const int64_t end = row_ptr[i + 1];
            const float* grow = g.Row(static_cast<int>(i));
            dalpha.resize(static_cast<size_t>(end - begin));

            // dalpha~_ij = g_i . wh_j ; route through mask and softmax.
            double weighted_sum = 0.0;  // sum_k alpha_ik * dalpha_ik
            for (int64_t e = begin; e < end; ++e) {
              const float* src = whv.Row(col_idx[e]);
              double dot = 0.0;
              for (int c = 0; c < f; ++c) {
                dot += static_cast<double>(grow[c]) * src[c];
              }
              float da = static_cast<float>(dot);
              if (use_mask) da *= mask.data()[e];
              dalpha[static_cast<size_t>(e - begin)] = da;
              weighted_sum += static_cast<double>(alpha.data()[e]) * da;
            }
            float acc = 0.0f;
            for (int64_t e = begin; e < end; ++e) {
              // Softmax backward, then LeakyReLU backward on the
              // pre-activation.
              float d = alpha.data()[e] *
                        (dalpha[static_cast<size_t>(e - begin)] -
                         static_cast<float>(weighted_sum));
              if (pre.data()[e] <= 0.0f) d *= leaky_slope;
              de[static_cast<size_t>(e)] = d;
              acc += d;
            }
            dsdst[static_cast<size_t>(i)] = acc;
          }
        });

        // Pass B (parallel over source rows s): the transpose view lists
        // every edge fed by s, turning the scatter-adds into per-source
        // gathers in ascending edge position — bit-identical for any
        // thread count.
        const int64_t* src_row_ptr = view.src_row_ptr;
        const int* src_dst_idx = view.src_dst_idx;
        const int64_t* src_edge_pos = view.src_edge_pos;
        ex.ParallelFor(num_src, NodeGrain(num_src), [&](int64_t r0,
                                                        int64_t r1) {
          for (int64_t s = r0; s < r1; ++s) {
            const int64_t begin = src_row_ptr[s];
            const int64_t end = src_row_ptr[s + 1];
            float acc = 0.0f;
            for (int64_t t = begin; t < end; ++t) {
              acc += de[static_cast<size_t>(src_edge_pos[t])];
            }
            dssrc[static_cast<size_t>(s)] = acc;
            if (need_wh) {
              // dwh_s += sum over edges (i -> s) of alpha~ * g_i.
              float* drow = dwh->Row(static_cast<int>(s));
              for (int64_t t = begin; t < end; ++t) {
                const int64_t e = src_edge_pos[t];
                float coeff = alpha.data()[e];
                if (use_mask) coeff *= mask.data()[e];
                be.AxpyRow(coeff, g.Row(src_dst_idx[t]), drow, f);
              }
            }
          }
        });

        const float* asrc = nd->inputs[1]->value.Row(0);
        const float* adst = nd->inputs[2]->value.Row(0);
        if (need_wh) {
          // dwh_s += dssrc_s * a_src (+ dsdst_s * a_dst on the dst prefix).
          ex.ParallelFor(num_src, NodeGrain(num_src), [&](int64_t r0,
                                                          int64_t r1) {
            for (int64_t i = r0; i < r1; ++i) {
              float* drow = dwh->Row(static_cast<int>(i));
              const float d1 = dssrc[static_cast<size_t>(i)];
              if (view.fused_last_pass) {  // every row is a destination
                const float d2 = dsdst[static_cast<size_t>(i)];
                for (int c = 0; c < f; ++c) {
                  drow[c] += d1 * asrc[c] + d2 * adst[c];
                }
                continue;
              }
              be.AxpyRow(d1, asrc, drow, f);
              if (i < num_dst) {
                be.AxpyRow(dsdst[static_cast<size_t>(i)], adst, drow, f);
              }
            }
          });
        }
        if (need_asrc || need_adst) {
          // da_src = sum_s dssrc_s * wh_s (da_dst likewise, over the dst
          // prefix): deterministic chunked reduction — chunk layout depends
          // only on (num_src, grain), per-chunk partials combine in
          // ascending chunk order.
          const int64_t grain =
              exec::Context::GrainForMaxChunks(num_src, 256, 64);
          const int64_t chunks = exec::Context::NumChunks(num_src, grain);
          std::vector<double> partial(
              static_cast<size_t>(chunks) * 2 * static_cast<size_t>(f), 0.0);
          ex.ParallelForChunks(
              num_src, grain, [&](int64_t chunk, int64_t b, int64_t e) {
                double* ps = partial.data() +
                             static_cast<size_t>(chunk) * 2 *
                                 static_cast<size_t>(f);
                double* pd = ps + f;
                for (int64_t i = b; i < e; ++i) {
                  const float d1 = dssrc[static_cast<size_t>(i)];
                  const float* row = whv.Row(static_cast<int>(i));
                  for (int c = 0; c < f; ++c) {
                    ps[c] += static_cast<double>(d1) * row[c];
                  }
                  if (i < num_dst) {
                    const float d2 = dsdst[static_cast<size_t>(i)];
                    for (int c = 0; c < f; ++c) {
                      pd[c] += static_cast<double>(d2) * row[c];
                    }
                  }
                }
              });
          float* das = need_asrc ? nd->inputs[1]->grad.Row(0) : nullptr;
          float* dad = need_adst ? nd->inputs[2]->grad.Row(0) : nullptr;
          for (int c = 0; c < f; ++c) {
            double ts = 0.0, td = 0.0;
            for (int64_t ch = 0; ch < chunks; ++ch) {
              const double* ps = partial.data() +
                                 static_cast<size_t>(ch) * 2 *
                                     static_cast<size_t>(f);
              ts += ps[c];
              td += ps[static_cast<size_t>(f) + c];
            }
            if (das != nullptr) das[c] += static_cast<float>(ts);
            if (dad != nullptr) dad[c] += static_cast<float>(td);
          }
        }
      });
}

}  // namespace

Variable GatAttention(const graph::Graph& graph, const Variable& wh,
                      const Variable& a_src, const Variable& a_dst,
                      float leaky_slope, float attn_dropout, bool training,
                      Rng* rng, const exec::Context* exec_ctx) {
  return Attention(GraphView(graph), wh, a_src, a_dst, leaky_slope,
                   attn_dropout, training, rng, exec_ctx);
}

Variable GatAttentionSampled(const graph::SampledLayer& layer,
                             const Variable& wh, const Variable& a_src,
                             const Variable& a_dst, float leaky_slope,
                             float attn_dropout, bool training, Rng* rng,
                             const exec::Context* exec_ctx) {
  return Attention(LayerView(layer), wh, a_src, a_dst, leaky_slope,
                   attn_dropout, training, rng, exec_ctx);
}

GatLayer::GatLayer(const GatLayerConfig& config, Rng* rng) : config_(config) {
  OPENIMA_CHECK_GT(config.in_dim, 0);
  OPENIMA_CHECK_GT(config.out_dim, 0);
  OPENIMA_CHECK_GT(config.num_heads, 0);
  for (int h = 0; h < config.num_heads; ++h) {
    weights_.push_back(
        AddParameter(GlorotUniform(config.in_dim, config.out_dim, rng)));
    a_src_.push_back(AddParameter(GlorotUniform(1, config.out_dim, rng)));
    a_dst_.push_back(AddParameter(GlorotUniform(1, config.out_dim, rng)));
  }
  const int final_dim = config.concat_heads
                            ? config.out_dim * config.num_heads
                            : config.out_dim;
  bias_ = AddParameter(la::Matrix(1, final_dim));
}

Variable GatLayer::Forward(const graph::Graph& graph, const Variable& x,
                           bool training, Rng* rng) const {
  return Heads(GraphView(graph), x, training, rng);
}

Variable GatLayer::ForwardSampled(const graph::SampledLayer& layer,
                                  const Variable& x, bool training,
                                  Rng* rng) const {
  return Heads(LayerView(layer), x, training, rng);
}

Variable GatLayer::Heads(const AttentionView& view, const Variable& x,
                         bool training, Rng* rng) const {
  namespace ops = autograd::ops;
  // Heads run sequentially on purpose: they share the dropout Rng stream
  // (part of the reproducibility contract), and each head's kernels already
  // parallelize internally over nodes.
  std::vector<Variable> heads;
  heads.reserve(static_cast<size_t>(config_.num_heads));
  for (int h = 0; h < config_.num_heads; ++h) {
    Variable wh = ops::Matmul(x, weights_[static_cast<size_t>(h)],
                              config_.exec);
    heads.push_back(Attention(view, wh, a_src_[static_cast<size_t>(h)],
                              a_dst_[static_cast<size_t>(h)],
                              config_.leaky_slope, config_.attn_dropout,
                              training, rng, config_.exec));
  }
  Variable out;
  if (config_.concat_heads) {
    out = ops::ConcatCols(heads);
  } else {
    out = heads[0];
    for (size_t h = 1; h < heads.size(); ++h) out = ops::Add(out, heads[h]);
    out = ops::Scale(out, 1.0f / static_cast<float>(heads.size()));
  }
  if (config_.fused_bias_elu) {
    return ops::AddBiasElu(out, bias_, 1.0f, config_.exec);
  }
  return ops::AddRowBroadcast(out, bias_);
}

la::Matrix GatLayer::ForwardFrozen(const graph::Graph& graph,
                                   const la::Matrix& x) const {
  return FrozenHeads(GraphView(graph), x);
}

la::Matrix GatLayer::ForwardSampledFrozen(const graph::SampledLayer& layer,
                                          const la::Matrix& x) const {
  return FrozenHeads(LayerView(layer), x);
}

la::Matrix GatLayer::FrozenHeads(const AttentionView& view,
                                 const la::Matrix& x) const {
  const int rows = view.num_dst;
  const int f = config_.out_dim;
  const int heads = config_.num_heads;
  // Per-edge scratch shared by the heads: nothing reads a head's
  // pre-activations or coefficients after its kernel returns.
  la::PoolBuffer pre(view.num_edges);
  la::PoolBuffer alpha(view.num_edges);
  // Head h: its own projection GEMM, as in training, then the attention
  // kernel accumulating into `out` rows of stride `stride`.
  auto attend = [&](int h, float* out, int64_t stride) {
    const size_t k = static_cast<size_t>(h);
    const la::Matrix wh = la::Matmul(x, weights_[k].value(), config_.exec);
    Attend(view, wh, a_src_[k].value().Row(0), a_dst_[k].value().Row(0),
           config_.leaky_slope, nullptr, pre.data(), alpha.data(), out, stride,
           config_.exec);
  };
  la::Matrix out;
  if (config_.concat_heads) {
    // Each head writes straight into its column slice of the concat.
    out = la::Matrix(rows, f * heads);
    for (int h = 0; h < heads; ++h) attend(h, out.data() + h * f, f * heads);
  } else {
    // The tape's association, ((h0 + h1) + h2) + ..., through one scratch
    // matrix, then its 1/H scale.
    out = la::Matrix(rows, f);
    attend(0, out.data(), f);
    la::Matrix head = heads > 1 ? la::Matrix(rows, f) : la::Matrix();
    for (int h = 1; h < heads; ++h) {
      if (h > 1) head.Fill(0.0f);
      attend(h, head.data(), f);
      la::AddInPlace(head, &out, config_.exec);
    }
    la::ScaleInPlace(1.0f / static_cast<float>(heads), &out, config_.exec);
  }
  if (config_.fused_bias_elu) {
    const la::backend::KernelBackend& be = la::backend::Resolve(config_.exec);
    const float* b = bias_.value().Row(0);
    for (int i = 0; i < out.rows(); ++i) {
      be.AddBiasEluRow(out.Row(i), b, 1.0f, out.cols());
    }
  } else {
    la::AddRowBroadcastInPlace(bias_.value(), &out);
  }
  return out;
}

GatEncoder::GatEncoder(const GatEncoderConfig& config, Rng* rng)
    : config_(config) {
  OPENIMA_CHECK_GT(config.in_dim, 0);
  OPENIMA_CHECK_EQ(config.hidden_dim % config.num_heads, 0)
      << "hidden_dim must be divisible by num_heads";
  GatLayerConfig l1;
  l1.in_dim = config.in_dim;
  l1.out_dim = config.hidden_dim / config.num_heads;
  l1.num_heads = config.num_heads;
  l1.concat_heads = true;
  l1.attn_dropout = config.attn_dropout;
  l1.fused_bias_elu = true;  // hidden layer: bias + ELU in one node
  l1.exec = config.exec;
  layer1_ = std::make_unique<GatLayer>(l1, rng);
  RegisterSubmodule(*layer1_);

  GatLayerConfig l2;
  l2.in_dim = config.hidden_dim;
  l2.out_dim = config.embedding_dim;
  l2.num_heads = config.num_heads;
  l2.concat_heads = false;  // final layer averages heads
  l2.attn_dropout = config.attn_dropout;
  l2.exec = config.exec;
  layer2_ = std::make_unique<GatLayer>(l2, rng);
  RegisterSubmodule(*layer2_);
}

Variable GatEncoder::Forward(const graph::Graph& graph,
                             const Variable& features, bool training,
                             Rng* rng) const {
  namespace ops = autograd::ops;
  Variable x = ops::Dropout(features, config_.dropout, training, rng);
  // layer1 has fused_bias_elu set, so its output is already activated.
  x = layer1_->Forward(graph, x, training, rng);
  x = ops::Dropout(x, config_.dropout, training, rng);
  return layer2_->Forward(graph, x, training, rng);
}

Variable GatEncoder::ForwardSampled(const graph::SampledBlock& block,
                                    const Variable& features, bool training,
                                    Rng* rng) const {
  namespace ops = autograd::ops;
  OPENIMA_CHECK_EQ(block.layers.size(), 2u)
      << "GatEncoder is two layers deep; sample blocks with num_layers=2";
  OPENIMA_CHECK_EQ(features.rows(), block.num_input());
  Variable x = ops::Dropout(features, config_.dropout, training, rng);
  x = layer1_->ForwardSampled(block.layers[0], x, training, rng);
  x = ops::Dropout(x, config_.dropout, training, rng);
  return layer2_->ForwardSampled(block.layers[1], x, training, rng);
}

la::Matrix GatEncoder::ForwardFrozen(const graph::Graph& graph,
                                     const la::Matrix& features) const {
  // Eval dropout is the identity, so the frozen forward skips it.
  return layer2_->ForwardFrozen(graph, layer1_->ForwardFrozen(graph, features));
}

la::Matrix GatEncoder::ForwardSampledFrozen(const graph::SampledBlock& block,
                                            const la::Matrix& features) const {
  OPENIMA_CHECK_EQ(block.layers.size(), 2u)
      << "GatEncoder is two layers deep; sample blocks with num_layers=2";
  OPENIMA_CHECK_EQ(features.rows(), block.num_input());
  return layer2_->ForwardSampledFrozen(
      block.layers[1], layer1_->ForwardSampledFrozen(block.layers[0], features));
}

}  // namespace openima::nn

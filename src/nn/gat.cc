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

namespace {
using autograd::MakeOp;
using autograd::Node;
using autograd::Variable;

// Rows per task for node-range loops; disjoint-write kernels are
// deterministic under any split, so this only tunes task granularity.
int64_t NodeGrain(int64_t n) { return std::max<int64_t>(64, n / 256); }

// One head's attention forward over the full graph's CSR, shared by the
// autograd wrapper and the frozen forward: per-node scores, then for each
// destination row its LeakyReLU pre-activations (`pre`) and softmax
// coefficients (`alpha`, both in CSR order, every entry written), and the
// aggregation accumulated into the caller-zeroed row i of `out` (row stride
// `out_stride`, so a head can write straight into its concat slice).
// `mask` (nullptr = none) scales each coefficient as it is applied.
void AttendGraph(const graph::Graph& graph, const la::Matrix& whv,
                 const float* asrc, const float* adst, float leaky_slope,
                 const float* mask, float* pre, float* alpha, float* out,
                 int64_t out_stride, const exec::Context* exec_ctx) {
  const int n = graph.num_nodes();
  const int f = whv.cols();
  OPENIMA_CHECK_EQ(whv.rows(), n);
  OPENIMA_CHECK(graph.has_self_loops())
      << "GAT requires self-loops so every node attends to itself";
  const exec::Context& ex = exec::Get(exec_ctx);
  const auto& row_ptr = graph.row_ptr();
  const auto& col_idx = graph.col_idx();

  // Per-node attention scores s_src(i) = wh_i . a_src, s_dst likewise.
  // Disjoint writes per node; per-node accumulation order is fixed. Pooled
  // uninitialized scratch: every entry is written before it is read.
  la::PoolBuffer ssrc(n, exec_ctx), sdst(n, exec_ctx);
  ex.ParallelFor(n, std::max<int64_t>(1, 8192 / std::max(1, f)),
                 [&](int64_t r0, int64_t r1) {
                   for (int64_t i = r0; i < r1; ++i) {
                     const float* row = whv.Row(static_cast<int>(i));
                     double d1 = 0.0, d2 = 0.0;
                     for (int j = 0; j < f; ++j) {
                       d1 += static_cast<double>(row[j]) * asrc[j];
                       d2 += static_cast<double>(row[j]) * adst[j];
                     }
                     ssrc[static_cast<size_t>(i)] = static_cast<float>(d1);
                     sdst[static_cast<size_t>(i)] = static_cast<float>(d2);
                   }
                 });

  // Attention + aggregation, parallel over destination nodes. Each node
  // owns its CSR row of pre/alpha and its output row, so writes are
  // disjoint and the result is identical for any range split.
  ex.ParallelFor(n, NodeGrain(n), [&](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      const int64_t begin = row_ptr[static_cast<size_t>(i)];
      const int64_t end = row_ptr[static_cast<size_t>(i) + 1];
      float mx = -std::numeric_limits<float>::infinity();
      for (int64_t e = begin; e < end; ++e) {
        const int j = col_idx[static_cast<size_t>(e)];
        float v = sdst[static_cast<size_t>(i)] + ssrc[static_cast<size_t>(j)];
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
        const float* src = whv.Row(col_idx[static_cast<size_t>(e)]);
        for (int j = 0; j < f; ++j) orow[j] += coeff * src[j];
      }
    }
  });
}

// AttendGraph over one sampled bipartite layer: `whv` covers the layer's
// source frontier, `out` its destination rows. s_dst is only needed on the
// dst prefix (wh row i doubles as dst node i's projection), and the
// aggregation accumulates through the backend AxpyRow kernel, which is
// pinned bit-identical across backends.
void AttendSampled(const graph::SampledLayer& layer, const la::Matrix& whv,
                   const float* asrc, const float* adst, float leaky_slope,
                   const float* mask, float* pre, float* alpha, float* out,
                   int64_t out_stride, const exec::Context* exec_ctx) {
  const int num_src = layer.num_src;
  const int num_dst = layer.num_dst;
  const int f = whv.cols();
  OPENIMA_CHECK_EQ(whv.rows(), num_src);
  OPENIMA_CHECK_GE(num_src, num_dst);  // dst ids are a prefix of src ids
  const exec::Context& ex = exec::Get(exec_ctx);
  const la::backend::KernelBackend& be = la::backend::Resolve(exec_ctx);
  const auto& row_ptr = layer.row_ptr;
  const auto& col_idx = layer.col_idx;

  // Same fixed per-row score accumulation as the full-graph kernel.
  la::PoolBuffer ssrc(num_src, exec_ctx), sdst(std::max(num_dst, 1), exec_ctx);
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

  // Edge-softmax over the sampled frontier, row-local with max-shift.
  ex.ParallelFor(num_dst, NodeGrain(num_dst), [&](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      const int64_t begin = row_ptr[static_cast<size_t>(i)];
      const int64_t end = row_ptr[static_cast<size_t>(i) + 1];
      float mx = -std::numeric_limits<float>::infinity();
      for (int64_t e = begin; e < end; ++e) {
        const int j = col_idx[static_cast<size_t>(e)];
        float v = sdst[static_cast<size_t>(i)] + ssrc[static_cast<size_t>(j)];
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
        be.AxpyRow(coeff, whv.Row(col_idx[static_cast<size_t>(e)]), orow, f);
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

}  // namespace

Variable GatAttention(const graph::Graph& graph, const Variable& wh,
                      const Variable& a_src, const Variable& a_dst,
                      float leaky_slope, float attn_dropout, bool training,
                      Rng* rng, const exec::Context* exec_ctx) {
  const int n = graph.num_nodes();
  const int f = wh.cols();
  OPENIMA_CHECK_EQ(a_src.rows(), 1);
  OPENIMA_CHECK_EQ(a_src.cols(), f);
  OPENIMA_CHECK_EQ(a_dst.rows(), 1);
  OPENIMA_CHECK_EQ(a_dst.cols(), f);
  const int64_t num_edges = graph.num_directed_edges();
  const int ne = static_cast<int>(num_edges);
  OPENIMA_CHECK_EQ(static_cast<int64_t>(ne), num_edges);

  // Per-edge pre-activations, softmax coefficients, and dropout mask,
  // stored in CSR order for the backward pass. These live in the backward
  // closure, which std::function requires to be copyable — so they are
  // pool-backed la::Matrix rows rather than (move-only) PoolBuffers.
  la::Matrix pre(1, ne);
  la::Matrix alpha(1, ne);
  la::Matrix mask = AttentionMask(num_edges, attn_dropout, training, rng);
  const bool use_mask = !mask.empty();
  la::Matrix out(n, f);
  AttendGraph(graph, wh.value(), a_src.value().Row(0), a_dst.value().Row(0),
              leaky_slope, use_mask ? mask.data() : nullptr, pre.data(),
              alpha.data(), out.data(), f, exec_ctx);

  // The graph must outlive the backward pass (owned by the caller's
  // Dataset); captured by pointer. Likewise an explicit execution context.
  const graph::Graph* gptr = &graph;
  return MakeOp(
      "gat_attention", std::move(out), {wh, a_src, a_dst},
      [gptr, exec_ctx, leaky_slope, use_mask, pre = std::move(pre),
       alpha = std::move(alpha), mask = std::move(mask)](Node* nd) {
        const exec::Context& ex = exec::Get(exec_ctx);
        const la::Matrix& whv = nd->inputs[0]->value;
        const la::Matrix& g = nd->grad;
        const int n = gptr->num_nodes();
        const int f = whv.cols();
        const auto& row_ptr = gptr->row_ptr();
        const auto& col_idx = gptr->col_idx();
        const auto& rev = gptr->reverse_edge();
        const int64_t num_edges = gptr->num_directed_edges();

        const bool need_wh = nd->inputs[0]->requires_grad;
        const bool need_asrc = nd->inputs[1]->requires_grad;
        const bool need_adst = nd->inputs[2]->requires_grad;
        if (!need_wh && !need_asrc && !need_adst) return;

        // Two-pass gather formulation so every parallel write is row-local.
        //
        // Pass A (parallel over destination nodes i): per-edge gradient
        //   de_ij = dLeakyReLU(dSoftmax(g_i . wh_j)) stored densely in CSR
        //   order, plus dsdst[i] = sum_j de_ij (row-local accumulation).
        // Pooled uninitialized scratch: pass A writes every de/dsdst entry,
        // pass B writes every dssrc entry, before anything reads them.
        la::PoolBuffer de(num_edges, exec_ctx);
        la::PoolBuffer dssrc(n, exec_ctx);
        la::PoolBuffer dsdst(n, exec_ctx);
        la::Matrix* dwh = need_wh ? &nd->inputs[0]->grad : nullptr;

        ex.ParallelFor(n, NodeGrain(n), [&](int64_t r0, int64_t r1) {
          std::vector<float> dalpha;  // scratch reused across rows
          for (int64_t i = r0; i < r1; ++i) {
            const int64_t begin = row_ptr[static_cast<size_t>(i)];
            const int64_t end = row_ptr[static_cast<size_t>(i) + 1];
            const float* grow = g.Row(static_cast<int>(i));
            dalpha.resize(static_cast<size_t>(end - begin));

            // dalpha~_ij = g_i . wh_j ; route through mask and softmax.
            double weighted_sum = 0.0;  // sum_k alpha_ik * dalpha_ik
            for (int64_t e = begin; e < end; ++e) {
              const int j = col_idx[static_cast<size_t>(e)];
              const float* src = whv.Row(j);
              double dot = 0.0;
              for (int c = 0; c < f; ++c) {
                dot += static_cast<double>(grow[c]) * src[c];
              }
              float da = static_cast<float>(dot);
              if (use_mask) da *= mask.data()[static_cast<size_t>(e)];
              dalpha[static_cast<size_t>(e - begin)] = da;
              weighted_sum +=
                  static_cast<double>(alpha.data()[static_cast<size_t>(e)]) * da;
            }
            float acc = 0.0f;
            for (int64_t e = begin; e < end; ++e) {
              const float a = alpha.data()[static_cast<size_t>(e)];
              // Softmax backward.
              float d = a * (dalpha[static_cast<size_t>(e - begin)] -
                             static_cast<float>(weighted_sum));
              // LeakyReLU backward on the pre-activation.
              if (pre.data()[static_cast<size_t>(e)] <= 0.0f) d *= leaky_slope;
              de[static_cast<size_t>(e)] = d;
              acc += d;
            }
            dsdst[static_cast<size_t>(i)] = acc;
          }
        });

        // Pass B (parallel over source nodes j): the symmetric adjacency
        // lets us enumerate every edge with source j as the mirrors of row
        // j's entries (reverse_edge), turning the scatter-adds into
        // per-row gathers with a fixed (ascending-mirror) order —
        // bit-identical for any thread count.
        ex.ParallelFor(n, NodeGrain(n), [&](int64_t r0, int64_t r1) {
          for (int64_t j = r0; j < r1; ++j) {
            const int64_t begin = row_ptr[static_cast<size_t>(j)];
            const int64_t end = row_ptr[static_cast<size_t>(j) + 1];
            float acc = 0.0f;
            for (int64_t e = begin; e < end; ++e) {
              acc += de[static_cast<size_t>(rev[static_cast<size_t>(e)])];
            }
            dssrc[static_cast<size_t>(j)] = acc;
            if (need_wh) {
              // dwh_j += sum_i alpha~_ij * g_i (aggregation term); edge
              // (i -> j) is the mirror of row j's entry (j -> i).
              float* drow = dwh->Row(static_cast<int>(j));
              for (int64_t e = begin; e < end; ++e) {
                const int64_t m = rev[static_cast<size_t>(e)];
                float coeff = alpha.data()[static_cast<size_t>(m)];
                if (use_mask) coeff *= mask.data()[static_cast<size_t>(m)];
                const float* grow = g.Row(col_idx[static_cast<size_t>(e)]);
                for (int c = 0; c < f; ++c) drow[c] += coeff * grow[c];
              }
            }
          }
        });

        const float* asrc = nd->inputs[1]->value.Row(0);
        const float* adst = nd->inputs[2]->value.Row(0);
        if (need_wh) {
          // dwh_i += dssrc_i * a_src + dsdst_i * a_dst.
          ex.ParallelFor(n, NodeGrain(n), [&](int64_t r0, int64_t r1) {
            for (int64_t i = r0; i < r1; ++i) {
              float* drow = dwh->Row(static_cast<int>(i));
              const float d1 = dssrc[static_cast<size_t>(i)];
              const float d2 = dsdst[static_cast<size_t>(i)];
              for (int c = 0; c < f; ++c) {
                drow[c] += d1 * asrc[c] + d2 * adst[c];
              }
            }
          });
        }
        if (need_asrc || need_adst) {
          // da_src = sum_i dssrc_i * wh_i (da_dst likewise): deterministic
          // chunked reduction — chunk layout depends only on (n, grain),
          // per-chunk partials combine in ascending chunk order.
          const int64_t grain = exec::Context::GrainForMaxChunks(n, 256, 64);
          const int64_t chunks = exec::Context::NumChunks(n, grain);
          std::vector<double> partial(
              static_cast<size_t>(chunks) * 2 * static_cast<size_t>(f), 0.0);
          ex.ParallelForChunks(
              n, grain, [&](int64_t chunk, int64_t b, int64_t e) {
                double* ps = partial.data() +
                             static_cast<size_t>(chunk) * 2 *
                                 static_cast<size_t>(f);
                double* pd = ps + f;
                for (int64_t i = b; i < e; ++i) {
                  const float d1 = dssrc[static_cast<size_t>(i)];
                  const float d2 = dsdst[static_cast<size_t>(i)];
                  const float* row = whv.Row(static_cast<int>(i));
                  for (int c = 0; c < f; ++c) {
                    ps[c] += static_cast<double>(d1) * row[c];
                    pd[c] += static_cast<double>(d2) * row[c];
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

Variable GatAttentionSampled(const graph::SampledLayer& layer,
                             const Variable& wh, const Variable& a_src,
                             const Variable& a_dst, float leaky_slope,
                             float attn_dropout, bool training, Rng* rng,
                             const exec::Context* exec_ctx) {
  const int f = wh.cols();
  OPENIMA_CHECK_EQ(a_src.rows(), 1);
  OPENIMA_CHECK_EQ(a_src.cols(), f);
  OPENIMA_CHECK_EQ(a_dst.rows(), 1);
  OPENIMA_CHECK_EQ(a_dst.cols(), f);
  const int64_t num_edges = layer.num_edges();
  const int ne = static_cast<int>(num_edges);
  OPENIMA_CHECK_EQ(static_cast<int64_t>(ne), num_edges);

  // Closure state in the sampled layer's CSR order (see GatAttention).
  la::Matrix pre(1, ne);
  la::Matrix alpha(1, ne);
  la::Matrix mask = AttentionMask(num_edges, attn_dropout, training, rng);
  const bool use_mask = !mask.empty();
  la::Matrix out(layer.num_dst, f);
  AttendSampled(layer, wh.value(), a_src.value().Row(0), a_dst.value().Row(0),
                leaky_slope, use_mask ? mask.data() : nullptr, pre.data(),
                alpha.data(), out.data(), f, exec_ctx);

  // The sampled layer is owned by the trainer's per-batch block and must
  // outlive the backward pass; captured by pointer like the full graph.
  const graph::SampledLayer* lptr = &layer;
  return MakeOp(
      "gat_attention_sampled", std::move(out), {wh, a_src, a_dst},
      [lptr, exec_ctx, leaky_slope, use_mask, pre = std::move(pre),
       alpha = std::move(alpha), mask = std::move(mask)](Node* nd) {
        const exec::Context& ex = exec::Get(exec_ctx);
        const la::backend::KernelBackend& be = la::backend::Resolve(exec_ctx);
        const la::Matrix& whv = nd->inputs[0]->value;
        const la::Matrix& g = nd->grad;
        const int num_src = lptr->num_src;
        const int num_dst = lptr->num_dst;
        const int f = whv.cols();
        const auto& row_ptr = lptr->row_ptr;
        const auto& col_idx = lptr->col_idx;
        const int64_t num_edges = lptr->num_edges();

        const bool need_wh = nd->inputs[0]->requires_grad;
        const bool need_asrc = nd->inputs[1]->requires_grad;
        const bool need_adst = nd->inputs[2]->requires_grad;
        if (!need_wh && !need_asrc && !need_adst) return;

        // Pass A (parallel over destination rows): per-edge gradient de
        // in CSR order plus dsdst (row-local). Identical structure to the
        // full-graph kernel.
        la::PoolBuffer de(num_edges, exec_ctx);
        la::PoolBuffer dssrc(num_src, exec_ctx);
        la::PoolBuffer dsdst(std::max(num_dst, 1), exec_ctx);
        la::Matrix* dwh = need_wh ? &nd->inputs[0]->grad : nullptr;

        ex.ParallelFor(num_dst, NodeGrain(num_dst), [&](int64_t r0,
                                                        int64_t r1) {
          std::vector<float> dalpha;  // scratch reused across rows
          for (int64_t i = r0; i < r1; ++i) {
            const int64_t begin = row_ptr[static_cast<size_t>(i)];
            const int64_t end = row_ptr[static_cast<size_t>(i) + 1];
            const float* grow = g.Row(static_cast<int>(i));
            dalpha.resize(static_cast<size_t>(end - begin));

            double weighted_sum = 0.0;  // sum_k alpha_ik * dalpha_ik
            for (int64_t e = begin; e < end; ++e) {
              const int j = col_idx[static_cast<size_t>(e)];
              const float* src = whv.Row(j);
              double dot = 0.0;
              for (int c = 0; c < f; ++c) {
                dot += static_cast<double>(grow[c]) * src[c];
              }
              float da = static_cast<float>(dot);
              if (use_mask) da *= mask.data()[static_cast<size_t>(e)];
              dalpha[static_cast<size_t>(e - begin)] = da;
              weighted_sum +=
                  static_cast<double>(alpha.data()[static_cast<size_t>(e)]) *
                  da;
            }
            float acc = 0.0f;
            for (int64_t e = begin; e < end; ++e) {
              const float a = alpha.data()[static_cast<size_t>(e)];
              float d = a * (dalpha[static_cast<size_t>(e - begin)] -
                             static_cast<float>(weighted_sum));
              if (pre.data()[static_cast<size_t>(e)] <= 0.0f) d *= leaky_slope;
              de[static_cast<size_t>(e)] = d;
              acc += d;
            }
            dsdst[static_cast<size_t>(i)] = acc;
          }
        });

        // Pass B (parallel over source rows): the sampled adjacency is NOT
        // symmetric, so instead of reverse_edge() the layer's transpose
        // (src-major) view enumerates every edge fed by source s —
        // scatter-adds become per-source gathers in ascending edge-position
        // order, bit-identical for any thread count.
        const auto& src_row_ptr = lptr->src_row_ptr;
        const auto& src_dst_idx = lptr->src_dst_idx;
        const auto& src_edge_pos = lptr->src_edge_pos;
        ex.ParallelFor(num_src, NodeGrain(num_src), [&](int64_t r0,
                                                        int64_t r1) {
          for (int64_t s = r0; s < r1; ++s) {
            const int64_t begin = src_row_ptr[static_cast<size_t>(s)];
            const int64_t end = src_row_ptr[static_cast<size_t>(s) + 1];
            float acc = 0.0f;
            for (int64_t t = begin; t < end; ++t) {
              acc += de[static_cast<size_t>(
                  src_edge_pos[static_cast<size_t>(t)])];
            }
            dssrc[static_cast<size_t>(s)] = acc;
            if (need_wh) {
              // dwh_s += sum over edges (i -> s) of alpha~ * g_i.
              float* drow = dwh->Row(static_cast<int>(s));
              for (int64_t t = begin; t < end; ++t) {
                const int64_t e = src_edge_pos[static_cast<size_t>(t)];
                float coeff = alpha.data()[static_cast<size_t>(e)];
                if (use_mask) coeff *= mask.data()[static_cast<size_t>(e)];
                be.AxpyRow(coeff,
                           g.Row(src_dst_idx[static_cast<size_t>(t)]), drow,
                           f);
              }
            }
          }
        });

        const float* asrc = nd->inputs[1]->value.Row(0);
        const float* adst = nd->inputs[2]->value.Row(0);
        if (need_wh) {
          // dwh_s += dssrc_s * a_src (+ dsdst_s * a_dst on the dst prefix).
          ex.ParallelFor(num_src, NodeGrain(num_src),
                         [&](int64_t r0, int64_t r1) {
                           for (int64_t i = r0; i < r1; ++i) {
                             float* drow = dwh->Row(static_cast<int>(i));
                             be.AxpyRow(dssrc[static_cast<size_t>(i)], asrc,
                                        drow, f);
                             if (i < num_dst) {
                               be.AxpyRow(dsdst[static_cast<size_t>(i)], adst,
                                          drow, f);
                             }
                           }
                         });
        }
        if (need_asrc || need_adst) {
          // Deterministic chunked reduction over the source frontier; the
          // dsdst term only exists on the dst prefix.
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
  namespace ops = autograd::ops;
  // Heads run sequentially on purpose: they share the dropout Rng stream,
  // and each head's kernels already parallelize internally over nodes.
  std::vector<Variable> heads;
  heads.reserve(static_cast<size_t>(config_.num_heads));
  for (int h = 0; h < config_.num_heads; ++h) {
    Variable wh = ops::Matmul(x, weights_[static_cast<size_t>(h)],
                              config_.exec);
    heads.push_back(GatAttention(graph, wh, a_src_[static_cast<size_t>(h)],
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

Variable GatLayer::ForwardSampled(const graph::SampledLayer& layer,
                                  const Variable& x, bool training,
                                  Rng* rng) const {
  namespace ops = autograd::ops;
  // Same head sequencing as Forward: the shared Rng stream is part of the
  // reproducibility contract.
  std::vector<Variable> heads;
  heads.reserve(static_cast<size_t>(config_.num_heads));
  for (int h = 0; h < config_.num_heads; ++h) {
    Variable wh = ops::Matmul(x, weights_[static_cast<size_t>(h)],
                              config_.exec);
    heads.push_back(GatAttentionSampled(
        layer, wh, a_src_[static_cast<size_t>(h)],
        a_dst_[static_cast<size_t>(h)], config_.leaky_slope,
        config_.attn_dropout, training, rng, config_.exec));
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
  return FrozenHeads(&graph, nullptr, x);
}

la::Matrix GatLayer::ForwardSampledFrozen(const graph::SampledLayer& layer,
                                          const la::Matrix& x) const {
  return FrozenHeads(nullptr, &layer, x);
}

la::Matrix GatLayer::FrozenHeads(const graph::Graph* graph,
                                 const graph::SampledLayer* layer,
                                 const la::Matrix& x) const {
  const int rows = graph != nullptr ? graph->num_nodes() : layer->num_dst;
  const int64_t num_edges =
      graph != nullptr ? graph->num_directed_edges() : layer->num_edges();
  const int f = config_.out_dim;
  const int heads = config_.num_heads;
  // Per-edge scratch shared by the heads: nothing reads a head's
  // pre-activations or coefficients after its kernel returns.
  la::PoolBuffer pre(num_edges, config_.exec), alpha(num_edges, config_.exec);
  // Head h: its own projection GEMM, as in training, then the attention
  // kernel accumulating into `out` rows of stride `stride`.
  auto attend = [&](int h, float* out, int64_t stride) {
    const size_t k = static_cast<size_t>(h);
    const la::Matrix wh = la::Matmul(x, weights_[k].value(), config_.exec);
    const float* asrc = a_src_[k].value().Row(0);
    const float* adst = a_dst_[k].value().Row(0);
    if (graph != nullptr) {
      AttendGraph(*graph, wh, asrc, adst, config_.leaky_slope, nullptr,
                  pre.data(), alpha.data(), out, stride, config_.exec);
    } else {
      AttendSampled(*layer, wh, asrc, adst, config_.leaky_slope, nullptr,
                    pre.data(), alpha.data(), out, stride, config_.exec);
    }
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

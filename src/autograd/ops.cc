#include "src/autograd/ops.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "src/exec/context.h"
#include "src/la/backend/backend.h"
#include "src/la/matrix_ops.h"
#include "src/la/pool.h"
#include "src/util/logging.h"

namespace openima::autograd::ops {

namespace {

/// True when the k-th input participates in differentiation.
bool NeedsGrad(Node* node, size_t k) {
  return node->inputs[k]->requires_grad;
}

la::Matrix& InGrad(Node* node, size_t k) { return node->inputs[k]->grad; }
const la::Matrix& InVal(Node* node, size_t k) {
  return node->inputs[k]->value;
}

}  // namespace

Variable Add(const Variable& a, const Variable& b) {
  OPENIMA_CHECK(a.value().SameShape(b.value()));
  return MakeOp("add", a.value() + b.value(), {a, b}, [](Node* n) {
    if (NeedsGrad(n, 0)) InGrad(n, 0) += n->grad;
    if (NeedsGrad(n, 1)) InGrad(n, 1) += n->grad;
  });
}

Variable Sub(const Variable& a, const Variable& b) {
  OPENIMA_CHECK(a.value().SameShape(b.value()));
  return MakeOp("sub", a.value() - b.value(), {a, b}, [](Node* n) {
    if (NeedsGrad(n, 0)) InGrad(n, 0) += n->grad;
    if (NeedsGrad(n, 1)) InGrad(n, 1) -= n->grad;
  });
}

Variable Mul(const Variable& a, const Variable& b) {
  OPENIMA_CHECK(a.value().SameShape(b.value()));
  la::Matrix out = a.value();
  out.HadamardInPlace(b.value());
  return MakeOp("mul", std::move(out), {a, b}, [](Node* n) {
    if (NeedsGrad(n, 0)) la::HadamardAddInPlace(n->grad, InVal(n, 1), &InGrad(n, 0));
    if (NeedsGrad(n, 1)) la::HadamardAddInPlace(n->grad, InVal(n, 0), &InGrad(n, 1));
  });
}

Variable Scale(const Variable& a, float s) {
  return MakeOp("scale", a.value() * s, {a}, [s](Node* n) {
    if (NeedsGrad(n, 0)) InGrad(n, 0).Axpy(s, n->grad);
  });
}

Variable AddRowBroadcast(const Variable& x, const Variable& bias) {
  OPENIMA_CHECK_EQ(bias.rows(), 1);
  OPENIMA_CHECK_EQ(bias.cols(), x.cols());
  la::Matrix out = x.value();
  la::AddRowBroadcastInPlace(bias.value(), &out);
  return MakeOp("add_row_broadcast", std::move(out), {x, bias}, [](Node* n) {
    if (NeedsGrad(n, 0)) InGrad(n, 0) += n->grad;
    if (NeedsGrad(n, 1)) {
      float* db = InGrad(n, 1).Row(0);
      for (int i = 0; i < n->grad.rows(); ++i) {
        const float* g = n->grad.Row(i);
        for (int j = 0; j < n->grad.cols(); ++j) db[j] += g[j];
      }
    }
  });
}

Variable Matmul(const Variable& a, const Variable& b,
                const exec::Context* ctx) {
  // `ctx` is captured by pointer: explicit contexts must outlive the
  // backward pass (the process default always does).
  return MakeOp("matmul", la::Matmul(a.value(), b.value(), ctx), {a, b},
                [ctx](Node* n) {
                  if (NeedsGrad(n, 0)) {
                    InGrad(n, 0) += la::MatmulNT(n->grad, InVal(n, 1), ctx);
                  }
                  if (NeedsGrad(n, 1)) {
                    InGrad(n, 1) += la::MatmulTN(InVal(n, 0), n->grad, ctx);
                  }
                });
}

Variable LeakyRelu(const Variable& x, float slope) {
  OPENIMA_CHECK_GE(slope, 0.0f);
  OPENIMA_CHECK_LT(slope, 1.0f);
  la::Matrix out = x.value();
  for (int64_t i = 0; i < out.size(); ++i) {
    float v = out.data()[i];
    out.data()[i] = v > 0.0f ? v : slope * v;
  }
  return MakeOp("leaky_relu", std::move(out), {x}, [slope](Node* n) {
    if (!NeedsGrad(n, 0)) return;
    const la::Matrix& xv = InVal(n, 0);
    la::Matrix& dx = InGrad(n, 0);
    for (int64_t i = 0; i < xv.size(); ++i) {
      dx.data()[i] += n->grad.data()[i] * (xv.data()[i] > 0.0f ? 1.0f : slope);
    }
  });
}

Variable Elu(const Variable& x, float alpha) {
  la::Matrix out = x.value();
  la::EluInPlace(alpha, &out);
  // d(elu)/dx = 1 for x > 0, else elu(x) + alpha; the output values are the
  // node's own `value`, so the backward reads them there instead of keeping
  // a copy alive in the closure.
  return MakeOp("elu", std::move(out), {x}, [alpha](Node* n) {
    if (!NeedsGrad(n, 0)) return;
    const la::Matrix& xv = InVal(n, 0);
    la::Matrix& dx = InGrad(n, 0);
    for (int64_t i = 0; i < xv.size(); ++i) {
      const float deriv =
          xv.data()[i] > 0.0f ? 1.0f : n->value.data()[i] + alpha;
      dx.data()[i] += n->grad.data()[i] * deriv;
    }
  });
}

Variable AddBiasElu(const Variable& x, const Variable& bias, float alpha,
                    const exec::Context* ctx) {
  OPENIMA_CHECK_GT(alpha, 0.0f);
  OPENIMA_CHECK_EQ(bias.rows(), 1);
  OPENIMA_CHECK_EQ(bias.cols(), x.cols());
  const la::backend::KernelBackend& be = la::backend::Resolve(ctx);
  la::Matrix out = x.value();
  const float* b = bias.value().Row(0);
  for (int i = 0; i < out.rows(); ++i) {
    be.AddBiasEluRow(out.Row(i), b, alpha, out.cols());
  }
  // For alpha > 0, elu is sign-preserving: out > 0 iff the pre-activation
  // x + b > 0 (and the boundary value 0 lands in the same branch either
  // way), so the backward can branch on the node's own value without
  // keeping the pre-activation alive.
  // The backend pointer (a process-lifetime singleton) rides in the
  // closure so forward and backward share one instance.
  return MakeOp("add_bias_elu", std::move(out), {x, bias},
                [alpha, pbe = &be](Node* n) {
                  const bool need_x = NeedsGrad(n, 0);
                  const bool need_b = NeedsGrad(n, 1);
                  if (!need_x && !need_b) return;
                  float* db = need_b ? InGrad(n, 1).Row(0) : nullptr;
                  for (int i = 0; i < n->grad.rows(); ++i) {
                    float* dx = need_x ? InGrad(n, 0).Row(i) : nullptr;
                    pbe->AddBiasEluBackwardRow(n->grad.Row(i), n->value.Row(i),
                                               alpha, n->grad.cols(), dx, db);
                  }
                });
}

Variable Exp(const Variable& x) {
  la::Matrix out = x.value();
  for (int64_t i = 0; i < out.size(); ++i) {
    out.data()[i] = std::exp(out.data()[i]);
  }
  // d(exp)/dx = exp(x) = the node's own value; no capture needed.
  return MakeOp("exp", std::move(out), {x}, [](Node* n) {
    if (!NeedsGrad(n, 0)) return;
    la::HadamardAddInPlace(n->grad, n->value, &InGrad(n, 0));
  });
}

Variable Dropout(const Variable& x, float rate, bool training, Rng* rng) {
  OPENIMA_CHECK_GE(rate, 0.0f);
  OPENIMA_CHECK_LT(rate, 1.0f);
  if (!training || rate == 0.0f) {
    // Identity pass-through node (keeps graph structure uniform).
    return MakeOp("dropout_eval", x.value(), {x}, [](Node* n) {
      if (NeedsGrad(n, 0)) InGrad(n, 0) += n->grad;
    });
  }
  OPENIMA_CHECK(rng != nullptr);
  const float keep_scale = 1.0f / (1.0f - rate);
  la::Matrix mask(x.rows(), x.cols());
  for (int64_t i = 0; i < mask.size(); ++i) {
    mask.data()[i] = rng->Bernoulli(rate) ? 0.0f : keep_scale;
  }
  la::Matrix out = x.value();
  out.HadamardInPlace(mask);
  return MakeOp("dropout", std::move(out), {x},
                [mask = std::move(mask)](Node* n) {
                  if (!NeedsGrad(n, 0)) return;
                  la::HadamardAddInPlace(n->grad, mask, &InGrad(n, 0));
                });
}

Variable RowL2Normalize(const Variable& x, float eps) {
  la::Matrix out = x.value();
  la::Matrix norms = la::RowL2NormalizeInPlace(&out, eps);
  // The normalized rows are the node's own value; only the norms need a
  // place in the closure.
  return MakeOp(
      "row_l2_normalize", std::move(out), {x},
      [eps, norms = std::move(norms)](Node* n) {
        if (!NeedsGrad(n, 0)) return;
        const la::Matrix& z = n->value;
        la::Matrix& dx = InGrad(n, 0);
        for (int i = 0; i < z.rows(); ++i) {
          const float norm = norms(i, 0);
          const float* g = n->grad.Row(i);
          float* d = dx.Row(i);
          if (norm <= eps) {
            for (int j = 0; j < z.cols(); ++j) d[j] += g[j];
            continue;
          }
          const float* zr = z.Row(i);
          double dot = 0.0;
          for (int j = 0; j < z.cols(); ++j) dot += static_cast<double>(g[j]) * zr[j];
          const float inv = 1.0f / norm;
          const float dotf = static_cast<float>(dot);
          for (int j = 0; j < z.cols(); ++j) {
            d[j] += (g[j] - dotf * zr[j]) * inv;
          }
        }
      });
}

Variable GatherRows(const Variable& x, std::vector<int> rows) {
  la::Matrix out = la::GatherRows(x.value(), rows);
  return MakeOp("gather_rows", std::move(out), {x},
                [rows = std::move(rows)](Node* n) {
                  if (!NeedsGrad(n, 0)) return;
                  la::Matrix& dx = InGrad(n, 0);
                  for (size_t i = 0; i < rows.size(); ++i) {
                    const float* g = n->grad.Row(static_cast<int>(i));
                    float* d = dx.Row(rows[i]);
                    for (int j = 0; j < dx.cols(); ++j) d[j] += g[j];
                  }
                });
}

Variable ConcatCols(const std::vector<Variable>& parts) {
  OPENIMA_CHECK(!parts.empty());
  const int rows = parts[0].rows();
  int total_cols = 0;
  for (const auto& p : parts) {
    OPENIMA_CHECK_EQ(p.rows(), rows);
    total_cols += p.cols();
  }
  la::Matrix out(rows, total_cols);
  std::vector<int> offsets;
  int off = 0;
  for (const auto& p : parts) {
    offsets.push_back(off);
    const la::Matrix& v = p.value();
    for (int i = 0; i < rows; ++i) {
      float* dst = out.Row(i) + off;
      const float* src = v.Row(i);
      std::copy(src, src + v.cols(), dst);
    }
    off += v.cols();
  }
  return MakeOp("concat_cols", std::move(out), parts,
                [offsets = std::move(offsets)](Node* n) {
                  for (size_t k = 0; k < n->inputs.size(); ++k) {
                    if (!NeedsGrad(n, k)) continue;
                    la::Matrix& dx = InGrad(n, k);
                    const int off = offsets[k];
                    for (int i = 0; i < dx.rows(); ++i) {
                      const float* g = n->grad.Row(i) + off;
                      float* d = dx.Row(i);
                      for (int j = 0; j < dx.cols(); ++j) d[j] += g[j];
                    }
                  }
                });
}

Variable ConcatRows(const std::vector<Variable>& parts) {
  OPENIMA_CHECK(!parts.empty());
  const int cols = parts[0].cols();
  int total_rows = 0;
  for (const auto& p : parts) {
    OPENIMA_CHECK_EQ(p.cols(), cols);
    total_rows += p.rows();
  }
  la::Matrix out(total_rows, cols);
  std::vector<int> offsets;
  int off = 0;
  for (const auto& p : parts) {
    offsets.push_back(off);
    for (int i = 0; i < p.rows(); ++i) out.SetRow(off + i, p.value(), i);
    off += p.rows();
  }
  return MakeOp("concat_rows", std::move(out), parts,
                [offsets = std::move(offsets)](Node* n) {
                  for (size_t k = 0; k < n->inputs.size(); ++k) {
                    if (!NeedsGrad(n, k)) continue;
                    la::Matrix& dx = InGrad(n, k);
                    const int off = offsets[k];
                    for (int i = 0; i < dx.rows(); ++i) {
                      const float* g = n->grad.Row(off + i);
                      float* d = dx.Row(i);
                      for (int j = 0; j < dx.cols(); ++j) d[j] += g[j];
                    }
                  }
                });
}

Variable MeanAll(const Variable& x) {
  OPENIMA_CHECK_GT(x.value().size(), 0);
  la::Matrix out(1, 1);
  out(0, 0) = static_cast<float>(x.value().Mean());
  const float inv = 1.0f / static_cast<float>(x.value().size());
  return MakeOp("mean_all", std::move(out), {x}, [inv](Node* n) {
    if (!NeedsGrad(n, 0)) return;
    const float g = n->grad(0, 0) * inv;
    la::Matrix& dx = InGrad(n, 0);
    for (int64_t i = 0; i < dx.size(); ++i) dx.data()[i] += g;
  });
}

Variable SumAll(const Variable& x) {
  la::Matrix out(1, 1);
  out(0, 0) = static_cast<float>(x.value().Sum());
  return MakeOp("sum_all", std::move(out), {x}, [](Node* n) {
    if (!NeedsGrad(n, 0)) return;
    const float g = n->grad(0, 0);
    la::Matrix& dx = InGrad(n, 0);
    for (int64_t i = 0; i < dx.size(); ++i) dx.data()[i] += g;
  });
}

namespace {

/// Shared implementation for the CE variants: cross entropy of softmax
/// against one-hot labels after subtracting `margins[i]` (possibly all-zero)
/// from the target logit of each row.
Variable CrossEntropyImpl(const char* name, const Variable& logits,
                          const std::vector<int>& labels,
                          const std::vector<float>& margins) {
  const int n = logits.rows(), c = logits.cols();
  OPENIMA_CHECK_EQ(static_cast<int>(labels.size()), n);
  OPENIMA_CHECK_GT(n, 0);
  for (int i = 0; i < n; ++i) {
    OPENIMA_CHECK_GE(labels[i], 0);
    OPENIMA_CHECK_LT(labels[i], c);
  }
  la::Matrix probs;
  if (margins.empty()) {
    // Plain CE reads the logits directly — no adjusted copy.
    probs = la::RowSoftmax(logits.value());
  } else {
    la::Matrix adjusted = logits.value();
    for (int i = 0; i < n; ++i) adjusted(i, labels[i]) -= margins[i];
    probs = la::RowSoftmax(adjusted);
  }
  double loss = 0.0;
  for (int i = 0; i < n; ++i) {
    loss -= std::log(std::max(probs(i, labels[i]), 1e-12f));
  }
  la::Matrix out(1, 1);
  out(0, 0) = static_cast<float>(loss / n);
  return MakeOp(name, std::move(out), {logits},
                [labels, probs = std::move(probs)](Node* nd) {
                  if (!NeedsGrad(nd, 0)) return;
                  const float g = nd->grad(0, 0) / probs.rows();
                  la::Matrix& dl = InGrad(nd, 0);
                  for (int i = 0; i < probs.rows(); ++i) {
                    const float* p = probs.Row(i);
                    float* d = dl.Row(i);
                    for (int j = 0; j < probs.cols(); ++j) d[j] += g * p[j];
                    d[labels[static_cast<size_t>(i)]] -= g;
                  }
                });
}

}  // namespace

Variable SoftmaxCrossEntropy(const Variable& logits,
                             const std::vector<int>& labels) {
  return CrossEntropyImpl("softmax_ce", logits, labels, {});
}

Variable MarginSoftmaxCrossEntropy(const Variable& logits,
                                   const std::vector<int>& labels,
                                   const std::vector<float>& margins) {
  OPENIMA_CHECK_EQ(margins.size(), labels.size());
  return CrossEntropyImpl("margin_softmax_ce", logits, labels, margins);
}

Variable SoftCrossEntropy(const Variable& logits,
                          const la::Matrix& target_probs) {
  OPENIMA_CHECK(logits.value().SameShape(target_probs));
  const int n = logits.rows();
  OPENIMA_CHECK_GT(n, 0);
  la::Matrix logp = la::RowLogSoftmax(logits.value());
  double loss = 0.0;
  for (int i = 0; i < n; ++i) {
    const float* t = target_probs.Row(i);
    const float* lp = logp.Row(i);
    for (int j = 0; j < logits.cols(); ++j) loss -= t[j] * lp[j];
  }
  la::Matrix out(1, 1);
  out(0, 0) = static_cast<float>(loss / n);
  la::Matrix probs = la::RowSoftmax(logits.value());
  return MakeOp("soft_ce", std::move(out), {logits},
                [target = target_probs, probs = std::move(probs)](Node* nd) {
                  if (!NeedsGrad(nd, 0)) return;
                  const float g = nd->grad(0, 0) / probs.rows();
                  la::Matrix& dl = InGrad(nd, 0);
                  for (int i = 0; i < probs.rows(); ++i) {
                    const float* p = probs.Row(i);
                    const float* t = target.Row(i);
                    float* d = dl.Row(i);
                    for (int j = 0; j < probs.cols(); ++j) {
                      d[j] += g * (p[j] - t[j]);
                    }
                  }
                });
}

namespace {

// ---------------------------------------------------------------------------
// Streamed SupCon core (SupConLoss, NormalizedSupCon)
// ---------------------------------------------------------------------------

/// Rows per tile: a tile of s = Z Z^T / tau holds kSupConTileRows full rows,
/// 512 KiB at b = 4096.
constexpr int kSupConTileRows = 32;

/// The tiles run in at most this many fixed chunks, each with its own
/// scratch, so neither the layout nor the scratch depends on the thread
/// count.
constexpr int64_t kSupConMaxChunks = 8;

/// Lane width of the backends' ExpShifted vector body. An exponent's bits
/// depend on where it sits in its row: in a row of n, positions below
/// n - n % kExpLanes take the vector path and the rest the scalar tail
/// (backend_avx2.cc; the scalar backend evaluates every position alike).
constexpr int64_t kExpLanes = 8;

/// out[k] = exp(in[k] - shift) for k in [0, n), every element evaluated on
/// one ExpShifted path wherever it sits: the vector path runs whole lane
/// groups (the ragged end padded to one), the tail path runs groups shorter
/// than one. `out` may alias `in`.
void ExpOnPath(const la::backend::KernelBackend& be, const float* in,
               float shift, float* out, int64_t n, bool vector_path) {
  if (!vector_path) {
    for (int64_t k = 0; k < n; k += kExpLanes - 1) {
      be.ExpShifted(in + k, shift, out + k, std::min(kExpLanes - 1, n - k));
    }
    return;
  }
  const int64_t body = n - n % kExpLanes;
  if (body > 0) be.ExpShifted(in, shift, out, body);
  if (body == n) return;
  float pad[kExpLanes] = {};
  std::copy(in + body, in + n, pad);
  be.ExpShifted(pad, shift, pad, kExpLanes);
  std::copy(pad, pad + (n - body), out + body);
}

/// Positive sets in compressed rows. Row i holds anchor i's positives
/// sorted ascending, duplicates kept: the backward's gradient terms do not
/// depend on their order, and sorted rows let it find the anchors that list
/// a tile's rows with one cursor per anchor.
struct PositiveRows {
  std::vector<int64_t> offset;
  std::vector<int> index;

  const int* begin(int i) const { return index.data() + offset[i]; }
  const int* end(int i) const { return index.data() + offset[i + 1]; }
  int64_t size(int i) const { return offset[i + 1] - offset[i]; }
};

/// Checks the positive sets of a b-row block and sorts a copy of them.
PositiveRows SortedPositives(const std::vector<std::vector<int>>& positives) {
  const int b = static_cast<int>(positives.size());
  PositiveRows rows;
  size_t total = 0;
  for (const auto& pos : positives) total += pos.size();
  rows.offset.reserve(positives.size() + 1);
  rows.index.reserve(total);
  rows.offset.push_back(0);
  for (int i = 0; i < b; ++i) {
    const auto& pos = positives[static_cast<size_t>(i)];
    OPENIMA_CHECK(!pos.empty()) << "anchor " << i << " has no positives";
    for (int j : pos) {
      OPENIMA_CHECK_NE(j, i);
      OPENIMA_CHECK_GE(j, 0);
      OPENIMA_CHECK_LT(j, b);
    }
    const auto row =
        rows.index.insert(rows.index.end(), pos.begin(), pos.end());
    if (!std::is_sorted(row, rows.index.end())) {
      std::sort(row, rows.index.end());
    }
    rows.offset.push_back(static_cast<int64_t>(rows.index.size()));
  }
  return rows;
}

/// The SupCon loss of Eq. 7/8 streamed over row tiles of s = Z Z^T / tau,
/// shifted by 1/tau (NormalizedSupCon) or by each row's max over k != i
/// (SupConLoss). It keeps Z^T, the positives, each row's float
/// 1/denominator and, in row-max mode, each row's shift — nothing of size
/// b^2. The backward recomputes every tile.
///
/// Each float is the one the materialised b x b algorithm produced:
///   - a tile row is that matrix's row: GemmRowRange is partition-invariant
///     and the tile is scaled by the same 1/tau;
///   - the backward needs rows I of G + G^T and reads the column block
///     G[:, I] off the same row tile, because s is bitwise symmetric (s_ik
///     and s_ki are one ascending multiply-add chain with the factors of
///     each product swapped);
///   - G_ki needs e_ki, the exponent row k took at position i. With one
///     shift it equals e_ik wherever i and k take the same ExpShifted path,
///     so only the entries whose paths differ are re-evaluated; with
///     per-row shifts the whole column is, from exactly the difference
///     s_ki - m_k that row k exponentiated.
class StreamedSupCon {
 public:
  StreamedSupCon(float tau, bool row_max_shift, const exec::Context* ctx)
      : tau_(tau), inv_tau_(1.0f / tau), row_max_shift_(row_max_shift),
        ctx_(ctx) {}

  /// Returns the loss over the rows of `z` and keeps what the backward
  /// needs. The loss reads `positives` in the caller's order.
  float Forward(const la::Matrix& z,
                const std::vector<std::vector<int>>& positives) {
    const int b = z.rows();
    const la::backend::KernelBackend& be = la::backend::Resolve(ctx_);
    positives_ = SortedPositives(positives);
    zt_ = la::Transpose(z, ctx_);
    inv_denom_ = la::Matrix(b, 1);
    if (row_max_shift_) shift_ = la::Matrix(b, 1);
    std::vector<double> row_loss(static_cast<size_t>(b));
    ForEachChunk(b, b, [&](int64_t t0, int64_t t1, float* tile, float* erow) {
      for (int64_t t = t0; t < t1; ++t) {
        const auto [i0, i1] = ComputeTile(z, t, tile);
        for (int i = i0; i < i1; ++i) {
          float* srow = tile + int64_t{i - i0} * b;
          float shift = inv_tau_;
          if (row_max_shift_) {
            // The stability anchor must be a k != i term — if the
            // self-similarity won the max, all other exponents could
            // underflow and zero the denominator. Park -inf on the
            // diagonal just for the max pass.
            const float self_sim = srow[i];
            srow[i] = -std::numeric_limits<float>::infinity();
            shift = be.RowMax(srow, b);
            srow[i] = self_sim;
            shift_(i, 0) = shift;
          }
          be.ExpShifted(srow, shift, erow, b);
          const double denom = be.RowSum(erow, b) - erow[i];
          inv_denom_(i, 0) = static_cast<float>(1.0 / denom);
          const double log_denom = std::log(denom) + shift;
          const auto& pos = positives[static_cast<size_t>(i)];
          double li = 0.0;
          for (int j : pos) li -= srow[j] - log_denom;
          row_loss[static_cast<size_t>(i)] =
              li / static_cast<double>(pos.size());
        }
      }
    });
    double loss = 0.0;
    for (double li : row_loss) loss += li;
    return static_cast<float>(loss / b);
  }

  /// dz += (G + G^T) Z for the loss gradient `grad`, with
  /// G_ik = dL/ds_ik = grad (p_ik - y_ik) / (b tau) for k != i: each tile's
  /// rows are multiplied straight into dz with the backend GEMM.
  void Backward(const la::Matrix& z, float grad, la::Matrix* dz) const {
    const int b = z.rows(), d = z.cols();
    OPENIMA_CHECK_EQ(dz->rows(), b);
    OPENIMA_CHECK_EQ(dz->cols(), d);
    const la::backend::KernelBackend& be = la::backend::Resolve(ctx_);
    std::vector<float> y(static_cast<size_t>(b));  // 1 / |P(i)|
    for (int i = 0; i < b; ++i) {
      y[static_cast<size_t>(i)] =
          1.0f / static_cast<float>(positives_.size(i));
    }
    const float gscale = grad / (static_cast<float>(b) * tau_);
    const float* inv = inv_denom_.data();
    const int64_t body = b - b % kExpLanes;  // vector-path positions
    const int64_t tile_floats = int64_t{kSupConTileRows} * b;
    // Per tile: the rows G[I, :] in place of s and the columns G[:, I], as
    // rows, in scratch; then their sum, multiplied into dz. cursor[k] walks
    // anchor k's sorted positives through the tiles' rows.
    ForEachChunk(b, tile_floats + b, [&](int64_t t0, int64_t t1, float* tile,
                                         float* scratch) {
      float* gcols = scratch;
      float* erow = scratch + tile_floats;
      std::vector<int64_t> cursor(static_cast<size_t>(b));
      for (int k = 0; k < b; ++k) {
        cursor[k] = std::lower_bound(positives_.begin(k), positives_.end(k),
                                     t0 * kSupConTileRows) -
                    positives_.index.data();
      }
      for (int64_t t = t0; t < t1; ++t) {
        const auto [i0, i1] = ComputeTile(z, t, tile);
        for (int i = i0; i < i1; ++i) {
          float* srow = tile + int64_t{i - i0} * b;
          float* gcol = gcols + int64_t{i - i0} * b;
          const bool vector_i = i < body;
          if (!row_max_shift_) {
            be.ExpShifted(srow, inv_tau_, erow, b);
            for (int k = 0; k < b; ++k) gcol[k] = erow[k] * inv[k];
            const int64_t lo = vector_i ? body : 0;
            const int64_t hi = vector_i ? b : body;
            ExpOnPath(be, srow + lo, inv_tau_, gcol + lo, hi - lo, vector_i);
            for (int64_t k = lo; k < hi; ++k) gcol[k] *= inv[k];
          } else {
            const float* shift = shift_.data();
            be.ExpShifted(srow, shift[i], erow, b);
            for (int k = 0; k < b; ++k) gcol[k] = srow[k] - shift[k];
            ExpOnPath(be, gcol, 0.0f, gcol, b, vector_i);
            for (int k = 0; k < b; ++k) gcol[k] *= inv[k];
          }
          const float inv_i = inv[i];
          for (int k = 0; k < b; ++k) srow[k] = erow[k] * inv_i;
          srow[i] = 0.0f * inv_i;
          gcol[i] = srow[i];
          for (const int* j = positives_.begin(i); j != positives_.end(i);
               ++j) {
            srow[*j] -= y[static_cast<size_t>(i)];
          }
        }
        for (int k = 0; k < b; ++k) {
          const int* j = positives_.index.data() + cursor[k];
          for (; j != positives_.end(k) && *j < i1; ++j) {
            gcols[int64_t{*j - i0} * b + k] -= y[static_cast<size_t>(k)];
          }
          cursor[k] = j - positives_.index.data();
        }
        for (int64_t e = 0; e < int64_t{i1 - i0} * b; ++e) {
          tile[e] = gcols[e] * gscale + tile[e] * gscale;
        }
        be.GemmRowRange(tile, b, z.data(), d, 1.0f, dz->Row(i0), d, 0,
                        i1 - i0, b, d);
      }
    });
  }

 private:
  /// Runs fn(t0, t1, tile, scratch) for each fixed chunk [t0, t1) of the b
  /// rows' tiles, under ParallelForChunks. Each chunk gets one tile's worth
  /// of floats and `scratch_floats` more, drawn from the caller's pool
  /// before the loop.
  template <typename ChunkFn>
  void ForEachChunk(int b, int64_t scratch_floats, const ChunkFn& fn) const {
    const int64_t tiles = (b + kSupConTileRows - 1) / kSupConTileRows;
    const int64_t grain =
        exec::Context::GrainForMaxChunks(tiles, 1, kSupConMaxChunks);
    const int64_t chunks = exec::Context::NumChunks(tiles, grain);
    std::vector<la::PoolBuffer> tile_buf, scratch_buf;
    tile_buf.reserve(static_cast<size_t>(chunks));
    scratch_buf.reserve(static_cast<size_t>(chunks));
    for (int64_t c = 0; c < chunks; ++c) {
      tile_buf.emplace_back(int64_t{std::min(b, kSupConTileRows)} * b);
      scratch_buf.emplace_back(scratch_floats);
    }
    exec::Get(ctx_).ParallelForChunks(
        tiles, grain, [&](int64_t c, int64_t t0, int64_t t1) {
          const size_t chunk = static_cast<size_t>(c);
          fn(t0, t1, tile_buf[chunk].data(), scratch_buf[chunk].data());
        });
  }

  /// Writes rows [i0, i1) of s = Z Z^T / tau — tile t — into `tile` at
  /// stride b, with the untiled MatmulNT's GEMM chain and scaling, and
  /// returns [i0, i1).
  std::pair<int, int> ComputeTile(const la::Matrix& z, int64_t t,
                                  float* tile) const {
    const int b = z.rows(), d = z.cols();
    const int i0 = static_cast<int>(t) * kSupConTileRows;
    const int i1 = std::min(b, i0 + kSupConTileRows);
    const int64_t n = int64_t{i1 - i0} * b;
    std::fill(tile, tile + n, 0.0f);
    la::backend::Resolve(ctx_).GemmRowRange(z.Row(i0), d, zt_.data(), b, 1.0f,
                                            tile, b, 0, i1 - i0, d, b);
    for (int64_t e = 0; e < n; ++e) tile[e] *= inv_tau_;
    return {i0, i1};
  }

  float tau_;
  float inv_tau_;
  bool row_max_shift_;
  const exec::Context* ctx_;
  // Kept by Forward for the backward.
  la::Matrix zt_;
  PositiveRows positives_;
  la::Matrix inv_denom_;  // b x 1: float(1 / denominator) per row
  la::Matrix shift_;      // b x 1 per-row max shifts (row-max mode only)
};

}  // namespace

Variable SupConLoss(const Variable& z,
                    const std::vector<std::vector<int>>& positives, float tau,
                    const exec::Context* ctx) {
  const int b = z.rows();
  OPENIMA_CHECK_GT(b, 1);
  OPENIMA_CHECK_EQ(static_cast<int>(positives.size()), b);
  OPENIMA_CHECK_GT(tau, 0.0f);
  // Row-stable softmax over k != i, shifted by each row's max.
  StreamedSupCon core(tau, /*row_max_shift=*/true, ctx);
  la::Matrix out(1, 1);
  out(0, 0) = core.Forward(z.value(), positives);
  return MakeOp("supcon", std::move(out), {z},
                [core = std::move(core)](Node* nd) {
                  if (!NeedsGrad(nd, 0)) return;
                  // dZ = (G + G^T) Z, accumulated straight into the input
                  // grad.
                  core.Backward(InVal(nd, 0), nd->grad(0, 0), &InGrad(nd, 0));
                });
}

Variable NormalizedSupCon(const Variable& x,
                          const std::vector<std::vector<int>>& positives,
                          float tau, float eps, const exec::Context* ctx) {
  const int b = x.rows();
  OPENIMA_CHECK_GT(b, 1);
  OPENIMA_CHECK_EQ(static_cast<int>(positives.size()), b);
  OPENIMA_CHECK_GT(tau, 0.0f);

  la::Matrix z = x.value();
  la::Matrix norms = la::RowL2NormalizeInPlace(&z, eps, ctx);
  // Rows are unit-normalized, so s_ik lies in [-1/tau, 1/tau]: shifting by
  // the upper bound keeps every exponent in [-2/tau, 0] — numerically
  // stable with no per-row max pass at all.
  StreamedSupCon core(tau, /*row_max_shift=*/false, ctx);
  la::Matrix out(1, 1);
  out(0, 0) = core.Forward(z, positives);

  return MakeOp(
      "normalized_supcon", std::move(out), {x},
      [core = std::move(core), eps, z = std::move(z),
       norms = std::move(norms)](Node* nd) {
        if (!NeedsGrad(nd, 0)) return;
        // dL/dZ = (G + G^T) Z on the normalized rows, as in SupConLoss.
        la::Matrix dz(z.rows(), z.cols());
        core.Backward(z, nd->grad(0, 0), &dz);
        // Project through the row-normalize Jacobian:
        // dx = (dz - (dz . zhat) zhat) / ||x||; degenerate rows pass through.
        la::Matrix& dx = InGrad(nd, 0);
        for (int i = 0; i < z.rows(); ++i) {
          const float norm = norms(i, 0);
          const float* g = dz.Row(i);
          float* d = dx.Row(i);
          if (norm <= eps) {
            for (int j = 0; j < dz.cols(); ++j) d[j] += g[j];
            continue;
          }
          const float* zr = z.Row(i);
          double dot = 0.0;
          for (int j = 0; j < dz.cols(); ++j) {
            dot += static_cast<double>(g[j]) * zr[j];
          }
          const float inv = 1.0f / norm;
          const float dotf = static_cast<float>(dot);
          for (int j = 0; j < dz.cols(); ++j) {
            d[j] += (g[j] - dotf * zr[j]) * inv;
          }
        }
      });
}

Variable PairwiseDotBce(const Variable& logits,
                        const std::vector<Pair>& pairs) {
  OPENIMA_CHECK(!pairs.empty());
  la::Matrix probs = la::RowSoftmax(logits.value());
  const int n = logits.rows();
  double loss = 0.0;
  constexpr float kEps = 1e-7f;
  for (const Pair& pr : pairs) {
    OPENIMA_CHECK_GE(pr.i, 0);
    OPENIMA_CHECK_LT(pr.i, n);
    OPENIMA_CHECK_GE(pr.j, 0);
    OPENIMA_CHECK_LT(pr.j, n);
    const float* pi = probs.Row(pr.i);
    const float* pj = probs.Row(pr.j);
    double u = 0.0;
    for (int c = 0; c < probs.cols(); ++c) u += static_cast<double>(pi[c]) * pj[c];
    u = std::clamp(u, static_cast<double>(kEps), 1.0 - kEps);
    loss -= pr.target * std::log(u) + (1.0 - pr.target) * std::log(1.0 - u);
  }
  la::Matrix out(1, 1);
  out(0, 0) = static_cast<float>(loss / pairs.size());
  return MakeOp(
      "pairwise_dot_bce", std::move(out), {logits},
      [pairs, probs = std::move(probs)](Node* nd) {
        if (!NeedsGrad(nd, 0)) return;
        const int c = probs.cols();
        la::Matrix& dl = InGrad(nd, 0);
        const float gscale = nd->grad(0, 0) / static_cast<float>(pairs.size());
        for (const Pair& pr : pairs) {
          const float* pi = probs.Row(pr.i);
          const float* pj = probs.Row(pr.j);
          double u = 0.0;
          for (int k = 0; k < c; ++k) u += static_cast<double>(pi[k]) * pj[k];
          u = std::clamp(u, 1e-7, 1.0 - 1e-7);
          // dL/du for this pair (already includes the 1/|pairs| factor).
          const float dldu = gscale * static_cast<float>(
                                          -pr.target / u +
                                          (1.0 - pr.target) / (1.0 - u));
          // du/dl_i = p_i (*) p_j - u * p_i ; symmetric in j.
          float* di = dl.Row(pr.i);
          float* dj = dl.Row(pr.j);
          const float uf = static_cast<float>(u);
          for (int k = 0; k < c; ++k) {
            di[k] += dldu * (pi[k] * pj[k] - uf * pi[k]);
            dj[k] += dldu * (pi[k] * pj[k] - uf * pj[k]);
          }
        }
      });
}

Variable NegMeanPredictionEntropy(const Variable& logits) {
  const int n = logits.rows(), c = logits.cols();
  OPENIMA_CHECK_GT(n, 0);
  la::Matrix probs = la::RowSoftmax(logits.value());
  std::vector<double> mean(static_cast<size_t>(c), 0.0);
  for (int i = 0; i < n; ++i) {
    const float* p = probs.Row(i);
    for (int j = 0; j < c; ++j) mean[static_cast<size_t>(j)] += p[j];
  }
  double loss = 0.0;
  std::vector<float> q(static_cast<size_t>(c));  // q_c = log m_c + 1
  for (int j = 0; j < c; ++j) {
    double m = std::max(mean[static_cast<size_t>(j)] / n, 1e-12);
    loss += m * std::log(m);
    q[static_cast<size_t>(j)] = static_cast<float>(std::log(m) + 1.0);
  }
  la::Matrix out(1, 1);
  out(0, 0) = static_cast<float>(loss);
  return MakeOp(
      "neg_mean_pred_entropy", std::move(out), {logits},
      [q = std::move(q), probs = std::move(probs)](Node* nd) {
        if (!NeedsGrad(nd, 0)) return;
        const int n = probs.rows(), c = probs.cols();
        const float g = nd->grad(0, 0) / static_cast<float>(n);
        la::Matrix& dl = InGrad(nd, 0);
        for (int i = 0; i < n; ++i) {
          const float* p = probs.Row(i);
          float* d = dl.Row(i);
          double dot = 0.0;
          for (int j = 0; j < c; ++j) dot += static_cast<double>(p[j]) * q[static_cast<size_t>(j)];
          const float dotf = static_cast<float>(dot);
          for (int j = 0; j < c; ++j) {
            d[j] += g * p[j] * (q[static_cast<size_t>(j)] - dotf);
          }
        }
      });
}

Variable MeanRowEntropy(const Variable& logits, const std::vector<int>& rows) {
  std::vector<int> idx = rows;
  if (idx.empty()) {
    idx.resize(static_cast<size_t>(logits.rows()));
    for (int i = 0; i < logits.rows(); ++i) idx[static_cast<size_t>(i)] = i;
  }
  OPENIMA_CHECK(!idx.empty());
  la::Matrix probs = la::RowSoftmax(logits.value());
  std::vector<float> entropies(idx.size());
  double total = 0.0;
  for (size_t t = 0; t < idx.size(); ++t) {
    const float* p = probs.Row(idx[t]);
    double h = 0.0;
    for (int c = 0; c < probs.cols(); ++c) {
      if (p[c] > 1e-12f) h -= static_cast<double>(p[c]) * std::log(p[c]);
    }
    entropies[t] = static_cast<float>(h);
    total += h;
  }
  la::Matrix out(1, 1);
  out(0, 0) = static_cast<float>(total / idx.size());
  return MakeOp(
      "mean_row_entropy", std::move(out), {logits},
      [idx = std::move(idx), probs = std::move(probs),
       entropies = std::move(entropies)](Node* nd) {
        if (!NeedsGrad(nd, 0)) return;
        la::Matrix& dl = InGrad(nd, 0);
        const float g = nd->grad(0, 0) / static_cast<float>(idx.size());
        for (size_t t = 0; t < idx.size(); ++t) {
          const float* p = probs.Row(idx[t]);
          float* d = dl.Row(idx[t]);
          const float h = entropies[t];
          for (int c = 0; c < probs.cols(); ++c) {
            const float logp = p[c] > 1e-12f ? std::log(p[c]) : -27.6f;
            d[c] += g * (-p[c] * (logp + h));
          }
        }
      });
}

Variable GaussianKl(const Variable& mu, const Variable& logvar) {
  OPENIMA_CHECK(mu.value().SameShape(logvar.value()));
  const int n = mu.rows();
  OPENIMA_CHECK_GT(n, 0);
  double kl = 0.0;
  for (int64_t i = 0; i < mu.value().size(); ++i) {
    const double m = mu.value().data()[i];
    const double lv = logvar.value().data()[i];
    kl += 0.5 * (std::exp(lv) + m * m - 1.0 - lv);
  }
  la::Matrix out(1, 1);
  out(0, 0) = static_cast<float>(kl / n);
  return MakeOp("gaussian_kl", std::move(out), {mu, logvar}, [](Node* nd) {
    const la::Matrix& m = InVal(nd, 0);
    const la::Matrix& lv = InVal(nd, 1);
    const float g = nd->grad(0, 0) / m.rows();
    if (NeedsGrad(nd, 0)) {
      la::Matrix& dm = InGrad(nd, 0);
      for (int64_t i = 0; i < m.size(); ++i) {
        dm.data()[i] += g * m.data()[i];
      }
    }
    if (NeedsGrad(nd, 1)) {
      la::Matrix& dl = InGrad(nd, 1);
      for (int64_t i = 0; i < lv.size(); ++i) {
        dl.data()[i] += g * 0.5f * (std::exp(lv.data()[i]) - 1.0f);
      }
    }
  });
}

Variable MseLoss(const Variable& pred, const la::Matrix& target) {
  OPENIMA_CHECK(pred.value().SameShape(target));
  OPENIMA_CHECK_GT(pred.value().size(), 0);
  double loss = 0.0;
  for (int64_t i = 0; i < target.size(); ++i) {
    const double d = pred.value().data()[i] - target.data()[i];
    loss += d * d;
  }
  la::Matrix out(1, 1);
  out(0, 0) = static_cast<float>(loss / pred.value().size());
  return MakeOp("mse", std::move(out), {pred}, [target](Node* nd) {
    if (!NeedsGrad(nd, 0)) return;
    const la::Matrix& pv = InVal(nd, 0);
    la::Matrix& dp = InGrad(nd, 0);
    const float g = 2.0f * nd->grad(0, 0) / static_cast<float>(pv.size());
    for (int64_t i = 0; i < pv.size(); ++i) {
      dp.data()[i] += g * (pv.data()[i] - target.data()[i]);
    }
  });
}

}  // namespace openima::autograd::ops

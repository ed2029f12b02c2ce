#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/autograd/gradcheck.h"
#include "src/autograd/ops.h"
#include "src/autograd/variable.h"
#include "src/exec/context.h"
#include "src/la/backend/backend.h"
#include "src/la/fast_math.h"
#include "src/la/matrix.h"
#include "src/la/matrix_ops.h"
#include "src/la/pool.h"
#include "src/util/rng.h"

/// The fused autograd ops (AddBiasElu, NormalizedSupCon) exist for the
/// arena's sake — fewer nodes, fewer intermediate buffers — but they must
/// be drop-in replacements for the chains they fuse: analytic backwards
/// verified against finite differences, and forward/backward values
/// matching the composed ops. The streamed SupCon ops must also keep every
/// bit of the materialised b x b algorithm they replaced, while drawing
/// less than one b x b matrix of memory. The fast-math kernels they lean on
/// are pinned here too.
namespace openima::autograd {
namespace {

namespace ops = openima::autograd::ops;

Variable Leaf(const la::Matrix& m) { return Variable::Leaf(m, true); }

la::Matrix RandomMatrix(int rows, int cols, uint64_t seed, float scale = 1.0f) {
  Rng rng(seed);
  return la::Matrix::Normal(rows, cols, 0.0f, scale, &rng);
}

/// Random matrix with every entry pushed at least `margin` away from zero —
/// keeps finite differences off the ELU kink.
la::Matrix RandomMatrixOffKink(int rows, int cols, uint64_t seed,
                               float margin = 0.05f) {
  la::Matrix m = RandomMatrix(rows, cols, seed);
  for (int64_t i = 0; i < m.size(); ++i) {
    float& v = m.data()[i];
    if (v >= 0.0f && v < margin) v += margin;
    if (v < 0.0f && v > -margin) v -= margin;
  }
  return m;
}

/// Positive sets for a 6-row contrastive block (every anchor has >= 1
/// positive, none lists itself).
std::vector<std::vector<int>> SixRowPositives() {
  return {{2}, {3, 4}, {0}, {1}, {1}, {0, 2}};
}

// ---------------------------------------------------------------------------
// Gradchecks: analytic backwards vs finite differences
// ---------------------------------------------------------------------------

TEST(FusedGradCheckTest, AddBiasElu) {
  // Keep x + bias off the kink: off-kink x with |entries| >= 0.3 dominates
  // the small bias.
  la::Matrix x = RandomMatrixOffKink(5, 4, 41, 0.3f);
  la::Matrix bias = RandomMatrix(1, 4, 42, 0.05f);
  std::vector<Variable> leaves = {Leaf(x), Leaf(bias)};
  GradCheckResult result = CheckGradients(
      [](const std::vector<Variable>& in) {
        return ops::MeanAll(ops::AddBiasElu(in[0], in[1]));
      },
      &leaves);
  EXPECT_TRUE(result.ok) << result.first_failure << " (max err "
                         << result.max_abs_error << ")";
}

TEST(FusedGradCheckTest, AddBiasEluNonUnitAlpha) {
  la::Matrix x = RandomMatrixOffKink(4, 3, 43, 0.3f);
  la::Matrix bias = RandomMatrix(1, 3, 44, 0.05f);
  std::vector<Variable> leaves = {Leaf(x), Leaf(bias)};
  GradCheckResult result = CheckGradients(
      [](const std::vector<Variable>& in) {
        return ops::MeanAll(ops::AddBiasElu(in[0], in[1], 0.5f));
      },
      &leaves);
  EXPECT_TRUE(result.ok) << result.first_failure << " (max err "
                         << result.max_abs_error << ")";
}

TEST(FusedGradCheckTest, NormalizedSupCon) {
  // Offset away from the origin so no row norm comes near the eps
  // passthrough, which would break differentiability.
  la::Matrix x = RandomMatrix(6, 4, 45);
  for (int64_t i = 0; i < x.size(); ++i) x.data()[i] += 0.3f;
  std::vector<Variable> leaves = {Leaf(x)};
  const auto positives = SixRowPositives();
  GradCheckResult result = CheckGradients(
      [&positives](const std::vector<Variable>& in) {
        return ops::NormalizedSupCon(in[0], positives, 0.7f);
      },
      &leaves);
  EXPECT_TRUE(result.ok) << result.first_failure << " (max err "
                         << result.max_abs_error << ")";
}

// ---------------------------------------------------------------------------
// Fused vs composed parity
// ---------------------------------------------------------------------------

TEST(FusedParityTest, AddBiasEluMatchesComposedChain) {
  la::Matrix x = RandomMatrix(7, 5, 46);
  la::Matrix bias = RandomMatrix(1, 5, 47, 0.1f);

  Variable xf = Leaf(x), bf = Leaf(bias);
  Variable fused = ops::AddBiasElu(xf, bf);
  ops::MeanAll(fused).Backward();

  Variable xc = Leaf(x), bc = Leaf(bias);
  Variable composed = ops::Elu(ops::AddRowBroadcast(xc, bc));
  ops::MeanAll(composed).Backward();

  ASSERT_EQ(fused.rows(), composed.rows());
  ASSERT_EQ(fused.cols(), composed.cols());
  for (int64_t i = 0; i < fused.value().size(); ++i) {
    EXPECT_NEAR(fused.value().data()[i], composed.value().data()[i], 1e-6f);
  }
  for (int64_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(xf.grad().data()[i], xc.grad().data()[i], 1e-6f);
  }
  for (int64_t i = 0; i < bias.size(); ++i) {
    EXPECT_NEAR(bf.grad().data()[i], bc.grad().data()[i], 1e-6f);
  }
}

TEST(FusedParityTest, NormalizedSupConMatchesComposedChain) {
  la::Matrix x = RandomMatrix(6, 4, 48);
  for (int64_t i = 0; i < x.size(); ++i) x.data()[i] += 0.3f;
  const auto positives = SixRowPositives();
  const float tau = 0.7f;

  Variable xf = Leaf(x);
  Variable fused = ops::NormalizedSupCon(xf, positives, tau);
  fused.Backward();

  Variable xc = Leaf(x);
  Variable composed = ops::SupConLoss(ops::RowL2Normalize(xc), positives, tau);
  composed.Backward();

  // The two paths use different softmax shifts (1/tau vs per-row max), so
  // parity is tolerance-level, not bit-level.
  EXPECT_NEAR(fused.value()(0, 0), composed.value()(0, 0), 1e-5f);
  for (int64_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(xf.grad().data()[i], xc.grad().data()[i], 1e-5f)
        << "grad entry " << i;
  }
}

// ---------------------------------------------------------------------------
// Streamed SupCon vs the materialised b x b algorithm, bit for bit
// ---------------------------------------------------------------------------

/// The materialised SupConLoss body the streamed op replaced: s, p, G and
/// G + G^T as b x b matrices. Kept here as the bit-exact reference. Its
/// backward runs on the forward's context, as the streamed op's does.
Variable MaterialisedSupConLoss(const Variable& z,
                                const std::vector<std::vector<int>>& positives,
                                float tau, const exec::Context* ctx) {
  const int b = z.rows();
  const la::backend::KernelBackend& be = la::backend::Resolve(ctx);
  la::Matrix s = la::MatmulNT(z.value(), z.value(), ctx);
  s *= 1.0f / tau;
  la::Matrix p(b, b);
  double loss = 0.0;
  for (int i = 0; i < b; ++i) {
    float* srow = s.Row(i);
    const float self_sim = srow[i];
    srow[i] = -std::numeric_limits<float>::infinity();
    const float mx = be.RowMax(srow, b);
    srow[i] = self_sim;
    float* prow = p.Row(i);
    be.ExpShifted(srow, mx, prow, b);
    double denom = be.RowSum(prow, b) - prow[i];
    prow[i] = 0.0f;
    const float inv = static_cast<float>(1.0 / denom);
    for (int k = 0; k < b; ++k) prow[k] *= inv;
    const double log_denom = std::log(denom) + mx;
    const auto& pos = positives[static_cast<size_t>(i)];
    double li = 0.0;
    for (int j : pos) li -= srow[j] - log_denom;
    loss += li / static_cast<double>(pos.size());
  }
  la::Matrix out(1, 1);
  out(0, 0) = static_cast<float>(loss / b);
  return MakeOp(
      "supcon_reference", std::move(out), {z},
      [positives, tau, ctx, p = std::move(p)](Node* nd) {
        const int b = p.rows();
        la::Matrix gmat = p;
        for (int i = 0; i < b; ++i) {
          const auto& pos = positives[static_cast<size_t>(i)];
          const float y = 1.0f / static_cast<float>(pos.size());
          float* grow = gmat.Row(i);
          for (int j : pos) grow[j] -= y;
        }
        la::ScaleInPlace(nd->grad(0, 0) / (static_cast<float>(b) * tau),
                         &gmat);
        la::Matrix sym = la::Transpose(gmat);
        la::AddInPlace(gmat, &sym);
        la::MatmulAccumulate(sym, nd->inputs[0]->value, 1.0f,
                             &nd->inputs[0]->grad, ctx);
      });
}

/// The materialised NormalizedSupCon body, likewise.
Variable MaterialisedNormalizedSupCon(
    const Variable& x, const std::vector<std::vector<int>>& positives,
    float tau, float eps, const exec::Context* ctx) {
  const int b = x.rows();
  const la::backend::KernelBackend& be = la::backend::Resolve(ctx);
  la::Matrix z = x.value();
  la::Matrix norms = la::RowL2NormalizeInPlace(&z, eps);
  la::Matrix s = la::MatmulNT(z, z, ctx);
  s *= 1.0f / tau;
  la::Matrix p(b, b);
  double loss = 0.0;
  const float shift = 1.0f / tau;
  for (int i = 0; i < b; ++i) {
    const float* srow = s.Row(i);
    float* prow = p.Row(i);
    be.ExpShifted(srow, shift, prow, b);
    double denom = be.RowSum(prow, b) - prow[i];
    prow[i] = 0.0f;
    const float inv = static_cast<float>(1.0 / denom);
    for (int k = 0; k < b; ++k) prow[k] *= inv;
    const double log_denom = std::log(denom) + shift;
    const auto& pos = positives[static_cast<size_t>(i)];
    double li = 0.0;
    for (int j : pos) li -= srow[j] - log_denom;
    loss += li / static_cast<double>(pos.size());
  }
  la::Matrix out(1, 1);
  out(0, 0) = static_cast<float>(loss / b);
  return MakeOp(
      "normalized_supcon_reference", std::move(out), {x},
      [positives, tau, eps, ctx, z = std::move(z), norms = std::move(norms),
       p = std::move(p)](Node* nd) {
        const int b = p.rows();
        la::Matrix gmat = p;
        for (int i = 0; i < b; ++i) {
          const auto& pos = positives[static_cast<size_t>(i)];
          const float y = 1.0f / static_cast<float>(pos.size());
          float* grow = gmat.Row(i);
          for (int j : pos) grow[j] -= y;
        }
        la::ScaleInPlace(nd->grad(0, 0) / (static_cast<float>(b) * tau),
                         &gmat);
        la::Matrix sym = la::Transpose(gmat);
        la::AddInPlace(gmat, &sym);
        la::Matrix dz = la::Matmul(sym, z, ctx);
        la::Matrix& dx = nd->inputs[0]->grad;
        for (int i = 0; i < b; ++i) {
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

/// A SimCSE twin (the other half of the block) for every anchor, the rest
/// of a 3-way label group, and a duplicate twin on every fifth anchor.
std::vector<std::vector<int>> BlockPositives(int b) {
  std::vector<std::vector<int>> positives(static_cast<size_t>(b));
  const int half = b / 2;
  for (int i = 0; i < b; ++i) {
    auto& pos = positives[static_cast<size_t>(i)];
    const int twin = half > 0 ? (i + half) % b : (i + 1) % b;
    pos.push_back(twin != i ? twin : (i + 1) % b);
    for (int j = 0; j < b; ++j) {
      if (j != i && j != pos[0] && j % 3 == i % 3 && (i + j) % 4 == 0) {
        pos.push_back(j);
      }
    }
    if (i % 5 == 0) pos.push_back(pos[0]);
  }
  return positives;
}

/// Block input: Gaussian rows of scale 0.6 with row 1 all zero (norm <= eps,
/// the normalize passthrough).
la::Matrix BlockInput(int b, int d, uint64_t seed) {
  la::Matrix x = RandomMatrix(b, d, seed, 0.6f);
  for (int j = 0; j < d; ++j) x(1, j) = 0.0f;
  return x;
}

struct LossAndGrad {
  la::Matrix loss;
  la::Matrix grad;
};

enum class SupConOp { kSupConLoss, kNormalizedSupCon };

LossAndGrad RunSupCon(SupConOp op, bool materialised, const la::Matrix& x,
                      const std::vector<std::vector<int>>& positives,
                      const exec::Context* ctx) {
  const float tau = 0.5f, eps = 1e-12f;
  Variable leaf = Leaf(x);
  Variable loss;
  if (op == SupConOp::kSupConLoss) {
    loss = materialised
               ? MaterialisedSupConLoss(leaf, positives, tau, ctx)
               : ops::SupConLoss(leaf, positives, tau, ctx);
  } else {
    loss = materialised ? MaterialisedNormalizedSupCon(leaf, positives, tau,
                                                       eps, ctx)
                        : ops::NormalizedSupCon(leaf, positives, tau, eps, ctx);
  }
  // A non-unit upstream gradient, as the trainers' block scale gives.
  ops::Scale(loss, 0.375f).Backward();
  return {loss.value(), leaf.grad()};
}

void ExpectSameBits(const la::Matrix& want, const la::Matrix& got,
                    const std::string& what) {
  ASSERT_TRUE(want.SameShape(got)) << what;
  int64_t differ = 0, first = -1;
  for (int64_t e = 0; e < want.size(); ++e) {
    if (std::bit_cast<uint32_t>(want.data()[e]) !=
        std::bit_cast<uint32_t>(got.data()[e])) {
      if (first < 0) first = e;
      ++differ;
    }
  }
  EXPECT_EQ(differ, 0) << what << ": first at " << first << " of "
                       << want.size() << " ("
                       << (first >= 0 ? want.data()[first] : 0.0f) << " vs "
                       << (first >= 0 ? got.data()[first] : 0.0f) << ")";
}

/// The streamed ops keep every bit of the materialised algorithm: loss and
/// every gradient float, on every registered backend, with 1- and 4-thread
/// contexts, pooled (recycled, dirty buffers) and heap. b mod 8 != 0 runs
/// the ExpShifted tail rule; b above one tile runs several tiles and a
/// partial last one.
TEST(StreamedSupConTest, BitIdenticalToMaterialisedAlgorithm) {
  exec::Context c1(1), c4(4);
  for (const la::backend::KernelBackend* be :
       la::backend::RegisteredBackends()) {
    c1.set_kernel_backend(be);
    c4.set_kernel_backend(be);
    for (int b : {2, 7, 9, 33, 67, 2050}) {
      const auto positives = BlockPositives(b);
      for (int d : {4, 64}) {
        const la::Matrix x = BlockInput(b, d, 900 + b + d);
        for (SupConOp op : {SupConOp::kSupConLoss, SupConOp::kNormalizedSupCon}) {
          const std::string name =
              std::string(be->name()) + " b=" + std::to_string(b) +
              " d=" + std::to_string(d) +
              (op == SupConOp::kSupConLoss ? " SupConLoss" : " NormalizedSupCon");
          const LossAndGrad want = RunSupCon(op, true, x, positives, &c1);
          for (const exec::Context* ctx : {&c1, &c4}) {
            const std::string where =
                name + " threads=" + std::to_string(ctx->num_threads());
            const LossAndGrad heap = RunSupCon(op, false, x, positives, ctx);
            ExpectSameBits(want.loss, heap.loss, where + " heap loss");
            ExpectSameBits(want.grad, heap.grad, where + " heap grad");
            la::Pool pool;
            la::PoolBinding bind(&pool);
            RunSupCon(op, false, x, positives, ctx);  // leaves dirty buffers
            const LossAndGrad pooled = RunSupCon(op, false, x, positives, ctx);
            ExpectSameBits(want.loss, pooled.loss, where + " pooled loss");
            ExpectSameBits(want.grad, pooled.grad, where + " pooled grad");
          }
        }
      }
    }
  }
}

/// The rule for e_ki, the exponent row k took at position i, checked where
/// no sum can hide a wrong bit. Row k carries a private coordinate 1 + k,
/// so column 1 + k of (G + G^T) Z is a single product holding that entry
/// of G + G^T. At b = 63 the last 7 positions of every row take
/// ExpShifted's tail path: each call re-evaluates 784 column exponents on
/// the other path, and on AVX2 about 1% of exponents differ between the
/// paths, so 16 inputs expose a wrong rule many times over.
TEST(StreamedSupConTest, ColumnExponentsKeepTheirRowsPath) {
  constexpr int kB = 63;
  const auto positives = BlockPositives(kB);
  exec::Context ctx(1);
  for (const la::backend::KernelBackend* be :
       la::backend::RegisteredBackends()) {
    ctx.set_kernel_backend(be);
    for (uint64_t seed = 0; seed < 16; ++seed) {
      const la::Matrix u = RandomMatrix(kB, 1, 500 + seed, 2.0f);
      la::Matrix x(kB, kB + 1);
      for (int k = 0; k < kB; ++k) {
        x(k, 0) = u(k, 0);
        x(k, 1 + k) = 1.0f;
      }
      for (SupConOp op : {SupConOp::kSupConLoss, SupConOp::kNormalizedSupCon}) {
        const std::string where =
            std::string(be->name()) + " seed=" + std::to_string(seed) +
            (op == SupConOp::kSupConLoss ? " SupConLoss" : " NormalizedSupCon");
        const LossAndGrad want = RunSupCon(op, true, x, positives, &ctx);
        const LossAndGrad got = RunSupCon(op, false, x, positives, &ctx);
        ExpectSameBits(want.loss, got.loss, where + " loss");
        ExpectSameBits(want.grad, got.grad, where + " grad");
      }
    }
  }
}

/// Memory guard: one forward + backward at b = 4096, d = 64 must draw less
/// from a fresh pool than a single b x b float matrix (64 MiB). The
/// materialised algorithm drew several such buckets per call.
TEST(StreamedSupConTest, BlockOf4096DrawsLessThanOneBxBMatrix) {
  constexpr int kB = 4096, kD = 64;
  const int64_t bxb_bytes = int64_t{kB} * kB * sizeof(float);
  const auto positives = BlockPositives(kB);
  const la::Matrix x = RandomMatrix(kB, kD, 77);
  exec::Context ctx(4);
  for (SupConOp op : {SupConOp::kSupConLoss, SupConOp::kNormalizedSupCon}) {
    la::Pool pool;
    {
      la::PoolBinding bind(&pool);
      RunSupCon(op, false, x, positives, &ctx);
    }
    EXPECT_LT(pool.stats().bytes_allocated, bxb_bytes)
        << (op == SupConOp::kSupConLoss ? "SupConLoss" : "NormalizedSupCon");
  }
}

// ---------------------------------------------------------------------------
// Fast-math kernels
// ---------------------------------------------------------------------------

TEST(FastMathTest, FastExpTracksStdExp) {
  // Sweep the stable range densely; < 3 ulp claimed, 1e-6 relative asserted.
  for (int i = -8700; i <= 1000; ++i) {
    const float x = static_cast<float>(i) * 0.01f;
    const double expected = std::exp(static_cast<double>(x));
    const double got = la::FastExp(x);
    EXPECT_NEAR(got / expected, 1.0, 1e-6) << "x = " << x;
  }
}

TEST(FastMathTest, FastExpClampsExtremes) {
  // Below the clamp: tiny but positive (a softmax denominator stays > 0).
  EXPECT_GT(la::FastExp(-1000.0f), 0.0f);
  EXPECT_LT(la::FastExp(-1000.0f), 1e-37f);
  EXPECT_GT(la::FastExp(-std::numeric_limits<float>::infinity()), 0.0f);
  EXPECT_LT(la::FastExp(-std::numeric_limits<float>::infinity()), 1e-37f);
  // Above the clamp: large but finite.
  EXPECT_TRUE(std::isfinite(la::FastExp(1000.0f)));
  EXPECT_GT(la::FastExp(1000.0f), 1e38f);
  EXPECT_EQ(la::FastExp(0.0f), 1.0f);
}

TEST(FastMathTest, ExpShiftedAppliesShift) {
  const float in[4] = {1.0f, 2.0f, 3.0f, -50.0f};
  float out[4];
  la::ExpShifted(in, 2.0f, out, 4);
  for (int k = 0; k < 4; ++k) {
    EXPECT_NEAR(out[k], std::exp(in[k] - 2.0f), 1e-6 * std::exp(in[k] - 2.0f));
  }
}

TEST(FastMathTest, RowSumIsExactAndHandlesRaggedTails) {
  for (int n : {1, 3, 7, 8, 9, 16, 61, 64, 257}) {
    std::vector<float> v(static_cast<size_t>(n));
    double expected = 0.0;
    for (int k = 0; k < n; ++k) {
      v[static_cast<size_t>(k)] = static_cast<float>((k % 13) - 6) * 0.25f;
      expected += v[static_cast<size_t>(k)];
    }
    EXPECT_NEAR(la::RowSum(v.data(), n), expected, 1e-9) << "n = " << n;
  }
}

TEST(FastMathTest, RowMaxHandlesRaggedTailsAndNegInf) {
  for (int n : {1, 2, 7, 8, 9, 31, 64}) {
    std::vector<float> v(static_cast<size_t>(n),
                         -std::numeric_limits<float>::infinity());
    // Put the max at the last position: exercises both tail paths.
    v[static_cast<size_t>(n - 1)] = 2.5f;
    EXPECT_EQ(la::RowMax(v.data(), n), 2.5f) << "n = " << n;
    if (n > 1) {
      v[0] = 7.0f;
      EXPECT_EQ(la::RowMax(v.data(), n), 7.0f) << "n = " << n;
    }
  }
  const float all_neg_inf[3] = {-std::numeric_limits<float>::infinity(),
                                -std::numeric_limits<float>::infinity(),
                                -std::numeric_limits<float>::infinity()};
  EXPECT_EQ(la::RowMax(all_neg_inf, 3),
            -std::numeric_limits<float>::infinity());
}

// ---------------------------------------------------------------------------
// In-place kernel family (what the fused backwards accumulate through)
// ---------------------------------------------------------------------------

TEST(InPlaceOpsTest, AddScaleAxpyHadamard) {
  const la::Matrix a = RandomMatrix(5, 6, 51);
  const la::Matrix b = RandomMatrix(5, 6, 52);
  la::Matrix dst = RandomMatrix(5, 6, 53);
  const la::Matrix dst0 = dst;

  la::AddInPlace(a, &dst);
  for (int64_t i = 0; i < dst.size(); ++i) {
    EXPECT_FLOAT_EQ(dst.data()[i], dst0.data()[i] + a.data()[i]);
  }

  la::ScaleInPlace(0.5f, &dst);
  for (int64_t i = 0; i < dst.size(); ++i) {
    EXPECT_FLOAT_EQ(dst.data()[i], (dst0.data()[i] + a.data()[i]) * 0.5f);
  }

  la::Matrix axpy = dst0;
  la::AxpyInPlace(-2.0f, a, &axpy);
  for (int64_t i = 0; i < axpy.size(); ++i) {
    EXPECT_FLOAT_EQ(axpy.data()[i], dst0.data()[i] - 2.0f * a.data()[i]);
  }

  la::Matrix had = dst0;
  la::HadamardAddInPlace(a, b, &had);
  for (int64_t i = 0; i < had.size(); ++i) {
    EXPECT_FLOAT_EQ(had.data()[i], dst0.data()[i] + a.data()[i] * b.data()[i]);
  }
}

TEST(InPlaceOpsTest, MatmulAccumulateMatchesReference) {
  const la::Matrix a = RandomMatrix(4, 7, 54);
  const la::Matrix b = RandomMatrix(7, 3, 55);
  la::Matrix c = RandomMatrix(4, 3, 56);
  const la::Matrix c0 = c;
  la::MatmulAccumulate(a, b, 0.75f, &c);
  const la::Matrix ref = la::MatmulReference(a, b);
  for (int64_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c.data()[i], c0.data()[i] + 0.75f * ref.data()[i], 1e-5f);
  }
}

TEST(InPlaceOpsTest, TransposeMatchesNaive) {
  // Odd, tile-straddling shape for the tiled kernel.
  const la::Matrix m = RandomMatrix(67, 35, 57);
  const la::Matrix t = la::Transpose(m);
  ASSERT_EQ(t.rows(), 35);
  ASSERT_EQ(t.cols(), 67);
  for (int i = 0; i < m.rows(); ++i) {
    for (int j = 0; j < m.cols(); ++j) EXPECT_EQ(t(j, i), m(i, j));
  }
}

}  // namespace
}  // namespace openima

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "src/exec/context.h"
#include "src/la/backend/backend.h"
#include "src/la/matrix.h"
#include "src/la/matrix_ops.h"
#include "src/util/rng.h"
#include "src/util/string_util.h"

namespace openima::la::backend {

/// gtest prints a pointer parameter as its address, which ASLR moves on
/// every run, and gtest_discover_tests copies that printout into the ctest
/// names of the BackendSuite cases. Printing the backend's name instead
/// keeps those names the same from one build to the next.
void PrintTo(const KernelBackend* backend, std::ostream* os) {
  *os << backend->name();
}

}  // namespace openima::la::backend

namespace openima::la {
namespace {

/// The blocked/parallel GEMM promises bit-identical results to the naive
/// i-k-j reference loop, so parity here is exact float equality — not
/// near-equality — on every input class, including NaN/Inf (where we
/// require matching special-value category: same bits is too strict across
/// NaN payload choices, but NaN must stay NaN and Inf must stay Inf).
void ExpectExact(const Matrix& got, const Matrix& want,
                 const std::string& label) {
  ASSERT_EQ(got.rows(), want.rows()) << label;
  ASSERT_EQ(got.cols(), want.cols()) << label;
  for (int64_t i = 0; i < got.size(); ++i) {
    const float g = got.data()[i];
    const float w = want.data()[i];
    if (std::isnan(w)) {
      EXPECT_TRUE(std::isnan(g)) << label << " flat index " << i;
    } else {
      EXPECT_EQ(g, w) << label << " flat index " << i;
    }
  }
}

Matrix RandomMatrix(int rows, int cols, Rng* rng) {
  Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) {
    // Varied magnitudes: reassociated accumulation would show up instantly.
    m.data()[i] = static_cast<float>(rng->Normal() *
                                     std::pow(10.0, rng->Uniform(-2.0, 2.0)));
  }
  return m;
}

/// ~70% exact zeros: the seed kernel had an `if (av == 0.0f) continue;`
/// shortcut that skipped k-terms and silently dropped NaN/Inf columns; the
/// rewritten kernels must process every term.
Matrix ZeroHeavyMatrix(int rows, int cols, Rng* rng) {
  Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) {
    m.data()[i] = rng->Uniform() < 0.7 ? 0.0f
                                       : static_cast<float>(rng->Normal());
  }
  return m;
}

void CheckAllProducts(const Matrix& a, const Matrix& b,
                      const exec::Context* ctx, const std::string& label) {
  const Matrix want = MatmulReference(a, b);
  ExpectExact(Matmul(a, b, ctx), want, label + " Matmul");
  // TN/NT parity against the reference on explicitly transposed operands.
  const Matrix at = Transpose(a);
  const Matrix bt = Transpose(b);
  ExpectExact(MatmulTN(at, b, ctx), want, label + " MatmulTN");
  ExpectExact(MatmulNT(a, bt, ctx), want, label + " MatmulNT");
  // Accumulate: C starts non-zero; reference adds alpha * (a@b) term-by-term
  // in the same i-k-j order, so exact equality still holds.
  Rng rng(7);
  Matrix c0(a.rows(), b.cols());
  for (int64_t i = 0; i < c0.size(); ++i) {
    c0.data()[i] = static_cast<float>(rng.Normal());
  }
  Matrix got = c0;
  MatmulAccumulate(a, b, 0.5f, &got, ctx);
  Matrix want_acc = c0;
  for (int i = 0; i < a.rows(); ++i) {
    const float* arow = a.Row(i);
    float* crow = want_acc.Row(i);
    for (int p = 0; p < a.cols(); ++p) {
      const float av = 0.5f * arow[p];
      const float* brow = b.Row(p);
      for (int j = 0; j < b.cols(); ++j) crow[j] += av * brow[j];
    }
  }
  ExpectExact(got, want_acc, label + " MatmulAccumulate");
}

/// Exact-to-the-naive-reference parity is a *scalar backend* contract (the
/// reference loop is plain mul+add; the avx2 backend's FMA contraction is
/// legitimately different bits), so this fixture pins the scalar backend.
/// The avx2 backend is covered by the BackendSuite tests below: bit-exact
/// where the backend contract promises it (RowSum/RowMax/RowArgmax/elu
/// backward), tolerance-bounded where it doesn't (GEMM, distance, exp).
class KernelParityTest : public ::testing::TestWithParam<int> {
 protected:
  KernelParityTest() {
    ctx_.set_kernel_backend(backend::ScalarBackend());
    serial_.set_kernel_backend(backend::ScalarBackend());
  }
  exec::Context ctx_{GetParam()};
  exec::Context serial_{1};
};

TEST_P(KernelParityTest, GemmMatchesReferenceOnRandomInputs) {
  Rng rng(42);
  // Shapes straddling the kMr=4 / kNr=16 / kKc=512 tile boundaries.
  const int shapes[][3] = {{1, 1, 1},   {3, 5, 7},    {4, 16, 16},
                           {5, 17, 33}, {64, 64, 64}, {70, 530, 19},
                           {33, 700, 40}};
  for (const auto& s : shapes) {
    const Matrix a = RandomMatrix(s[0], s[1], &rng);
    const Matrix b = RandomMatrix(s[1], s[2], &rng);
    CheckAllProducts(a, b, &ctx_,
                     StrFormat("random %dx%dx%d", s[0], s[1], s[2]));
  }
}

TEST_P(KernelParityTest, GemmMatchesReferenceOnZeroHeavyInputs) {
  Rng rng(43);
  const Matrix a = ZeroHeavyMatrix(37, 65, &rng);
  const Matrix b = ZeroHeavyMatrix(65, 29, &rng);
  CheckAllProducts(a, b, &ctx_, "zero-heavy");
}

TEST_P(KernelParityTest, GemmPropagatesNanAndInf) {
  Rng rng(44);
  Matrix a = ZeroHeavyMatrix(19, 40, &rng);
  Matrix b = RandomMatrix(40, 23, &rng);
  // Specials parked on zero-heavy rows/cols: the seed shortcut would have
  // skipped `0 * Inf` (= NaN) terms entirely.
  a(2, 11) = std::numeric_limits<float>::quiet_NaN();
  a(7, 0) = std::numeric_limits<float>::infinity();
  a(12, 39) = -std::numeric_limits<float>::infinity();
  b(5, 3) = std::numeric_limits<float>::quiet_NaN();
  b(30, 22) = std::numeric_limits<float>::infinity();
  CheckAllProducts(a, b, &ctx_, "nan-inf");

  // Targeted check: a zero in A against an Inf in B must produce NaN.
  Matrix za(1, 2);
  za(0, 0) = 0.0f;
  za(0, 1) = 1.0f;
  Matrix zb(2, 1);
  zb(0, 0) = std::numeric_limits<float>::infinity();
  zb(1, 0) = 2.0f;
  EXPECT_TRUE(std::isnan(Matmul(za, zb, &ctx_)(0, 0)))
      << "0 * Inf term must not be skipped";
  EXPECT_TRUE(std::isnan(MatmulReference(za, zb)(0, 0)));
}

TEST_P(KernelParityTest, RowKernelsMatchSerialAcrossThreadCounts) {
  Rng rng(45);
  const Matrix m = RandomMatrix(101, 13, &rng);
  exec::Context& serial = serial_;
  // Row-parallel kernels only split work across rows; each row's math is
  // unchanged, so outputs are bit-identical to the single-thread path.
  ExpectExact(RowSoftmax(m, &ctx_), RowSoftmax(m, &serial), "RowSoftmax");
  ExpectExact(RowLogSoftmax(m, &ctx_), RowLogSoftmax(m, &serial),
              "RowLogSoftmax");
  ExpectExact(Transpose(m, &ctx_), Transpose(m, &serial), "Transpose");

  const Matrix centers = RandomMatrix(7, 13, &rng);
  ExpectExact(PairwiseSquaredDistances(m, centers, &ctx_),
              PairwiseSquaredDistances(m, centers, &serial),
              "PairwiseSquaredDistances");

  std::vector<int> rows;
  for (int i = 0; i < m.rows(); i += 3) rows.push_back(i);
  ExpectExact(GatherRows(m, rows, &ctx_), GatherRows(m, rows, &serial),
              "GatherRows");

  Matrix n1 = m;
  Matrix n4 = m;
  RowL2NormalizeInPlace(&n1, 1e-12f, &serial);
  RowL2NormalizeInPlace(&n4, 1e-12f, &ctx_);
  ExpectExact(n4, n1, "RowL2NormalizeInPlace");
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, KernelParityTest,
                         ::testing::Values(1, 2, 4));

// ---------------------------------------------------------------------------
// Per-backend contract suite (`ctest -L backend`). Each registered backend
// (scalar always; avx2 when compiled in and the CPU supports it) must
// honor the KernelBackend determinism contract: partition-invariant GEMM,
// bit-identical row reductions across backends (RowSum/RowMax/RowArgmax
// including tie-breaking and NaN semantics), and tolerance-bounded drift
// for the FMA/polynomial-exp kernels.
// ---------------------------------------------------------------------------

class BackendSuite
    : public ::testing::TestWithParam<const backend::KernelBackend*> {
 protected:
  const backend::KernelBackend& be() const { return *GetParam(); }
  const backend::KernelBackend& scalar() const {
    return *backend::ScalarBackend();
  }
};

TEST_P(BackendSuite, GemmIsPartitionInvariantAcrossThreadCounts) {
  Rng rng(52);
  // Shapes whose row counts are not multiples of the kMr=4 tile: a row can
  // land in a full tile under one thread partition and an edge tile under
  // another, and the backend must still produce the same bits (the avx2
  // edge tile uses scalar fmaf for exactly this reason).
  const int shapes[][3] = {{5, 17, 33}, {7, 64, 16}, {70, 530, 19},
                           {33, 700, 40}, {127, 96, 96}};
  for (const auto& s : shapes) {
    const Matrix a = RandomMatrix(s[0], s[1], &rng);
    const Matrix b = RandomMatrix(s[1], s[2], &rng);
    exec::Context c1(1), c2(2), c4(4);
    c1.set_kernel_backend(&be());
    c2.set_kernel_backend(&be());
    c4.set_kernel_backend(&be());
    const Matrix want = Matmul(a, b, &c1);
    const std::string label = StrFormat("%s %dx%dx%d", be().name(), s[0],
                                        s[1], s[2]);
    ExpectExact(Matmul(a, b, &c2), want, label + " threads=2");
    ExpectExact(Matmul(a, b, &c4), want, label + " threads=4");
  }
}

TEST_P(BackendSuite, GemmMatchesDoubleReferenceWithinAccumulationBound) {
  Rng rng(53);
  const int m = 33, k = 530, n = 19;
  const Matrix a = RandomMatrix(m, k, &rng);
  const Matrix b = RandomMatrix(k, n, &rng);
  exec::Context ctx(2);
  ctx.set_kernel_backend(&be());
  const Matrix got = Matmul(a, b, &ctx);
  // Every backend — whatever its contraction choices — must stay within
  // the classic float-accumulation error bound of the true (double) dot
  // product: |err| <= eps * (k + 8) * sum |a_p b_p|, doubled for margin.
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double dot = 0.0, absdot = 0.0;
      for (int p = 0; p < k; ++p) {
        const double t = static_cast<double>(a(i, p)) * b(p, j);
        dot += t;
        absdot += std::abs(t);
      }
      const double bound =
          2.0 * std::numeric_limits<float>::epsilon() * (k + 8) * absdot;
      EXPECT_NEAR(got(i, j), dot, bound)
          << be().name() << " element (" << i << ", " << j << ")";
    }
  }
}

TEST_P(BackendSuite, RowSumAndRowMaxBitIdenticalToScalar) {
  Rng rng(54);
  const int64_t sizes[] = {1, 3, 7, 8, 9, 15, 16, 33, 100, 1001};
  for (const int64_t n : sizes) {
    std::vector<float> row(static_cast<size_t>(n));
    for (auto& v : row) {
      v = static_cast<float>(rng.Normal() *
                             std::pow(10.0, rng.Uniform(-3.0, 3.0)));
    }
    const double want_sum = scalar().RowSum(row.data(), n);
    const double got_sum = be().RowSum(row.data(), n);
    EXPECT_EQ(std::bit_cast<std::int64_t>(got_sum),
              std::bit_cast<std::int64_t>(want_sum))
        << be().name() << " RowSum n=" << n;
    EXPECT_EQ(be().RowMax(row.data(), n), scalar().RowMax(row.data(), n))
        << be().name() << " RowMax n=" << n;
    EXPECT_EQ(be().RowArgmax(row.data(), n),
              scalar().RowArgmax(row.data(), n))
        << be().name() << " RowArgmax n=" << n;
  }
}

TEST_P(BackendSuite, RowArgmaxBreaksTiesTowardLowestIndex) {
  // Duplicated maxima across vector-lane and tail boundaries: every
  // backend must return the first occurrence, like a sequential
  // `p[j] > p[best]` scan.
  std::vector<float> row(40, 0.0f);
  row[2] = row[5] = row[9] = row[17] = row[39] = 7.5f;
  EXPECT_EQ(be().RowArgmax(row.data(), 40), 2) << be().name();
  // Tie landing in the scalar tail (indices 32..39 of n=40).
  std::vector<float> tail_tie(40, 1.0f);
  tail_tie[33] = tail_tie[38] = 2.0f;
  EXPECT_EQ(be().RowArgmax(tail_tie.data(), 40), 33) << be().name();
  // All-equal rows pick index 0 at any length.
  for (const int64_t n : {1, 7, 8, 40}) {
    std::vector<float> flat(static_cast<size_t>(n), 3.0f);
    EXPECT_EQ(be().RowArgmax(flat.data(), n), 0)
        << be().name() << " n=" << n;
  }
  // -inf rows are valid: everything ties at -inf, index 0 wins.
  std::vector<float> ninf(24, -std::numeric_limits<float>::infinity());
  EXPECT_EQ(be().RowArgmax(ninf.data(), 24), 0) << be().name();
  EXPECT_EQ(be().RowMax(ninf.data(), 24),
            -std::numeric_limits<float>::infinity())
      << be().name();
}

TEST_P(BackendSuite, RowMaxAndArgmaxNanSemanticsMatchScalar) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  // NaN at p[0] is the one position where NaN wins: the scalar kernels
  // seed from p[0] and every later `acc < p` comparison is false.
  std::vector<float> lead(20, 1.0f);
  lead[0] = nan;
  lead[7] = 9.0f;
  EXPECT_TRUE(std::isnan(be().RowMax(lead.data(), 20))) << be().name();
  EXPECT_EQ(be().RowArgmax(lead.data(), 20), 0) << be().name();
  // Interior NaNs never win (comparisons against NaN are false), and the
  // exact value RowMax reports is position-dependent (a NaN-poisoned lane
  // drops its later elements) — pinned as "bit-identical to scalar", not
  // as a nominal max. RowArgmax must agree with the sequential scan.
  Rng rng(55);
  for (const int64_t n : {9, 24, 40, 100}) {
    for (const int64_t pos : {1L, 3L, 8L, n - 1}) {
      std::vector<float> row(static_cast<size_t>(n));
      for (auto& v : row) v = static_cast<float>(rng.Normal());
      row[static_cast<size_t>(pos)] = nan;
      const float want = scalar().RowMax(row.data(), n);
      const float got = be().RowMax(row.data(), n);
      EXPECT_EQ(std::bit_cast<std::int32_t>(got),
                std::bit_cast<std::int32_t>(want))
          << be().name() << " RowMax n=" << n << " nan at " << pos;
      EXPECT_EQ(be().RowArgmax(row.data(), n),
                scalar().RowArgmax(row.data(), n))
          << be().name() << " RowArgmax n=" << n << " nan at " << pos;
    }
  }
}

TEST_P(BackendSuite, ExpShiftedStaysWithinUlpOfScalar) {
  Rng rng(56);
  const int64_t n = 1003;  // exercises the vector tail
  std::vector<float> in(static_cast<size_t>(n));
  for (auto& v : in) v = static_cast<float>(rng.Uniform(-20.0, 1.0));
  std::vector<float> want(static_cast<size_t>(n)), got(static_cast<size_t>(n));
  scalar().ExpShifted(in.data(), 0.5f, want.data(), n);
  be().ExpShifted(in.data(), 0.5f, got.data(), n);
  for (int64_t i = 0; i < n; ++i) {
    const std::int32_t ulps = std::abs(std::bit_cast<std::int32_t>(got[i]) -
                                       std::bit_cast<std::int32_t>(want[i]));
    EXPECT_LE(ulps, 4) << be().name() << " index " << i << " in=" << in[i];
  }
}

TEST_P(BackendSuite, ExpansionDistanceNonNegativeAndNearScalar) {
  Rng rng(57);
  for (const int d : {1, 7, 8, 9, 64, 129}) {
    std::vector<float> x(static_cast<size_t>(d)), y(static_cast<size_t>(d));
    double xs = 0.0, ys = 0.0;
    for (int j = 0; j < d; ++j) {
      x[static_cast<size_t>(j)] = static_cast<float>(rng.Normal());
      y[static_cast<size_t>(j)] = static_cast<float>(rng.Normal());
      xs += static_cast<double>(x[static_cast<size_t>(j)]) *
            x[static_cast<size_t>(j)];
      ys += static_cast<double>(y[static_cast<size_t>(j)]) *
            y[static_cast<size_t>(j)];
    }
    const float xsq = static_cast<float>(xs), ysq = static_cast<float>(ys);
    const float want =
        scalar().ExpansionSquaredDistance(x.data(), y.data(), d, xsq, ysq);
    const float got =
        be().ExpansionSquaredDistance(x.data(), y.data(), d, xsq, ysq);
    EXPECT_GE(got, 0.0f) << be().name() << " d=" << d;
    // FMA-vs-scalar dot drift is bounded by the d-term accumulation error
    // at the squared-norms scale; the expansion formula's cancellation
    // means a relative bound on the *result* would be meaningless.
    const float scale = xsq + ysq;
    const float tol =
        static_cast<float>(d + 8) * std::numeric_limits<float>::epsilon() *
        scale;
    EXPECT_NEAR(got, want, tol) << be().name() << " d=" << d;
    // Self-distance must be (near) zero, never negative.
    EXPECT_LE(be().ExpansionSquaredDistance(x.data(), x.data(), d, xsq, xsq),
              static_cast<float>(d + 8) *
                  std::numeric_limits<float>::epsilon() * xsq)
        << be().name() << " self d=" << d;
  }
}

TEST_P(BackendSuite, AddBiasEluRowsContract) {
  Rng rng(58);
  const int64_t n = 37;  // vector blocks + tail
  const float alpha = 1.0f;
  std::vector<float> x(static_cast<size_t>(n)), b(static_cast<size_t>(n));
  for (auto& v : x) v = static_cast<float>(rng.Uniform(-4.0, 4.0));
  for (auto& v : b) v = static_cast<float>(rng.Uniform(-0.5, 0.5));
  std::vector<float> want = x, got = x;
  scalar().AddBiasEluRow(want.data(), b.data(), alpha, n);
  be().AddBiasEluRow(got.data(), b.data(), alpha, n);
  for (int64_t j = 0; j < n; ++j) {
    if (want[j] > 0.0f) {
      // Positive branch is a plain add — exact in every backend.
      EXPECT_EQ(got[j], want[j]) << be().name() << " index " << j;
    } else {
      // Negative branch: libm exp (scalar) vs FastExp (avx2); elu outputs
      // lie in (-alpha, 0], so an absolute bound is the right gate.
      EXPECT_NEAR(got[j], want[j], 1e-6f) << be().name() << " index " << j;
    }
  }
  // The backward is mul/add only: bit-identical across backends, for
  // every need_x/need_b combination.
  std::vector<float> g(static_cast<size_t>(n));
  for (auto& v : g) v = static_cast<float>(rng.Normal());
  std::vector<float> dx_want(static_cast<size_t>(n), 0.25f);
  std::vector<float> db_want(static_cast<size_t>(n), -0.5f);
  std::vector<float> dx_got = dx_want, db_got = db_want;
  scalar().AddBiasEluBackwardRow(g.data(), want.data(), alpha, n,
                                 dx_want.data(), db_want.data());
  be().AddBiasEluBackwardRow(g.data(), want.data(), alpha, n, dx_got.data(),
                             db_got.data());
  for (int64_t j = 0; j < n; ++j) {
    EXPECT_EQ(dx_got[j], dx_want[j]) << be().name() << " dx index " << j;
    EXPECT_EQ(db_got[j], db_want[j]) << be().name() << " db index " << j;
  }
  std::vector<float> db_only_want(static_cast<size_t>(n), 0.0f);
  std::vector<float> db_only_got(static_cast<size_t>(n), 0.0f);
  scalar().AddBiasEluBackwardRow(g.data(), want.data(), alpha, n, nullptr,
                                 db_only_want.data());
  be().AddBiasEluBackwardRow(g.data(), want.data(), alpha, n, nullptr,
                             db_only_got.data());
  for (int64_t j = 0; j < n; ++j) {
    EXPECT_EQ(db_only_got[j], db_only_want[j])
        << be().name() << " db-only index " << j;
  }
}

TEST_P(BackendSuite, GatherScatterAxpyBitIdenticalToScalar) {
  // The sampled-training kernels are copies (GatherRows), plain adds
  // (ScatterAddRows) and separately-rounded mul+add (AxpyRow) — all three
  // are bit-identical across backends by contract, at every width that
  // straddles the 8-lane blocks and the scalar tail.
  Rng rng(59);
  for (const int64_t n : {1, 7, 8, 9, 23, 64, 129}) {
    const int64_t src_rows = 11;
    std::vector<float> src(static_cast<size_t>(src_rows * n));
    for (auto& v : src) {
      v = static_cast<float>(rng.Normal() *
                             std::pow(10.0, rng.Uniform(-2.0, 2.0)));
    }
    // Gather with repeats and out-of-order rows.
    const std::vector<int> gidx = {3, 0, 10, 3, 7, 1};
    const int64_t gn = static_cast<int64_t>(gidx.size());
    std::vector<float> gwant(static_cast<size_t>(gn * n), -1.0f);
    std::vector<float> ggot = gwant;
    scalar().GatherRows(src.data(), n, gidx.data(), gn, n, gwant.data(), n);
    be().GatherRows(src.data(), n, gidx.data(), gn, n, ggot.data(), n);
    EXPECT_EQ(ggot, gwant) << be().name() << " GatherRows n=" << n;

    // Scatter-add with a repeated destination row (3 twice): the serial
    // ascending-r order makes the repeat well-defined.
    std::vector<float> swant(static_cast<size_t>(src_rows * n), 0.5f);
    std::vector<float> sgot = swant;
    scalar().ScatterAddRows(gwant.data(), n, gidx.data(), gn, n,
                            swant.data(), n);
    be().ScatterAddRows(gwant.data(), n, gidx.data(), gn, n, sgot.data(), n);
    for (size_t i = 0; i < swant.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::int32_t>(sgot[i]),
                std::bit_cast<std::int32_t>(swant[i]))
          << be().name() << " ScatterAddRows n=" << n << " flat " << i;
    }

    // Axpy: the avx2 path must use separate mul+add (no FMA contraction)
    // to stay bit-identical to the -ffp-contract=off scalar loop.
    std::vector<float> x(static_cast<size_t>(n)), ywant(static_cast<size_t>(n));
    for (auto& v : x) v = static_cast<float>(rng.Normal());
    for (auto& v : ywant) v = static_cast<float>(rng.Normal());
    std::vector<float> ygot = ywant;
    scalar().AxpyRow(0.37f, x.data(), ywant.data(), n);
    be().AxpyRow(0.37f, x.data(), ygot.data(), n);
    for (int64_t j = 0; j < n; ++j) {
      EXPECT_EQ(std::bit_cast<std::int32_t>(ygot[static_cast<size_t>(j)]),
                std::bit_cast<std::int32_t>(ywant[static_cast<size_t>(j)]))
          << be().name() << " AxpyRow n=" << n << " index " << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, BackendSuite,
    ::testing::ValuesIn(backend::RegisteredBackends()),
    [](const ::testing::TestParamInfo<const backend::KernelBackend*>& info) {
      return std::string(info.param->name());
    });

}  // namespace
}  // namespace openima::la

#include "src/la/matrix_ops.h"

#include <algorithm>
#include <cmath>

#include "src/la/backend/backend.h"

namespace openima::la {

namespace {

constexpr int64_t kGemmRowGrain = 32;

/// C[r0, r1) += alpha * A[r0, r1) * B via the resolved backend's
/// register-tiled kernel (src/la/backend/). Row ranges are independent, so
/// any parallel row partition yields the same bits.
void MatmulRowRange(const backend::KernelBackend& be, const Matrix& a,
                    const Matrix& b, float alpha, Matrix* c, int64_t r0,
                    int64_t r1) {
  be.GemmRowRange(a.data(), a.cols(), b.data(), b.cols(), alpha, c->data(),
                  c->cols(), r0, r1, a.cols(), b.cols());
}

/// Row grain scaled so a task carries at least ~256k multiply-adds.
int64_t GemmGrain(int k, int n) {
  const int64_t flops_per_row = std::max<int64_t>(1, int64_t{k} * n);
  return std::max(kGemmRowGrain, (int64_t{1} << 18) / flops_per_row);
}

}  // namespace

Matrix Matmul(const Matrix& a, const Matrix& b, const exec::Context* ctx) {
  Matrix c(a.rows(), b.cols());
  MatmulAccumulate(a, b, 1.0f, &c, ctx);
  return c;
}

void MatmulAccumulate(const Matrix& a, const Matrix& b, float alpha, Matrix* c,
                      const exec::Context* ctx) {
  OPENIMA_CHECK_EQ(a.cols(), b.rows());
  OPENIMA_CHECK_EQ(c->rows(), a.rows());
  OPENIMA_CHECK_EQ(c->cols(), b.cols());
  const backend::KernelBackend& be = backend::Resolve(ctx);
  exec::Get(ctx).ParallelFor(a.rows(), GemmGrain(a.cols(), b.cols()),
                             [&](int64_t r0, int64_t r1) {
                               MatmulRowRange(be, a, b, alpha, c, r0, r1);
                             });
}

namespace {

/// Elements per task for flat element-wise sweeps.
constexpr int64_t kElemGrain = 16384;

}  // namespace

void AddInPlace(const Matrix& src, Matrix* dst, const exec::Context* ctx) {
  OPENIMA_CHECK(dst->SameShape(src));
  float* d = dst->data();
  const float* s = src.data();
  exec::Get(ctx).ParallelFor(dst->size(), kElemGrain,
                             [&](int64_t i0, int64_t i1) {
                               for (int64_t i = i0; i < i1; ++i) d[i] += s[i];
                             });
}

void ScaleInPlace(float alpha, Matrix* m, const exec::Context* ctx) {
  float* d = m->data();
  exec::Get(ctx).ParallelFor(m->size(), kElemGrain,
                             [&](int64_t i0, int64_t i1) {
                               for (int64_t i = i0; i < i1; ++i) d[i] *= alpha;
                             });
}

void AxpyInPlace(float alpha, const Matrix& src, Matrix* dst,
                 const exec::Context* ctx) {
  OPENIMA_CHECK(dst->SameShape(src));
  float* d = dst->data();
  const float* s = src.data();
  exec::Get(ctx).ParallelFor(
      dst->size(), kElemGrain, [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) d[i] += alpha * s[i];
      });
}

void HadamardAddInPlace(const Matrix& a, const Matrix& b, Matrix* dst,
                        const exec::Context* ctx) {
  OPENIMA_CHECK(dst->SameShape(a));
  OPENIMA_CHECK(dst->SameShape(b));
  float* d = dst->data();
  const float* pa = a.data();
  const float* pb = b.data();
  exec::Get(ctx).ParallelFor(
      dst->size(), kElemGrain, [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) d[i] += pa[i] * pb[i];
      });
}

void AddRowBroadcastInPlace(const Matrix& bias, Matrix* m) {
  OPENIMA_CHECK_EQ(bias.rows(), 1);
  OPENIMA_CHECK_EQ(bias.cols(), m->cols());
  const float* b = bias.Row(0);
  for (int i = 0; i < m->rows(); ++i) {
    float* row = m->Row(i);
    for (int j = 0; j < m->cols(); ++j) row[j] += b[j];
  }
}

void EluInPlace(float alpha, Matrix* m) {
  float* d = m->data();
  for (int64_t i = 0; i < m->size(); ++i) {
    const float v = d[i];
    if (v <= 0.0f) d[i] = alpha * (std::exp(v) - 1.0f);
  }
}

Matrix MatmulTN(const Matrix& a, const Matrix& b, const exec::Context* ctx) {
  OPENIMA_CHECK_EQ(a.rows(), b.rows());
  Matrix at = Transpose(a, ctx);
  Matrix c(at.rows(), b.cols());
  MatmulAccumulate(at, b, 1.0f, &c, ctx);
  return c;
}

Matrix MatmulNT(const Matrix& a, const Matrix& b, const exec::Context* ctx) {
  OPENIMA_CHECK_EQ(a.cols(), b.cols());
  Matrix bt = Transpose(b, ctx);
  Matrix c(a.rows(), bt.cols());
  MatmulAccumulate(a, bt, 1.0f, &c, ctx);
  return c;
}

Matrix MatmulReference(const Matrix& a, const Matrix& b) {
  OPENIMA_CHECK_EQ(a.cols(), b.rows());
  const int m = a.rows(), k = a.cols(), n = b.cols();
  Matrix c(m, n);
  for (int i = 0; i < m; ++i) {
    const float* arow = a.Row(i);
    float* crow = c.Row(i);
    for (int p = 0; p < k; ++p) {
      const float av = arow[p];
      const float* brow = b.Row(p);
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

Matrix Transpose(const Matrix& m, const exec::Context* ctx) {
  constexpr int kTile = 32;
  const int rows = m.rows(), cols = m.cols();
  Matrix t(cols, rows);
  const int64_t col_blocks = (cols + kTile - 1) / kTile;
  // Parallel over column blocks of the source — disjoint row bands of the
  // destination.
  exec::Get(ctx).ParallelFor(col_blocks, 1, [&](int64_t b0, int64_t b1) {
    for (int64_t blk = b0; blk < b1; ++blk) {
      const int j0 = static_cast<int>(blk) * kTile;
      const int j1 = std::min(cols, j0 + kTile);
      for (int i0 = 0; i0 < rows; i0 += kTile) {
        const int i1 = std::min(rows, i0 + kTile);
        for (int j = j0; j < j1; ++j) {
          float* trow = t.Row(j);
          for (int i = i0; i < i1; ++i) trow[i] = m(i, j);
        }
      }
    }
  });
  return t;
}

namespace {

/// Rows per task so one task touches at least ~8k elements.
int64_t RowGrain(int cols) {
  return std::max<int64_t>(1, 8192 / std::max(1, cols));
}

}  // namespace

Matrix RowSoftmax(const Matrix& logits, const exec::Context* ctx) {
  Matrix out = logits;
  exec::Get(ctx).ParallelFor(
      out.rows(), RowGrain(out.cols()), [&](int64_t r0, int64_t r1) {
        for (int64_t i = r0; i < r1; ++i) {
          float* row = out.Row(static_cast<int>(i));
          float mx = row[0];
          for (int j = 1; j < out.cols(); ++j) mx = std::max(mx, row[j]);
          double sum = 0.0;
          for (int j = 0; j < out.cols(); ++j) {
            row[j] = std::exp(row[j] - mx);
            sum += row[j];
          }
          const float inv = static_cast<float>(1.0 / sum);
          for (int j = 0; j < out.cols(); ++j) row[j] *= inv;
        }
      });
  return out;
}

Matrix RowLogSoftmax(const Matrix& logits, const exec::Context* ctx) {
  Matrix out = logits;
  exec::Get(ctx).ParallelFor(
      out.rows(), RowGrain(out.cols()), [&](int64_t r0, int64_t r1) {
        for (int64_t i = r0; i < r1; ++i) {
          float* row = out.Row(static_cast<int>(i));
          float mx = row[0];
          for (int j = 1; j < out.cols(); ++j) mx = std::max(mx, row[j]);
          double sum = 0.0;
          for (int j = 0; j < out.cols(); ++j) sum += std::exp(row[j] - mx);
          const float lse = mx + static_cast<float>(std::log(sum));
          for (int j = 0; j < out.cols(); ++j) row[j] -= lse;
        }
      });
  return out;
}

Matrix RowL2NormalizeInPlace(Matrix* m, float eps, const exec::Context* ctx) {
  Matrix norms(m->rows(), 1);
  exec::Get(ctx).ParallelFor(
      m->rows(), RowGrain(m->cols()), [&](int64_t r0, int64_t r1) {
        for (int64_t i = r0; i < r1; ++i) {
          float* row = m->Row(static_cast<int>(i));
          double sq = 0.0;
          for (int j = 0; j < m->cols(); ++j) {
            sq += static_cast<double>(row[j]) * row[j];
          }
          const float norm = static_cast<float>(std::sqrt(sq));
          norms(static_cast<int>(i), 0) = norm;
          if (norm > eps) {
            const float inv = 1.0f / norm;
            for (int j = 0; j < m->cols(); ++j) row[j] *= inv;
          }
        }
      });
  return norms;
}

Matrix RowL2Norms(const Matrix& m, const exec::Context* ctx) {
  Matrix norms(m.rows(), 1);
  exec::Get(ctx).ParallelFor(
      m.rows(), RowGrain(m.cols()), [&](int64_t r0, int64_t r1) {
        for (int64_t i = r0; i < r1; ++i) {
          const float* row = m.Row(static_cast<int>(i));
          double sq = 0.0;
          for (int j = 0; j < m.cols(); ++j) {
            sq += static_cast<double>(row[j]) * row[j];
          }
          norms(static_cast<int>(i), 0) = static_cast<float>(std::sqrt(sq));
        }
      });
  return norms;
}

std::vector<int> RowArgmax(const Matrix& m, const exec::Context* ctx) {
  OPENIMA_CHECK_GT(m.cols(), 0);
  std::vector<int> out(static_cast<size_t>(m.rows()));
  const backend::KernelBackend& be = backend::Resolve(ctx);
  exec::Get(ctx).ParallelFor(
      m.rows(), RowGrain(m.cols()), [&](int64_t r0, int64_t r1) {
        for (int64_t i = r0; i < r1; ++i) {
          out[static_cast<size_t>(i)] = static_cast<int>(
              be.RowArgmax(m.Row(static_cast<int>(i)), m.cols()));
        }
      });
  return out;
}

std::vector<float> RowMax(const Matrix& m, const exec::Context* ctx) {
  OPENIMA_CHECK_GT(m.cols(), 0);
  std::vector<float> out(static_cast<size_t>(m.rows()));
  const backend::KernelBackend& be = backend::Resolve(ctx);
  exec::Get(ctx).ParallelFor(
      m.rows(), RowGrain(m.cols()), [&](int64_t r0, int64_t r1) {
        for (int64_t i = r0; i < r1; ++i) {
          out[static_cast<size_t>(i)] =
              be.RowMax(m.Row(static_cast<int>(i)), m.cols());
        }
      });
  return out;
}

Matrix RowSums(const Matrix& m, const exec::Context* ctx) {
  Matrix out(m.rows(), 1);
  exec::Get(ctx).ParallelFor(
      m.rows(), RowGrain(m.cols()), [&](int64_t r0, int64_t r1) {
        for (int64_t i = r0; i < r1; ++i) {
          const float* row = m.Row(static_cast<int>(i));
          double s = 0.0;
          for (int j = 0; j < m.cols(); ++j) s += row[j];
          out(static_cast<int>(i), 0) = static_cast<float>(s);
        }
      });
  return out;
}

Matrix ColMeans(const Matrix& m) {
  Matrix out(1, m.cols());
  if (m.rows() == 0) return out;
  std::vector<double> acc(static_cast<size_t>(m.cols()), 0.0);
  for (int i = 0; i < m.rows(); ++i) {
    const float* row = m.Row(i);
    for (int j = 0; j < m.cols(); ++j) acc[static_cast<size_t>(j)] += row[j];
  }
  for (int j = 0; j < m.cols(); ++j) {
    out(0, j) = static_cast<float>(acc[static_cast<size_t>(j)] / m.rows());
  }
  return out;
}

Matrix GatherRows(const Matrix& m, const std::vector<int>& rows,
                  const exec::Context* ctx) {
  Matrix out(static_cast<int>(rows.size()), m.cols());
  exec::Get(ctx).ParallelFor(
      static_cast<int64_t>(rows.size()), RowGrain(m.cols()),
      [&](int64_t r0, int64_t r1) {
        for (int64_t i = r0; i < r1; ++i) {
          out.SetRow(static_cast<int>(i), m, rows[static_cast<size_t>(i)]);
        }
      });
  return out;
}

Matrix VStack(const Matrix& a, const Matrix& b) {
  if (a.rows() == 0) return b;
  if (b.rows() == 0) return a;
  OPENIMA_CHECK_EQ(a.cols(), b.cols());
  Matrix out(a.rows() + b.rows(), a.cols());
  for (int r = 0; r < a.rows(); ++r) out.SetRow(r, a, r);
  for (int r = 0; r < b.rows(); ++r) out.SetRow(a.rows() + r, b, r);
  return out;
}

}  // namespace openima::la

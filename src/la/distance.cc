#include "src/la/distance.h"

#include <algorithm>
#include <cmath>

#include "src/la/backend/backend.h"
#include "src/la/pool.h"
#include "src/util/logging.h"

namespace openima::la {

namespace {

/// Rows per parallel task so one task covers at least ~8k output elements.
int64_t RowGrain(int cols) {
  return std::max<int64_t>(1, 8192 / std::max(1, cols));
}

}  // namespace

// The expansion distance primitive itself lives in the kernel backends
// (src/la/backend/): one compiled instance per backend, resolved from the
// context here so a whole clustering run stays on the same instance. Row
// squared norms stay in this TU on purpose — they are double-accumulated
// scalar sweeps shared by every backend, so xsq/ysq inputs are identical
// no matter which backend consumes them.

void RowSquaredNormsInto(const Matrix& m, float* out,
                         const exec::Context* ctx) {
  exec::Get(ctx).ParallelFor(
      m.rows(), RowGrain(m.cols()), [&](int64_t r0, int64_t r1) {
        for (int64_t i = r0; i < r1; ++i) {
          const float* row = m.Row(static_cast<int>(i));
          double s = 0.0;
          for (int j = 0; j < m.cols(); ++j) {
            s += static_cast<double>(row[j]) * row[j];
          }
          out[i] = static_cast<float>(s);
        }
      });
}

std::vector<float> RowSquaredNorms(const Matrix& m, const exec::Context* ctx) {
  std::vector<float> out(static_cast<size_t>(m.rows()));
  RowSquaredNormsInto(m, out.data(), ctx);
  return out;
}

void PairwiseSquaredDistancesInto(const Matrix& x, const Matrix& c,
                                  const float* xsq, const float* csq,
                                  float* out, const exec::Context* ctx) {
  OPENIMA_CHECK_EQ(x.cols(), c.cols());
  const int64_t n = x.rows();
  const int k = c.rows(), d = x.cols();
  PoolBuffer xsq_buf, csq_buf;
  if (xsq == nullptr) {
    xsq_buf = PoolBuffer(n);
    RowSquaredNormsInto(x, xsq_buf.data(), ctx);
    xsq = xsq_buf.data();
  }
  if (csq == nullptr) {
    csq_buf = PoolBuffer(k);
    RowSquaredNormsInto(c, csq_buf.data(), ctx);
    csq = csq_buf.data();
  }
  const backend::KernelBackend& be = backend::Resolve(ctx);
  exec::Get(ctx).ParallelFor(n, RowGrain(k), [&](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      const float* xi = x.Row(static_cast<int>(i));
      const float xs = xsq[i];
      float* row = out + i * k;
      for (int cc = 0; cc < k; ++cc) {
        row[cc] = be.ExpansionSquaredDistance(xi, c.Row(cc), d, xs, csq[cc]);
      }
    }
  });
}

Matrix PairwiseSquaredDistances(const Matrix& x, const Matrix& c,
                                const exec::Context* ctx) {
  Matrix out(x.rows(), c.rows());
  PairwiseSquaredDistancesInto(x, c, nullptr, nullptr, out.data(), ctx);
  return out;
}

void ExpansionDistanceTile(const float* a, int m, int d, const float* yt,
                           int64_t n_total, int64_t j0, int nb,
                           const float* axsq, const float* ysq, float* out,
                           int64_t ldo, const backend::KernelBackend* be) {
  if (be == nullptr) be = &backend::Default();
  for (int r = 0; r < m; ++r) {
    std::fill(out + r * ldo, out + r * ldo + nb, 0.0f);
  }
  be->GemmRowRange(a, d, yt + j0, n_total, 1.0f, out, ldo, 0, m, d, nb);
  for (int r = 0; r < m; ++r) {
    float* row = out + r * ldo;
    const float xs = axsq[r];
    for (int q = 0; q < nb; ++q) {
      row[q] = std::max(0.0f, xs + ysq[j0 + q] - 2.0f * row[q]);
    }
  }
}

double UpdateNearestSquaredDistances(const Matrix& points, const float* center,
                                     const float* xsq, int64_t grain,
                                     double* dist2, const exec::Context* ctx) {
  const int64_t n = points.rows();
  const int d = points.cols();
  double csq_acc = 0.0;
  for (int j = 0; j < d; ++j) {
    csq_acc += static_cast<double>(center[j]) * center[j];
  }
  const float csq = static_cast<float>(csq_acc);
  const int64_t chunks = exec::Context::NumChunks(n, grain);
  std::vector<double> partial(static_cast<size_t>(chunks), 0.0);
  const backend::KernelBackend& be = backend::Resolve(ctx);
  exec::Get(ctx).ParallelForChunks(
      n, grain, [&](int64_t chunk, int64_t b, int64_t e) {
        double t = 0.0;
        for (int64_t i = b; i < e; ++i) {
          const double d2 = be.ExpansionSquaredDistance(
              points.Row(static_cast<int>(i)), center, d, xsq[i], csq);
          if (d2 < dist2[i]) dist2[i] = d2;
          t += dist2[i];
        }
        partial[static_cast<size_t>(chunk)] = t;
      });
  double total = 0.0;
  for (int64_t ch = 0; ch < chunks; ++ch) {
    total += partial[static_cast<size_t>(ch)];
  }
  return total;
}

void UpdateNearestSquaredDistancesSubset(const Matrix& points,
                                         const float* center,
                                         const std::vector<int>& rows,
                                         double* dist2) {
  const int d = points.cols();
  for (size_t t = 0; t < rows.size(); ++t) {
    dist2[t] = std::min(dist2[t],
                        DirectSquaredDistance(points.Row(rows[t]), center, d));
  }
}

void AssignedEuclideanDistancesInto(const Matrix& points,
                                    const Matrix& centers,
                                    const std::vector<int>& assignments,
                                    float* out, const exec::Context* ctx) {
  OPENIMA_CHECK_EQ(static_cast<int>(assignments.size()), points.rows());
  const int d = points.cols();
  exec::Get(ctx).ParallelFor(
      points.rows(), RowGrain(d), [&](int64_t r0, int64_t r1) {
        for (int64_t i = r0; i < r1; ++i) {
          const double s = DirectSquaredDistance(
              points.Row(static_cast<int>(i)),
              centers.Row(assignments[static_cast<size_t>(i)]), d);
          out[i] = static_cast<float>(std::sqrt(s));
        }
      });
}

}  // namespace openima::la

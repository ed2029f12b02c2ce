#include "src/cluster/silhouette.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/la/distance.h"
#include "src/la/matrix_ops.h"
#include "src/la/pool.h"
#include "src/obs/obs.h"
#include "src/util/logging.h"

namespace openima::cluster {

namespace {

// Blocked-path tile shape: kAnchorBlock anchor rows against kTileN-point
// tiles of the transposed point matrix. One tile is kAnchorBlock * kTileN
// floats (32 KB) of distances plus the B-panel the GEMM micro-kernel streams
// — both cache-resident.
constexpr int kAnchorBlock = 16;
constexpr int64_t kTileN = 512;

}  // namespace

StatusOr<double> SilhouetteCoefficient(const la::Matrix& points,
                                       const std::vector<int>& assignments,
                                       const SilhouetteOptions& options,
                                       Rng* rng) {
  const int n = points.rows();
  OPENIMA_OBS_PHASE("silhouette");
  OPENIMA_OBS_COUNT("silhouette.evaluations", 1);
  if (n == 0) return Status::InvalidArgument("no points");
  if (static_cast<int>(assignments.size()) != n) {
    return Status::InvalidArgument("assignments size mismatch");
  }
  int k = 0;
  for (int a : assignments) {
    if (a < 0) return Status::InvalidArgument("negative cluster id");
    k = std::max(k, a + 1);
  }
  if (k < 2) {
    return Status::FailedPrecondition(
        "silhouette requires at least 2 clusters");
  }
  if (options.row_sq_norms != nullptr &&
      static_cast<int>(options.row_sq_norms->size()) != n) {
    return Status::InvalidArgument("row_sq_norms size mismatch");
  }
  std::vector<int> cluster_size(static_cast<size_t>(k), 0);
  for (int a : assignments) ++cluster_size[static_cast<size_t>(a)];

  std::vector<int> anchors;
  if (options.max_samples > 0 && n > options.max_samples) {
    OPENIMA_CHECK(rng != nullptr);
    anchors = rng->SampleWithoutReplacement(n, options.max_samples);
  } else {
    anchors.resize(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) anchors[static_cast<size_t>(i)] = i;
  }

  // Anchors score independently; the total is a deterministic chunked
  // reduction (chunk layout depends only on the anchor count, per-chunk
  // partials combine in ascending chunk order).
  const int d = points.cols();
  const int64_t num_anchors = static_cast<int64_t>(anchors.size());
  const int64_t grain = exec::Context::GrainForMaxChunks(num_anchors, 16, 64);
  const int64_t chunks = exec::Context::NumChunks(num_anchors, grain);
  std::vector<double> partial(static_cast<size_t>(chunks), 0.0);
  const exec::Context& ex = exec::Get(options.exec);
  const exec::Context* ctx = options.exec;

  if (!options.use_blocked) {
    // Scalar reference path: per-pair double-precision loop.
    ex.ParallelForChunks(num_anchors, grain,
                         [&](int64_t chunk, int64_t begin, int64_t end) {
      double t = 0.0;
      std::vector<double> sum_dist(static_cast<size_t>(k));
      for (int64_t ai = begin; ai < end; ++ai) {
        const int i = anchors[static_cast<size_t>(ai)];
        const int own = assignments[static_cast<size_t>(i)];
        if (cluster_size[static_cast<size_t>(own)] <= 1) continue;  // s(i) = 0
        std::fill(sum_dist.begin(), sum_dist.end(), 0.0);
        const float* pi = points.Row(i);
        for (int j = 0; j < n; ++j) {
          if (j == i) continue;
          sum_dist[static_cast<size_t>(assignments[static_cast<size_t>(j)])] +=
              std::sqrt(la::DirectSquaredDistance(pi, points.Row(j), d));
        }
        const double a =
            sum_dist[static_cast<size_t>(own)] /
            (cluster_size[static_cast<size_t>(own)] - 1);
        double b = std::numeric_limits<double>::max();
        for (int c = 0; c < k; ++c) {
          if (c == own || cluster_size[static_cast<size_t>(c)] == 0) continue;
          b = std::min(b, sum_dist[static_cast<size_t>(c)] /
                              cluster_size[static_cast<size_t>(c)]);
        }
        if (b == std::numeric_limits<double>::max()) continue;
        t += (b - a) / std::max(a, b);
      }
      partial[static_cast<size_t>(chunk)] = t;
    });
    double total = 0.0;
    for (int64_t ch = 0; ch < chunks; ++ch) {
      total += partial[static_cast<size_t>(ch)];
    }
    return total / static_cast<double>(anchors.size());
  }

  // Blocked fast path: gather kAnchorBlock anchors, sweep the points in
  // kTileN tiles through the register-tiled expansion kernel, sqrt the float
  // tile, and bucket the distances by cluster in double. Each anchor's
  // per-cluster sums accumulate in ascending tile/point order regardless of
  // the thread partition, so the result is thread-count invariant.
  la::Matrix pt = la::Transpose(points, ctx);  // d x n
  la::PoolBuffer ysq_store;
  const float* ysq = options.row_sq_norms != nullptr
                         ? options.row_sq_norms->data()
                         : nullptr;
  if (ysq == nullptr) {
    ysq_store = la::PoolBuffer(n);
    la::RowSquaredNormsInto(points, ysq_store.data(), ctx);
    ysq = ysq_store.data();
  }
  // Per-chunk scratch carved from buffers allocated on this thread (worker
  // threads carry no pool binding).
  la::PoolBuffer tile_all(chunks * kAnchorBlock * kTileN);
  la::PoolBuffer abuf_all(chunks * static_cast<int64_t>(kAnchorBlock) * d);
  la::PoolBuffer axsq_all(chunks * kAnchorBlock);
  const la::backend::KernelBackend& kbe = la::backend::Resolve(ctx);
  ex.ParallelForChunks(num_anchors, grain,
                       [&](int64_t chunk, int64_t begin, int64_t end) {
    double t = 0.0;
    float* tile = tile_all.data() + chunk * kAnchorBlock * kTileN;
    float* abuf = abuf_all.data() + chunk * kAnchorBlock * d;
    float* axsq = axsq_all.data() + chunk * kAnchorBlock;
    std::vector<double> sum_dist(static_cast<size_t>(kAnchorBlock) * k);
    for (int64_t a0 = begin; a0 < end; a0 += kAnchorBlock) {
      const int m = static_cast<int>(std::min<int64_t>(kAnchorBlock, end - a0));
      for (int r = 0; r < m; ++r) {
        const int i = anchors[static_cast<size_t>(a0 + r)];
        const float* prow = points.Row(i);
        std::copy(prow, prow + d, abuf + r * d);
        axsq[r] = ysq[i];
      }
      std::fill(sum_dist.begin(), sum_dist.begin() + m * k, 0.0);
      for (int64_t j0 = 0; j0 < n; j0 += kTileN) {
        const int nb = static_cast<int>(std::min<int64_t>(kTileN, n - j0));
        la::ExpansionDistanceTile(abuf, m, d, pt.data(), n, j0, nb, axsq, ysq,
                                  tile, kTileN, &kbe);
        for (int r = 0; r < m; ++r) {
          const int i = anchors[static_cast<size_t>(a0 + r)];
          float* trow = tile + r * kTileN;
          // The anchor's own entry must contribute exactly 0 (the expansion
          // formula can leave a tiny positive self-distance).
          if (i >= j0 && i < j0 + nb) trow[i - j0] = 0.0f;
          for (int q = 0; q < nb; ++q) trow[q] = std::sqrt(trow[q]);
          double* srow = sum_dist.data() + r * k;
          for (int q = 0; q < nb; ++q) {
            srow[assignments[static_cast<size_t>(j0 + q)]] += trow[q];
          }
        }
      }
      for (int r = 0; r < m; ++r) {
        const int i = anchors[static_cast<size_t>(a0 + r)];
        const int own = assignments[static_cast<size_t>(i)];
        if (cluster_size[static_cast<size_t>(own)] <= 1) continue;  // s(i) = 0
        const double* srow = sum_dist.data() + r * k;
        const double a =
            srow[own] / (cluster_size[static_cast<size_t>(own)] - 1);
        double b = std::numeric_limits<double>::max();
        for (int c = 0; c < k; ++c) {
          if (c == own || cluster_size[static_cast<size_t>(c)] == 0) continue;
          b = std::min(b, srow[c] / cluster_size[static_cast<size_t>(c)]);
        }
        if (b == std::numeric_limits<double>::max()) continue;
        t += (b - a) / std::max(a, b);
      }
    }
    partial[static_cast<size_t>(chunk)] = t;
  });
  double total = 0.0;
  for (int64_t ch = 0; ch < chunks; ++ch) {
    total += partial[static_cast<size_t>(ch)];
  }
  return total / static_cast<double>(anchors.size());
}

}  // namespace openima::cluster

#include "src/cluster/constrained_kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/la/distance.h"
#include "src/la/matrix_ops.h"
#include "src/la/pool.h"
#include "src/util/logging.h"
#include "src/util/string_util.h"

namespace openima::cluster {

StatusOr<KMeansResult> ConstrainedKMeans(
    const la::Matrix& points, const std::vector<int>& labeled_nodes,
    const std::vector<int>& labeled_classes, int num_classes,
    const ConstrainedKMeansOptions& options, Rng* rng) {
  const int n = points.rows(), d = points.cols();
  const int k = options.num_clusters;
  if (n == 0 || d == 0) return Status::InvalidArgument("points empty");
  if (labeled_nodes.size() != labeled_classes.size()) {
    return Status::InvalidArgument("labeled nodes/classes size mismatch");
  }
  if (num_classes < 1 || k < num_classes || k > n) {
    return Status::InvalidArgument(
        StrFormat("need 1 <= num_classes (%d) <= num_clusters (%d) <= n (%d)",
                  num_classes, k, n));
  }

  // Pinned assignment for labeled points (-1 = free).
  std::vector<int> pinned(static_cast<size_t>(n), -1);
  for (size_t t = 0; t < labeled_nodes.size(); ++t) {
    const int v = labeled_nodes[t];
    const int c = labeled_classes[t];
    if (v < 0 || v >= n) return Status::InvalidArgument("node out of range");
    if (c < 0 || c >= num_classes) {
      return Status::InvalidArgument("class out of range");
    }
    pinned[static_cast<size_t>(v)] = c;
  }

  // Initialization: class clusters at labeled means; free clusters seeded
  // from the unlabeled points via k-means++-style D^2 sampling against the
  // class centers.
  la::Matrix centers(k, d);
  {
    std::vector<int> counts(static_cast<size_t>(num_classes), 0);
    for (size_t t = 0; t < labeled_nodes.size(); ++t) {
      const int c = labeled_classes[t];
      ++counts[static_cast<size_t>(c)];
      float* row = centers.Row(c);
      const float* p = points.Row(labeled_nodes[t]);
      for (int j = 0; j < d; ++j) row[j] += p[j];
    }
    for (int c = 0; c < num_classes; ++c) {
      if (counts[static_cast<size_t>(c)] == 0) {
        return Status::InvalidArgument(
            StrFormat("class %d has no labeled points", c));
      }
      float* row = centers.Row(c);
      const float inv = 1.0f / static_cast<float>(counts[static_cast<size_t>(c)]);
      for (int j = 0; j < d; ++j) row[j] *= inv;
    }
    std::vector<int> unlabeled;
    for (int v = 0; v < n; ++v) {
      if (pinned[static_cast<size_t>(v)] < 0) unlabeled.push_back(v);
    }
    std::vector<double> dist2(unlabeled.size(),
                              std::numeric_limits<double>::max());
    auto refresh = [&](int center_row) {
      la::UpdateNearestSquaredDistancesSubset(points, centers.Row(center_row),
                                              unlabeled, dist2.data());
    };
    for (int c = 0; c < num_classes; ++c) refresh(c);
    for (int c = num_classes; c < k; ++c) {
      double total = 0.0;
      for (double v : dist2) total += v;
      int pick;
      if (unlabeled.empty()) {
        pick = static_cast<int>(rng->UniformInt(static_cast<uint64_t>(n)));
        centers.SetRow(c, points, pick);
        continue;
      }
      if (total <= 0.0) {
        pick = unlabeled[static_cast<size_t>(
            rng->UniformInt(static_cast<uint64_t>(unlabeled.size())))];
      } else {
        double u = rng->Uniform() * total;
        pick = unlabeled.back();
        double acc = 0.0;
        for (size_t i = 0; i < unlabeled.size(); ++i) {
          acc += dist2[i];
          if (u < acc) {
            pick = unlabeled[i];
            break;
          }
        }
      }
      centers.SetRow(c, points, pick);
      refresh(c);
    }
  }

  // Constrained Lloyd iterations. Assignment + accumulation parallelize
  // over fixed point chunks; per-chunk partials (inertia, per-cluster sums
  // and counts) combine in ascending chunk order, so the result is
  // bit-identical for any thread count.
  const exec::Context& ex = exec::Get(options.exec);
  const exec::Context* ctx = &ex;
  const int64_t grain = exec::Context::GrainForMaxChunks(n, 256, 64);
  const int64_t chunks = exec::Context::NumChunks(n, grain);
  std::vector<double> inertia_partial(static_cast<size_t>(chunks), 0.0);
  std::vector<la::Matrix> sum_partial(
      static_cast<size_t>(chunks), la::Matrix(k, d));
  std::vector<std::vector<int>> count_partial(
      static_cast<size_t>(chunks), std::vector<int>(static_cast<size_t>(k)));
  // Steady-state iteration scratch, hoisted out of the loop and drawn from
  // the bound pool: point norms once, the n x k distance matrix and the
  // combined sums reused every iteration.
  la::PoolBuffer xsq(n);
  la::RowSquaredNormsInto(points, xsq.data(), ctx);
  la::PoolBuffer d2(static_cast<int64_t>(n) * k);
  la::Matrix sums(k, d);
  KMeansResult result;
  result.assignments.assign(static_cast<size_t>(n), 0);
  double prev_inertia = std::numeric_limits<double>::max();
  int iter = 0;
  for (; iter < options.max_iterations; ++iter) {
    la::PairwiseSquaredDistancesInto(points, centers, xsq.data(), nullptr,
                                     d2.data(), ctx);
    ex.ParallelForChunks(n, grain, [&](int64_t chunk, int64_t b, int64_t e) {
      double t = 0.0;
      la::Matrix& psums = sum_partial[static_cast<size_t>(chunk)];
      std::vector<int>& pcounts = count_partial[static_cast<size_t>(chunk)];
      psums.Fill(0.0f);
      std::fill(pcounts.begin(), pcounts.end(), 0);
      for (int64_t i = b; i < e; ++i) {
        int best = pinned[static_cast<size_t>(i)];
        const float* row = d2.data() + i * k;
        if (best < 0) {
          best = 0;
          for (int c = 1; c < k; ++c) {
            if (row[c] < row[best]) best = c;
          }
        }
        result.assignments[static_cast<size_t>(i)] = best;
        t += row[best];
        ++pcounts[static_cast<size_t>(best)];
        float* srow = psums.Row(best);
        const float* prow = points.Row(static_cast<int>(i));
        for (int j = 0; j < d; ++j) srow[j] += prow[j];
      }
      inertia_partial[static_cast<size_t>(chunk)] = t;
    });
    double inertia = 0.0;
    sums.Fill(0.0f);
    std::vector<int> counts(static_cast<size_t>(k), 0);
    for (int64_t ch = 0; ch < chunks; ++ch) {
      inertia += inertia_partial[static_cast<size_t>(ch)];
      const la::Matrix& psums = sum_partial[static_cast<size_t>(ch)];
      const std::vector<int>& pcounts = count_partial[static_cast<size_t>(ch)];
      for (int c = 0; c < k; ++c) {
        counts[static_cast<size_t>(c)] += pcounts[static_cast<size_t>(c)];
        float* srow = sums.Row(c);
        const float* prow = psums.Row(c);
        for (int j = 0; j < d; ++j) srow[j] += prow[j];
      }
    }
    for (int c = 0; c < k; ++c) {
      if (counts[static_cast<size_t>(c)] == 0) continue;  // keep old center
      float* crow = centers.Row(c);
      const float* srow = sums.Row(c);
      const float inv = 1.0f / static_cast<float>(counts[static_cast<size_t>(c)]);
      for (int j = 0; j < d; ++j) crow[j] = srow[j] * inv;
    }
    result.inertia = inertia;
    if (prev_inertia - inertia <= options.tol * std::max(prev_inertia, 1e-12)) {
      ++iter;
      break;
    }
    prev_inertia = inertia;
  }
  result.centers = std::move(centers);
  result.iterations = iter;
  return result;
}

}  // namespace openima::cluster

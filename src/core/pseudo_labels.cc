#include "src/core/pseudo_labels.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/la/distance.h"
#include "src/obs/obs.h"
#include "src/util/logging.h"
#include "src/util/string_util.h"

namespace openima::core {

StatusOr<PseudoLabels> GenerateBiasReducedPseudoLabels(
    const la::Matrix& embeddings, const std::vector<int>& train_nodes,
    const std::vector<int>& train_labels, int num_seen,
    const PseudoLabelOptions& options, Rng* rng) {
  const int n = embeddings.rows();
  if (train_nodes.size() != train_labels.size()) {
    return Status::InvalidArgument("train nodes/labels size mismatch");
  }
  if (options.num_clusters < num_seen) {
    return Status::InvalidArgument(
        StrFormat("num_clusters (%d) must be >= num_seen (%d)",
                  options.num_clusters, num_seen));
  }
  if (options.select_rate_pct < 0.0 || options.select_rate_pct > 100.0) {
    return Status::InvalidArgument("select_rate_pct must be in [0, 100]");
  }

  // 1. Unsupervised clustering over all nodes, warm-started from the
  //    previous refresh's centers when the caller kept them (shape-checked
  //    here so stale centers degrade to a cold start, never an error).
  const bool warm =
      options.warm_start_centers.rows() == options.num_clusters &&
      options.warm_start_centers.cols() == embeddings.cols();
  cluster::KMeansResult km;
  {
    OPENIMA_OBS_PHASE("kmeans");
    if (options.use_minibatch) {
      auto mb_options = options.minibatch;
      mb_options.num_clusters = options.num_clusters;
      if (warm) mb_options.initial_centers = options.warm_start_centers;
      auto result = cluster::MiniBatchKMeans(embeddings, mb_options, rng);
      OPENIMA_RETURN_IF_ERROR(result.status());
      km = std::move(*result);
    } else {
      auto result = RunClusterer(options.clusterer, embeddings,
                                 options.num_clusters, train_nodes,
                                 train_labels, num_seen,
                                 options.kmeans.max_iterations,
                                 options.kmeans.num_init, rng,
                                 options.kmeans.exec,
                                 warm ? &options.warm_start_centers : nullptr);
      OPENIMA_RETURN_IF_ERROR(result.status());
      km = std::move(*result);
    }
  }

  // 2. Confidence ranking: nodes closest to their centers are most reliable
  //    (double direct distance family — byte-identical values to the
  //    historical inline loop, so the stable sort is unchanged).
  std::vector<float> dist(static_cast<size_t>(n));
  la::AssignedEuclideanDistancesInto(embeddings, km.centers, km.assignments,
                                     dist.data(), options.kmeans.exec);
  std::vector<int> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return dist[static_cast<size_t>(a)] < dist[static_cast<size_t>(b)];
  });
  const int num_reliable =
      static_cast<int>(std::floor(n * options.select_rate_pct / 100.0));
  std::vector<bool> reliable(static_cast<size_t>(n), false);
  for (int i = 0; i < num_reliable; ++i) {
    reliable[static_cast<size_t>(order[static_cast<size_t>(i)])] = true;
  }

  // 3. Hungarian alignment of clusters with seen classes on labeled nodes.
  OPENIMA_OBS_PHASE("alignment");
  std::vector<int> train_clusters;
  train_clusters.reserve(train_nodes.size());
  for (int v : train_nodes) {
    if (v < 0 || v >= n) return Status::InvalidArgument("train node id out of range");
    train_clusters.push_back(km.assignments[static_cast<size_t>(v)]);
  }
  auto alignment = assign::AlignClustersWithLabels(
      train_clusters, train_labels, options.num_clusters, num_seen);
  OPENIMA_RETURN_IF_ERROR(alignment.status());

  // 4. Final pseudo labels: manual labels dominate; reliable unlabeled nodes
  //    get the aligned cluster id.
  PseudoLabels out;
  out.labels.assign(static_cast<size_t>(n), -1);
  out.alignment = std::move(*alignment);
  std::vector<int> full_pred =
      assign::ApplyAlignment(km.assignments, out.alignment, num_seen);
  std::vector<bool> is_labeled(static_cast<size_t>(n), false);
  for (size_t t = 0; t < train_nodes.size(); ++t) {
    out.labels[static_cast<size_t>(train_nodes[t])] = train_labels[t];
    is_labeled[static_cast<size_t>(train_nodes[t])] = true;
  }
  for (int i = 0; i < n; ++i) {
    if (is_labeled[static_cast<size_t>(i)] || !reliable[static_cast<size_t>(i)]) {
      continue;
    }
    out.labels[static_cast<size_t>(i)] = full_pred[static_cast<size_t>(i)];
    ++out.num_pseudo_labeled;
  }
  out.cluster_assignments = std::move(km.assignments);
  out.centers = std::move(km.centers);
  return out;
}

}  // namespace openima::core

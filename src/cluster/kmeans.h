#ifndef OPENIMA_CLUSTER_KMEANS_H_
#define OPENIMA_CLUSTER_KMEANS_H_

#include <vector>

#include "src/exec/context.h"
#include "src/la/matrix.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace openima::cluster {

/// Options for Lloyd's K-Means with k-means++ seeding (Arthur &
/// Vassilvitskii, SODA 2007 — the paper's reference [32]).
struct KMeansOptions {
  int num_clusters = 2;
  int max_iterations = 100;
  /// Converged when the relative inertia improvement drops below this.
  double tol = 1e-4;
  /// Independent restarts; the result with the lowest inertia wins.
  int num_init = 1;
  /// k-means++ D^2 seeding (true) vs uniform random seeding (false).
  bool kmeanspp = true;

  /// Spherical K-Means: centers are re-normalized to unit length after
  /// every update step, so assignment becomes cosine similarity for
  /// L2-normalized inputs (callers should pass normalized points).
  bool spherical = false;

  /// Warm start: when non-empty (must be num_clusters x dim), Lloyd runs
  /// once from these centers — no k-means++ seeding and no restarts.
  /// Callers that re-cluster slowly drifting data (the pseudo-label refresh)
  /// seed from the previous solution and converge in a few iterations.
  la::Matrix initial_centers;

  /// Triangle-inequality accelerated Lloyd (Hamerly-style per-point lower
  /// bounds maintained from per-iteration center drift, exact recompute on
  /// bound failure). Assignments, inertia, centers and iteration counts are
  /// bit-identical to the plain path — the parity suite enforces it — so
  /// this is purely a speed knob; `false` exists for benchmarking and for
  /// the parity tests themselves.
  bool accelerated = true;

  /// Optional precomputed per-point squared L2 norms (size = points.rows(),
  /// borrowed — must outlive the call). The novel-count k-sweep computes
  /// them once and shares them across every k; when null they are computed
  /// internally into pooled scratch.
  const std::vector<float>* row_sq_norms = nullptr;

  /// Execution context (nullptr = process default). All reductions are
  /// deterministic chunked combines, so results are bit-identical for any
  /// thread count.
  const exec::Context* exec = nullptr;
};

/// Clustering result.
struct KMeansResult {
  la::Matrix centers;            ///< num_clusters x dim
  std::vector<int> assignments;  ///< per point, in [0, num_clusters)
  double inertia = 0.0;          ///< sum of squared distances to centers
  int iterations = 0;            ///< Lloyd iterations of the winning run
  /// Accelerated-path instrumentation: points whose k-1 non-assigned
  /// distance evaluations were pruned by the lower bound vs points that
  /// fell back to an exact row scan (zero when accelerated = false).
  int64_t bound_prunes = 0;
  int64_t bound_failures = 0;
};

/// Full-batch Lloyd K-Means. Empty clusters are re-seeded with the point
/// farthest from its current center. Deterministic in (points, options, rng
/// state).
StatusOr<KMeansResult> KMeans(const la::Matrix& points,
                              const KMeansOptions& options, Rng* rng);

/// Options for mini-batch K-Means (Sculley, WWW 2010 — the paper's [66]),
/// used for the ogbn-scale graphs.
struct MiniBatchKMeansOptions {
  int num_clusters = 2;
  int batch_size = 1024;
  int max_iterations = 100;  ///< number of mini-batch steps
  bool kmeanspp = true;      ///< seed from a sample with k-means++

  /// Warm start: when non-empty (num_clusters x dim), the online phase
  /// continues from these centers instead of seeding from a sample.
  la::Matrix initial_centers;

  /// Execution context (nullptr = process default); the sequential online
  /// updates keep their order, only assignments/inertia parallelize.
  const exec::Context* exec = nullptr;
};

/// Mini-batch K-Means with per-center learning rates 1/count. The online
/// phase ends with one full assignment pass, which gives the labels and the
/// inertia.
StatusOr<KMeansResult> MiniBatchKMeans(const la::Matrix& points,
                                       const MiniBatchKMeansOptions& options,
                                       Rng* rng);

/// Assigns each point to its nearest center (used to re-predict with fixed
/// centers). Returns per-point cluster ids.
std::vector<int> AssignToNearest(const la::Matrix& points,
                                 const la::Matrix& centers,
                                 const exec::Context* ctx = nullptr);

/// Sum of squared distances of points to their assigned centers
/// (deterministic chunked reduction).
double Inertia(const la::Matrix& points, const la::Matrix& centers,
               const std::vector<int>& assignments,
               const exec::Context* ctx = nullptr);

}  // namespace openima::cluster

#endif  // OPENIMA_CLUSTER_KMEANS_H_

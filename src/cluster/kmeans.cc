#include "src/cluster/kmeans.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <limits>

#include "src/la/distance.h"
#include "src/la/matrix_ops.h"
#include "src/la/pool.h"
#include "src/obs/obs.h"
#include "src/util/logging.h"
#include "src/util/string_util.h"

namespace openima::cluster {

namespace {

using exec::Context;

/// Grain for chunked reductions over points: depends only on n (never the
/// thread count) and caps per-chunk accumulator memory at 64 chunks.
int64_t ReduceGrain(int64_t n) {
  return Context::GrainForMaxChunks(n, 256, 64);
}

/// k-means++ D^2 seeding over `points`. The rng-driven picks stay strictly
/// sequential; the per-center distance refresh runs through the shared
/// float expansion kernel (vectorized, deterministic ascending chunk
/// combine). `row_sq_norms` optionally supplies precomputed point squared
/// norms; nullptr computes them into pooled scratch.
la::Matrix KMeansPlusPlusSeed(const la::Matrix& points, int k, Rng* rng,
                              const float* row_sq_norms, const Context& ex) {
  const int n = points.rows();
  la::Matrix centers(k, points.cols());
  const int first = static_cast<int>(rng->UniformInt(static_cast<uint64_t>(n)));
  centers.SetRow(0, points, first);
  la::PoolBuffer xsq_buf;
  if (row_sq_norms == nullptr) {
    xsq_buf = la::PoolBuffer(n);
    la::RowSquaredNormsInto(points, xsq_buf.data(), &ex);
    row_sq_norms = xsq_buf.data();
  }
  std::vector<double> dist2(static_cast<size_t>(n),
                            std::numeric_limits<double>::max());
  const int64_t grain = ReduceGrain(n);
  for (int c = 1; c < k; ++c) {
    // Update nearest-center distances with the last added center.
    const double total = la::UpdateNearestSquaredDistances(
        points, centers.Row(c - 1), row_sq_norms, grain, dist2.data(), &ex);
    int pick;
    if (total <= 0.0) {
      pick = static_cast<int>(rng->UniformInt(static_cast<uint64_t>(n)));
    } else {
      double u = rng->Uniform() * total;
      pick = n - 1;
      double acc = 0.0;
      for (int i = 0; i < n; ++i) {
        acc += dist2[static_cast<size_t>(i)];
        if (u < acc) {
          pick = i;
          break;
        }
      }
    }
    centers.SetRow(c, points, pick);
  }
  return centers;
}

la::Matrix UniformSeed(const la::Matrix& points, int k, Rng* rng) {
  la::Matrix centers(k, points.cols());
  std::vector<int> picks = rng->SampleWithoutReplacement(points.rows(), k);
  for (int c = 0; c < k; ++c) centers.SetRow(c, points, picks[static_cast<size_t>(c)]);
  return centers;
}

/// Nearest-center assignment into an existing vector, with optionally
/// precomputed point squared norms and pooled scratch for the n x k matrix.
void AssignToNearestInto(const la::Matrix& points, const la::Matrix& centers,
                         const float* xsq, std::vector<int>* out,
                         const Context* ctx) {
  const int64_t n = points.rows();
  const int k = centers.rows();
  la::PoolBuffer d2(n * k);
  la::PairwiseSquaredDistancesInto(points, centers, xsq, nullptr, d2.data(),
                                   ctx);
  out->resize(static_cast<size_t>(n));
  exec::Get(ctx).ParallelFor(n, ReduceGrain(n), [&](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      const float* row = d2.data() + i * k;
      int best = 0;
      for (int c = 1; c < k; ++c) {
        if (row[c] < row[best]) best = c;
      }
      (*out)[static_cast<size_t>(i)] = best;
    }
  });
}

/// One Lloyd run's knobs (subset of KMeansOptions that the inner loop sees).
struct LloydConfig {
  int max_iterations;
  double tol;
  bool spherical;
  bool accelerated;
  const float* row_sq_norms;  // optional precomputed ||x_i||^2, size n
};

/// One Lloyd run from the given initial centers. Assignment and center
/// accumulation parallelize with deterministic chunked reductions: chunk
/// boundaries depend only on n, per-chunk partial sums/counts combine in
/// ascending chunk order — bit-identical for any thread count.
///
/// With cfg.accelerated, iterations after the first replace the full n x k
/// distance matrix with a Hamerly-style bounded pass (see DESIGN.md §2.3).
/// Per point we keep a lower bound on the Euclidean distance to every
/// *non-assigned* center, decayed each iteration by the largest center
/// drift. The pass always recomputes the exact assigned-center distance f_a
/// (through the same single-instance primitive the full matrix uses, so the
/// bits match), then prunes the other k-1 distance evaluations when
///
///     lb^2 - err > f_a,   err = eps * (d + 16) * (||x||^2 + max_c ||c||^2)
///
/// `err` dominates the worst-case rounding of the expansion formula, so a
/// successful prune proves every other computed distance would be strictly
/// larger than f_a — the plain argmin (including its lowest-index tie-break;
/// ties can never satisfy the strict inequality) must keep the current
/// assignment. On bound failure the full row is recomputed exactly as the
/// matrix pass would. Assignments, inertia, centers and iteration counts are
/// therefore bit-identical to the plain path; the parity suite
/// (tests/cluster_parity_test.cc) enforces this.
KMeansResult LloydRun(const la::Matrix& points, la::Matrix centers,
                      const LloydConfig& cfg, const Context& ex) {
  const int n = points.rows(), d = points.cols(), k = centers.rows();
  const Context* ctx = &ex;
  // One backend instance for the whole run: the full-matrix pass, the
  // bounded upper-bound checks, and the rescans must all execute the same
  // compiled ExpansionSquaredDistance for the pruning proof to hold.
  const la::backend::KernelBackend& kbe = la::backend::Resolve(ctx);
  KMeansResult result;
  result.assignments.assign(static_cast<size_t>(n), 0);
  const int64_t grain = ReduceGrain(n);
  const int64_t chunks = Context::NumChunks(n, grain);
  std::vector<double> inertia_partial(static_cast<size_t>(chunks), 0.0);
  la::Matrix sums(k, d);
  std::vector<la::Matrix> sum_partial(
      static_cast<size_t>(chunks), la::Matrix(k, d));
  std::vector<std::vector<int>> count_partial(
      static_cast<size_t>(chunks), std::vector<int>(static_cast<size_t>(k)));

  // All float scratch is drawn from the pool bound to this thread (worker
  // threads inside ParallelFor carry no pool binding, so per-chunk slices
  // are carved out of buffers allocated here).
  la::PoolBuffer xsq_store;
  const float* xsq = cfg.row_sq_norms;
  if (xsq == nullptr) {
    xsq_store = la::PoolBuffer(n);
    la::RowSquaredNormsInto(points, xsq_store.data(), ctx);
    xsq = xsq_store.data();
  }
  la::PoolBuffer csq(k);
  la::PoolBuffer assigned_d2(n);
  la::PoolBuffer d2(static_cast<int64_t>(n) * k);
  la::PoolBuffer lower, scan;
  la::Matrix old_centers;
  std::vector<int64_t> prune_partial, fail_partial;
  if (cfg.accelerated) {
    lower = la::PoolBuffer(n);
    scan = la::PoolBuffer(chunks * k);
    old_centers = la::Matrix(k, d);
    prune_partial.assign(static_cast<size_t>(chunks), 0);
    fail_partial.assign(static_cast<size_t>(chunks), 0);
  }
  // Rounding margins of the pruning test. err_scale bounds the absolute
  // error of the float expansion formula relative to exact arithmetic
  // (~eps * (d/2 + 4) * (||x||^2 + ||c||^2), doubled for safety);
  // lb_shrink/drift inflation absorb the sqrt and subtraction roundings in
  // the bound maintenance itself.
  const double err_scale = static_cast<double>(FLT_EPSILON) * (d + 16);
  const float lb_shrink = 1.0f - 4.0f * FLT_EPSILON;
  float max_drift = 0.0f;
  bool have_bounds = false;

  const float kInf = std::numeric_limits<float>::infinity();
  double prev_inertia = std::numeric_limits<double>::max();
  int iter = 0;
  for (; iter < cfg.max_iterations; ++iter) {
    la::RowSquaredNormsInto(centers, csq.data(), ctx);
    float max_csq = 0.0f;
    for (int c = 0; c < k; ++c) max_csq = std::max(max_csq, csq[c]);

    const bool bounded = cfg.accelerated && have_bounds;
    if (!bounded) {
      // Full assignment matrix: per-point argmin (disjoint writes) fused
      // with chunked inertia + center accumulation.
      la::PairwiseSquaredDistancesInto(points, centers, xsq, csq.data(),
                                       d2.data(), ctx);
      ex.ParallelForChunks(n, grain, [&](int64_t chunk, int64_t b, int64_t e) {
        double t = 0.0;
        la::Matrix& psums = sum_partial[static_cast<size_t>(chunk)];
        std::vector<int>& pcounts = count_partial[static_cast<size_t>(chunk)];
        psums.Fill(0.0f);
        std::fill(pcounts.begin(), pcounts.end(), 0);
        for (int64_t i = b; i < e; ++i) {
          const float* row = d2.data() + i * k;
          int best = 0;
          float fb = row[0];
          float second = kInf;
          for (int c = 1; c < k; ++c) {
            if (row[c] < fb) {
              second = fb;
              fb = row[c];
              best = c;
            } else if (row[c] < second) {
              second = row[c];
            }
          }
          result.assignments[static_cast<size_t>(i)] = best;
          assigned_d2[i] = fb;
          t += fb;
          if (cfg.accelerated) {
            const double err = err_scale * (static_cast<double>(xsq[i]) + max_csq);
            const double lb2 = static_cast<double>(second) - err;
            lower[i] = lb2 > 0.0
                           ? static_cast<float>(std::sqrt(lb2)) * lb_shrink
                           : 0.0f;
          }
          // Update-step accumulation fused into the same chunk pass.
          ++pcounts[static_cast<size_t>(best)];
          float* srow = psums.Row(best);
          const float* prow = points.Row(static_cast<int>(i));
          for (int j = 0; j < d; ++j) srow[j] += prow[j];
        }
        inertia_partial[static_cast<size_t>(chunk)] = t;
      });
      have_bounds = cfg.accelerated;
    } else {
      // Bounded pass: exact assigned distance, pruned or exact row scan.
      ex.ParallelForChunks(n, grain, [&](int64_t chunk, int64_t b, int64_t e) {
        double t = 0.0;
        la::Matrix& psums = sum_partial[static_cast<size_t>(chunk)];
        std::vector<int>& pcounts = count_partial[static_cast<size_t>(chunk)];
        psums.Fill(0.0f);
        std::fill(pcounts.begin(), pcounts.end(), 0);
        float* row = scan.data() + chunk * k;
        int64_t prunes = 0, fails = 0;
        for (int64_t i = b; i < e; ++i) {
          const float* pi = points.Row(static_cast<int>(i));
          int best = result.assignments[static_cast<size_t>(i)];
          const float fa = kbe.ExpansionSquaredDistance(pi, centers.Row(best),
                                                        d, xsq[i], csq[best]);
          const double err = err_scale * (static_cast<double>(xsq[i]) + max_csq);
          float lb = lower[i] - max_drift;
          lb = lb > 0.0f ? lb * lb_shrink : 0.0f;
          float fb = fa;
          if (static_cast<double>(lb) * lb - err > fa) {
            lower[i] = lb;
            ++prunes;
          } else {
            for (int c = 0; c < k; ++c) {
              row[c] = kbe.ExpansionSquaredDistance(pi, centers.Row(c), d,
                                                    xsq[i], csq[c]);
            }
            best = 0;
            fb = row[0];
            float second = kInf;
            for (int c = 1; c < k; ++c) {
              if (row[c] < fb) {
                second = fb;
                fb = row[c];
                best = c;
              } else if (row[c] < second) {
                second = row[c];
              }
            }
            result.assignments[static_cast<size_t>(i)] = best;
            const double lb2 = static_cast<double>(second) - err;
            lower[i] = lb2 > 0.0
                           ? static_cast<float>(std::sqrt(lb2)) * lb_shrink
                           : 0.0f;
            ++fails;
          }
          assigned_d2[i] = fb;
          t += fb;
          ++pcounts[static_cast<size_t>(best)];
          float* srow = psums.Row(best);
          for (int j = 0; j < d; ++j) srow[j] += pi[j];
        }
        inertia_partial[static_cast<size_t>(chunk)] = t;
        prune_partial[static_cast<size_t>(chunk)] = prunes;
        fail_partial[static_cast<size_t>(chunk)] = fails;
      });
    }
    // Ordered combine of the chunk partials.
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
    if (bounded) {
      for (int64_t ch = 0; ch < chunks; ++ch) {
        result.bound_prunes += prune_partial[static_cast<size_t>(ch)];
        result.bound_failures += fail_partial[static_cast<size_t>(ch)];
      }
    }
    // Snapshot the centers the bounds refer to: the coming update (empty-
    // cluster reseeds included) is what the next iteration's drift decay
    // must cover.
    if (cfg.accelerated) {
      std::copy(centers.data(), centers.data() + centers.size(),
                old_centers.data());
    }
    // Update step.
    for (int c = 0; c < k; ++c) {
      if (counts[static_cast<size_t>(c)] == 0) {
        // Re-seed an empty cluster with the point farthest from its center.
        int farthest = 0;
        double best = -1.0;
        for (int i = 0; i < n; ++i) {
          const double dd = assigned_d2[i];
          if (dd > best) {
            best = dd;
            farthest = i;
          }
        }
        centers.SetRow(c, points, farthest);
        continue;
      }
      float* crow = centers.Row(c);
      const float* srow = sums.Row(c);
      const float inv = 1.0f / static_cast<float>(counts[static_cast<size_t>(c)]);
      for (int j = 0; j < d; ++j) crow[j] = srow[j] * inv;
    }
    if (cfg.spherical) la::RowL2NormalizeInPlace(&centers, 1e-12f, ctx);
    if (cfg.accelerated) {
      double maxd2 = 0.0;
      for (int c = 0; c < k; ++c) {
        maxd2 = std::max(maxd2, la::DirectSquaredDistance(
                                    old_centers.Row(c), centers.Row(c), d));
      }
      max_drift = static_cast<float>(std::sqrt(maxd2)) *
                  (1.0f + 8.0f * FLT_EPSILON);
    }
    result.inertia = inertia;
    if (prev_inertia - inertia <= cfg.tol * std::max(prev_inertia, 1e-12)) {
      ++iter;
      break;
    }
    prev_inertia = inertia;
  }
  // Final assignment against the final centers.
  AssignToNearestInto(points, centers, xsq, &result.assignments, ctx);
  result.inertia = Inertia(points, centers, result.assignments, ctx);
  result.centers = std::move(centers);
  result.iterations = iter;
  return result;
}

Status ValidateCommon(const la::Matrix& points, int k) {
  if (points.rows() == 0 || points.cols() == 0) {
    return Status::InvalidArgument("points must be non-empty");
  }
  if (k < 1 || k > points.rows()) {
    return Status::InvalidArgument(
        StrFormat("num_clusters=%d must be in [1, num_points=%d]", k,
                  points.rows()));
  }
  return Status::OK();
}

}  // namespace

std::vector<int> AssignToNearest(const la::Matrix& points,
                                 const la::Matrix& centers,
                                 const Context* ctx) {
  std::vector<int> out;
  AssignToNearestInto(points, centers, nullptr, &out, ctx);
  return out;
}

double Inertia(const la::Matrix& points, const la::Matrix& centers,
               const std::vector<int>& assignments, const Context* ctx) {
  OPENIMA_CHECK_EQ(static_cast<int>(assignments.size()), points.rows());
  const int64_t n = points.rows();
  const int64_t grain = ReduceGrain(n);
  const int64_t chunks = Context::NumChunks(n, grain);
  std::vector<double> partial(static_cast<size_t>(chunks), 0.0);
  exec::Get(ctx).ParallelForChunks(
      n, grain, [&](int64_t chunk, int64_t b, int64_t e) {
        double t = 0.0;
        for (int64_t i = b; i < e; ++i) {
          t += la::DirectSquaredDistance(
              points.Row(static_cast<int>(i)),
              centers.Row(assignments[static_cast<size_t>(i)]), points.cols());
        }
        partial[static_cast<size_t>(chunk)] = t;
      });
  double total = 0.0;
  for (int64_t ch = 0; ch < chunks; ++ch) {
    total += partial[static_cast<size_t>(ch)];
  }
  return total;
}

StatusOr<KMeansResult> KMeans(const la::Matrix& points,
                              const KMeansOptions& options, Rng* rng) {
  OPENIMA_RETURN_IF_ERROR(ValidateCommon(points, options.num_clusters));
  if (options.num_init < 1 || options.max_iterations < 1) {
    return Status::InvalidArgument("num_init and max_iterations must be >= 1");
  }
  if (options.row_sq_norms != nullptr &&
      static_cast<int>(options.row_sq_norms->size()) != points.rows()) {
    return Status::InvalidArgument(
        StrFormat("row_sq_norms must have %d entries, got %zu", points.rows(),
                  options.row_sq_norms->size()));
  }
  const Context& ex = exec::Get(options.exec);
  // Span + counters: where inference time goes (DESIGN.md §2.3/§2.4) and
  // whether the triangle-inequality pruning is actually firing.
  OPENIMA_OBS_PHASE("lloyd");
  const auto record_obs = [](const KMeansResult& r) {
    OPENIMA_OBS_COUNT("kmeans.runs", 1);
    OPENIMA_OBS_COUNT("kmeans.iterations", r.iterations);
    OPENIMA_OBS_COUNT("kmeans.bound_prunes", r.bound_prunes);
    OPENIMA_OBS_COUNT("kmeans.bound_failures", r.bound_failures);
  };
  const LloydConfig cfg{
      options.max_iterations, options.tol, options.spherical,
      options.accelerated,
      options.row_sq_norms != nullptr ? options.row_sq_norms->data() : nullptr};
  if (!options.initial_centers.empty()) {
    // Warm start: one Lloyd run from the caller's centers (no seeding, no
    // restarts — restarts from the same centers would be identical anyway).
    if (options.initial_centers.rows() != options.num_clusters ||
        options.initial_centers.cols() != points.cols()) {
      return Status::InvalidArgument(
          StrFormat("initial_centers must be %d x %d, got %d x %d",
                    options.num_clusters, points.cols(),
                    options.initial_centers.rows(),
                    options.initial_centers.cols()));
    }
    KMeansResult result = LloydRun(points, options.initial_centers, cfg, ex);
    record_obs(result);
    return result;
  }
  KMeansResult best;
  best.inertia = std::numeric_limits<double>::max();
  for (int run = 0; run < options.num_init; ++run) {
    la::Matrix init =
        options.kmeanspp
            ? KMeansPlusPlusSeed(points, options.num_clusters, rng,
                                 cfg.row_sq_norms, ex)
            : UniformSeed(points, options.num_clusters, rng);
    KMeansResult result = LloydRun(points, std::move(init), cfg, ex);
    if (result.inertia < best.inertia) best = std::move(result);
  }
  record_obs(best);
  return best;
}

StatusOr<KMeansResult> MiniBatchKMeans(const la::Matrix& points,
                                       const MiniBatchKMeansOptions& options,
                                       Rng* rng) {
  OPENIMA_RETURN_IF_ERROR(ValidateCommon(points, options.num_clusters));
  if (options.batch_size < 1 || options.max_iterations < 1) {
    return Status::InvalidArgument(
        "batch_size and max_iterations must be >= 1");
  }
  const Context& ex = exec::Get(options.exec);
  const Context* ctx = &ex;
  OPENIMA_OBS_PHASE("minibatch_kmeans");
  OPENIMA_OBS_COUNT("kmeans.minibatch_runs", 1);
  const int n = points.rows(), d = points.cols(), k = options.num_clusters;
  const int b = std::min(options.batch_size, n);

  // Seed from a random sample (capped) for speed, or continue from the
  // caller's centers when warm-starting.
  la::Matrix centers;
  if (!options.initial_centers.empty()) {
    if (options.initial_centers.rows() != k ||
        options.initial_centers.cols() != d) {
      return Status::InvalidArgument(
          StrFormat("initial_centers must be %d x %d, got %d x %d", k, d,
                    options.initial_centers.rows(),
                    options.initial_centers.cols()));
    }
    centers = options.initial_centers;
  } else {
    const int sample = std::min(n, std::max(10 * k, b));
    std::vector<int> idx = rng->SampleWithoutReplacement(n, sample);
    la::Matrix sub = la::GatherRows(points, idx, ctx);
    centers = options.kmeanspp ? KMeansPlusPlusSeed(sub, k, rng, nullptr, ex)
                               : UniformSeed(sub, k, rng);
  }

  // The online updates are order-dependent (per-center learning rates), so
  // they stay sequential; only the batch assignment parallelizes (through
  // the shared pairwise kernel — pooled scratch, no scalar per-point loop).
  std::vector<int64_t> counts(static_cast<size_t>(k), 0);
  std::vector<int> assign;
  for (int step = 0; step < options.max_iterations; ++step) {
    std::vector<int> batch = rng->SampleWithoutReplacement(n, b);
    la::Matrix sub = la::GatherRows(points, batch, ctx);
    AssignToNearestInto(sub, centers, nullptr, &assign, ctx);
    for (int i = 0; i < b; ++i) {
      const int c = assign[static_cast<size_t>(i)];
      const float lr =
          1.0f / static_cast<float>(++counts[static_cast<size_t>(c)]);
      float* crow = centers.Row(c);
      const float* prow = sub.Row(i);
      for (int j = 0; j < d; ++j) {
        crow[j] += lr * (prow[j] - crow[j]);
      }
    }
  }

  KMeansResult result;
  result.iterations = options.max_iterations;
  result.assignments = AssignToNearest(points, centers, ctx);
  result.inertia = Inertia(points, centers, result.assignments, ctx);
  result.centers = std::move(centers);
  return result;
}

}  // namespace openima::cluster

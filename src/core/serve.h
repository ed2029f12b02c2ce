#ifndef OPENIMA_CORE_SERVE_H_
#define OPENIMA_CORE_SERVE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/encoder_with_head.h"
#include "src/exec/context.h"
#include "src/graph/dataset.h"
#include "src/graph/sampler.h"
#include "src/la/matrix.h"
#include "src/obs/drift.h"
#include "src/util/status.h"

/// Frozen-model open-world inference (SERVING.md): a training checkpoint
/// (src/io/checkpoint.h) loaded once, then batched classify-node queries
/// answered through the trained encoder and the checkpointed K-Means
/// centers + Hungarian alignment — the same two-stage rule Predict() uses,
/// but per-request over sampled neighborhoods instead of a full-graph
/// forward. `openima_serve` drives this from the command line.
namespace openima::core {

/// Inference configuration.
struct ServeOptions {
  /// Per-layer neighbor fanout of the query block (0 = exhaustive: the full
  /// 2-hop neighborhood — exact eval-mode embeddings, the default; > 0
  /// trades exactness for bounded block size on high-degree graphs).
  int sample_fanout = 0;

  /// Execution context for the service-level kernels (nullptr = process
  /// default). Sessions run their own single-threaded contexts regardless —
  /// concurrency comes from running many sessions, not from intra-request
  /// threading.
  const exec::Context* exec = nullptr;

  /// Online drift monitoring over classified traffic (policy kOff, the
  /// default, disables it — see obs::DriftMonitorOptions /
  /// obs::DriftOptionsFromEnv for the OPENIMA_DRIFT knobs). Shared by all
  /// sessions of the service; under kAbort every Classify() surfaces the
  /// trip as an error once drift is detected.
  obs::DriftMonitorOptions drift;
};

/// One classified node.
struct ClassifyResult {
  int class_id = -1;    ///< seen ids in [0, num_seen); novel ids >= num_seen
  bool is_novel = false;
  int cluster = -1;     ///< raw nearest-center cluster id
  float distance2 = 0.0f;  ///< squared distance to the nearest center
  float margin = 0.0f;  ///< runner-up distance2 minus distance2 (confidence)
};

class InferenceSession;

/// A frozen OpenIMA model behind a classify API. Load() reads the
/// checkpoint's meta/params/kmeans/alignment sections, rebuilds the encoder
/// geometry, and precomputes the cluster -> final-class table (seen classes
/// via the Hungarian alignment, leftover clusters numbered as novel classes
/// in cluster-id order — exactly Predict()'s rule). The service itself is
/// immutable after Load(); each driver thread makes its own
/// InferenceSession, which owns the mutable per-request state (sampler
/// workspace, a model replica, a single-threaded exec context), so any
/// number of sessions classify concurrently with bit-identical results.
class InferenceService {
 public:
  /// `dataset` must outlive the service and match the checkpoint's feature
  /// dimension; its labels are never read. Errors on a corrupt checkpoint,
  /// a geometry mismatch, or a checkpoint saved before the first
  /// pseudo-label refresh (no centers to classify against).
  static StatusOr<std::unique_ptr<InferenceService>> Load(
      const std::string& checkpoint_path, const graph::Dataset* dataset,
      const ServeOptions& options);

  std::unique_ptr<InferenceSession> NewSession() const;

  int num_seen() const { return num_seen_; }
  int num_clusters() const { return centers_.rows(); }
  int epochs_done() const { return epochs_done_; }
  const la::Matrix& centers() const { return centers_; }

  /// Cluster id -> final open-world class id (size num_clusters()).
  const std::vector<int>& cluster_to_final_class() const {
    return cluster_final_class_;
  }

  /// The shared drift monitor, or nullptr when disabled (policy kOff or
  /// OPENIMA_OBS=OFF). Sessions feed it per classified node.
  obs::DriftMonitor* drift_monitor() const { return drift_.get(); }

 private:
  friend class InferenceSession;
  InferenceService() = default;

  const graph::Dataset* dataset_ = nullptr;
  ServeOptions options_;
  nn::GatEncoderConfig encoder_config_;
  int num_seen_ = 0;
  int num_novel_ = 0;
  int epochs_done_ = 0;
  std::vector<la::Matrix> weights_;  ///< checkpointed parameter tensors
  la::Matrix centers_;               ///< K-Means centers (unit-sphere space)
  std::vector<int> cluster_final_class_;
  std::unique_ptr<obs::DriftMonitor> drift_;
};

/// Per-thread classify handle (one per driver thread; an instance is
/// single-threaded because the sampler workspace is reused across calls).
class InferenceSession {
 public:
  /// Classifies a batch of distinct node ids. `tag` keys the sampler's
  /// counter-based draws (any scheme works; requests with the same tag and
  /// nodes get bit-identical answers — with fanout 0 the tag is irrelevant).
  /// `out` is resized to nodes.size(), row i answering nodes[i]. Phases
  /// "serve_sample" / "serve_gather" / "serve_forward" / "serve_distance"
  /// are recorded into the obs registry per request.
  Status Classify(const std::vector<int>& nodes, uint64_t tag,
                  std::vector<ClassifyResult>* out);

 private:
  friend class InferenceService;
  explicit InferenceSession(const InferenceService* service);

  const InferenceService* service_;
  exec::Context ctx_{1};
  std::unique_ptr<EncoderWithHead> model_;  ///< session-private replica
  std::unique_ptr<graph::NeighborSampler> sampler_;
  std::vector<char> seen_;  ///< duplicate-id scratch, |V| entries
};

}  // namespace openima::core

#endif  // OPENIMA_CORE_SERVE_H_

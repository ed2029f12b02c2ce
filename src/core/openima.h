#ifndef OPENIMA_CORE_OPENIMA_H_
#define OPENIMA_CORE_OPENIMA_H_

#include <memory>
#include <string>
#include <vector>

#include "src/autograd/tape.h"
#include "src/core/clusterer.h"
#include "src/core/encoder_with_head.h"
#include "src/core/pseudo_labels.h"
#include "src/graph/dataset.h"
#include "src/graph/sampler.h"
#include "src/graph/splits.h"
#include "src/la/pool.h"
#include "src/nn/adam.h"
#include "src/obs/json.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace openima::core {

/// Full configuration of OpenIMA (Eq. 6: L = L_BPCL + eta * L_CE) and its
/// ablations. The loss-component switches reproduce every row of the
/// paper's Table V; disabling pseudo labels and/or manual-label positives
/// also yields the two-stage CL baselines (InfoNCE ladder).
struct OpenImaConfig {
  nn::GatEncoderConfig encoder;

  int num_seen = 1;   ///< |C_l|
  int num_novel = 1;  ///< |C_n| (a hyper-parameter when unknown, §V-E)

  // §VII hyper-parameters.
  float eta = 1.0f;              ///< CE scaling factor
  float tau = 0.7f;              ///< contrastive temperature (finite, > 0)
  double rho_pct = 75.0;         ///< pseudo-label selection rate (%)
  float lr = 1e-3f;
  float weight_decay = 1e-4f;
  int epochs = 20;
  int batch_size = 2048;         ///< contrastive batch Nb (nodes per block)

  // Loss-component switches (Table V ablations).
  bool use_bpcl_emb = true;
  bool use_bpcl_logit = true;
  bool use_ce = true;
  bool use_pseudo_labels = true;     ///< false = "ours w/o PL"
  bool use_manual_positives = true;  ///< false + no PL/CE = pure InfoNCE

  // Large-graph refinements (§V-B observation 7).
  bool large_graph_mode = false;
  float pairwise_loss_weight = 0.5f;  ///< pairwise BCE weight in large mode

  /// In large-graph mode, predict with the classification head (the paper's
  /// refinement) vs mini-batch K-Means + alignment. Head prediction needs a
  /// well-trained head; K-Means is the robust fallback.
  bool large_graph_head_predict = true;

  /// Regenerate pseudo labels every this many epochs.
  int pseudo_refresh_every = 1;

  /// Epochs trained with manual labels only before pseudo-labeling starts —
  /// K-Means over randomly initialized embeddings yields noise.
  int pseudo_warmup_epochs = 2;

  // Neighbor-sampled minibatch training (GraphSAGE-style blocks). Makes an
  // epoch cost O(batch * fanout^depth) instead of O(n * E) — the mode that
  // trains unscaled ogbn-sized graphs with bounded memory. Pseudo-label
  // refreshes still run full eval-mode embeddings through mini-batch
  // K-Means (the paper's large-graph recipe); only the gradient steps are
  // sampled. Requires an encoder with SupportsSampled() (GAT).
  bool sampled_training = false;

  /// Per-layer neighbor fanout; 0 keeps the full 1-hop neighborhood of
  /// every destination (exhaustive — sampled structure, exact
  /// neighborhoods).
  int sample_fanout = 10;

  /// Seed nodes per sampled minibatch (one optimizer step per round of
  /// max(1, workers) microbatches).
  int batch_nodes = 1024;

  /// Route training-step storage (matrices, graph nodes, kernel scratch)
  /// through the model's memory arena: the first epoch populates the pool,
  /// every later epoch recycles it, making steady-state epochs
  /// (near-)allocation-free. Results are bit-identical with or without the
  /// pool — storage origin never changes kernel semantics. Off exists for
  /// benchmarking the allocator against the plain heap path.
  bool use_memory_pool = true;

  /// Clustering algorithm used by pseudo-labeling and two-stage prediction
  /// (full-batch modes only; large-graph mode always uses mini-batch
  /// K-Means).
  ClustererKind clusterer = ClustererKind::kKMeans;

  /// K-Means settings for pseudo-labeling and two-stage prediction.
  int kmeans_max_iterations = 50;
  int kmeans_num_init = 1;
  int minibatch_kmeans_batch = 1024;
  int minibatch_kmeans_iterations = 60;

  /// Execution context threaded through the encoder, losses, clustering and
  /// pseudo-labeling (nullptr = process default). Propagated into
  /// `encoder.exec` when that is unset. Every parallel reduction downstream
  /// is deterministic, so training/prediction are bit-identical for any
  /// thread count. Must outlive the model.
  const exec::Context* exec = nullptr;

  // Deterministic data-parallel training (DESIGN.md §2.8). A sampled epoch
  // runs as rounds of max(1, `workers`) consecutive minibatches with ONE
  // Adam step per round. 0 runs each one-minibatch round in-thread on the
  // model and refreshes pseudo labels synchronously. `workers` > 0 shards
  // each round across that many persistent model replicas (own arena, tape,
  // sampler stream per replica), tree-reduces their gradients in a fixed
  // topology and pipelines the refresh behind training — bit-identical to
  // accumulating the same microbatches serially and stepping once, for any
  // worker count including 1. Values > 0 require sampled_training.
  int workers = 0;

  /// Run the data-parallel *schedule* (round accumulation, single step per
  /// round, pipelined pseudo-label refresh) serially on the primary model —
  /// the reference the threaded path must match bit-for-bit. Only
  /// meaningful with workers > 0; tests diff the two.
  bool data_parallel_reference = false;

  /// Train() stops after this absolute epoch count (0 = train all
  /// config.epochs). The schedule — refresh boundaries, refresh-launch
  /// lookahead, microbatch stream tags — is still planned against the full
  /// `epochs`, so a run stopped at E, checkpointed, and resumed is
  /// bit-identical (telemetry bytes included) to the uninterrupted run.
  /// This is the time-budget / crash-simulation knob behind
  /// `quickstart --stop-after` and the resume tests (SERVING.md).
  int stop_after_epochs = 0;

  int num_classes() const { return num_seen + num_novel; }
};

/// Summary statistics of one training run.
struct TrainStats {
  std::vector<double> epoch_losses;
  int pseudo_labeled_last_epoch = 0;

  /// Per-epoch loss components of Eq. 6, recorded unconditionally (they are
  /// scalar reads of already-computed graph values): the eta-scaled CE
  /// term, the two BPCL (SupCon) terms, and the large-graph pairwise BCE
  /// term. Entries are 0 for disabled components.
  std::vector<double> epoch_ce_losses;
  std::vector<double> epoch_bpcl_emb_losses;
  std::vector<double> epoch_bpcl_logit_losses;
  std::vector<double> epoch_pairwise_losses;

  /// Per-epoch global gradient L2 norm over all parameters, measured after
  /// the backward pass. Only filled while the telemetry sink is active
  /// (obs::TelemetryEnabled()) — the extra pass over the parameters is
  /// skipped otherwise, keeping BM_TrainEpoch untouched.
  std::vector<double> epoch_grad_norms;

  /// Per pseudo-label refresh (parallel to refresh_unpooled_allocs):
  /// confident pseudo-label count, precision vs ground truth
  /// (metrics::PseudoLabelPrecision; -1 on a failed refresh) and Hungarian
  /// alignment churn vs the previous refresh (assign::AlignmentChurn; -1 for
  /// the first refresh). The paper's Fig. 1b/2 quality curves.
  std::vector<int> refresh_pseudo_counts;
  std::vector<double> refresh_pseudo_precision;
  std::vector<double> refresh_alignment_churn;

  /// Per-epoch heap allocations that bypassed the memory pool (matrix and
  /// scratch storage only; diffs of la::UnpooledAllocCount). With the pool
  /// enabled, steady-state entries are 0.
  std::vector<int64_t> epoch_unpooled_allocs;

  /// Per-epoch pool misses (fresh heap allocations made by the pool). The
  /// first epoch populates the buckets; steady-state entries are 0.
  std::vector<int64_t> epoch_pool_misses;

  /// Same counters scoped to each pseudo-label refresh (the clustering +
  /// alignment call inside the epoch). The first refresh populates the
  /// pool's clustering buckets; with the pool enabled, every later refresh
  /// is allocation-free — entries after index 0 are 0.
  std::vector<int64_t> refresh_unpooled_allocs;
  std::vector<int64_t> refresh_pool_misses;

  /// Final counters of the model's pool / tape after Train().
  la::PoolStats pool_stats;
  autograd::TapeStats tape_stats;
};

/// Serializes a TrainStats into an ordered JSON object (epoch losses,
/// per-epoch and per-refresh allocation counters, final pool / tape stats)
/// for embedding in an obs::RunReport "train" section.
obs::json::Value TrainStatsJson(const TrainStats& stats);

/// OpenIMA: trains a GAT encoder + linear head from scratch with
/// contrastive learning on bias-reduced pseudo labels, then predicts
/// two-stage (K-Means + Hungarian alignment). See DESIGN.md and the paper's
/// §IV.
class OpenImaModel {
 public:
  /// `in_dim` must match the dataset's feature dimension; `seed` controls
  /// initialization, dropout, batching and clustering.
  OpenImaModel(const OpenImaConfig& config, int in_dim, uint64_t seed);

  /// Runs the training loop from epochs_done() through config.epochs (or
  /// config.stop_after_epochs when set). A fresh model trains from epoch 0;
  /// after LoadCheckpoint, training resumes mid-run. Error once all
  /// config.epochs epochs are done. Every return, an error included, first
  /// joins a background pseudo-label refresh, so the caller may free
  /// `dataset` and `split` as soon as Train() returns.
  Status Train(const graph::Dataset& dataset,
               const graph::OpenWorldSplit& split);

  /// Epochs completed so far by Train() (across resumes).
  int epochs_done() const { return epochs_done_; }

  /// Writes a versioned binary checkpoint (src/io/checkpoint.h; format spec
  /// in SERVING.md): encoder+head weights, Adam moments + step count, the
  /// cached K-Means centers and pseudo labels, the Hungarian alignment
  /// carry, the sequential RNG stream state, and — under data-parallel
  /// training — the pipelined-refresh pipeline state (an in-flight
  /// background refresh is joined and its outcome serialized). Saving at an
  /// epoch boundary makes the resumed run bit-identical to an
  /// uninterrupted one. Not const: joining the background refresh mutates
  /// dp_.
  Status SaveCheckpoint(const std::string& path);

  /// Restores a checkpoint into this (untrained) model. The model must
  /// have been constructed with the same seed, encoder geometry, class
  /// counts and worker count the checkpoint was written under (validated
  /// against the checkpoint's meta section); config.epochs may differ —
  /// Train() then continues from the checkpointed epoch.
  Status LoadCheckpoint(const std::string& path);

  /// Two-stage prediction (Section IV-B): K-Means over eval-mode embeddings
  /// of all nodes with |C_l| + |C_n| clusters, Eq. 5 alignment on the
  /// training nodes, prediction for every node. In large-graph mode,
  /// predicts with the classification head instead (§V-B point 7) — novel
  /// head outputs are already class ids. Like HeadPredict, runs on the
  /// model's memory arena when `use_memory_pool` is set.
  StatusOr<std::vector<int>> Predict(const graph::Dataset& dataset,
                                     const graph::OpenWorldSplit& split);

  /// Eval-mode embeddings for metric computation.
  la::Matrix Embeddings(const graph::Dataset& dataset) const {
    return model_->EvalEmbeddings(dataset);
  }

  /// Head-argmax prediction over all nodes.
  std::vector<int> HeadPredict(const graph::Dataset& dataset) const;

  const OpenImaConfig& config() const { return config_; }
  const EncoderWithHead& model() const { return *model_; }
  const TrainStats& train_stats() const { return stats_; }

  ~OpenImaModel();  // out-of-line: DataParallelState is incomplete here

 private:
  struct WorkerReplica;     // one model replica (data_parallel.cc)
  struct DataParallelState;  // replicas + pipelined-refresh state

  /// Scalar results of one sampled microbatch (losses are the unscaled
  /// graph values; `stepped` is false for degenerate <2-node batches, whose
  /// gradients are zeroed so they are identity elements of the reduction).
  struct MicrobatchResult {
    bool stepped = false;
    double loss = 0.0;
    double ce = 0.0;
    double bpcl_emb = 0.0;
    double bpcl_logit = 0.0;
    double pairwise = 0.0;
  };

  /// One epoch's loss and gradient-norm sums. A trainer adds one loss term
  /// per stepped microbatch (the full-graph trainer adds its whole epoch as
  /// one term) and StepOptimizer adds each step's norms; FinishEpoch turns
  /// the sums into the epoch's means.
  struct EpochSums {
    double loss = 0.0;
    double ce = 0.0;
    double bpcl_emb = 0.0;
    double bpcl_logit = 0.0;
    double pairwise = 0.0;
    int terms = 0;            ///< loss terms summed
    double grad_norm = 0.0;   ///< sum of per-step global gradient norms
    int steps = 0;            ///< optimizer steps taken
    std::vector<double> param_grad_norms;  ///< per parameter, last step
  };

  /// Result of one pseudo-label refresh computation (the clustering +
  /// bias-reduced selection over eval-mode embeddings), decoupled from the
  /// bookkeeping that applies it so the data-parallel trainer can run the
  /// compute on a background thread and apply at the next epoch boundary.
  struct RefreshOutcome {
    bool ok = false;
    PseudoLabels result;
    int64_t unpooled_allocs = 0;  ///< -1 when concurrent (counter is global)
    int64_t pool_misses = 0;
    int snapshot_epoch = -1;  ///< epoch whose weights produced the labels
    std::string error;        ///< failure message when !ok
  };

  /// Pipelined-refresh pipeline state restored by LoadCheckpoint before the
  /// data-parallel substrate exists; EnsureDataParallel installs it into
  /// dp_ so the first resumed refresh boundary swaps in exactly what the
  /// uninterrupted run would have (SaveCheckpoint joins the in-flight
  /// background refresh and serializes its completed outcome).
  struct RestoredRefreshState {
    RefreshOutcome pending;
    bool refresh_pending = false;
    uint64_t refresh_counter = 0;
    int active_snapshot_epoch = -1;
  };
  /// Effective per-node labels feeding the contrastive positive sets for
  /// the current epoch (manual, pseudo, or -1).
  std::vector<int> ContrastiveLabels(const graph::Dataset& dataset,
                                     const graph::OpenWorldSplit& split,
                                     int epoch);

  /// Train() up to the refresh join: validates the config, builds the
  /// sampler and the data-parallel substrate, and runs the epoch loop.
  Status TrainEpochs(const graph::Dataset& dataset,
                     const graph::OpenWorldSplit& split);

  /// One forward/backward/step. Every graph node and temporary built here
  /// dies before this returns, so the caller may Reset() the tape right
  /// after. `nb` is the clamped contrastive block size.
  Status TrainOneEpoch(const graph::Dataset& dataset,
                       const graph::OpenWorldSplit& split,
                       const std::vector<int>& ce_labels, int nb, int epoch);

  /// One sampled microbatch — sample, gather, forward, Eq. 6 losses,
  /// backward — run by every round of the sampled trainer, in-thread on the
  /// primary or on a worker replica. A round of R microbatches passes
  /// inv_round = 1/R, so summing their gradients gives the gradient of the
  /// round's mean loss; at R = 1 the scaling op is skipped and the graph is
  /// unscaled. Leaves the gradients in `model`'s parameters; the caller owns
  /// the optimizer step and the tape reset. `rng` must be the counter-keyed
  /// stream for exactly this microbatch — Rng(DeriveStreamSeed(seed, tag))
  /// — so the draws are a pure function of position, whichever thread or
  /// replica runs it. Static: touches no model state, so replicas can run
  /// it concurrently.
  static MicrobatchResult RunSampledMicrobatch(
      const OpenImaConfig& config, EncoderWithHead* model,
      graph::NeighborSampler* sampler, const graph::Dataset& dataset,
      const std::vector<int>& seeds, const std::vector<int>& cl_labels,
      const std::vector<int>& train_label_of, uint64_t tag, float inv_round,
      Rng* rng, const exec::Context* ctx);

  /// The sampled-minibatch epoch, for every worker count: shuffled seed
  /// batches of config_.batch_nodes nodes, each one microbatch, cut into
  /// rounds of max(1, W) with ONE optimizer step per round. W = 0 runs each
  /// one-microbatch round in-thread on the primary, which steps its own
  /// gradients, and refreshes pseudo labels synchronously. W > 0 runs each
  /// round on the persistent replicas, tree-reduces their gradients in a
  /// fixed topology, steps once and broadcasts the weights back, with the
  /// pseudo-label refresh pipelined. Under data_parallel_reference the same
  /// W > 0 rounds run in-thread on the primary. Defined in
  /// data_parallel.cc.
  Status TrainOneEpochRounds(const graph::Dataset& dataset,
                             const graph::OpenWorldSplit& split,
                             graph::NeighborSampler* sampler, int epoch,
                             int num_epochs);

  /// One optimizer step on `grads` (one per parameter), or on the primary's
  /// own gradients when `grads` is null. While telemetry is on, the step's
  /// gradient norms are added to `sums` first. A numeric-watchdog trip
  /// (kAbort policy) comes back as an error instead of training on NaN.
  Status StepOptimizer(const std::vector<const la::Matrix*>* grads,
                       EpochSums* sums);

  /// The epoch epilogue shared by both trainers: appends the epoch's mean
  /// losses to stats_, sets the train.loss gauge and, while telemetry is
  /// on, writes the epoch's obs::EpochRecord. `watchdog_before` is
  /// obs::Watchdog::events() sampled before the epoch's first backward.
  Status FinishEpoch(const graph::Dataset& dataset,
                     const graph::OpenWorldSplit& split, int epoch,
                     const EpochSums& sums, int64_t watchdog_before);

  /// Builds dp_ (replica set, refresh replica, reference buffers) on the
  /// first data-parallel epoch. Defined in data_parallel.cc.
  Status EnsureDataParallel(const graph::Dataset& dataset);

  /// ContrastiveLabels for W > 0: at a refresh boundary, swaps in the
  /// background refresh launched one period earlier and launches the next
  /// from the current weights, so labels lag one refresh period. Defined in
  /// data_parallel.cc.
  std::vector<int> PipelinedContrastiveLabels(
      const graph::Dataset& dataset, const graph::OpenWorldSplit& split,
      int epoch, int num_epochs);

  /// Waits for a pipelined refresh still in flight (no-op without one). Its
  /// outcome stays queued in dp_ and is swapped in, or checkpointed, exactly
  /// as if it were still pending. Defined in data_parallel.cc.
  void JoinRefresh();

  /// The refresh computation: eval-mode embeddings of `model`, row
  /// normalization, bias-reduced pseudo-label generation (warm-started from
  /// `warm_centers`). Pure with respect to *this — safe on a background
  /// thread against a snapshot model. Allocation counters are measured
  /// around the generate call against `pool`.
  static RefreshOutcome ComputeRefresh(const OpenImaConfig& config,
                                       const EncoderWithHead& model,
                                       const graph::Dataset& dataset,
                                       const graph::OpenWorldSplit& split,
                                       const la::Matrix& warm_centers,
                                       Rng* rng, const exec::Context* ctx,
                                       la::Pool* pool);

  /// Applies a refresh outcome to the cached labels/centers and pushes the
  /// per-refresh stats — the bookkeeping half of a refresh, shared between
  /// the synchronous refresh and the pipelined swap.
  void ApplyRefreshOutcome(RefreshOutcome outcome,
                           const graph::Dataset& dataset,
                           const graph::OpenWorldSplit& split);

  // The arena members are declared first: everything below may retain
  // pooled storage (parameter gradients, Adam moments, cached centers), and
  // members are destroyed in reverse order — the pool must die last.
  // Mutable because the const HeadPredict binds it too.
  mutable la::Pool pool_;
  autograd::Tape tape_;

  OpenImaConfig config_;
  uint64_t seed_;  // also seeds the neighbor sampler's counter-based RNG
  Rng rng_;
  std::unique_ptr<EncoderWithHead> model_;
  std::unique_ptr<nn::Adam> optimizer_;
  std::vector<int> cached_pseudo_labels_;  // refreshed on cadence
  la::Matrix cached_pseudo_centers_;       // warm start for the next refresh
  TrainStats stats_;

  /// Epochs completed so far; Train() resumes here (0 = fresh model, set by
  /// LoadCheckpoint for mid-run resume).
  int epochs_done_ = 0;

  // Telemetry carry state: the latest refresh's alignment (for churn
  // against the next one) and quality numbers, re-emitted into every
  // epoch's record until the next refresh replaces them.
  assign::ClusterAlignment last_alignment_;
  bool has_last_alignment_ = false;
  int last_pseudo_count_ = -1;
  double last_pseudo_precision_ = -1.0;
  double last_alignment_churn_ = -1.0;
  bool refreshed_this_epoch_ = false;

  // Refresh-pipeline state carried from a checkpoint until
  // EnsureDataParallel installs it (null otherwise).
  std::unique_ptr<RestoredRefreshState> restored_refresh_;

  // Data-parallel substrate (replica contexts/threads, the background
  // refresh replica, reference-mode gradient buffers). Built lazily on the
  // first data-parallel epoch; declared last so its pools (which back the
  // replica parameters) outlive nothing of ours and die first.
  std::unique_ptr<DataParallelState> dp_;
};

}  // namespace openima::core

#endif  // OPENIMA_CORE_OPENIMA_H_

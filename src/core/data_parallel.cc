/// The sampled-minibatch trainer (DESIGN.md §2.7, §2.8), one round loop
/// for every worker count W.
///
/// Each epoch shards the shuffled sampled-minibatch sequence into rounds of
/// up to max(1, W) consecutive microbatches and takes ONE Adam step per
/// round. W = 0 runs every round — one microbatch — in-thread on the
/// primary model, which steps its own gradients and refreshes pseudo labels
/// synchronously; it builds no replica, refresh thread or dp_ state. W > 0
/// runs a round's microbatches on W persistent worker replicas (own
/// parameter copy, memory pool, tape, sampler and counter-keyed RNG stream
/// each), combines the replica gradients with a fixed-topology binary-tree
/// all-reduce, steps the primary model, and broadcasts its weights back to
/// every replica. The result is bit-identical to the serial reference
/// (config.data_parallel_reference): the same rounds executed one
/// microbatch at a time on the primary model, gradients accumulated into
/// per-slot buffers and reduced by the same tree.
///
/// Why the bits match, for any worker count and thread schedule:
///  - a replica's forward/backward runs on a Context(1) pinned to the same
///    kernel backend as the primary, and the kernel layer is
///    thread-count- and storage-origin-invariant (exec/context.h,
///    la/pool.h);
///  - every microbatch draws dropout from Rng(DeriveStreamSeed(seed, tag)),
///    a pure function of the (seed, microbatch) pair — no shared generator
///    state, so draw order across threads is irrelevant;
///  - the neighbor sampler is a pure function of (graph, seed, tag);
///  - the tree all-reduce adds the same operands in the same order no
///    matter which threads produced them, and runs on the coordinator.
/// Induction over rounds: equal weights in, equal gradients out, equal
/// Adam step, equal weights broadcast.
///
/// For W > 0 the pseudo-label refresh is pipelined behind training: at each
/// refresh boundary the previously launched background refresh (eval-mode
/// embeddings + K-Means on a weight *snapshot*) is joined and swapped in,
/// and a new one is launched from the current weights. Labels therefore lag
/// one refresh period behind the synchronous refresh — a schedule
/// difference, not a nondeterminism: the reference mode runs the identical
/// compute inline at the identical points.

#include <algorithm>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "src/autograd/tape.h"
#include "src/core/openima.h"
#include "src/core/train_internal.h"
#include "src/exec/replica.h"
#include "src/la/backend/backend.h"
#include "src/la/pool.h"
#include "src/obs/obs.h"
#include "src/util/logging.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace openima::core {

namespace {

/// Stream-domain salt separating refresh RNG streams from microbatch
/// streams that share the model seed.
constexpr uint64_t kRefreshStreamSalt = 0x9e3779b97f4a7c15ULL;

/// dst += src, element-wise, in plain scalar order. Both modes reduce with
/// exactly this loop, so the reduction itself can never diverge between
/// them (and it is backend-independent by construction).
void AddInto(la::Matrix* dst, const la::Matrix& src) {
  OPENIMA_CHECK_EQ(dst->rows(), src.rows());
  OPENIMA_CHECK_EQ(dst->cols(), src.cols());
  float* d = dst->data();
  const float* s = src.data();
  const int64_t n = dst->size();
  for (int64_t i = 0; i < n; ++i) d[i] += s[i];
}

/// Fixed-topology binary-tree (distance-doubling) reduction over the grid
/// slots, leaving the sum in grid[0]. The topology depends only on the slot
/// count, never on thread timing.
void TreeReduce(std::vector<la::Matrix*>* grid) {
  const size_t m = grid->size();
  for (size_t s = 1; s < m; s *= 2) {
    for (size_t i = 0; i + s < m; i += 2 * s) {
      AddInto((*grid)[i], *(*grid)[i + s]);
    }
  }
}

/// Copies parameter values src -> dst (shapes fixed at construction, so
/// this is a flat element copy — no allocation).
void CopyParamValues(const EncoderWithHead& src, EncoderWithHead* dst) {
  const auto& sp = src.parameters();
  const auto& tp = dst->parameters();
  OPENIMA_CHECK_EQ(sp.size(), tp.size());
  for (size_t k = 0; k < sp.size(); ++k) {
    const la::Matrix& sv = sp[k].value();
    la::Matrix& dv = tp[k].node()->value;
    OPENIMA_CHECK_EQ(sv.size(), dv.size());
    std::copy(sv.data(), sv.data() + sv.size(), dv.data());
  }
}

}  // namespace

OpenImaModel::~OpenImaModel() = default;

Status OpenImaModel::EnsureDataParallel(const graph::Dataset& dataset) {
  if (dp_ != nullptr) return Status::OK();
  dp_ = std::make_unique<DataParallelState>();
  const int W = config_.workers;
  const size_t P = model_->parameters().size();

  graph::SamplerConfig sc;
  sc.num_layers = 2;
  sc.fanout = config_.sample_fanout;
  sc.seed = seed_;

  // Replica models are initialized from a throwaway RNG and immediately
  // overwritten with the primary weights — construction must not consume
  // draws from rng_ (the serial reference makes none here).
  if (!config_.data_parallel_reference) {
    dp_->set = std::make_unique<exec::ReplicaSet>(W);
    for (int i = 0; i < W; ++i) {
      auto rep = std::make_unique<WorkerReplica>();
      rep->ctx = dp_->set->context(i);
      // Pin the replica context to the primary's kernel backend so a
      // backend override (--backend / OPENIMA_BACKEND / config exec pin)
      // applies uniformly across replicas.
      rep->ctx->set_kernel_backend(&la::backend::Resolve(config_.exec));
      nn::GatEncoderConfig enc = config_.encoder;
      enc.exec = rep->ctx;
      Rng init(seed_);
      rep->model =
          std::make_unique<EncoderWithHead>(enc, config_.num_classes(), &init);
      CopyParamValues(*model_, rep->model.get());
      rep->sampler = std::make_unique<graph::NeighborSampler>(&dataset.graph, sc);
      dp_->replicas.push_back(std::move(rep));
    }
  } else {
    dp_->ref_grads.resize(static_cast<size_t>(W));
    for (int j = 0; j < W; ++j) {
      auto& slot = dp_->ref_grads[static_cast<size_t>(j)];
      slot.reserve(P);
      for (const auto& p : model_->parameters()) {
        slot.emplace_back(p.rows(), p.cols());
      }
    }
  }

  if (config_.use_pseudo_labels) {
    dp_->refresh_ctx.set_kernel_backend(&la::backend::Resolve(config_.exec));
    nn::GatEncoderConfig enc = config_.encoder;
    enc.exec = &dp_->refresh_ctx;
    Rng init(seed_);
    dp_->refresh_model =
        std::make_unique<EncoderWithHead>(enc, config_.num_classes(), &init);
    if (!config_.data_parallel_reference) {
      dp_->refresh_thread =
          std::make_unique<ThreadPool>(1, /*inline_when_single=*/false);
      dp_->refresh_group =
          std::make_unique<TaskGroup>(dp_->refresh_thread.get());
    }
  }

  // Checkpoint resume: re-install the refresh pipeline exactly as the save
  // captured it — the joined outcome of the refresh that was in flight, the
  // stream counter, and the snapshot epoch of the labels in use. The next
  // refresh boundary then swaps in the same outcome the uninterrupted run
  // would have (SaveCheckpoint / LoadCheckpoint in model_checkpoint.cc).
  if (restored_refresh_ != nullptr) {
    dp_->pending = std::move(restored_refresh_->pending);
    dp_->refresh_pending = restored_refresh_->refresh_pending;
    dp_->refresh_counter = restored_refresh_->refresh_counter;
    dp_->active_snapshot_epoch = restored_refresh_->active_snapshot_epoch;
    restored_refresh_.reset();
  }
  return Status::OK();
}

void OpenImaModel::JoinRefresh() {
  if (dp_ != nullptr && dp_->refresh_group != nullptr) {
    dp_->refresh_group->Wait();
  }
}

std::vector<int> OpenImaModel::PipelinedContrastiveLabels(
    const graph::Dataset& dataset, const graph::OpenWorldSplit& split,
    int epoch, int num_epochs) {
  const bool pooled = config_.use_memory_pool;
  const int refresh_every = std::max(1, config_.pseudo_refresh_every);
  const bool boundary = config_.use_pseudo_labels &&
                        epoch >= config_.pseudo_warmup_epochs &&
                        (epoch - config_.pseudo_warmup_epochs) % refresh_every ==
                            0;
  if (boundary) {
    // (1) Join and swap in the refresh launched one period ago (no-op at
    // the first boundary — nothing is in flight yet, so the first swap
    // happens one refresh period after the synchronous refresh's first).
    if (dp_->refresh_pending) {
      if (dp_->refresh_group != nullptr) dp_->refresh_group->Wait();
      dp_->refresh_pending = false;
      OPENIMA_OBS_COUNT("train.pseudo_label_refreshes", 1);
      RefreshOutcome outcome = std::move(dp_->pending);
      dp_->pending = RefreshOutcome();
      dp_->active_snapshot_epoch = outcome.snapshot_epoch;
      // Re-home the centers into the coordinator's ambient storage: the
      // background matrix draws from dp_->refresh_pool, but the cached copy
      // (cached_pseudo_centers_) outlives dp_ — a pooled matrix must never
      // outlive its pool. Everything else in the outcome is plain vectors.
      outcome.result.centers = la::Matrix(outcome.result.centers);
      ApplyRefreshOutcome(std::move(outcome), dataset, split);
    }
    // (2) Snapshot the current weights and launch the next refresh — unless
    // no boundary remains to swap it in (its labels would never be used).
    if (epoch + refresh_every < num_epochs) {
      CopyParamValues(*model_, dp_->refresh_model.get());
      const uint64_t stream = dp_->refresh_counter++;
      // Warm-start from the centers active right now (just swapped in, or
      // empty before the first swap -> cold start), copied because the
      // background task outlives this scope.
      la::Matrix warm = cached_pseudo_centers_;
      auto task = [this, &dataset, &split, warm = std::move(warm), stream,
                   epoch, pooled] {
        OPENIMA_OBS_PHASE("pseudo_label_refresh");
        // The refresh replica has its own arena; its misses are the same
        // in threaded and reference mode because nothing else touches it.
        la::PoolBinding pool_binding(pooled ? &dp_->refresh_pool : nullptr);
        Rng refresh_rng(
            DeriveStreamSeed(seed_ ^ kRefreshStreamSalt, stream));
        RefreshOutcome out = ComputeRefresh(
            config_, *dp_->refresh_model, dataset, split, warm, &refresh_rng,
            &dp_->refresh_ctx, &dp_->refresh_pool);
        out.snapshot_epoch = epoch;
        // The global unpooled-allocation counter is shared with concurrent
        // worker allocations, so its diff is meaningless here; record the
        // sentinel in BOTH modes to keep their stats identical.
        out.unpooled_allocs = -1;
        dp_->pending = std::move(out);
      };
      dp_->refresh_pending = true;
      if (dp_->refresh_group != nullptr) {
        dp_->refresh_group->Submit(std::move(task));
      } else {
        task();  // reference mode: same compute, inline, same schedule point
      }
    }
  }

  // The double-buffered pseudo labels once the first swap has happened,
  // manual labels before that (mirrors the synchronous refresh's warmup).
  std::vector<int> labels(static_cast<size_t>(dataset.num_nodes()), -1);
  if (config_.use_pseudo_labels && !cached_pseudo_labels_.empty()) {
    labels = cached_pseudo_labels_;
  } else if (config_.use_manual_positives) {
    for (int v : split.train_nodes) {
      labels[static_cast<size_t>(v)] =
          split.remapped_labels[static_cast<size_t>(v)];
    }
  }
  return labels;
}

Status OpenImaModel::TrainOneEpochRounds(
    const graph::Dataset& dataset, const graph::OpenWorldSplit& split,
    graph::NeighborSampler* sampler, int epoch, int num_epochs) {
  const bool pairwise_on =
      config_.large_graph_mode && config_.pairwise_loss_weight > 0.0f;
  if (!config_.use_bpcl_emb && !config_.use_bpcl_logit && !config_.use_ce &&
      !pairwise_on) {
    return Status::FailedPrecondition(
        "no loss component enabled in OpenImaConfig");
  }
  const int n = dataset.num_nodes();
  const bool pooled = config_.use_memory_pool;
  refreshed_this_epoch_ = false;

  // Without workers the pseudo-label refresh runs synchronously, as in the
  // full-graph trainer: full eval-mode embeddings through (mini-batch)
  // K-Means on the paper's cadence. With workers it is pipelined.
  const std::vector<int> cl_labels =
      dp_ == nullptr
          ? ContrastiveLabels(dataset, split, epoch)
          : PipelinedContrastiveLabels(dataset, split, epoch, num_epochs);

  std::vector<int> train_label_of(static_cast<size_t>(n), -1);
  for (int v : split.train_nodes) {
    train_label_of[static_cast<size_t>(v)] =
        split.remapped_labels[static_cast<size_t>(v)];
  }

  // ---- Executable microbatches, sharded into rounds ----------------------
  std::vector<int> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  rng_.Shuffle(&order);
  const int bn = std::max(2, std::min(config_.batch_nodes, n));
  const int num_batches = (n + bn - 1) / bn;

  struct Microbatch {
    uint64_t tag;
    std::vector<int> seeds;
  };
  std::vector<Microbatch> batches;
  batches.reserve(static_cast<size_t>(num_batches));
  for (int b = 0; b < num_batches; ++b) {
    const int begin = b * bn;
    const int end = std::min(n, begin + bn);
    if (end - begin < 2) continue;
    batches.push_back(
        {static_cast<uint64_t>(epoch) * static_cast<uint64_t>(num_batches) +
             static_cast<uint64_t>(b),
         std::vector<int>(order.begin() + begin, order.begin() + end)});
  }

  // The schedule: one optimizer step per round of up to `per_step`
  // microbatches. Rounds run on the replicas when there are any, and
  // in-thread on the primary otherwise (W = 0, or the reference mode).
  const int per_step = std::max(1, config_.workers);
  const bool threaded = dp_ != nullptr && dp_->set != nullptr;
  const size_t P = model_->parameters().size();
  EpochSums sums;
  const int64_t watchdog_before = obs::Watchdog::events();
  std::vector<MicrobatchResult> round_results(static_cast<size_t>(per_step));
  std::vector<la::Matrix*> grid;
  std::vector<const la::Matrix*> reduced(P);

  for (size_t first = 0; first < batches.size();
       first += static_cast<size_t>(per_step)) {
    const int R = static_cast<int>(
        std::min(static_cast<size_t>(per_step), batches.size() - first));
    // Backpropagating loss/R makes the reduced gradient the gradient of the
    // round's mean loss — one serial Adam step over R accumulated
    // microbatches. R == 1 keeps the exact unscaled graph.
    const float inv_round = 1.0f / static_cast<float>(R);

    if (threaded) {
      TaskGroup group(dp_->set->task_pool());
      for (int j = 0; j < R; ++j) {
        WorkerReplica* rep = dp_->replicas[static_cast<size_t>(j)].get();
        const Microbatch& mb = batches[first + static_cast<size_t>(j)];
        group.Submit([this, rep, &mb, &dataset, &cl_labels, &train_label_of,
                      inv_round, pooled] {
          // Every inner phase lands under "worker/..." on this thread's
          // private phase stack.
          OPENIMA_OBS_PHASE("worker");
          la::PoolBinding pool_binding(pooled ? &rep->pool : nullptr);
          autograd::TapeBinding tape_binding(pooled ? &rep->tape : nullptr);
          Rng mb_rng(DeriveStreamSeed(seed_, mb.tag));
          rep->result = RunSampledMicrobatch(
              config_, rep->model.get(), rep->sampler.get(), dataset,
              mb.seeds, cl_labels, train_label_of, mb.tag, inv_round, &mb_rng,
              rep->ctx);
        });
      }
      group.Wait();
      for (int j = 0; j < R; ++j) {
        round_results[static_cast<size_t>(j)] =
            dp_->replicas[static_cast<size_t>(j)]->result;
      }
    } else {
      for (int j = 0; j < R; ++j) {
        const Microbatch& mb = batches[first + static_cast<size_t>(j)];
        Rng mb_rng(DeriveStreamSeed(seed_, mb.tag));
        const MicrobatchResult result = RunSampledMicrobatch(
            config_, model_.get(), sampler, dataset, mb.seeds, cl_labels,
            train_label_of, mb.tag, inv_round, &mb_rng, config_.exec);
        round_results[static_cast<size_t>(j)] = result;
        if (result.stepped && dp_ != nullptr) {
          // Reference mode: accumulate this slot's gradients; the primary's
          // own buffers are overwritten by the next microbatch's backward.
          const auto& params = model_->parameters();
          auto& slot = dp_->ref_grads[static_cast<size_t>(j)];
          for (size_t k = 0; k < P; ++k) {
            const la::Matrix& g = params[k].grad();
            std::copy(g.data(), g.data() + g.size(), slot[k].data());
          }
        }
        // Per-microbatch scratch (block-sized matrices and graph nodes, all
        // dead once RunSampledMicrobatch returns) recycles within the epoch.
        if (pooled) tape_.Reset();
      }
    }

    // Stepped slots in microbatch order; degenerate (unstepped) slots are
    // excluded from the reduction rather than zero-filled, so the operand
    // list — and therefore every bit of the sum — matches across modes.
    std::vector<int> stepped;
    stepped.reserve(static_cast<size_t>(R));
    for (int j = 0; j < R; ++j) {
      if (round_results[static_cast<size_t>(j)].stepped) stepped.push_back(j);
    }
    if (!stepped.empty() && dp_ == nullptr) {
      // W = 0: the round's one microbatch left its gradients on the primary.
      OPENIMA_RETURN_IF_ERROR(StepOptimizer(nullptr, &sums));
    } else if (!stepped.empty()) {
      {
        OPENIMA_OBS_PHASE("allreduce");
        for (size_t k = 0; k < P; ++k) {
          grid.clear();
          for (int j : stepped) {
            const size_t slot = static_cast<size_t>(j);
            grid.push_back(
                threaded
                    ? &dp_->replicas[slot]->model->parameters()[k].node()->grad
                    : &dp_->ref_grads[slot][k]);
          }
          TreeReduce(&grid);
          reduced[k] = grid[0];
        }
      }
      OPENIMA_RETURN_IF_ERROR(StepOptimizer(&reduced, &sums));
      if (threaded) {
        // Broadcast the stepped weights so every replica starts the next
        // round from the primary's exact bits.
        for (auto& rep : dp_->replicas) {
          CopyParamValues(*model_, rep->model.get());
        }
      }
    }
    for (int j : stepped) {
      const MicrobatchResult& r = round_results[static_cast<size_t>(j)];
      sums.loss += r.loss;
      sums.ce += r.ce;
      sums.bpcl_emb += r.bpcl_emb;
      sums.bpcl_logit += r.bpcl_logit;
      sums.pairwise += r.pairwise;
      ++sums.terms;
      // Worker graphs are dead (results copied, grads consumed); recycle
      // each replica's tape on the coordinator — no worker is running.
      if (threaded && pooled) {
        dp_->replicas[static_cast<size_t>(j)]->tape.Reset();
      }
    }
  }

  if (sums.terms == 0) {
    return Status::FailedPrecondition(
        "sampled training produced no trainable batches");
  }
  // Windowed training throughput for the live exporter: microbatches and
  // optimizer rounds land in the current epoch's tick.
  OPENIMA_OBS_WINDOWED_COUNT("train.microbatches", sums.terms);
  OPENIMA_OBS_WINDOWED_COUNT("train.rounds", sums.steps);
  return FinishEpoch(dataset, split, epoch, sums, watchdog_before);
}

}  // namespace openima::core

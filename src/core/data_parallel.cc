/// The sampled-minibatch trainer (DESIGN.md §2.7, §2.8), one round loop
/// for every worker count W.
///
/// Each epoch shards the shuffled sampled-minibatch sequence into rounds of
/// up to max(1, W) consecutive microbatches and takes ONE Adam step per
/// round. Slot 0 of every round runs on the model itself, with the
/// trainer's sampler, pool and tape; slot j >= 1 runs on persistent worker
/// replica j - 1 (own parameter copy, memory pool, tape and sampler). A
/// round of one slot runs directly on the calling thread, with the whole
/// context for its kernels; a round of R >= 2 slots runs them as the R
/// tasks of one ParallelFor on the model's exec::Context, where every
/// kernel call a slot makes runs inline. Either way the round then
/// tree-reduces the stepped slots' gradients in a fixed topology, steps the
/// model once, broadcasts its weights to the replicas and resets the slots'
/// tapes. The context's thread count only decides how many slots run at
/// once: on a one-thread context the same code runs them one after another
/// on the calling thread, with the same bits.
///
/// W <= 1 builds no data-parallel state: every round is one microbatch on
/// the model, with the synchronous pseudo-label refresh. W >= 2 builds
/// min(W, batches per epoch) - 1 replicas, the most slots a round can
/// fill, and pipelines the refresh.
///
/// Why the bits match, for any thread count:
///  - every slot's kernels run on the model's context (inline inside a
///    task), and the kernel layer is thread-count- and
///    storage-origin-invariant (exec/context.h, la/pool.h);
///  - every microbatch draws dropout from Rng(DeriveStreamSeed(seed, tag)),
///    a pure function of the (seed, microbatch) pair — no shared generator
///    state, so draw order across threads is irrelevant;
///  - the neighbor sampler is a pure function of (graph, seed, tag);
///  - the tree all-reduce adds the same operands in the same order no
///    matter which threads produced them, and runs on the coordinator.
/// Induction over rounds: equal weights in, equal gradients out, equal
/// Adam step, equal weights broadcast.
///
/// For W >= 2 the pseudo-label refresh is pipelined behind training on a
/// thread of its own: at each refresh boundary the previously launched
/// background refresh (eval-mode embeddings + K-Means on a weight
/// *snapshot*) is joined and swapped in, and a new one is launched from the
/// current weights. Labels therefore lag one refresh period behind the
/// synchronous refresh — a schedule difference, not a nondeterminism: the
/// refresh reads only its snapshot, its own arena and its own RNG stream.

#include <algorithm>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "src/autograd/tape.h"
#include "src/core/openima.h"
#include "src/core/train_internal.h"
#include "src/exec/context.h"
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

/// Seed nodes per microbatch: config.batch_nodes clamped to [2, n].
int MicrobatchNodes(const OpenImaConfig& config, int n) {
  return std::max(2, std::min(config.batch_nodes, n));
}

/// dst += src, element-wise, in plain scalar order: the reduction is
/// backend-independent by construction.
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

  graph::SamplerConfig sc;
  sc.num_layers = 2;
  sc.fanout = config_.sample_fanout;
  sc.seed = seed_;

  // A round holds at most min(W, batches per epoch) slots, and slot 0 runs
  // on the model. Replica models use the model's encoder context: a replica
  // only runs as a task of a round's ParallelFor, where every kernel call
  // runs inline. They are initialized from a throwaway RNG and immediately
  // overwritten with the model's weights — construction must not consume
  // draws from rng_.
  const int n = dataset.num_nodes();
  const int bn = MicrobatchNodes(config_, n);
  const int num_replicas = std::min(config_.workers, (n + bn - 1) / bn) - 1;
  for (int i = 0; i < num_replicas; ++i) {
    auto rep = std::make_unique<WorkerReplica>();
    Rng init(seed_);
    rep->model = std::make_unique<EncoderWithHead>(
        config_.encoder, config_.num_classes(), &init);
    CopyParamValues(*model_, rep->model.get());
    rep->sampler = std::make_unique<graph::NeighborSampler>(&dataset.graph, sc);
    dp_->replicas.push_back(std::move(rep));
  }

  if (config_.use_pseudo_labels) {
    // The refresh replica runs on a thread of its own, outside any
    // ParallelFor, so it keeps a one-thread context, pinned to the model's
    // kernel backend so a backend override (--backend / OPENIMA_BACKEND /
    // config exec pin) applies to it too.
    dp_->refresh_ctx.set_kernel_backend(&la::backend::Resolve(config_.exec));
    nn::GatEncoderConfig enc = config_.encoder;
    enc.exec = &dp_->refresh_ctx;
    Rng init(seed_);
    dp_->refresh_model =
        std::make_unique<EncoderWithHead>(enc, config_.num_classes(), &init);
    // Not a task of the model's context: a ParallelFor's Wait() would then
    // wait for this long task too.
    dp_->refresh_thread = std::make_unique<ThreadPool>(1);
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
  if (dp_ != nullptr && dp_->refresh_thread != nullptr) {
    dp_->refresh_thread->Wait();
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
      dp_->refresh_thread->Wait();
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
      // background task outlives this scope. The copy comes from the
      // refresh arena: the refresh thread frees it at a time of its own
      // choosing, which must not move the traffic of the model's pool_
      // (slot 0 of every round draws from it). The refresh thread is idle
      // here — the swap above just joined it.
      la::Matrix warm = [&] {
        la::PoolBinding warm_binding(pooled ? &dp_->refresh_pool : nullptr);
        return la::Matrix(cached_pseudo_centers_);
      }();
      auto task = [this, &dataset, &split, warm = std::move(warm), stream,
                   epoch, pooled] {
        OPENIMA_OBS_PHASE("pseudo_label_refresh");
        // The refresh replica has its own arena, which nothing else touches.
        la::PoolBinding pool_binding(pooled ? &dp_->refresh_pool : nullptr);
        Rng refresh_rng(
            DeriveStreamSeed(seed_ ^ kRefreshStreamSalt, stream));
        RefreshOutcome out = ComputeRefresh(
            config_, *dp_->refresh_model, dataset, split, warm, &refresh_rng,
            &dp_->refresh_ctx, &dp_->refresh_pool);
        out.snapshot_epoch = epoch;
        // The global unpooled-allocation counter is shared with concurrent
        // worker allocations, so its diff is meaningless here; record the
        // sentinel instead.
        out.unpooled_allocs = -1;
        dp_->pending = std::move(out);
      };
      dp_->refresh_pending = true;
      dp_->refresh_thread->Submit(std::move(task));
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

  // Without data-parallel state (W <= 1) the pseudo-label refresh runs
  // synchronously, as in the full-graph trainer: full eval-mode embeddings
  // through (mini-batch) K-Means on the paper's cadence. With it (W >= 2)
  // the refresh is pipelined.
  const std::vector<int> cl_labels =
      dp_ != nullptr
          ? PipelinedContrastiveLabels(dataset, split, epoch, num_epochs)
          : ContrastiveLabels(dataset, split, epoch);

  std::vector<int> train_label_of(static_cast<size_t>(n), -1);
  for (int v : split.train_nodes) {
    train_label_of[static_cast<size_t>(v)] =
        split.remapped_labels[static_cast<size_t>(v)];
  }

  // ---- Executable microbatches, sharded into rounds ----------------------
  std::vector<int> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  rng_.Shuffle(&order);
  const int bn = MicrobatchNodes(config_, n);
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

  // The round's slots: slot 0 is the model with the trainer's sampler, pool
  // and tape; slot j >= 1 is replica j - 1 with its own.
  struct Slot {
    EncoderWithHead* model;
    graph::NeighborSampler* sampler;
    la::Pool* pool;
    autograd::Tape* tape;
  };
  std::vector<Slot> slots = {{model_.get(), sampler, &pool_, &tape_}};
  if (dp_ != nullptr) {
    for (const auto& rep : dp_->replicas) {
      slots.push_back(
          {rep->model.get(), rep->sampler.get(), &rep->pool, &rep->tape});
    }
  }

  // The schedule: one optimizer step per round of up to `per_step`
  // microbatches, slot j of a round running microbatch j of it.
  const int per_step = std::max(1, config_.workers);
  const size_t P = model_->parameters().size();
  EpochSums sums;
  const int64_t watchdog_before = obs::Watchdog::events();
  std::vector<MicrobatchResult> round_results(slots.size());
  std::vector<la::Matrix*> grid;
  std::vector<const la::Matrix*> reduced(P);

  for (size_t first = 0; first < batches.size();
       first += static_cast<size_t>(per_step)) {
    const int R = static_cast<int>(
        std::min(static_cast<size_t>(per_step), batches.size() - first));
    OPENIMA_CHECK_LE(static_cast<size_t>(R), slots.size());
    // Backpropagating loss/R makes the reduced gradient the gradient of the
    // round's mean loss — one serial Adam step over R accumulated
    // microbatches. R == 1 keeps the exact unscaled graph.
    const float inv_round = 1.0f / static_cast<float>(R);
    auto run_slot = [&](int j) {
      const Slot& slot = slots[static_cast<size_t>(j)];
      const Microbatch& mb = batches[first + static_cast<size_t>(j)];
      la::PoolBinding pool_binding(pooled ? slot.pool : nullptr);
      autograd::TapeBinding tape_binding(pooled ? slot.tape : nullptr);
      Rng mb_rng(DeriveStreamSeed(seed_, mb.tag));
      round_results[static_cast<size_t>(j)] = RunSampledMicrobatch(
          config_, slot.model, slot.sampler, dataset, mb.seeds, cl_labels,
          train_label_of, mb.tag, inv_round, &mb_rng);
    };
    if (R == 1) {
      // On the calling thread, so its kernels get the whole context.
      run_slot(0);
    } else {
      exec::Get(config_.exec).ParallelFor(R, 1, [&](int64_t begin,
                                                    int64_t end) {
        for (int64_t j = begin; j < end; ++j) {
          // Every inner phase lands under "worker/..." on the running
          // thread's phase stack: "epoch/worker/..." when the slot runs on
          // the calling thread.
          OPENIMA_OBS_PHASE("worker");
          run_slot(static_cast<int>(j));
        }
      });
    }

    // Stepped slots in microbatch order; degenerate (unstepped) slots are
    // excluded from the reduction rather than zero-filled.
    std::vector<int> stepped;
    stepped.reserve(static_cast<size_t>(R));
    for (int j = 0; j < R; ++j) {
      if (round_results[static_cast<size_t>(j)].stepped) stepped.push_back(j);
    }
    if (!stepped.empty()) {
      {
        OPENIMA_OBS_PHASE("allreduce");
        for (size_t k = 0; k < P; ++k) {
          grid.clear();
          for (int j : stepped) {
            grid.push_back(&slots[static_cast<size_t>(j)]
                                .model->parameters()[k]
                                .node()
                                ->grad);
          }
          TreeReduce(&grid);
          reduced[k] = grid[0];
        }
      }
      OPENIMA_RETURN_IF_ERROR(StepOptimizer(reduced, &sums));
      // Broadcast the stepped weights so every replica starts the next
      // round from the model's exact bits.
      for (size_t j = 1; j < slots.size(); ++j) {
        CopyParamValues(*model_, slots[j].model);
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
    }
    // Per-microbatch scratch (block-sized matrices and graph nodes, all
    // dead once RunSampledMicrobatch returns) recycles within the epoch;
    // the coordinator resets each slot's tape while no slot is running.
    if (pooled) {
      for (int j = 0; j < R; ++j) slots[static_cast<size_t>(j)].tape->Reset();
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

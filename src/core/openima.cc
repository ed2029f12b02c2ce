#include "src/core/openima.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/autograd/ops.h"
#include "src/core/positive_sets.h"
#include "src/core/train_internal.h"
#include "src/la/backend/backend.h"
#include "src/la/matrix_ops.h"
#include "src/metrics/clustering_accuracy.h"
#include "src/metrics/info_metrics.h"
#include "src/obs/obs.h"
#include "src/util/logging.h"

namespace openima::core {

namespace ops = autograd::ops;
using autograd::Variable;

namespace {

obs::json::Value Int64Array(const std::vector<int64_t>& values) {
  obs::json::Value arr = obs::json::Value::Array();
  for (int64_t v : values) arr.Append(obs::json::Value::Int(v));
  return arr;
}

obs::json::Value IntArray(const std::vector<int>& values) {
  obs::json::Value arr = obs::json::Value::Array();
  for (int v : values) arr.Append(obs::json::Value::Int(v));
  return arr;
}

obs::json::Value DoubleArray(const std::vector<double>& values) {
  obs::json::Value arr = obs::json::Value::Array();
  for (double v : values) arr.Append(obs::json::Value::Double(v));
  return arr;
}

/// Validation/test quality snapshot from the deterministic head argmax (no
/// RNG draw, so recording it cannot perturb the training stream).
void FillQualitySnapshot(const std::vector<int>& preds,
                         const graph::OpenWorldSplit& split,
                         obs::EpochRecord* record) {
  if (!split.val_nodes.empty()) {
    std::vector<int> val_preds, val_labels;
    val_preds.reserve(split.val_nodes.size());
    val_labels.reserve(split.val_nodes.size());
    for (int v : split.val_nodes) {
      val_preds.push_back(preds[static_cast<size_t>(v)]);
      val_labels.push_back(split.remapped_labels[static_cast<size_t>(v)]);
    }
    if (auto acc = metrics::ClusteringAccuracy(val_preds, val_labels,
                                               split.num_seen);
        acc.ok()) {
      record->has_quality = true;
      record->val_acc = *acc;
    }
  }
  std::vector<int> eval_preds, eval_labels;
  const std::vector<int> unlabeled = split.UnlabeledNodes();
  eval_preds.reserve(unlabeled.size());
  eval_labels.reserve(unlabeled.size());
  for (int v : unlabeled) {
    eval_preds.push_back(preds[static_cast<size_t>(v)]);
    eval_labels.push_back(split.remapped_labels[static_cast<size_t>(v)]);
  }
  if (auto nmi = metrics::NormalizedMutualInformation(eval_preds, eval_labels);
      nmi.ok()) {
    record->has_quality = true;
    record->val_nmi = *nmi;
  }
  if (!split.test_nodes.empty()) {
    std::vector<int> test_preds, test_labels;
    test_preds.reserve(split.test_nodes.size());
    test_labels.reserve(split.test_nodes.size());
    for (int v : split.test_nodes) {
      test_preds.push_back(preds[static_cast<size_t>(v)]);
      test_labels.push_back(split.remapped_labels[static_cast<size_t>(v)]);
    }
    if (auto open = metrics::EvaluateOpenWorld(test_preds, test_labels,
                                               split.num_seen,
                                               split.num_total_classes());
        open.ok()) {
      record->has_quality = true;
      record->acc_all = open->all;
      record->acc_seen = open->seen;
      record->acc_novel = open->novel;
    }
  }
}

}  // namespace

obs::json::Value TrainStatsJson(const TrainStats& stats) {
  using obs::json::Value;
  Value losses = Value::Array();
  for (double l : stats.epoch_losses) losses.Append(Value::Double(l));

  Value pool = Value::Object();
  pool.Set("acquires", Value::Int(stats.pool_stats.acquires));
  pool.Set("hits", Value::Int(stats.pool_stats.hits));
  pool.Set("misses", Value::Int(stats.pool_stats.misses));
  pool.Set("releases", Value::Int(stats.pool_stats.releases));
  pool.Set("outstanding", Value::Int(stats.pool_stats.outstanding));
  pool.Set("bytes_acquired", Value::Int(stats.pool_stats.bytes_acquired));
  pool.Set("bytes_cached", Value::Int(stats.pool_stats.bytes_cached));
  pool.Set("bytes_allocated", Value::Int(stats.pool_stats.bytes_allocated));

  Value tape = Value::Object();
  tape.Set("nodes", Value::Int(stats.tape_stats.nodes));
  tape.Set("hits", Value::Int(stats.tape_stats.hits));
  tape.Set("misses", Value::Int(stats.tape_stats.misses));
  tape.Set("outstanding", Value::Int(stats.tape_stats.outstanding));
  tape.Set("resets", Value::Int(stats.tape_stats.resets));
  tape.Set("bytes_allocated", Value::Int(stats.tape_stats.bytes_allocated));

  Value out = Value::Object();
  out.Set("epochs", Value::Int(static_cast<int64_t>(stats.epoch_losses.size())));
  out.Set("epoch_losses", std::move(losses));
  out.Set("pseudo_labeled_last_epoch",
          Value::Int(stats.pseudo_labeled_last_epoch));
  out.Set("epoch_ce_losses", DoubleArray(stats.epoch_ce_losses));
  out.Set("epoch_bpcl_emb_losses", DoubleArray(stats.epoch_bpcl_emb_losses));
  out.Set("epoch_bpcl_logit_losses",
          DoubleArray(stats.epoch_bpcl_logit_losses));
  out.Set("epoch_pairwise_losses", DoubleArray(stats.epoch_pairwise_losses));
  out.Set("epoch_grad_norms", DoubleArray(stats.epoch_grad_norms));
  out.Set("refresh_pseudo_counts", IntArray(stats.refresh_pseudo_counts));
  out.Set("refresh_pseudo_precision",
          DoubleArray(stats.refresh_pseudo_precision));
  out.Set("refresh_alignment_churn",
          DoubleArray(stats.refresh_alignment_churn));
  out.Set("epoch_unpooled_allocs", Int64Array(stats.epoch_unpooled_allocs));
  out.Set("epoch_pool_misses", Int64Array(stats.epoch_pool_misses));
  out.Set("refresh_unpooled_allocs", Int64Array(stats.refresh_unpooled_allocs));
  out.Set("refresh_pool_misses", Int64Array(stats.refresh_pool_misses));
  out.Set("pool", std::move(pool));
  out.Set("tape", std::move(tape));
  return out;
}

OpenImaModel::OpenImaModel(const OpenImaConfig& config, int in_dim,
                           uint64_t seed)
    : config_(config), seed_(seed), rng_(seed) {
  OPENIMA_CHECK_GT(config.num_seen, 0);
  OPENIMA_CHECK_GT(config.num_novel, 0);
  nn::GatEncoderConfig enc = config.encoder;
  enc.in_dim = in_dim;
  if (enc.exec == nullptr) enc.exec = config.exec;
  config_.encoder = enc;
  model_ = std::make_unique<EncoderWithHead>(enc, config.num_classes(), &rng_);
  nn::AdamOptions adam;
  adam.lr = config.lr;
  adam.weight_decay = config.weight_decay;
  optimizer_ = std::make_unique<nn::Adam>(model_->parameters(), adam);
}

std::vector<int> OpenImaModel::ContrastiveLabels(
    const graph::Dataset& dataset, const graph::OpenWorldSplit& split,
    int epoch) {
  const int n = dataset.num_nodes();
  std::vector<int> labels(static_cast<size_t>(n), -1);
  auto fill_manual = [&] {
    for (int v : split.train_nodes) {
      labels[static_cast<size_t>(v)] =
          split.remapped_labels[static_cast<size_t>(v)];
    }
  };
  if (!config_.use_pseudo_labels) {
    if (config_.use_manual_positives) fill_manual();
    return labels;
  }
  if (epoch < config_.pseudo_warmup_epochs) {
    if (config_.use_manual_positives) fill_manual();
    return labels;
  }

  const int refresh = std::max(1, config_.pseudo_refresh_every);
  if ((epoch - config_.pseudo_warmup_epochs) % refresh == 0 ||
      cached_pseudo_labels_.empty()) {
    OPENIMA_OBS_PHASE("pseudo_label_refresh");
    OPENIMA_OBS_COUNT("train.pseudo_label_refreshes", 1);
    RefreshOutcome outcome =
        ComputeRefresh(config_, *model_, dataset, split,
                       cached_pseudo_centers_, &rng_, config_.exec, &pool_);
    ApplyRefreshOutcome(std::move(outcome), dataset, split);
  }
  labels = cached_pseudo_labels_;
  if (!config_.use_manual_positives) {
    // Pathological combination (pseudo labels without manual positives) —
    // still keep the pseudo labels, manual ones are a superset anyway.
  }
  return labels;
}

OpenImaModel::RefreshOutcome OpenImaModel::ComputeRefresh(
    const OpenImaConfig& config, const EncoderWithHead& model,
    const graph::Dataset& dataset, const graph::OpenWorldSplit& split,
    const la::Matrix& warm_centers, Rng* rng, const exec::Context* ctx,
    la::Pool* pool) {
  RefreshOutcome out;
  // Cluster on the unit sphere — the geometry the contrastive losses
  // actually optimize.
  la::Matrix emb = model.EvalEmbeddings(dataset);
  la::RowL2NormalizeInPlace(&emb, 1e-12f, ctx);
  std::vector<int> train_labels;
  train_labels.reserve(split.train_nodes.size());
  for (int v : split.train_nodes) {
    train_labels.push_back(split.remapped_labels[static_cast<size_t>(v)]);
  }
  PseudoLabelOptions pl;
  pl.clusterer = config.clusterer;
  pl.num_clusters = config.num_classes();
  pl.select_rate_pct = config.rho_pct;
  pl.kmeans.max_iterations = config.kmeans_max_iterations;
  pl.kmeans.num_init = config.kmeans_num_init;
  pl.kmeans.exec = ctx;
  pl.use_minibatch = config.large_graph_mode;
  pl.minibatch.batch_size = config.minibatch_kmeans_batch;
  pl.minibatch.max_iterations = config.minibatch_kmeans_iterations;
  pl.minibatch.exec = ctx;
  // Seed clustering from the previous refresh's centers — embeddings
  // drift slowly between refreshes, so Lloyd converges in a few
  // iterations instead of re-running k-means++ from scratch. The first
  // refresh (empty cache) stays a cold start.
  pl.warm_start_centers = warm_centers;
  const int64_t unpooled_before = la::UnpooledAllocCount();
  const int64_t pool_misses_before = pool->stats().misses;
  auto result = GenerateBiasReducedPseudoLabels(
      emb, split.train_nodes, train_labels, config.num_seen, pl, rng);
  out.unpooled_allocs = la::UnpooledAllocCount() - unpooled_before;
  out.pool_misses = pool->stats().misses - pool_misses_before;
  if (!result.ok()) {
    out.ok = false;
    out.error = result.status().ToString();
    return out;
  }
  out.ok = true;
  out.result = std::move(*result);
  return out;
}

void OpenImaModel::ApplyRefreshOutcome(RefreshOutcome outcome,
                                       const graph::Dataset& dataset,
                                       const graph::OpenWorldSplit& split) {
  const int n = dataset.num_nodes();
  stats_.refresh_unpooled_allocs.push_back(outcome.unpooled_allocs);
  stats_.refresh_pool_misses.push_back(outcome.pool_misses);
  refreshed_this_epoch_ = true;
  if (!outcome.ok) {
    OPENIMA_LOG(Warning) << "pseudo-labeling failed (" << outcome.error
                         << "); falling back to manual labels";
    std::vector<int> labels(static_cast<size_t>(n), -1);
    for (int v : split.train_nodes) {
      labels[static_cast<size_t>(v)] =
          split.remapped_labels[static_cast<size_t>(v)];
    }
    cached_pseudo_labels_ = std::move(labels);
    last_pseudo_count_ = 0;
    last_pseudo_precision_ = -1.0;
    last_alignment_churn_ = -1.0;
  } else {
    PseudoLabels& result = outcome.result;
    cached_pseudo_labels_ = result.labels;
    cached_pseudo_centers_ = std::move(result.centers);
    stats_.pseudo_labeled_last_epoch = result.num_pseudo_labeled;
    OPENIMA_OBS_GAUGE("train.pseudo_labels", result.num_pseudo_labeled);
    // Telemetry-grade quality of this refresh: precision of the selected
    // pseudo labels against ground truth (manual nodes excluded — their
    // labels are copied, not predicted) and how much of the Eq. 5
    // cluster -> class alignment changed since the previous refresh.
    std::vector<bool> is_manual(static_cast<size_t>(n), false);
    for (int v : split.train_nodes) is_manual[static_cast<size_t>(v)] = true;
    last_pseudo_count_ = result.num_pseudo_labeled;
    last_pseudo_precision_ = metrics::PseudoLabelPrecision(
        result.labels, split.remapped_labels, is_manual, config_.num_seen);
    last_alignment_churn_ =
        has_last_alignment_
            ? assign::AlignmentChurn(last_alignment_, result.alignment)
            : -1.0;
    last_alignment_ = std::move(result.alignment);
    has_last_alignment_ = true;
  }
  stats_.refresh_pseudo_counts.push_back(last_pseudo_count_);
  stats_.refresh_pseudo_precision.push_back(last_pseudo_precision_);
  stats_.refresh_alignment_churn.push_back(last_alignment_churn_);
}

Status OpenImaModel::Train(const graph::Dataset& dataset,
                           const graph::OpenWorldSplit& split) {
  const Status status = TrainEpochs(dataset, split);
  // A pipelined refresh task captures the caller's dataset/split by
  // reference, so every exit — all epochs done, a stop_after_epochs stop or
  // an error — joins it before Train() hands back control.
  JoinRefresh();
  return status;
}

Status OpenImaModel::TrainEpochs(const graph::Dataset& dataset,
                                 const graph::OpenWorldSplit& split) {
  if (epochs_done_ >= config_.epochs) {
    return Status::FailedPrecondition("model already trained");
  }
  if (config_.stop_after_epochs < 0) {
    return Status::InvalidArgument("stop_after_epochs must be >= 0");
  }
  if (dataset.feature_dim() != config_.encoder.in_dim) {
    return Status::InvalidArgument("feature dim does not match encoder");
  }
  if (split.num_seen != config_.num_seen) {
    return Status::InvalidArgument("split num_seen != config num_seen");
  }
  if (config_.workers < 0) {
    return Status::InvalidArgument("workers must be >= 0");
  }
  if (config_.workers > 0 && !config_.sampled_training) {
    return Status::InvalidArgument(
        "workers > 0 requires sampled_training (the data-parallel trainer "
        "shards sampled minibatches across replicas)");
  }
  if (config_.sampled_training && config_.sample_fanout < 0) {
    return Status::InvalidArgument("sample_fanout must be >= 0");
  }
  if (!std::isfinite(config_.tau) || config_.tau <= 0.0f) {
    return Status::InvalidArgument("tau must be finite and > 0");
  }
  const int n = dataset.num_nodes();
  const int nb = std::max(2, std::min(config_.batch_size, n));

  std::vector<int> train_labels;
  train_labels.reserve(split.train_nodes.size());
  for (int v : split.train_nodes) {
    train_labels.push_back(split.remapped_labels[static_cast<size_t>(v)]);
  }
  // CE uses both encoder views of the labeled nodes.
  std::vector<int> ce_labels = train_labels;
  ce_labels.insert(ce_labels.end(), train_labels.begin(), train_labels.end());

  // Sampled minibatch mode: a deterministic neighbor sampler over the
  // dataset's CSR graph, depth matched to the 2-layer encoder. Constructed
  // once so its dense global->local workspace is reused by every batch.
  std::unique_ptr<graph::NeighborSampler> sampler;
  if (config_.sampled_training) {
    if (!model_->encoder().SupportsSampled()) {
      return Status::InvalidArgument(
          "sampled_training requires an encoder with sampled-forward "
          "support (GAT); the GCN ablation trains full-graph only");
    }
    graph::SamplerConfig sc;
    sc.num_layers = 2;
    sc.fanout = config_.sample_fanout;
    sc.seed = seed_;
    sampler = std::make_unique<graph::NeighborSampler>(&dataset.graph, sc);
  }

  // Data-parallel substrate (the replicas, the refresh replica and its
  // thread), only when a round can hold two slots — built before the pool
  // bindings below so its long-lived storage stays off the training arena.
  if (config_.workers >= 2) {
    OPENIMA_RETURN_IF_ERROR(EnsureDataParallel(dataset));
  }

  // Activate the model's memory arena for the whole loop: matrices and
  // graph nodes built on this thread recycle through pool_/tape_ (the
  // nullptr bindings below are the plain-heap ablation path).
  const bool pooled = config_.use_memory_pool;
  la::PoolBinding pool_binding(pooled ? &pool_ : nullptr);
  autograd::TapeBinding tape_binding(pooled ? &tape_ : nullptr);

  // Resume-aware epoch window: a fresh model starts at 0; after
  // LoadCheckpoint the loop continues where the checkpointed run stopped.
  // stop_after_epochs truncates the window without changing the schedule —
  // refresh boundaries and microbatch tags stay keyed to config_.epochs, so
  // stop-save-resume replays the identical epoch sequence.
  const int last_epoch = config_.stop_after_epochs > 0
                             ? std::min(config_.epochs,
                                        config_.stop_after_epochs)
                             : config_.epochs;
  for (int epoch = epochs_done_; epoch < last_epoch; ++epoch) {
    OPENIMA_OBS_PHASE("epoch");
    const int64_t unpooled_before = la::UnpooledAllocCount();
    const int64_t pool_misses_before = pool_.stats().misses;
    if (sampler != nullptr) {
      OPENIMA_RETURN_IF_ERROR(TrainOneEpochRounds(
          dataset, split, sampler.get(), epoch, config_.epochs));
    } else {
      OPENIMA_RETURN_IF_ERROR(
          TrainOneEpoch(dataset, split, ce_labels, nb, epoch));
    }
    // TrainOneEpoch's graph is fully freed by now; recycle its tape blocks.
    if (pooled) tape_.Reset();
    stats_.epoch_unpooled_allocs.push_back(la::UnpooledAllocCount() -
                                           unpooled_before);
    stats_.epoch_pool_misses.push_back(pool_.stats().misses -
                                       pool_misses_before);
    epochs_done_ = epoch + 1;
    // Epoch heartbeat for live observers: the trainer's logical clock is
    // the epoch counter, and the exporter (if one is running) is nudged so
    // the on-disk snapshot never lags a slow epoch by a full interval.
    OPENIMA_OBS_GAUGE("train.epoch", epochs_done_);
    obs::CountEpoch();
    OPENIMA_OBS_TICK();
    obs::NotifyMetricsExporter();
  }
  stats_.pool_stats = pool_.stats();
  stats_.tape_stats = tape_.stats();
  return Status::OK();
}

Status OpenImaModel::TrainOneEpoch(const graph::Dataset& dataset,
                                   const graph::OpenWorldSplit& split,
                                   const std::vector<int>& ce_labels, int nb,
                                   int epoch) {
  const int n = dataset.num_nodes();
  refreshed_this_epoch_ = false;
  const std::vector<int> cl_labels = ContrastiveLabels(dataset, split, epoch);

  // Eval-mode embeddings for the pairwise-loss neighbor search.
  la::Matrix pair_emb;
  if (config_.large_graph_mode && config_.pairwise_loss_weight > 0.0f) {
    pair_emb = model_->EvalEmbeddings(dataset);
    la::RowL2NormalizeInPlace(&pair_emb, 1e-12f, config_.exec);
  }

  // Two stochastic views of the whole graph (SimCSE positive pairs).
  Variable z1, z2, logits1, logits2;
  {
    OPENIMA_OBS_PHASE("forward");
    z1 = model_->Embed(dataset, /*training=*/true, &rng_);
    z2 = model_->Embed(dataset, /*training=*/true, &rng_);
    const bool need_logits = config_.use_bpcl_logit || config_.use_ce ||
                             (config_.large_graph_mode &&
                              config_.pairwise_loss_weight > 0.0f);
    if (need_logits) {
      logits1 = model_->Logits(z1);
      logits2 = model_->Logits(z2);
    }
  }

  // Contrastive blocks over a shuffled node order.
  std::vector<int> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  rng_.Shuffle(&order);
  const int num_blocks = (n + nb - 1) / nb;
  const float block_scale = 1.0f / static_cast<float>(num_blocks);

  Variable total;
  // Component sums are plain double reads of already-computed 1x1 graph
  // values — the accumulation graph itself is untouched, so the total loss
  // stays bit-identical to the unrecorded path.
  EpochSums sums;
  auto add_loss = [&total](const Variable& piece, double* component) {
    *component += static_cast<double>(piece.value()(0, 0));
    total = total.defined() ? ops::Add(total, piece) : piece;
  };

  for (int blk = 0; blk < num_blocks; ++blk) {
    const int begin = blk * nb;
    const int end = std::min(n, begin + nb);
    if (end - begin < 2) continue;
    std::vector<int> nodes(order.begin() + begin, order.begin() + end);
    std::vector<int> batch_labels;
    batch_labels.reserve(nodes.size());
    for (int v : nodes) {
      batch_labels.push_back(cl_labels[static_cast<size_t>(v)]);
    }
    const auto positives = BuildPositiveSets(batch_labels);

    // Fused L2-normalize + SupCon (one op, one backward sweep) — gradients
    // identical to the composed RowL2Normalize/SupConLoss chain.
    if (config_.use_bpcl_emb) {
      Variable zb = ops::ConcatRows(
          {ops::GatherRows(z1, nodes), ops::GatherRows(z2, nodes)});
      add_loss(ops::Scale(ops::NormalizedSupCon(zb, positives, config_.tau,
                                                1e-12f, config_.exec),
                          block_scale),
               &sums.bpcl_emb);
    }
    if (config_.use_bpcl_logit) {
      Variable eb = ops::ConcatRows(
          {ops::GatherRows(logits1, nodes), ops::GatherRows(logits2, nodes)});
      add_loss(ops::Scale(ops::NormalizedSupCon(eb, positives, config_.tau,
                                                1e-12f, config_.exec),
                          block_scale),
               &sums.bpcl_logit);
    }
    if (config_.large_graph_mode && config_.pairwise_loss_weight > 0.0f) {
      // ORCA-style pairwise objective: each block node is paired with its
      // most similar block peer (cosine over current eval embeddings).
      const std::vector<ops::Pair> pairs =
          NearestNeighborPairs(pair_emb, nodes);
      if (!pairs.empty()) {
        Variable pw = ops::PairwiseDotBce(logits1, pairs);
        add_loss(ops::Scale(pw, config_.pairwise_loss_weight * block_scale),
                 &sums.pairwise);
      }
    }
  }

  if (config_.use_ce && !split.train_nodes.empty()) {
    Variable tl = ops::ConcatRows({ops::GatherRows(logits1, split.train_nodes),
                                   ops::GatherRows(logits2, split.train_nodes)});
    add_loss(ops::Scale(ops::SoftmaxCrossEntropy(tl, ce_labels), config_.eta),
             &sums.ce);
  }

  if (!total.defined()) {
    return Status::FailedPrecondition(
        "no loss component enabled in OpenImaConfig");
  }
  const int64_t watchdog_before = obs::Watchdog::events();
  {
    OPENIMA_OBS_PHASE("backward");
    model_->ZeroGrad();
    total.Backward();
  }

  // After ZeroGrad every parameter has a gradient.
  std::vector<const la::Matrix*> grads;
  for (const auto& p : model_->parameters()) grads.push_back(&p.grad());
  OPENIMA_RETURN_IF_ERROR(StepOptimizer(grads, &sums));
  // The epoch is one loss term: the block-scaled sum over every block.
  sums.loss = total.value()(0, 0);
  sums.terms = 1;
  return FinishEpoch(dataset, split, epoch, sums, watchdog_before);
}

Status OpenImaModel::StepOptimizer(
    const std::vector<const la::Matrix*>& grads, EpochSums* sums) {
  // Gradient L2 norms (global + per parameter, deterministic sequential
  // accumulation in parameter order) — measured between backward and the
  // optimizer step, only while a telemetry sink wants them.
  if (obs::TelemetryEnabled()) {
    obs::GradNormAccumulator norms;
    for (const la::Matrix* g : grads) norms.Add(g->data(), g->size());
    sums->grad_norm += norms.global();
    sums->param_grad_norms = norms.per_param();
  }
  ++sums->steps;
  optimizer_->Step(grads);
  // Surface a numeric-watchdog trip (kAbort policy) as a training error
  // instead of optimizing on NaN for the remaining steps.
  return obs::Watchdog::ConsumeStatus();
}

Status OpenImaModel::FinishEpoch(const graph::Dataset& dataset,
                                 const graph::OpenWorldSplit& split,
                                 int epoch, const EpochSums& sums,
                                 int64_t watchdog_before) {
  // Losses are means over the summed terms, the gradient norm a mean over
  // the optimizer steps. A one-term, one-step epoch (the full-graph
  // trainer) keeps its exact values: x * (1.0 / 1) == x.
  const double inv = 1.0 / static_cast<double>(sums.terms);
  const double loss = sums.loss * inv;
  stats_.epoch_losses.push_back(loss);
  stats_.epoch_ce_losses.push_back(sums.ce * inv);
  stats_.epoch_bpcl_emb_losses.push_back(sums.bpcl_emb * inv);
  stats_.epoch_bpcl_logit_losses.push_back(sums.bpcl_logit * inv);
  stats_.epoch_pairwise_losses.push_back(sums.pairwise * inv);
  OPENIMA_OBS_GAUGE("train.loss", loss);
  if (!obs::TelemetryEnabled()) return Status::OK();

  const double grad_norm =
      sums.grad_norm * (1.0 / static_cast<double>(sums.steps));
  stats_.epoch_grad_norms.push_back(grad_norm);
  obs::EpochRecord record;
  record.trainer = "OpenIMA";
  record.epoch = epoch;
  record.loss = loss;
  record.has_components = true;
  record.loss_ce = sums.ce * inv;
  record.loss_bpcl_emb = sums.bpcl_emb * inv;
  record.loss_bpcl_logit = sums.bpcl_logit * inv;
  record.loss_pairwise = sums.pairwise * inv;
  record.grad_norm = grad_norm;
  record.param_grad_norms = sums.param_grad_norms;
  record.watchdog_events = obs::Watchdog::events() - watchdog_before;
  record.pseudo_labels = last_pseudo_count_;
  record.pseudo_precision = last_pseudo_precision_;
  record.alignment_churn = last_alignment_churn_;
  record.refreshed = refreshed_this_epoch_;
  if (dp_ != nullptr) {
    record.refresh_snapshot_epoch = dp_->active_snapshot_epoch;
  }
  // Validation-quality snapshot — training stays bit-identical with
  // telemetry on or off (see FillQualitySnapshot).
  FillQualitySnapshot(HeadPredict(dataset), split, &record);
  return obs::AppendTelemetry(record);
}

OpenImaModel::MicrobatchResult OpenImaModel::RunSampledMicrobatch(
    const OpenImaConfig& config, EncoderWithHead* model,
    graph::NeighborSampler* sampler, const graph::Dataset& dataset,
    const std::vector<int>& seeds, const std::vector<int>& cl_labels,
    const std::vector<int>& train_label_of, uint64_t tag, float inv_round,
    Rng* rng) {
  const bool pairwise_on =
      config.large_graph_mode && config.pairwise_loss_weight > 0.0f;
  const int fd = dataset.feature_dim();
  const exec::Context* ctx = config.exec;
  const la::backend::KernelBackend& be = la::backend::Resolve(ctx);
  MicrobatchResult out;

  graph::SampledBlock block;
  {
    OPENIMA_OBS_PHASE("sample");
    block = sampler->Sample(seeds, tag, ctx);
  }

  // Compact feature rows for the block's input frontier via the
  // backend gather kernel (bit-identical across backends).
  la::Matrix feats(block.num_input(), fd);
  {
    OPENIMA_OBS_PHASE("gather");
    be.GatherRows(dataset.features.data(), fd, block.input_nodes.data(),
                  block.num_input(), fd, feats.data(), fd);
  }

  // Two stochastic views of the same block (SimCSE positive pairs);
  // z rows align with `seeds` because the seeds are the block's
  // output prefix in order.
  Variable z1, z2, logits1, logits2;
  {
    OPENIMA_OBS_PHASE("forward");
    z1 = model->EmbedSampled(block, feats, /*training=*/true, rng);
    z2 = model->EmbedSampled(block, feats, /*training=*/true, rng);
    if (config.use_bpcl_logit || config.use_ce || pairwise_on) {
      logits1 = model->Logits(z1);
      logits2 = model->Logits(z2);
    }
  }

  std::vector<int> batch_labels;
  batch_labels.reserve(seeds.size());
  for (int v : seeds) {
    batch_labels.push_back(cl_labels[static_cast<size_t>(v)]);
  }
  const auto positives = BuildPositiveSets(batch_labels);

  Variable total;
  double bce = 0.0, bemb = 0.0, blogit = 0.0, bpw = 0.0;
  auto add_loss = [&total](const Variable& piece, double* component) {
    *component += static_cast<double>(piece.value()(0, 0));
    total = total.defined() ? ops::Add(total, piece) : piece;
  };

  if (config.use_bpcl_emb) {
    add_loss(ops::NormalizedSupCon(ops::ConcatRows({z1, z2}), positives,
                                   config.tau, 1e-12f, ctx),
             &bemb);
  }
  if (config.use_bpcl_logit) {
    add_loss(ops::NormalizedSupCon(ops::ConcatRows({logits1, logits2}),
                                   positives, config.tau, 1e-12f, ctx),
             &blogit);
  }
  if (pairwise_on) {
    // ORCA-style pairwise objective on batch-local geometry: each seed
    // pairs with its most cosine-similar batch peer under the current
    // view's embeddings (z1 values, normalized on the fly). Unlike the
    // full-graph trainer there is no O(n*E) eval forward per epoch —
    // the batch IS the candidate pool. Indices are batch-local, which
    // is what the batch-local logits1 expects.
    const la::Matrix& zv = z1.value();
    const int bsz = zv.rows();
    const int fz = zv.cols();
    std::vector<float> norms(static_cast<size_t>(bsz));
    for (int a = 0; a < bsz; ++a) {
      double sq = 0.0;
      const float* row = zv.Row(a);
      for (int j = 0; j < fz; ++j) {
        sq += static_cast<double>(row[j]) * row[j];
      }
      norms[static_cast<size_t>(a)] =
          static_cast<float>(std::sqrt(std::max(sq, 1e-24)));
    }
    std::vector<ops::Pair> pairs;
    pairs.reserve(static_cast<size_t>(bsz));
    for (int a = 0; a < bsz; ++a) {
      const float* za = zv.Row(a);
      int best = -1;
      float best_sim = -2.0f;
      for (int c = 0; c < bsz; ++c) {
        if (a == c) continue;
        const float* zc = zv.Row(c);
        float dot = 0.0f;
        for (int j = 0; j < fz; ++j) dot += za[j] * zc[j];
        const float sim = dot / (norms[static_cast<size_t>(a)] *
                                 norms[static_cast<size_t>(c)]);
        if (sim > best_sim) {
          best_sim = sim;
          best = c;
        }
      }
      // Every similarity NaN (a non-finite embedding row): no peer.
      if (best >= 0) pairs.push_back({a, best, 1.0f});
    }
    if (!pairs.empty()) {
      add_loss(ops::Scale(ops::PairwiseDotBce(logits1, pairs),
                          config.pairwise_loss_weight),
               &bpw);
    }
  }
  if (config.use_ce) {
    std::vector<int> labeled_local, labels;
    for (size_t i = 0; i < seeds.size(); ++i) {
      const int l = train_label_of[static_cast<size_t>(seeds[i])];
      if (l >= 0) {
        labeled_local.push_back(static_cast<int>(i));
        labels.push_back(l);
      }
    }
    if (!labeled_local.empty()) {
      std::vector<int> both = labels;
      both.insert(both.end(), labels.begin(), labels.end());
      Variable tl = ops::ConcatRows({ops::GatherRows(logits1, labeled_local),
                                     ops::GatherRows(logits2, labeled_local)});
      add_loss(ops::Scale(ops::SoftmaxCrossEntropy(tl, both), config.eta),
               &bce);
    }
  }

  // A CE-only batch without labeled seeds has nothing to optimize.
  if (!total.defined()) return out;

  {
    OPENIMA_OBS_PHASE("backward");
    model->ZeroGrad();
    // Rounds of R microbatches backpropagate loss/R so that summing their R
    // gradients yields the gradient of the round's mean loss. The scaling
    // op is skipped entirely at inv_round == 1 — 1-microbatch rounds keep
    // the exact unscaled graph.
    if (inv_round != 1.0f) {
      ops::Scale(total, inv_round).Backward();
    } else {
      total.Backward();
    }
  }
  out.stepped = true;
  out.loss = static_cast<double>(total.value()(0, 0));
  out.ce = bce;
  out.bpcl_emb = bemb;
  out.bpcl_logit = blogit;
  out.pairwise = bpw;
  return out;
}

std::vector<int> OpenImaModel::HeadPredict(
    const graph::Dataset& dataset) const {
  // The eval matrices recycle through the model's arena, as in training;
  // only the class ids leave.
  la::PoolBinding pool_binding(config_.use_memory_pool ? &pool_ : nullptr);
  return la::RowArgmax(model_->EvalLogits(dataset));
}

StatusOr<std::vector<int>> OpenImaModel::Predict(
    const graph::Dataset& dataset, const graph::OpenWorldSplit& split) {
  la::PoolBinding pool_binding(config_.use_memory_pool ? &pool_ : nullptr);
  const bool head_trained = config_.use_ce || config_.use_bpcl_logit;
  if (config_.large_graph_mode && head_trained &&
      config_.large_graph_head_predict) {
    // §V-B point 7: predict with the classification head on large graphs.
    return HeadPredict(dataset);
  }
  la::Matrix emb = model_->EvalEmbeddings(dataset);
  // Cluster in the contrastive geometry.
  la::RowL2NormalizeInPlace(&emb, 1e-12f, config_.exec);
  cluster::KMeansResult kmeans_result;
  if (config_.large_graph_mode) {
    // Head untrained (pure contrastive variants): mini-batch K-Means.
    cluster::MiniBatchKMeansOptions mb;
    mb.num_clusters = config_.num_classes();
    mb.batch_size = config_.minibatch_kmeans_batch;
    mb.max_iterations = config_.minibatch_kmeans_iterations;
    mb.exec = config_.exec;
    auto result = cluster::MiniBatchKMeans(emb, mb, &rng_);
    OPENIMA_RETURN_IF_ERROR(result.status());
    kmeans_result = std::move(*result);
  } else {
    std::vector<int> tc, tl;
    tc.reserve(split.train_nodes.size());
    tl.reserve(split.train_nodes.size());
    for (int v : split.train_nodes) {
      tc.push_back(v);
      tl.push_back(split.remapped_labels[static_cast<size_t>(v)]);
    }
    auto result = RunClusterer(config_.clusterer, emb, config_.num_classes(),
                               tc, tl, split.num_seen,
                               config_.kmeans_max_iterations,
                               std::max(config_.kmeans_num_init, 3), &rng_,
                               config_.exec);
    OPENIMA_RETURN_IF_ERROR(result.status());
    kmeans_result = std::move(*result);
  }
  const cluster::KMeansResult* result = &kmeans_result;

  std::vector<int> train_clusters, train_labels;
  train_clusters.reserve(split.train_nodes.size());
  train_labels.reserve(split.train_nodes.size());
  for (int v : split.train_nodes) {
    train_clusters.push_back(result->assignments[static_cast<size_t>(v)]);
    train_labels.push_back(split.remapped_labels[static_cast<size_t>(v)]);
  }
  auto alignment = assign::AlignClustersWithLabels(
      train_clusters, train_labels, config_.num_classes(), split.num_seen);
  OPENIMA_RETURN_IF_ERROR(alignment.status());
  return assign::ApplyAlignment(result->assignments, *alignment,
                                split.num_seen);
}

}  // namespace openima::core

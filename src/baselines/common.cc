#include "src/baselines/common.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include "src/cluster/kmeans.h"
#include "src/la/matrix_ops.h"
#include "src/obs/obs.h"
#include "src/util/logging.h"

namespace openima::baselines {

std::vector<int> TrainLabels(const graph::OpenWorldSplit& split) {
  std::vector<int> labels;
  labels.reserve(split.train_nodes.size());
  for (int v : split.train_nodes) {
    labels.push_back(split.remapped_labels[static_cast<size_t>(v)]);
  }
  return labels;
}

std::vector<std::vector<int>> ShuffledBlocks(int n, int batch_size, Rng* rng) {
  std::vector<int> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  rng->Shuffle(&order);
  const int nb = std::max(2, std::min(batch_size, n));
  std::vector<std::vector<int>> blocks;
  for (int begin = 0; begin < n; begin += nb) {
    const int end = std::min(n, begin + nb);
    if (end - begin < 2) break;
    blocks.emplace_back(order.begin() + begin, order.begin() + end);
  }
  return blocks;
}

std::vector<bool> OodSplitByScore(const std::vector<double>& scores) {
  OPENIMA_CHECK(!scores.empty());
  // 1-D 2-means initialized at the min / max scores.
  const auto [mn_it, mx_it] = std::minmax_element(scores.begin(), scores.end());
  double lo = *mn_it, hi = *mx_it;
  if (hi - lo < 1e-12) {
    return std::vector<bool>(scores.size(), false);
  }
  for (int iter = 0; iter < 50; ++iter) {
    double sum_lo = 0.0, sum_hi = 0.0;
    int n_lo = 0, n_hi = 0;
    const double mid = 0.5 * (lo + hi);
    for (double s : scores) {
      if (s < mid) {
        sum_lo += s;
        ++n_lo;
      } else {
        sum_hi += s;
        ++n_hi;
      }
    }
    if (n_lo == 0 || n_hi == 0) break;
    const double new_lo = sum_lo / n_lo;
    const double new_hi = sum_hi / n_hi;
    if (std::fabs(new_lo - lo) + std::fabs(new_hi - hi) < 1e-9) break;
    lo = new_lo;
    hi = new_hi;
  }
  const double threshold = 0.5 * (lo + hi);
  std::vector<bool> ood(scores.size());
  for (size_t i = 0; i < scores.size(); ++i) ood[i] = scores[i] >= threshold;
  return ood;
}

StatusOr<std::vector<int>> ClusterDetectedOod(
    const la::Matrix& embeddings, const std::vector<int>& seen_predictions,
    const std::vector<bool>& ood_mask, int num_seen, int num_novel, Rng* rng,
    const exec::Context* exec_ctx) {
  const int n = embeddings.rows();
  if (static_cast<int>(seen_predictions.size()) != n ||
      static_cast<int>(ood_mask.size()) != n) {
    return Status::InvalidArgument("size mismatch");
  }
  std::vector<int> ood_nodes;
  for (int i = 0; i < n; ++i) {
    if (ood_mask[static_cast<size_t>(i)]) ood_nodes.push_back(i);
  }
  std::vector<int> predictions = seen_predictions;
  if (static_cast<int>(ood_nodes.size()) >= num_novel && num_novel > 0) {
    la::Matrix sub = la::GatherRows(embeddings, ood_nodes, exec_ctx);
    cluster::KMeansOptions km;
    km.num_clusters = num_novel;
    km.max_iterations = 50;
    km.exec = exec_ctx;
    auto result = cluster::KMeans(sub, km, rng);
    OPENIMA_RETURN_IF_ERROR(result.status());
    for (size_t i = 0; i < ood_nodes.size(); ++i) {
      predictions[static_cast<size_t>(ood_nodes[i])] =
          num_seen + result->assignments[i];
    }
  } else {
    // Too few detected OOD nodes to cluster: lump them into one novel id.
    for (int v : ood_nodes) predictions[static_cast<size_t>(v)] = num_seen;
  }
  return predictions;
}

FullGraphBaseline::FullGraphBaseline(const char* trainer,
                                     const BaselineConfig& config, int in_dim,
                                     uint64_t seed, int head_outputs)
    : config_(config), rng_(seed), trainer_(trainer) {
  config_.encoder.in_dim = in_dim;
  if (head_outputs > 0) {
    model_ = std::make_unique<core::EncoderWithHead>(config_.encoder,
                                                     head_outputs, &rng_);
    InitOptimizer(model_->parameters());
  }
}

void FullGraphBaseline::InitOptimizer(
    std::vector<autograd::Variable> parameters) {
  nn::AdamOptions adam;
  adam.lr = config_.lr;
  adam.weight_decay = config_.weight_decay;
  parameters_ = parameters;
  optimizer_ = std::make_unique<nn::Adam>(std::move(parameters), adam);
}

void FullGraphBaseline::AddLoss(autograd::Variable* total,
                                const autograd::Variable& piece) {
  *total = total->defined() ? autograd::ops::Add(*total, piece) : piece;
}

Status FullGraphBaseline::Train(const graph::Dataset& dataset,
                                const graph::OpenWorldSplit& split) {
  // Arena-backed training: matrices and graph nodes built per step
  // recycle through arena_, so steady-state epochs stop allocating.
  nn::TrainingArena::Binding arena_binding(&arena_);

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    OPENIMA_OBS_PHASE("epoch");
    // The previous iteration's graph is freed by now; recycle it.
    arena_.EndEpoch();
    const autograd::Variable total = EpochLoss(dataset, split, epoch);
    if (!total.defined()) {
      return Status::FailedPrecondition(std::string("no ") + trainer_ +
                                        " loss component active");
    }
    const int64_t watchdog_before = obs::Watchdog::events();
    for (autograd::Variable& p : parameters_) p.ZeroGrad();
    total.Backward();
    optimizer_->Step();

    obs::CountEpoch();
    OPENIMA_RETURN_IF_ERROR(obs::Watchdog::ConsumeStatus());
    if (!obs::TelemetryEnabled()) continue;
    obs::EpochRecord record;
    record.trainer = trainer_;
    record.epoch = epoch;
    record.loss = total.value()(0, 0);
    obs::GradNormAccumulator norms;
    for (const autograd::Variable& p : parameters_) {
      if (!p.HasGrad()) continue;
      norms.Add(p.grad().data(), p.grad().size());
    }
    record.grad_norm = norms.global();
    record.param_grad_norms = norms.per_param();
    record.watchdog_events = obs::Watchdog::events() - watchdog_before;
    OPENIMA_RETURN_IF_ERROR(obs::AppendTelemetry(record));
  }
  return Status::OK();
}

StatusOr<std::vector<int>> FullGraphBaseline::Predict(
    const graph::Dataset& dataset, const graph::OpenWorldSplit& split) {
  (void)split;
  return la::RowArgmax(model_->EvalLogits(dataset));
}

la::Matrix FullGraphBaseline::Embeddings(const graph::Dataset& dataset) const {
  return model_->EvalEmbeddings(dataset);
}

}  // namespace openima::baselines

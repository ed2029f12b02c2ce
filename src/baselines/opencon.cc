#include "src/baselines/opencon.h"

#include <algorithm>
#include <cmath>

#include "src/assign/cluster_alignment.h"
#include "src/cluster/kmeans.h"
#include "src/core/positive_sets.h"
#include "src/la/matrix_ops.h"

namespace openima::baselines {

namespace ops = autograd::ops;
using autograd::Variable;

OpenConClassifier::OpenConClassifier(const BaselineConfig& config,
                                     const OpenConOptions& options, int in_dim,
                                     uint64_t seed)
    : FullGraphBaseline("OpenCon", config, in_dim, seed, config.num_classes()),
      options_(options),
      prototypes_(config.num_classes(), config.encoder.embedding_dim) {}

std::vector<int> OpenConClassifier::PrototypePseudoLabels(
    const la::Matrix& normalized_emb, const graph::OpenWorldSplit& split) {
  const int n = normalized_emb.rows();
  const int s = config_.num_seen;
  const int k = config_.num_classes();

  if (!prototypes_initialized_) {
    // Seen prototypes: labeled class means. Novel prototypes: K-Means
    // centers over the unlabeled nodes.
    std::vector<int> counts(static_cast<size_t>(s), 0);
    for (int v : split.train_nodes) {
      const int y = split.remapped_labels[static_cast<size_t>(v)];
      ++counts[static_cast<size_t>(y)];
      float* proto = prototypes_.Row(y);
      const float* z = normalized_emb.Row(v);
      for (int j = 0; j < normalized_emb.cols(); ++j) proto[j] += z[j];
    }
    const std::vector<int> unlabeled = split.UnlabeledNodes();
    if (static_cast<int>(unlabeled.size()) >= config_.num_novel) {
      la::Matrix sub = la::GatherRows(normalized_emb, unlabeled);
      cluster::KMeansOptions km;
      km.num_clusters = config_.num_novel;
      km.max_iterations = 30;
      km.exec = config_.encoder.exec;
      auto result = cluster::KMeans(sub, km, &rng_);
      if (result.ok()) {
        for (int c = 0; c < config_.num_novel; ++c) {
          prototypes_.SetRow(s + c, result->centers, c);
        }
      }
    }
    la::RowL2NormalizeInPlace(&prototypes_);
    prototypes_initialized_ = true;
  }

  // Similarities node x prototype.
  la::Matrix sims = la::MatmulNT(normalized_emb, prototypes_);

  // OOD threshold: low quantile of labeled nodes' own-class similarity.
  std::vector<float> labeled_sims;
  labeled_sims.reserve(split.train_nodes.size());
  for (int v : split.train_nodes) {
    const int y = split.remapped_labels[static_cast<size_t>(v)];
    labeled_sims.push_back(sims(v, y));
  }
  float threshold = -1.0f;
  if (!labeled_sims.empty()) {
    std::sort(labeled_sims.begin(), labeled_sims.end());
    const size_t idx = static_cast<size_t>(
        options_.ood_quantile * static_cast<double>(labeled_sims.size() - 1));
    threshold = labeled_sims[idx];
  }

  std::vector<int> pseudo(static_cast<size_t>(n), -1);
  std::vector<bool> is_labeled(static_cast<size_t>(n), false);
  for (int v : split.train_nodes) {
    pseudo[static_cast<size_t>(v)] =
        split.remapped_labels[static_cast<size_t>(v)];
    is_labeled[static_cast<size_t>(v)] = true;
  }
  for (int v = 0; v < n; ++v) {
    if (is_labeled[static_cast<size_t>(v)]) continue;
    const float* srow = sims.Row(v);
    float best_seen = srow[0];
    int best_seen_id = 0;
    for (int c = 1; c < s; ++c) {
      if (srow[c] > best_seen) {
        best_seen = srow[c];
        best_seen_id = c;
      }
    }
    if (best_seen >= threshold) {
      pseudo[static_cast<size_t>(v)] = best_seen_id;
    } else {
      int best_novel_id = s;
      for (int c = s + 1; c < k; ++c) {
        if (srow[c] > srow[best_novel_id]) best_novel_id = c;
      }
      pseudo[static_cast<size_t>(v)] = best_novel_id;
    }
  }

  // EMA prototype refresh from the current pseudo-labeled means.
  la::Matrix means(k, normalized_emb.cols());
  std::vector<int> counts(static_cast<size_t>(k), 0);
  for (int v = 0; v < n; ++v) {
    const int y = pseudo[static_cast<size_t>(v)];
    ++counts[static_cast<size_t>(y)];
    float* m = means.Row(y);
    const float* z = normalized_emb.Row(v);
    for (int j = 0; j < means.cols(); ++j) m[j] += z[j];
  }
  const float gamma = options_.proto_momentum;
  for (int c = 0; c < k; ++c) {
    if (counts[static_cast<size_t>(c)] == 0) continue;
    float* proto = prototypes_.Row(c);
    const float* m = means.Row(c);
    const float inv = 1.0f / static_cast<float>(counts[static_cast<size_t>(c)]);
    for (int j = 0; j < means.cols(); ++j) {
      proto[j] = gamma * proto[j] + (1.0f - gamma) * m[j] * inv;
    }
  }
  la::RowL2NormalizeInPlace(&prototypes_);
  return pseudo;
}

Variable OpenConClassifier::EpochLoss(const graph::Dataset& dataset,
                                      const graph::OpenWorldSplit& split,
                                      int epoch) {
  (void)epoch;
  const int n = dataset.num_nodes();
  la::Matrix norm_emb = model_->EvalEmbeddings(dataset);
  la::RowL2NormalizeInPlace(&norm_emb);
  const std::vector<int> pseudo = PrototypePseudoLabels(norm_emb, split);

  Variable z1 = model_->Embed(dataset, /*training=*/true, &rng_);
  Variable z2 = model_->Embed(dataset, /*training=*/true, &rng_);

  Variable total;
  if (options_.ce_weight > 0.0f && !split.train_nodes.empty()) {
    Variable logits = model_->Logits(z1);
    AddLoss(&total, ops::Scale(ops::SoftmaxCrossEntropy(
                                   ops::GatherRows(logits, split.train_nodes),
                                   TrainLabels(split)),
                               options_.ce_weight));
  }

  if (options_.con_weight > 0.0f) {
    const auto blocks = ShuffledBlocks(n, config_.batch_size, &rng_);
    const float scale =
        options_.con_weight / static_cast<float>(blocks.size());
    for (const auto& block : blocks) {
      std::vector<int> batch_labels;
      batch_labels.reserve(block.size());
      for (int v : block) {
        batch_labels.push_back(pseudo[static_cast<size_t>(v)]);
      }
      const auto positives = core::BuildPositiveSets(batch_labels);
      Variable zb = ops::ConcatRows(
          {ops::GatherRows(z1, block), ops::GatherRows(z2, block)});
      zb = ops::RowL2Normalize(zb);
      AddLoss(&total, ops::Scale(ops::SupConLoss(zb, positives,
                                                 options_.con_temp,
                                                 config_.encoder.exec),
                                 scale));
    }
  }
  return total;
}

StatusOr<std::vector<int>> OpenConClassifier::Predict(
    const graph::Dataset& dataset, const graph::OpenWorldSplit& split) {
  la::Matrix emb = model_->EvalEmbeddings(dataset);
  if (options_.two_stage_predict) {
    cluster::KMeansOptions km;
    km.num_clusters = config_.num_classes();
    km.max_iterations = 50;
    km.num_init = 3;
    km.exec = config_.encoder.exec;
    auto result = cluster::KMeans(emb, km, &rng_);
    OPENIMA_RETURN_IF_ERROR(result.status());
    std::vector<int> train_clusters;
    train_clusters.reserve(split.train_nodes.size());
    for (int v : split.train_nodes) {
      train_clusters.push_back(result->assignments[static_cast<size_t>(v)]);
    }
    auto alignment = assign::AlignClustersWithLabels(
        train_clusters, TrainLabels(split), km.num_clusters, split.num_seen);
    OPENIMA_RETURN_IF_ERROR(alignment.status());
    return assign::ApplyAlignment(result->assignments, *alignment,
                                  split.num_seen);
  }
  la::RowL2NormalizeInPlace(&emb);
  la::Matrix sims = la::MatmulNT(emb, prototypes_);
  return la::RowArgmax(sims);
}

}  // namespace openima::baselines

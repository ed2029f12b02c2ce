#include "src/core/positive_sets.h"

#include <unordered_map>

#include "src/util/logging.h"

namespace openima::core {

std::vector<std::vector<int>> BuildPositiveSets(
    const std::vector<int>& batch_labels) {
  const int nb = static_cast<int>(batch_labels.size());
  OPENIMA_CHECK_GT(nb, 0);
  const int total = 2 * nb;

  // Group data-point indices by label.
  std::unordered_map<int, std::vector<int>> by_label;
  for (int i = 0; i < total; ++i) {
    const int label = batch_labels[static_cast<size_t>(i % nb)];
    if (label >= 0) by_label[label].push_back(i);
  }

  std::vector<std::vector<int>> positives(static_cast<size_t>(total));
  for (int i = 0; i < total; ++i) {
    const int twin = (i + nb) % total;
    const int label = batch_labels[static_cast<size_t>(i % nb)];
    auto& set = positives[static_cast<size_t>(i)];
    if (label < 0) {
      set.push_back(twin);
      continue;
    }
    const auto& group = by_label[label];
    set.reserve(group.size() - 1);
    for (int j : group) {
      if (j != i) set.push_back(j);
    }
    OPENIMA_CHECK(!set.empty());
  }
  return positives;
}

std::vector<autograd::ops::Pair> NearestNeighborPairs(
    const la::Matrix& normalized, const std::vector<int>& nodes) {
  std::vector<autograd::ops::Pair> pairs;
  if (nodes.size() < 2) return pairs;
  pairs.reserve(nodes.size());
  const int d = normalized.cols();
  for (size_t a = 0; a < nodes.size(); ++a) {
    const float* za = normalized.Row(nodes[a]);
    int best = -1;
    float best_sim = -2.0f;
    for (size_t b = 0; b < nodes.size(); ++b) {
      if (a == b) continue;
      const float* zb = normalized.Row(nodes[b]);
      float sim = 0.0f;
      for (int j = 0; j < d; ++j) sim += za[j] * zb[j];
      if (sim > best_sim) {
        best_sim = sim;
        best = static_cast<int>(b);
      }
    }
    // A NaN similarity never compares greater, so `best` stays -1 only
    // when every similarity of this node is NaN.
    if (best < 0) continue;
    pairs.push_back({nodes[a], nodes[static_cast<size_t>(best)], 1.0f});
  }
  return pairs;
}

}  // namespace openima::core

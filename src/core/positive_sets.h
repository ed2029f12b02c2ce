#ifndef OPENIMA_CORE_POSITIVE_SETS_H_
#define OPENIMA_CORE_POSITIVE_SETS_H_

#include <vector>

#include "src/autograd/ops.h"
#include "src/la/matrix.h"

namespace openima::core {

/// Builds the in-batch positive index sets P(i) for the paper's contrastive
/// losses (Eq. 7 / Eq. 8).
///
/// A contrastive batch holds 2*Nb data points: two encoder views of each of
/// the Nb sampled nodes, laid out as [view1[0..Nb), view2[0..Nb)] so that
/// data points i and i + Nb are SimCSE dropout twins.
///
/// `batch_labels[i]` is the (manual or pseudo) class label of batch node i,
/// or -1 when the node has neither. Positives of an anchor are every other
/// data point sharing its label; unlabeled anchors fall back to their twin
/// only, which reduces Eq. 7 to InfoNCE for them. Every set is non-empty and
/// excludes the anchor itself.
std::vector<std::vector<int>> BuildPositiveSets(
    const std::vector<int>& batch_labels);

/// For each node in `nodes`, finds its most cosine-similar other node in
/// `nodes` (over rows of `normalized`, which must be L2-normalized) and
/// emits a positive pair — the pseudo-positive pairing of ORCA, OpenLDN and
/// OpenIMA's large-graph pairwise term. A node whose similarities are all
/// non-finite (a NaN embedding row) gets no pair, so the result can be
/// shorter than `nodes`, and empty.
std::vector<autograd::ops::Pair> NearestNeighborPairs(
    const la::Matrix& normalized, const std::vector<int>& nodes);

}  // namespace openima::core

#endif  // OPENIMA_CORE_POSITIVE_SETS_H_

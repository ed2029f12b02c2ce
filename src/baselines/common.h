#ifndef OPENIMA_BASELINES_COMMON_H_
#define OPENIMA_BASELINES_COMMON_H_

#include <cstdint>
#include <vector>

#include "src/autograd/ops.h"
#include "src/graph/splits.h"
#include "src/la/matrix.h"
#include "src/nn/arena.h"
#include "src/nn/gat.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace openima::baselines {

/// Hyper-parameters shared by every baseline trainer. Mirrors the paper's
/// protocol: same GAT encoder family, Adam + weight decay 1e-4, per-method
/// learning rates.
struct BaselineConfig {
  nn::GatEncoderConfig encoder;
  int num_seen = 1;
  int num_novel = 1;
  float lr = 1e-3f;
  float weight_decay = 1e-4f;
  int epochs = 50;
  int batch_size = 2048;

  int num_classes() const { return num_seen + num_novel; }
};

/// Remapped labels of the split's training nodes.
std::vector<int> TrainLabels(const graph::OpenWorldSplit& split);

/// Splits [0, n) into shuffled blocks of at most `batch_size` (>= 2 each).
std::vector<std::vector<int>> ShuffledBlocks(int n, int batch_size, Rng* rng);

/// Given per-node OOD scores (higher = more likely novel), splits nodes into
/// in-distribution / OOD by 1-D 2-means on the scores (threshold = midpoint
/// of the two cluster means). Returns the OOD mask. Used by the C+1 methods
/// (OODGAT / OpenWGL) whose detected OOD nodes are post-clustered.
std::vector<bool> OodSplitByScore(const std::vector<double>& scores);

/// The C+1 -> C + C-bar extension of the paper's evaluation (the dagger
/// variants): nodes flagged OOD are K-Means-clustered (over their embedding
/// rows) into `num_novel` clusters with ids num_seen..num_seen+num_novel-1;
/// in-distribution nodes keep their head prediction in [0, num_seen).
StatusOr<std::vector<int>> ClusterDetectedOod(
    const la::Matrix& embeddings, const std::vector<int>& seen_predictions,
    const std::vector<bool>& ood_mask, int num_seen, int num_novel, Rng* rng,
    const exec::Context* exec = nullptr);

/// Per-epoch telemetry + numeric-health epilogue shared by every baseline
/// trainer. Call right after `optimizer->Step()` with the epoch's total
/// loss and the model parameters: counts the epoch (obs::CountEpoch),
/// surfaces a numeric-watchdog trip (kAbort policy) as an error Status,
/// and — while a telemetry sink is active — appends an EpochRecord with
/// the loss and global/per-parameter gradient L2 norms.
/// `watchdog_events_before` is obs::Watchdog::events() sampled before the
/// backward pass (0 is fine when the watchdog is off). Compiled to nothing
/// under OPENIMA_OBS=OFF.
Status FinishEpochTelemetry(const char* trainer, int epoch, double loss,
                            const std::vector<autograd::Variable>& parameters,
                            int64_t watchdog_events_before);

}  // namespace openima::baselines

#endif  // OPENIMA_BASELINES_COMMON_H_

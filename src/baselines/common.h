#ifndef OPENIMA_BASELINES_COMMON_H_
#define OPENIMA_BASELINES_COMMON_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/autograd/ops.h"
#include "src/core/classifier.h"
#include "src/core/encoder_with_head.h"
#include "src/graph/splits.h"
#include "src/la/matrix.h"
#include "src/nn/adam.h"
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

/// The protocol every end-to-end baseline trains under (DESIGN.md §4): the
/// shared GAT encoder, one Adam step (weight decay 1e-4) per full-graph
/// epoch. `Train` is the only baseline epoch loop: each epoch it recycles
/// the arena, asks the subclass for its loss, steps Adam, counts the epoch,
/// surfaces a numeric-watchdog trip (kAbort policy) as an error Status and,
/// while a telemetry sink is active, appends an EpochRecord with the loss
/// and the global/per-parameter gradient L2 norms. A baseline supplies
/// `EpochLoss`, plus `Predict`/`Embeddings` where its rule is not the head
/// argmax over the encoder's embeddings.
class FullGraphBaseline : public core::OpenWorldClassifier {
 public:
  Status Train(const graph::Dataset& dataset,
               const graph::OpenWorldSplit& split) final;
  /// Head argmax over the eval-mode logits.
  StatusOr<std::vector<int>> Predict(
      const graph::Dataset& dataset,
      const graph::OpenWorldSplit& split) override;
  /// Eval-mode encoder embeddings.
  la::Matrix Embeddings(const graph::Dataset& dataset) const override;

 protected:
  /// `trainer` labels telemetry records and the no-loss error. With
  /// `head_outputs` > 0, builds the encoder + head (drawing its init from
  /// rng_) and Adam over its parameters; with 0 the subclass builds its own
  /// modules and calls InitOptimizer.
  FullGraphBaseline(const char* trainer, const BaselineConfig& config,
                    int in_dim, uint64_t seed, int head_outputs);

  /// The epoch's training loss over a fresh training-mode forward (dropout
  /// and any sampling draw from rng_), or an undefined Variable when no
  /// loss component is active. Runs inside the arena binding.
  virtual autograd::Variable EpochLoss(const graph::Dataset& dataset,
                                       const graph::OpenWorldSplit& split,
                                       int epoch) = 0;

  /// Adam over `parameters`; telemetry reports their norms in this order.
  void InitOptimizer(std::vector<autograd::Variable> parameters);

  /// *total += piece; the first piece becomes the total.
  static void AddLoss(autograd::Variable* total,
                      const autograd::Variable& piece);

  // Declared first among data members: the model, the optimizer and every
  // subclass member may retain pooled storage (parameter gradients, Adam
  // moments, prototypes), and subclass members die before base members, so
  // the arena pool is destroyed after all of it.
  nn::TrainingArena arena_;
  BaselineConfig config_;  ///< encoder.in_dim is the dataset's
  Rng rng_;
  /// Encoder + head; null when the subclass builds its own modules.
  std::unique_ptr<core::EncoderWithHead> model_;

 private:
  const char* trainer_;
  std::vector<autograd::Variable> parameters_;  ///< Adam's, in its order
  std::unique_ptr<nn::Adam> optimizer_;
};

}  // namespace openima::baselines

#endif  // OPENIMA_BASELINES_COMMON_H_

#ifndef OPENIMA_PERFBENCH_REPLAY_H_
#define OPENIMA_PERFBENCH_REPLAY_H_

#include <memory>
#include <vector>

#include "perfbench/bench.h"
#include "perfbench/trace.h"
#include "src/graph/sampler.h"
#include "src/la/matrix.h"

namespace perfbench {

/// Replays one classify request through the public functions Classify is
/// built from — NeighborSampler::Sample, backend GatherRows,
/// EncoderWithHead::EmbedSampled, RowL2NormalizeInPlace,
/// PairwiseSquaredDistances, nearest center, cluster_to_final_class() —
/// with a span around each call when a tracer is given. Uses the trained
/// model whose checkpoint the service loaded.
class ServeReplay {
 public:
  explicit ServeReplay(const ServeFixture& fixture, Tracer* tracer = nullptr);

  /// Class ids of `nodes`, in order.
  std::vector<int> Classify(const std::vector<int>& nodes, uint64_t tag);

  /// The last request's sampled block and gathered features.
  const oi::graph::SampledBlock& last_block() const { return block_; }
  const oi::la::Matrix& last_features() const { return features_; }

 private:
  const ServeFixture& fixture_;
  Tracer* tracer_;
  std::unique_ptr<oi::graph::NeighborSampler> sampler_;
  oi::graph::SampledBlock block_;
  oi::la::Matrix features_;
};

}  // namespace perfbench

#endif  // OPENIMA_PERFBENCH_REPLAY_H_

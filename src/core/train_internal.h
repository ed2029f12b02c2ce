#ifndef OPENIMA_CORE_TRAIN_INTERNAL_H_
#define OPENIMA_CORE_TRAIN_INTERNAL_H_

#include <memory>
#include <vector>

#include "src/autograd/tape.h"
#include "src/core/openima.h"
#include "src/exec/context.h"
#include "src/la/pool.h"
#include "src/util/thread_pool.h"

namespace openima::core {

/// One persistent worker replica of the data-parallel trainer: round slot j
/// always runs on replica j, as a task of the primary's context. Member
/// order matters: the pool is declared first so it outlives the model
/// parameters and tape blocks drawn from it.
struct OpenImaModel::WorkerReplica {
  la::Pool pool;
  autograd::Tape tape;
  exec::Context ctx{1};  ///< pinned to the primary's kernel backend
  std::unique_ptr<EncoderWithHead> model;
  std::unique_ptr<graph::NeighborSampler> sampler;
};

/// All data-parallel state, built once by EnsureDataParallel
/// (data_parallel.cc). Destruction order (reverse of declaration): the
/// refresh thread joins first, after any in-flight background refresh, and
/// only then do the models and pools go away.
struct OpenImaModel::DataParallelState {
  std::vector<std::unique_ptr<WorkerReplica>> replicas;

  // Pipelined pseudo-label refresh (null thread and model without pseudo
  // labels).
  la::Pool refresh_pool;
  exec::Context refresh_ctx{1};
  std::unique_ptr<EncoderWithHead> refresh_model;
  RefreshOutcome pending;
  bool refresh_pending = false;
  uint64_t refresh_counter = 0;
  int active_snapshot_epoch = -1;  ///< snapshot epoch of the labels in use
  std::unique_ptr<ThreadPool> refresh_thread;  ///< one real thread
};

}  // namespace openima::core

#endif  // OPENIMA_CORE_TRAIN_INTERNAL_H_

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

/// One persistent worker replica of the data-parallel trainer: round slot
/// j >= 1 always runs on replica j - 1, as a task of the model's context,
/// whose kernels it shares (they run inline inside the task). Its own pool
/// and tape keep each slot the only user of its arena, so pool traffic is
/// a function of the inputs alone. Member order matters: the pool is
/// declared first so it outlives the model parameters and tape blocks
/// drawn from it.
struct OpenImaModel::WorkerReplica {
  la::Pool pool;
  autograd::Tape tape;
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
  // labels). The refresh replica runs on its own thread, outside any
  // ParallelFor, so it keeps a one-thread context of its own.
  la::Pool refresh_pool;
  exec::Context refresh_ctx{1};  ///< pinned to the model's kernel backend
  std::unique_ptr<EncoderWithHead> refresh_model;
  RefreshOutcome pending;
  bool refresh_pending = false;
  uint64_t refresh_counter = 0;
  int active_snapshot_epoch = -1;  ///< snapshot epoch of the labels in use
  std::unique_ptr<ThreadPool> refresh_thread;  ///< one real thread
};

}  // namespace openima::core

#endif  // OPENIMA_CORE_TRAIN_INTERNAL_H_

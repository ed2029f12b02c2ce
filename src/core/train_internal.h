#ifndef OPENIMA_CORE_TRAIN_INTERNAL_H_
#define OPENIMA_CORE_TRAIN_INTERNAL_H_

#include <memory>
#include <vector>

#include "src/autograd/tape.h"
#include "src/core/openima.h"
#include "src/exec/replica.h"
#include "src/la/pool.h"
#include "src/util/thread_pool.h"

namespace openima::core {

/// One persistent worker replica of the data-parallel trainer. Member order
/// matters: the pool is declared first so it outlives the model parameters
/// and tape blocks drawn from it.
struct OpenImaModel::WorkerReplica {
  la::Pool pool;
  autograd::Tape tape;
  exec::Context* ctx = nullptr;  ///< owned by the ReplicaSet
  std::unique_ptr<EncoderWithHead> model;
  std::unique_ptr<graph::NeighborSampler> sampler;
  MicrobatchResult result;
};

/// All data-parallel substrate, built once by EnsureDataParallel
/// (data_parallel.cc). Destruction order (reverse of declaration): the
/// refresh TaskGroup is destroyed first and waits for any in-flight
/// background refresh, then the refresh thread joins, and only then do the
/// models and pools go away.
struct OpenImaModel::DataParallelState {
  // Worker substrate — threaded mode only (null in reference mode).
  std::unique_ptr<exec::ReplicaSet> set;
  std::vector<std::unique_ptr<WorkerReplica>> replicas;

  // Reference-mode gradient accumulators: one buffer per round slot per
  // parameter, standing in for the replicas' gradient buffers.
  std::vector<std::vector<la::Matrix>> ref_grads;

  // Pipelined pseudo-label refresh (both modes; the reference runs the
  // compute inline at the same schedule points).
  la::Pool refresh_pool;
  exec::Context refresh_ctx{1};
  std::unique_ptr<EncoderWithHead> refresh_model;
  RefreshOutcome pending;
  bool refresh_pending = false;
  uint64_t refresh_counter = 0;
  int active_snapshot_epoch = -1;  ///< snapshot epoch of the labels in use
  std::unique_ptr<ThreadPool> refresh_thread;  // one real thread; null = ref
  std::unique_ptr<TaskGroup> refresh_group;
};

}  // namespace openima::core

#endif  // OPENIMA_CORE_TRAIN_INTERNAL_H_

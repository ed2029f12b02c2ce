#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/openima.h"
#include "src/exec/context.h"
#include "src/graph/splits.h"
#include "src/graph/synthetic.h"
#include "src/la/backend/backend.h"
#include "src/la/matrix.h"
#include "src/obs/json.h"
#include "src/obs/obs_config.h"
#include "src/obs/telemetry.h"
#include "src/obs/watchdog.h"

/// Determinism contract of the data-parallel trainer (DESIGN.md §2.8):
/// running each round of up to W consecutive sampled microbatches as slots
/// (slot 0 on the model, slot j >= 1 on persistent replica j - 1),
/// tree-reducing their gradients in a fixed topology and taking one Adam
/// step per round must give the same bits whether the round's slots run
/// one after another on a one-thread context or concurrently on a
/// four-thread one — for any worker count, pooled or heap storage, and
/// every registered kernel backend; and W = 0 and W = 1 are one schedule.
/// Everything here is EXPECT_EQ / byte equality, no tolerances; the
/// telemetry JSONL files are compared as raw bytes so the pseudo-label
/// refresh schedule (snapshot epochs, refresh flags, quality columns) is
/// pinned too.
namespace openima {
namespace {

graph::Dataset MakeSbmDataset(int num_nodes = 160) {
  graph::SbmConfig sbm;
  sbm.num_nodes = num_nodes;
  sbm.num_classes = 4;
  sbm.feature_dim = 12;
  sbm.avg_degree = 8.0;
  sbm.homophily = 0.85;
  sbm.feature_noise = 1.0;
  auto dataset = graph::GenerateSbm(sbm, 3, "dp");
  EXPECT_TRUE(dataset.ok());
  return std::move(dataset).value();
}

graph::OpenWorldSplit MakeSplit(const graph::Dataset& dataset) {
  graph::SplitOptions so;
  so.labeled_per_class = 10;
  so.val_per_class = 5;
  auto split = graph::MakeOpenWorldSplit(dataset, so, 4);
  EXPECT_TRUE(split.ok());
  return std::move(split).value();
}

/// Sampled-training config exercising the full pipeline: 160 nodes in
/// batches of 48 gives 4 microbatches per epoch (so W=8 > num_batches is a
/// short-round edge case), warmup 1 + refresh-every 2 over 6 epochs drives
/// two pipelined refresh launch/swap cycles.
core::OpenImaConfig DpConfig(const graph::Dataset& dataset,
                             const graph::OpenWorldSplit& split) {
  core::OpenImaConfig config;
  config.encoder.in_dim = dataset.feature_dim();
  config.encoder.hidden_dim = 16;
  config.encoder.embedding_dim = 16;
  config.encoder.num_heads = 2;
  config.num_seen = split.num_seen;
  config.num_novel = split.num_novel;
  config.epochs = 6;
  config.lr = 5e-3f;
  config.sampled_training = true;
  config.sample_fanout = 4;
  config.batch_nodes = 48;
  config.pseudo_warmup_epochs = 1;
  config.pseudo_refresh_every = 2;
  return config;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

struct DpRunOutput {
  std::vector<double> epoch_losses;
  std::vector<double> epoch_ce;
  std::vector<double> epoch_bpcl_emb;
  std::vector<double> epoch_bpcl_logit;
  std::vector<double> epoch_grad_norms;
  std::vector<int> refresh_pseudo_counts;
  std::vector<double> refresh_pseudo_precision;
  la::Matrix embeddings;
  std::vector<int> predictions;
  std::string telemetry_bytes;
};

/// Trains one model under the global telemetry sink and collects every
/// surface the determinism contract covers.
DpRunOutput RunDp(const graph::Dataset& dataset,
                  const graph::OpenWorldSplit& split,
                  const core::OpenImaConfig& config,
                  const std::string& telemetry_name) {
  const std::string path = TempPath(telemetry_name);
  EXPECT_TRUE(obs::StartTelemetry(path).ok());
  core::OpenImaModel model(config, dataset.feature_dim(), 99);
  const Status trained = model.Train(dataset, split);
  EXPECT_TRUE(obs::StopTelemetry().ok());
  EXPECT_TRUE(trained.ok()) << trained.message();

  DpRunOutput out;
  const core::TrainStats& stats = model.train_stats();
  out.epoch_losses = stats.epoch_losses;
  out.epoch_ce = stats.epoch_ce_losses;
  out.epoch_bpcl_emb = stats.epoch_bpcl_emb_losses;
  out.epoch_bpcl_logit = stats.epoch_bpcl_logit_losses;
  out.epoch_grad_norms = stats.epoch_grad_norms;
  out.refresh_pseudo_counts = stats.refresh_pseudo_counts;
  out.refresh_pseudo_precision = stats.refresh_pseudo_precision;
  out.embeddings = model.Embeddings(dataset);
  auto preds = model.Predict(dataset, split);
  EXPECT_TRUE(preds.ok());
  if (preds.ok()) out.predictions = std::move(preds).value();
  out.telemetry_bytes = ReadFileBytes(path);
  EXPECT_FALSE(out.telemetry_bytes.empty());
  return out;
}

void ExpectIdentical(const DpRunOutput& a, const DpRunOutput& b,
                     const std::string& label) {
  EXPECT_EQ(a.epoch_losses, b.epoch_losses) << label;
  EXPECT_EQ(a.epoch_ce, b.epoch_ce) << label;
  EXPECT_EQ(a.epoch_bpcl_emb, b.epoch_bpcl_emb) << label;
  EXPECT_EQ(a.epoch_bpcl_logit, b.epoch_bpcl_logit) << label;
  EXPECT_EQ(a.epoch_grad_norms, b.epoch_grad_norms) << label;
  EXPECT_EQ(a.refresh_pseudo_counts, b.refresh_pseudo_counts) << label;
  EXPECT_EQ(a.refresh_pseudo_precision, b.refresh_pseudo_precision) << label;
  EXPECT_TRUE(a.embeddings == b.embeddings) << label << ": embeddings differ";
  EXPECT_EQ(a.predictions, b.predictions) << label;
  EXPECT_EQ(a.telemetry_bytes, b.telemetry_bytes)
      << label << ": telemetry JSONL differs";
}

/// Trains `config` with its primary context set to `ctx`.
DpRunOutput RunDpOn(const graph::Dataset& dataset,
                    const graph::OpenWorldSplit& split,
                    core::OpenImaConfig config, const exec::Context* ctx,
                    const std::string& telemetry_name) {
  config.exec = ctx;
  return RunDp(dataset, split, config, telemetry_name);
}

/// Number of threads of this process, or -1 where /proc/self/task is
/// missing.
int CountThreads() {
  std::error_code error;
  std::filesystem::directory_iterator it("/proc/self/task", error);
  if (error) return -1;
  int count = 0;
  for (; it != std::filesystem::directory_iterator(); ++it) ++count;
  return count;
}

// ---------------------------------------------------------------------------
// Core contract: the thread count of the model's context never moves a bit.
// ---------------------------------------------------------------------------

TEST(DataParallelTest, ThreadedMatchesSerialReferenceForAllWorkerCounts) {
  const graph::Dataset dataset = MakeSbmDataset();
  const graph::OpenWorldSplit split = MakeSplit(dataset);
  exec::Context c1(1);
  exec::Context c4(4);
  for (int workers : {1, 2, 4, 8}) {
    core::OpenImaConfig config = DpConfig(dataset, split);
    config.workers = workers;
    const std::string w = std::to_string(workers);
    const DpRunOutput threaded =
        RunDpOn(dataset, split, config, &c4, "dp_w" + w + ".jsonl");
    const DpRunOutput serial =
        RunDpOn(dataset, split, config, &c1, "dp_serial_w" + w + ".jsonl");
    ExpectIdentical(threaded, serial, "W=" + w + ", 4 vs 1 threads");
  }
}

/// The round schedule itself depends on W (one Adam step per round of W
/// microbatches), so different worker counts are NOT expected to match each
/// other — only each W against itself on another thread count. Sanity-check
/// that the schedule axis is real: W=1 (step per microbatch) and W=4 (one
/// step per 4 microbatches) must diverge.
TEST(DataParallelTest, DifferentWorkerCountsAreDifferentSchedules) {
  const graph::Dataset dataset = MakeSbmDataset();
  const graph::OpenWorldSplit split = MakeSplit(dataset);
  exec::Context c1(1);
  core::OpenImaConfig config = DpConfig(dataset, split);
  config.workers = 1;
  const DpRunOutput w1 = RunDpOn(dataset, split, config, &c1, "dp_sched1.jsonl");
  config.workers = 4;
  const DpRunOutput w4 = RunDpOn(dataset, split, config, &c1, "dp_sched4.jsonl");
  EXPECT_NE(w1.epoch_losses, w4.epoch_losses);
}

/// W=0 and W=1 are one schedule: rounds of one microbatch on the model,
/// with inv_round == 1 (the scaling op is skipped) and the model stepping
/// its own gradients. With pseudo-labeling off they must agree to the bit,
/// telemetry included, on either context.
TEST(DataParallelTest, SingleWorkerMatchesSerialTrainerWithoutRefresh) {
  const graph::Dataset dataset = MakeSbmDataset();
  const graph::OpenWorldSplit split = MakeSplit(dataset);
  exec::Context c1(1);
  exec::Context c4(4);
  core::OpenImaConfig config = DpConfig(dataset, split);
  config.use_pseudo_labels = false;
  for (const exec::Context* ctx : {&c1, &c4}) {
    const std::string t = std::to_string(ctx->num_threads());
    config.workers = 0;
    const DpRunOutput primary =
        RunDpOn(dataset, split, config, ctx, "dp_serial_t" + t + ".jsonl");
    config.workers = 1;
    const DpRunOutput single =
        RunDpOn(dataset, split, config, ctx, "dp_t1_t" + t + ".jsonl");
    ExpectIdentical(primary, single, "W=0 vs W=1, " + t + " threads");
  }
}

/// The same with pseudo labels on: W=1 builds no refresh pipeline, so both
/// run the synchronous refresh at the same epochs (warmup 1 + every 2 over
/// 6 epochs: epochs 1, 3 and 5) and agree to the bit, telemetry included.
TEST(DataParallelTest, SingleWorkerMatchesSerialTrainerWithRefresh) {
  const graph::Dataset dataset = MakeSbmDataset();
  const graph::OpenWorldSplit split = MakeSplit(dataset);
  exec::Context c1(1);
  exec::Context c4(4);
  core::OpenImaConfig config = DpConfig(dataset, split);
  ASSERT_TRUE(config.use_pseudo_labels);
  for (const exec::Context* ctx : {&c1, &c4}) {
    const std::string t = std::to_string(ctx->num_threads());
    config.workers = 0;
    const DpRunOutput w0 =
        RunDpOn(dataset, split, config, ctx, "dp_refresh_w0_t" + t + ".jsonl");
    config.workers = 1;
    const DpRunOutput w1 =
        RunDpOn(dataset, split, config, ctx, "dp_refresh_w1_t" + t + ".jsonl");
    EXPECT_EQ(w0.refresh_pseudo_counts.size(), 3u);
    ExpectIdentical(w0, w1, "W=0 vs W=1 with refresh, " + t + " threads");
  }
}

/// A round holds at most as many slots as an epoch has microbatches:
/// DpConfig's 4 batches make W=4 and W=64 one schedule (one round of 4 per
/// epoch), and both build only the 3 replicas a round can fill.
TEST(DataParallelTest, WorkerCountsBeyondTheBatchCountAreOneSchedule) {
  const graph::Dataset dataset = MakeSbmDataset();
  const graph::OpenWorldSplit split = MakeSplit(dataset);
  exec::Context c4(4);
  core::OpenImaConfig config = DpConfig(dataset, split);
  config.workers = 4;
  const DpRunOutput w4 = RunDpOn(dataset, split, config, &c4, "dp_w4.jsonl");
  config.workers = 64;
  const DpRunOutput w64 = RunDpOn(dataset, split, config, &c4, "dp_w64.jsonl");
  ExpectIdentical(w4, w64, "W=4 vs W=64 over 4 batches");
}

/// Slot 0 of every round runs on the model itself, on the trainer's tape:
/// at W=2 the model's tape serves graph nodes. A model that left every slot
/// to replicas would build no training graph, and its tape would read 0.
TEST(DataParallelTest, ModelRunsRoundSlotZero) {
  const graph::Dataset dataset = MakeSbmDataset();
  const graph::OpenWorldSplit split = MakeSplit(dataset);
  core::OpenImaConfig config = DpConfig(dataset, split);
  config.workers = 2;
  config.use_memory_pool = true;
  core::OpenImaModel model(config, dataset.feature_dim(), 99);
  const Status trained = model.Train(dataset, split);
  ASSERT_TRUE(trained.ok()) << trained.message();
  EXPECT_GT(model.train_stats().tape_stats.nodes, 0);
}

/// Slot 0 runs on the model, and the replicas that run slots 1-3 have no
/// context of their own: they run as tasks of the model's context and
/// start no thread. W=4 on a one-thread context (pseudo labels off, so no
/// refresh thread either) leaves the process's thread count unchanged
/// while the trained model is alive.
TEST(DataParallelTest, ReplicasStartNoThreadOfTheirOwn) {
  if (CountThreads() < 0) GTEST_SKIP() << "no /proc/self/task";
  const graph::Dataset dataset = MakeSbmDataset();
  const graph::OpenWorldSplit split = MakeSplit(dataset);
  // Kernels handed a null context use the process default; build it (and
  // its pool) before counting.
  exec::Default();
  exec::Context c1(1);
  core::OpenImaConfig config = DpConfig(dataset, split);
  config.workers = 4;
  config.use_pseudo_labels = false;
  config.exec = &c1;
  const int before = CountThreads();
  core::OpenImaModel model(config, dataset.feature_dim(), 99);
  const Status trained = model.Train(dataset, split);
  ASSERT_TRUE(trained.ok()) << trained.message();
  EXPECT_EQ(CountThreads(), before);
}

// ---------------------------------------------------------------------------
// Composition axes: storage, thread count, kernel backend.
// ---------------------------------------------------------------------------

TEST(DataParallelTest, PooledAndHeapStorageAreBitIdentical) {
  const graph::Dataset dataset = MakeSbmDataset();
  const graph::OpenWorldSplit split = MakeSplit(dataset);
  exec::Context c1(1);
  exec::Context c4(4);
  core::OpenImaConfig config = DpConfig(dataset, split);
  config.workers = 2;
  config.use_memory_pool = true;
  const DpRunOutput pooled =
      RunDpOn(dataset, split, config, &c4, "dp_pooled.jsonl");
  config.use_memory_pool = false;
  const DpRunOutput heap = RunDpOn(dataset, split, config, &c4, "dp_heap.jsonl");
  ExpectIdentical(pooled, heap, "pooled vs heap, W=2 on 4 threads");

  // And the heap runs do not depend on the thread count either.
  const DpRunOutput heap_c1 =
      RunDpOn(dataset, split, config, &c1, "dp_heap_c1.jsonl");
  ExpectIdentical(heap, heap_c1, "heap, 4 vs 1 threads");
}

/// Context sizes between the two the other tests pin: 2 and 3 threads run
/// a round of 4 slots in ranges of one slot each, as 4 threads do, but with
/// slots queued behind busy threads.
TEST(DataParallelTest, ThreadCountOfPrimaryContextDoesNotChangeResults) {
  const graph::Dataset dataset = MakeSbmDataset();
  const graph::OpenWorldSplit split = MakeSplit(dataset);
  exec::Context c1(1);
  exec::Context c2(2);
  exec::Context c3(3);
  core::OpenImaConfig config = DpConfig(dataset, split);
  config.workers = 4;
  const DpRunOutput r1 = RunDpOn(dataset, split, config, &c1, "dp_ctx1.jsonl");
  const DpRunOutput r2 = RunDpOn(dataset, split, config, &c2, "dp_ctx2.jsonl");
  const DpRunOutput r3 = RunDpOn(dataset, split, config, &c3, "dp_ctx3.jsonl");
  ExpectIdentical(r1, r2, "W=4, 1 vs 2 primary threads");
  ExpectIdentical(r1, r3, "W=4, 1 vs 3 primary threads");
}

/// Per registered backend (`ctest -L backend` composes with `-L parallel`):
/// 4 threads == 1 thread with the backend pinned on the model's context —
/// replicas run their kernels on that context, so they share the pin.
TEST(DataParallelTest, EveryRegisteredBackendMatchesItsReference) {
  const graph::Dataset dataset = MakeSbmDataset();
  const graph::OpenWorldSplit split = MakeSplit(dataset);
  for (const la::backend::KernelBackend* be :
       la::backend::RegisteredBackends()) {
    exec::Context c1(1);
    exec::Context c4(4);
    c1.set_kernel_backend(be);
    c4.set_kernel_backend(be);
    core::OpenImaConfig config = DpConfig(dataset, split);
    config.workers = 2;
    const DpRunOutput threaded =
        RunDpOn(dataset, split, config, &c4,
                std::string("dp_be_") + be->name() + ".jsonl");
    const DpRunOutput serial =
        RunDpOn(dataset, split, config, &c1,
                std::string("dp_be_c1_") + be->name() + ".jsonl");
    ExpectIdentical(threaded, serial, std::string("backend ") + be->name());
  }
}

// ---------------------------------------------------------------------------
// Pipelined refresh schedule.
// ---------------------------------------------------------------------------

/// Warmup 1 + refresh-every 2 over 6 epochs: launches at the epoch-1 and
/// epoch-3 boundaries, swaps applied at epochs 3 and 5 — so exactly two
/// refreshes land, and the telemetry `refresh_snapshot_epoch` column records
/// the one-refresh-period label lag (absent before the first swap, then the
/// launch epoch, strictly increasing and always behind the epoch).
TEST(DataParallelTest, PipelinedRefreshLagsByOnePeriod) {
  const graph::Dataset dataset = MakeSbmDataset();
  const graph::OpenWorldSplit split = MakeSplit(dataset);
  core::OpenImaConfig config = DpConfig(dataset, split);
  config.workers = 2;
  const DpRunOutput out = RunDp(dataset, split, config, "dp_refresh.jsonl");
  EXPECT_EQ(out.refresh_pseudo_counts.size(), 2u);
  EXPECT_EQ(out.refresh_pseudo_precision.size(), 2u);

  auto records = obs::ReadJsonl(TempPath("dp_refresh.jsonl"));
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 6u);
  int last_snapshot = -1;
  for (size_t e = 0; e < records->size(); ++e) {
    const obs::json::Value* snap = records->at(e).Find("refresh_snapshot_epoch");
    if (e < 3) {
      EXPECT_EQ(snap, nullptr) << "no labels swapped in before epoch 3";
      continue;
    }
    ASSERT_NE(snap, nullptr) << "epoch " << e;
    const int epoch_of_labels = static_cast<int>(snap->AsInt());
    EXPECT_LT(epoch_of_labels, static_cast<int>(e))
        << "labels must come from a strictly earlier snapshot";
    EXPECT_GE(epoch_of_labels, last_snapshot);
    last_snapshot = epoch_of_labels;
  }
  EXPECT_EQ(last_snapshot, 3) << "final swap carries the epoch-3 snapshot";
}

/// An error return must not leave the pipelined refresh running: its task
/// reads the caller's dataset and split, which the caller may free as soon
/// as Train() returns. Warmup 0 launches a refresh at epoch 0, and a 1e-12
/// gradient-norm limit under the abort watchdog fails the first round's
/// step while that refresh is still in flight: it embeds a 4000-node graph
/// and runs 64 K-Means inits before it reads the split's training nodes,
/// far longer than two 48-seed microbatches take. Freeing the dataset and
/// the split before the model is then clean under ASan and TSan only if
/// Train() joined the refresh.
TEST(DataParallelTest, ErrorReturnJoinsPipelinedRefresh) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "the watchdog needs OPENIMA_OBS=ON";
  auto dataset = std::make_unique<graph::Dataset>(MakeSbmDataset(4000));
  auto split = std::make_unique<graph::OpenWorldSplit>(MakeSplit(*dataset));
  core::OpenImaConfig config = DpConfig(*dataset, *split);
  config.workers = 2;
  config.pseudo_warmup_epochs = 0;
  config.kmeans_num_init = 64;
  auto model = std::make_unique<core::OpenImaModel>(
      config, dataset->feature_dim(), 99);
  obs::WatchdogOptions watchdog;
  watchdog.policy = obs::WatchdogPolicy::kAbort;
  watchdog.max_grad_norm = 1e-12;
  obs::Watchdog::Configure(watchdog);
  const Status trained = model->Train(*dataset, *split);
  obs::Watchdog::ResetForTest();
  EXPECT_FALSE(trained.ok());
  EXPECT_EQ(model->epochs_done(), 0);
  split.reset();
  dataset.reset();
  model.reset();
}

// ---------------------------------------------------------------------------
// Config validation.
// ---------------------------------------------------------------------------

TEST(DataParallelTest, RejectsNegativeWorkerCount) {
  const graph::Dataset dataset = MakeSbmDataset();
  const graph::OpenWorldSplit split = MakeSplit(dataset);
  core::OpenImaConfig config = DpConfig(dataset, split);
  config.workers = -2;
  core::OpenImaModel model(config, dataset.feature_dim(), 99);
  EXPECT_FALSE(model.Train(dataset, split).ok());
}

/// A negative fanout is a bad config, not a sampler CHECK: Train rejects it
/// before it builds the primary's sampler or any replica's.
TEST(DataParallelTest, RejectsNegativeSampleFanout) {
  const graph::Dataset dataset = MakeSbmDataset();
  const graph::OpenWorldSplit split = MakeSplit(dataset);
  for (int workers : {0, 2}) {
    core::OpenImaConfig config = DpConfig(dataset, split);
    config.workers = workers;
    config.sample_fanout = -1;
    core::OpenImaModel model(config, dataset.feature_dim(), 99);
    EXPECT_EQ(model.Train(dataset, split).code(),
              StatusCode::kInvalidArgument)
        << "W=" << workers;
  }
}

/// A zero, negative or non-finite temperature is a bad config, not the
/// SupCon op's CHECK: Train rejects it, on the full-graph trainer and for
/// every worker count, before it builds a sampler or a replica.
TEST(DataParallelTest, RejectsBadTau) {
  const graph::Dataset dataset = MakeSbmDataset();
  const graph::OpenWorldSplit split = MakeSplit(dataset);
  struct Trainer {
    const char* name;
    bool sampled;
    int workers;
  };
  for (float tau : {0.0f, -0.5f, std::numeric_limits<float>::quiet_NaN(),
                    std::numeric_limits<float>::infinity()}) {
    for (const Trainer& trainer : {Trainer{"full graph", false, 0},
                                   Trainer{"sampled W=0", true, 0},
                                   Trainer{"sampled W=2", true, 2}}) {
      core::OpenImaConfig config = DpConfig(dataset, split);
      config.sampled_training = trainer.sampled;
      config.workers = trainer.workers;
      config.tau = tau;
      core::OpenImaModel model(config, dataset.feature_dim(), 99);
      EXPECT_EQ(model.Train(dataset, split).code(),
                StatusCode::kInvalidArgument)
          << trainer.name << ", tau=" << tau;
    }
  }
}

TEST(DataParallelTest, RejectsWorkersWithoutSampledTraining) {
  const graph::Dataset dataset = MakeSbmDataset();
  const graph::OpenWorldSplit split = MakeSplit(dataset);
  core::OpenImaConfig config = DpConfig(dataset, split);
  config.sampled_training = false;
  config.workers = 2;
  core::OpenImaModel model(config, dataset.feature_dim(), 99);
  EXPECT_FALSE(model.Train(dataset, split).ok());
}

}  // namespace
}  // namespace openima

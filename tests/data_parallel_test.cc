#include <gtest/gtest.h>

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
/// sharding each round of up to W consecutive sampled microbatches across W
/// persistent replicas, tree-reducing their gradients in a fixed topology
/// and taking one Adam step per round must be BIT-identical to running the
/// same schedule serially on the primary model
/// (config.data_parallel_reference) — for any worker count including 1,
/// pooled or heap storage, any thread count, and every registered kernel
/// backend. Everything here is EXPECT_EQ / byte equality, no tolerances;
/// the telemetry JSONL files of the two modes are compared as raw bytes so
/// the pipelined pseudo-label refresh schedule (snapshot epochs, refresh
/// flags, quality columns) is pinned too.
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

// ---------------------------------------------------------------------------
// Tentpole contract: threaded == serial reference for every worker count.
// ---------------------------------------------------------------------------

TEST(DataParallelTest, ThreadedMatchesSerialReferenceForAllWorkerCounts) {
  const graph::Dataset dataset = MakeSbmDataset();
  const graph::OpenWorldSplit split = MakeSplit(dataset);
  for (int workers : {1, 2, 4, 8}) {
    core::OpenImaConfig config = DpConfig(dataset, split);
    config.workers = workers;
    config.data_parallel_reference = false;
    const DpRunOutput threaded = RunDp(
        dataset, split, config, "dp_w" + std::to_string(workers) + ".jsonl");
    config.data_parallel_reference = true;
    const DpRunOutput reference = RunDp(
        dataset, split, config,
        "dp_ref_w" + std::to_string(workers) + ".jsonl");
    ExpectIdentical(threaded, reference, "W=" + std::to_string(workers));
  }
}

/// The round schedule itself depends on W (one Adam step per round of W
/// microbatches), so different worker counts are NOT expected to match each
/// other — only each threaded run against its own-W reference. Sanity-check
/// that the schedule axis is real: W=1 (step per microbatch) and W=4 (one
/// step per 4 microbatches) must diverge.
TEST(DataParallelTest, DifferentWorkerCountsAreDifferentSchedules) {
  const graph::Dataset dataset = MakeSbmDataset();
  const graph::OpenWorldSplit split = MakeSplit(dataset);
  core::OpenImaConfig config = DpConfig(dataset, split);
  config.data_parallel_reference = true;
  config.workers = 1;
  const DpRunOutput w1 = RunDp(dataset, split, config, "dp_sched1.jsonl");
  config.workers = 4;
  const DpRunOutput w4 = RunDp(dataset, split, config, "dp_sched4.jsonl");
  EXPECT_NE(w1.epoch_losses, w4.epoch_losses);
}

/// With pseudo-labeling off there is no pipelined refresh, and W=1 rounds
/// are single microbatches with inv_round == 1 — the scaling op is skipped,
/// so the autograd graph is byte-identical to that of the W=0 rounds, which
/// step the primary's own gradients. All three paths (W=0, threaded W=1,
/// reference W=1) must agree to the bit, telemetry included.
TEST(DataParallelTest, SingleWorkerMatchesSerialTrainerWithoutRefresh) {
  const graph::Dataset dataset = MakeSbmDataset();
  const graph::OpenWorldSplit split = MakeSplit(dataset);
  core::OpenImaConfig config = DpConfig(dataset, split);
  config.use_pseudo_labels = false;

  config.workers = 0;
  const DpRunOutput serial = RunDp(dataset, split, config, "dp_serial.jsonl");
  config.workers = 1;
  config.data_parallel_reference = false;
  const DpRunOutput threaded = RunDp(dataset, split, config, "dp_t1.jsonl");
  config.data_parallel_reference = true;
  const DpRunOutput reference = RunDp(dataset, split, config, "dp_r1.jsonl");

  ExpectIdentical(serial, threaded, "serial vs threaded W=1");
  ExpectIdentical(serial, reference, "serial vs reference W=1");
}

// ---------------------------------------------------------------------------
// Composition axes: storage, thread count, kernel backend.
// ---------------------------------------------------------------------------

TEST(DataParallelTest, PooledAndHeapStorageAreBitIdentical) {
  const graph::Dataset dataset = MakeSbmDataset();
  const graph::OpenWorldSplit split = MakeSplit(dataset);
  core::OpenImaConfig config = DpConfig(dataset, split);
  config.workers = 2;
  config.use_memory_pool = true;
  const DpRunOutput pooled = RunDp(dataset, split, config, "dp_pooled.jsonl");
  config.use_memory_pool = false;
  const DpRunOutput heap = RunDp(dataset, split, config, "dp_heap.jsonl");
  ExpectIdentical(pooled, heap, "pooled vs heap, threaded W=2");

  // And the heap runs still match their own serial reference.
  config.data_parallel_reference = true;
  const DpRunOutput heap_ref =
      RunDp(dataset, split, config, "dp_heap_ref.jsonl");
  ExpectIdentical(heap, heap_ref, "heap threaded vs heap reference");
}

TEST(DataParallelTest, ThreadCountOfPrimaryContextDoesNotChangeResults) {
  const graph::Dataset dataset = MakeSbmDataset();
  const graph::OpenWorldSplit split = MakeSplit(dataset);
  exec::Context c1(1);
  exec::Context c4(4);
  auto run = [&](const exec::Context* ctx, const std::string& name) {
    core::OpenImaConfig config = DpConfig(dataset, split);
    config.workers = 2;
    config.exec = ctx;
    return RunDp(dataset, split, config, name);
  };
  const DpRunOutput r1 = run(&c1, "dp_ctx1.jsonl");
  const DpRunOutput r4 = run(&c4, "dp_ctx4.jsonl");
  ExpectIdentical(r1, r4, "threaded W=2, 1 vs 4 primary threads");
}

/// Per registered backend (`ctest -L backend` composes with `-L parallel`):
/// threaded == reference with the backend pinned on the primary context —
/// replicas inherit the pin via la::backend::Resolve at replica setup.
TEST(DataParallelTest, EveryRegisteredBackendMatchesItsReference) {
  const graph::Dataset dataset = MakeSbmDataset();
  const graph::OpenWorldSplit split = MakeSplit(dataset);
  for (const la::backend::KernelBackend* be :
       la::backend::RegisteredBackends()) {
    exec::Context ctx(1);
    ctx.set_kernel_backend(be);
    core::OpenImaConfig config = DpConfig(dataset, split);
    config.workers = 2;
    config.exec = &ctx;
    config.data_parallel_reference = false;
    const DpRunOutput threaded = RunDp(
        dataset, split, config, std::string("dp_be_") + be->name() + ".jsonl");
    config.data_parallel_reference = true;
    const DpRunOutput reference =
        RunDp(dataset, split, config,
              std::string("dp_be_ref_") + be->name() + ".jsonl");
    ExpectIdentical(threaded, reference, std::string("backend ") + be->name());
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

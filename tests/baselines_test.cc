#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/autograd/tape.h"
#include "src/baselines/cl_ladder.h"
#include "src/baselines/common.h"
#include "src/baselines/oodgat.h"
#include "src/baselines/opencon.h"
#include "src/baselines/openldn.h"
#include "src/baselines/openwgl.h"
#include "src/baselines/orca.h"
#include "src/baselines/simgcd.h"
#include "src/eval/method_factory.h"
#include "src/graph/splits.h"
#include "src/graph/synthetic.h"
#include "src/metrics/clustering_accuracy.h"
#include "src/obs/obs.h"

namespace openima::baselines {
namespace {

struct Fixture {
  graph::Dataset dataset;
  graph::OpenWorldSplit split;
};

Fixture MakeFixture(uint64_t seed = 1) {
  graph::SbmConfig c;
  c.num_nodes = 200;
  c.num_classes = 4;
  c.feature_dim = 10;
  c.avg_degree = 10.0;
  c.homophily = 0.85;
  c.feature_noise = 1.2;
  auto ds = graph::GenerateSbm(c, seed, "baseline_test");
  EXPECT_TRUE(ds.ok());
  graph::SplitOptions so;
  so.labeled_per_class = 12;
  so.val_per_class = 6;
  auto split = graph::MakeOpenWorldSplit(*ds, so, seed + 1);
  EXPECT_TRUE(split.ok());
  return {std::move(ds).value(), std::move(split).value()};
}

BaselineConfig SmallConfig(const Fixture& fx, int epochs = 6) {
  BaselineConfig config;
  config.encoder.in_dim = fx.dataset.feature_dim();
  config.encoder.hidden_dim = 16;
  config.encoder.embedding_dim = 16;
  config.encoder.num_heads = 2;
  config.num_seen = fx.split.num_seen;
  config.num_novel = fx.split.num_novel;
  config.epochs = epochs;
  config.batch_size = 256;
  config.lr = 5e-3f;
  return config;
}

std::vector<int> Gather(const std::vector<int>& values,
                        const std::vector<int>& nodes) {
  std::vector<int> out;
  out.reserve(nodes.size());
  for (int v : nodes) out.push_back(values[static_cast<size_t>(v)]);
  return out;
}

double TestAccuracy(const Fixture& fx, const std::vector<int>& preds) {
  auto acc = metrics::EvaluateOpenWorld(
      Gather(preds, fx.split.test_nodes),
      Gather(fx.split.remapped_labels, fx.split.test_nodes),
      fx.split.num_seen, fx.split.num_total_classes());
  EXPECT_TRUE(acc.ok());
  return acc->all;
}

/// Shared smoke-check for any classifier: trains, predicts ids for all
/// nodes, lands above chance on the easy fixture.
void CheckClassifier(core::OpenWorldClassifier* model, const Fixture& fx,
                     double min_accuracy = 0.3) {
  ASSERT_TRUE(model->Train(fx.dataset, fx.split).ok()) << model->name();
  auto preds = model->Predict(fx.dataset, fx.split);
  ASSERT_TRUE(preds.ok()) << model->name();
  ASSERT_EQ(preds->size(), static_cast<size_t>(fx.dataset.num_nodes()));
  for (int p : *preds) EXPECT_GE(p, 0);
  la::Matrix emb = model->Embeddings(fx.dataset);
  EXPECT_EQ(emb.rows(), fx.dataset.num_nodes());
  const double acc = TestAccuracy(fx, *preds);
  EXPECT_GT(acc, min_accuracy) << model->name() << " accuracy " << acc;
}

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

TEST(CommonTest, ShuffledBlocksPartitionRange) {
  Rng rng(1);
  auto blocks = ShuffledBlocks(25, 10, &rng);
  std::set<int> seen;
  for (const auto& b : blocks) {
    EXPECT_GE(b.size(), 2u);
    for (int v : b) EXPECT_TRUE(seen.insert(v).second);
  }
  EXPECT_GE(seen.size(), 24u);  // last undersized block may be dropped
}

TEST(CommonTest, OodSplitSeparatesBimodalScores) {
  std::vector<double> scores;
  for (int i = 0; i < 20; ++i) scores.push_back(0.1 + 0.01 * i);
  for (int i = 0; i < 10; ++i) scores.push_back(2.0 + 0.01 * i);
  auto ood = OodSplitByScore(scores);
  for (int i = 0; i < 20; ++i) EXPECT_FALSE(ood[static_cast<size_t>(i)]);
  for (int i = 20; i < 30; ++i) EXPECT_TRUE(ood[static_cast<size_t>(i)]);
}

TEST(CommonTest, OodSplitConstantScoresAllInlier) {
  auto ood = OodSplitByScore(std::vector<double>(10, 0.5));
  for (bool b : ood) EXPECT_FALSE(b);
}

TEST(CommonTest, ClusterDetectedOodAssignsNovelIds) {
  Rng rng(2);
  la::Matrix emb(6, 2);
  for (int i = 3; i < 6; ++i) emb(i, 0) = 10.0f + i;
  std::vector<int> seen_pred = {0, 1, 0, 1, 0, 1};
  std::vector<bool> ood = {false, false, false, true, true, true};
  auto preds = ClusterDetectedOod(emb, seen_pred, ood, /*num_seen=*/2,
                                  /*num_novel=*/2, &rng);
  ASSERT_TRUE(preds.ok());
  for (int i = 0; i < 3; ++i) EXPECT_LT((*preds)[static_cast<size_t>(i)], 2);
  for (int i = 3; i < 6; ++i) EXPECT_GE((*preds)[static_cast<size_t>(i)], 2);
}

TEST(CommonTest, ClusterDetectedOodFewNodesLumped) {
  Rng rng(3);
  la::Matrix emb(3, 2);
  std::vector<int> seen_pred = {0, 0, 1};
  std::vector<bool> ood = {false, true, false};
  auto preds = ClusterDetectedOod(emb, seen_pred, ood, 2, 3, &rng);
  ASSERT_TRUE(preds.ok());
  EXPECT_EQ((*preds)[1], 2);
}

// ---------------------------------------------------------------------------
// End-to-end baselines
// ---------------------------------------------------------------------------

TEST(OrcaTest, TrainsAndPredicts) {
  Fixture fx = MakeFixture(10);
  OrcaClassifier model(SmallConfig(fx), OrcaOptions{}, fx.dataset.feature_dim(),
                       42);
  EXPECT_EQ(model.name(), "ORCA");
  CheckClassifier(&model, fx);
}

TEST(OrcaTest, ZeroMarginVariantIsOrcaZm) {
  Fixture fx = MakeFixture(11);
  OrcaOptions options;
  options.margin_scale = 0.0f;
  OrcaClassifier model(SmallConfig(fx), options, fx.dataset.feature_dim(), 42);
  EXPECT_EQ(model.name(), "ORCA-ZM");
  CheckClassifier(&model, fx);
}

TEST(SimGcdTest, TrainsAndPredicts) {
  Fixture fx = MakeFixture(12);
  SimGcdClassifier model(SmallConfig(fx), SimGcdOptions{},
                         fx.dataset.feature_dim(), 42);
  CheckClassifier(&model, fx);
}

TEST(OpenLdnTest, TrainsAndPredicts) {
  Fixture fx = MakeFixture(13);
  OpenLdnOptions options;
  options.warmup_epochs = 2;
  OpenLdnClassifier model(SmallConfig(fx), options, fx.dataset.feature_dim(),
                          42);
  CheckClassifier(&model, fx);
}

TEST(OpenConTest, TrainsAndPredictsWithPrototypes) {
  Fixture fx = MakeFixture(14);
  OpenConClassifier model(SmallConfig(fx), OpenConOptions{},
                          fx.dataset.feature_dim(), 42);
  CheckClassifier(&model, fx);
}

TEST(OpenConTest, TwoStageVariantUsesKMeans) {
  Fixture fx = MakeFixture(15);
  OpenConOptions options;
  options.two_stage_predict = true;
  OpenConClassifier model(SmallConfig(fx), options, fx.dataset.feature_dim(),
                          42);
  EXPECT_EQ(model.name(), "OpenCon-2stage");
  CheckClassifier(&model, fx);
}

TEST(OodGatTest, DetectsAndClustersNovelNodes) {
  Fixture fx = MakeFixture(16);
  OodGatClassifier model(SmallConfig(fx), OodGatOptions{},
                         fx.dataset.feature_dim(), 42);
  ASSERT_TRUE(model.Train(fx.dataset, fx.split).ok());
  auto preds = model.Predict(fx.dataset, fx.split);
  ASSERT_TRUE(preds.ok());
  // Some nodes must be assigned novel ids (>= num_seen).
  int novel_assigned = 0;
  for (int p : *preds) novel_assigned += p >= fx.split.num_seen;
  EXPECT_GT(novel_assigned, 0);
  EXPECT_GT(TestAccuracy(fx, *preds), 0.25);
}

TEST(OpenWglTest, VariationalPipelineRuns) {
  Fixture fx = MakeFixture(17);
  OpenWglClassifier model(SmallConfig(fx), OpenWglOptions{},
                          fx.dataset.feature_dim(), 42);
  ASSERT_TRUE(model.Train(fx.dataset, fx.split).ok());
  auto preds = model.Predict(fx.dataset, fx.split);
  ASSERT_TRUE(preds.ok());
  int novel_assigned = 0;
  for (int p : *preds) novel_assigned += p >= fx.split.num_seen;
  EXPECT_GT(novel_assigned, 0);
}

/// Prediction runs the head on the tape-free eval path, as every other
/// baseline's eval call does: under a bound tape it draws no graph node.
TEST(OpenWglTest, PredictDrawsNoTapeNodes) {
  Fixture fx = MakeFixture(17);
  OpenWglClassifier model(SmallConfig(fx, /*epochs=*/3), OpenWglOptions{},
                          fx.dataset.feature_dim(), 42);
  ASSERT_TRUE(model.Train(fx.dataset, fx.split).ok());
  autograd::Tape tape;
  {
    autograd::TapeBinding binding(&tape);
    ASSERT_TRUE(model.Predict(fx.dataset, fx.split).ok());
  }
  EXPECT_EQ(tape.stats().nodes, 0);
}

// ---------------------------------------------------------------------------
// The shared full-graph trainer
// ---------------------------------------------------------------------------

/// With every loss weight at 0 there is nothing to minimise: Train says so,
/// naming the trainer, before the optimizer takes a step.
TEST(FullGraphBaselineTest, NoActiveLossFailsBeforeAnyStep) {
  Fixture fx = MakeFixture(20);
  const BaselineConfig config = SmallConfig(fx);
  const int in_dim = fx.dataset.feature_dim();
  OrcaOptions orca;
  orca.ce_weight = orca.pairwise_weight = orca.entropy_weight = 0.0f;
  OrcaOptions orca_zm = orca;
  orca_zm.margin_scale = 0.0f;
  SimGcdOptions simgcd;
  simgcd.distill_weight = simgcd.entropy_weight = 0.0f;
  simgcd.supervised_weight = simgcd.unsup_con_weight = 0.0f;
  OpenConOptions opencon;
  opencon.ce_weight = opencon.con_weight = 0.0f;
  OpenConOptions opencon_2stage = opencon;
  opencon_2stage.two_stage_predict = true;

  using Model = std::unique_ptr<core::OpenWorldClassifier>;
  std::vector<std::pair<std::string, Model>> models;
  models.emplace_back(
      "ORCA", std::make_unique<OrcaClassifier>(config, orca, in_dim, 42));
  models.emplace_back(
      "ORCA", std::make_unique<OrcaClassifier>(config, orca_zm, in_dim, 42));
  models.emplace_back(
      "SimGCD", std::make_unique<SimGcdClassifier>(config, simgcd, in_dim, 42));
  models.emplace_back("OpenCon", std::make_unique<OpenConClassifier>(
                                     config, opencon, in_dim, 42));
  models.emplace_back("OpenCon", std::make_unique<OpenConClassifier>(
                                     config, opencon_2stage, in_dim, 42));
  for (auto& [trainer, model] : models) {
    SCOPED_TRACE(model->name());
    const la::Matrix before = model->Embeddings(fx.dataset);
    const Status status = model->Train(fx.dataset, fx.split);
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(status.message(), "no " + trainer + " loss component active");
    EXPECT_TRUE(model->Embeddings(fx.dataset) == before)
        << "the optimizer stepped before the error";
  }
}

#if OPENIMA_OBS_ENABLED
/// While a telemetry sink is active, every variant appends one record per
/// epoch, in order, under its trainer label (ORCA-ZM writes "ORCA" and the
/// two-stage OpenCon writes "OpenCon").
TEST(FullGraphBaselineTest, WritesOneTelemetryRecordPerEpochUnderItsLabel) {
  Fixture fx = MakeFixture(21);
  constexpr int kEpochs = 3;
  const std::pair<const char*, const char*> kVariants[] = {
      {"orca", "ORCA"},       {"orca_zm", "ORCA"},
      {"simgcd", "SimGCD"},   {"openldn", "OpenLDN"},
      {"opencon", "OpenCon"}, {"opencon_2stage", "OpenCon"},
      {"oodgat", "OODGAT"},   {"openwgl", "OpenWGL"}};
  eval::MethodContext ctx;
  ctx.in_dim = fx.dataset.feature_dim();
  ctx.num_seen = fx.split.num_seen;
  ctx.num_novel = fx.split.num_novel;
  ctx.seed = 42;
  ctx.encoder = SmallConfig(fx).encoder;
  ctx.epochs = kEpochs;
  ctx.batch_size = 256;
  for (const auto& [key, trainer] : kVariants) {
    SCOPED_TRACE(key);
    auto model = eval::MakeClassifier(key, ctx);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    const std::string path =
        ::testing::TempDir() + "/baseline_" + key + ".jsonl";
    ASSERT_TRUE(obs::StartTelemetry(path).ok());
    const Status trained = (*model)->Train(fx.dataset, fx.split);
    ASSERT_TRUE(obs::StopTelemetry().ok());
    ASSERT_TRUE(trained.ok()) << trained.ToString();
    auto lines = obs::ReadJsonl(path);
    ASSERT_TRUE(lines.ok()) << lines.status().ToString();
    ASSERT_EQ(lines->size(), static_cast<size_t>(kEpochs));
    for (size_t i = 0; i < lines->size(); ++i) {
      auto record = obs::EpochRecord::FromJson((*lines)[i]);
      ASSERT_TRUE(record.ok()) << record.status().ToString();
      EXPECT_EQ(record->trainer, trainer);
      EXPECT_EQ(record->epoch, static_cast<int>(i));
      EXPECT_TRUE(std::isfinite(record->loss));
      EXPECT_GT(record->grad_norm, 0.0);
      EXPECT_FALSE(record->param_grad_norms.empty());
    }
  }
}
#endif  // OPENIMA_OBS_ENABLED

// ---------------------------------------------------------------------------
// CL ladder
// ---------------------------------------------------------------------------

TEST(ClLadderTest, VariantSwitchesApplyCorrectly) {
  core::OpenImaConfig base;
  auto infonce = ApplyClVariant(base, ClVariant::kInfoNce);
  EXPECT_FALSE(infonce.use_ce);
  EXPECT_FALSE(infonce.use_pseudo_labels);
  EXPECT_FALSE(infonce.use_manual_positives);
  EXPECT_FALSE(infonce.use_bpcl_logit);
  auto supcon = ApplyClVariant(base, ClVariant::kInfoNceSupCon);
  EXPECT_TRUE(supcon.use_manual_positives);
  EXPECT_FALSE(supcon.use_ce);
  auto ce = ApplyClVariant(base, ClVariant::kInfoNceSupConCe);
  EXPECT_TRUE(ce.use_ce);
  auto full = ApplyClVariant(base, ClVariant::kOpenIma);
  EXPECT_TRUE(full.use_pseudo_labels);
  EXPECT_TRUE(full.use_bpcl_logit);
}

TEST(ClLadderTest, NamesMatchPaper) {
  EXPECT_EQ(ClVariantName(ClVariant::kInfoNce), "InfoNCE");
  EXPECT_EQ(ClVariantName(ClVariant::kInfoNceSupCon), "InfoNCE+SupCon");
  EXPECT_EQ(ClVariantName(ClVariant::kInfoNceSupConCe), "InfoNCE+SupCon+CE");
  EXPECT_EQ(ClVariantName(ClVariant::kOpenIma), "OpenIMA");
}

TEST(ClLadderTest, InfoNceVariantTrains) {
  Fixture fx = MakeFixture(18);
  core::OpenImaConfig config;
  config.encoder.in_dim = fx.dataset.feature_dim();
  config.encoder.hidden_dim = 16;
  config.encoder.embedding_dim = 16;
  config.encoder.num_heads = 2;
  config.num_seen = fx.split.num_seen;
  config.num_novel = fx.split.num_novel;
  config.epochs = 5;
  config.lr = 5e-3f;
  ClLadderClassifier model(config, ClVariant::kInfoNce,
                           fx.dataset.feature_dim(), 42);
  CheckClassifier(&model, fx);
}

}  // namespace
}  // namespace openima::baselines

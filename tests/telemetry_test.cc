#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "src/autograd/ops.h"
#include "src/autograd/variable.h"
#include "src/core/openima.h"
#include "src/exec/context.h"
#include "src/graph/splits.h"
#include "src/graph/synthetic.h"
#include "src/la/matrix.h"
#include "src/nn/adam.h"
#include "src/obs/obs.h"
#include "src/util/status.h"

/// Tests for the telemetry layer (DESIGN.md §2.5): EpochRecord / TelemetryLog
/// serialization, the determinism contract of the emitted JSONL, the numeric
/// watchdog's policies, and the run_diff comparison engine behind the
/// tools/run_diff regression gate.
namespace openima {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void WriteFileBytes(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  ASSERT_TRUE(out.good()) << "cannot write " << path;
}

// ---------------------------------------------------------------------------
// EpochRecord / TelemetryLog
// ---------------------------------------------------------------------------

obs::EpochRecord FullRecord() {
  obs::EpochRecord r;
  r.trainer = "OpenIMA";
  r.epoch = 3;
  r.loss = 12.5;
  r.has_components = true;
  r.loss_ce = 1.25;
  r.loss_bpcl_emb = 5.5;
  r.loss_bpcl_logit = 5.75;
  r.loss_pairwise = 0.0;
  r.grad_norm = 2.25;
  r.param_grad_norms = {1.5, 0.75, 1.25};
  r.watchdog_events = 2;
  r.pseudo_labels = 120;
  r.pseudo_precision = 0.875;
  r.alignment_churn = 0.25;
  r.refreshed = true;
  r.has_quality = true;
  r.val_acc = 0.75;
  r.val_nmi = 0.5;
  r.acc_all = 0.625;
  r.acc_seen = 0.6875;
  r.acc_novel = 0.5625;
  return r;
}

TEST(EpochRecordTest, JsonRoundTripPreservesEveryField) {
  const obs::EpochRecord r = FullRecord();
  auto back = obs::EpochRecord::FromJson(r.ToJson());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->trainer, r.trainer);
  EXPECT_EQ(back->epoch, r.epoch);
  EXPECT_EQ(back->loss, r.loss);
  EXPECT_TRUE(back->has_components);
  EXPECT_EQ(back->loss_ce, r.loss_ce);
  EXPECT_EQ(back->loss_bpcl_emb, r.loss_bpcl_emb);
  EXPECT_EQ(back->loss_bpcl_logit, r.loss_bpcl_logit);
  EXPECT_EQ(back->loss_pairwise, r.loss_pairwise);
  EXPECT_EQ(back->grad_norm, r.grad_norm);
  EXPECT_EQ(back->param_grad_norms, r.param_grad_norms);
  EXPECT_EQ(back->watchdog_events, r.watchdog_events);
  EXPECT_EQ(back->pseudo_labels, r.pseudo_labels);
  EXPECT_EQ(back->pseudo_precision, r.pseudo_precision);
  EXPECT_EQ(back->alignment_churn, r.alignment_churn);
  EXPECT_TRUE(back->refreshed);
  EXPECT_TRUE(back->has_quality);
  EXPECT_EQ(back->val_acc, r.val_acc);
  EXPECT_EQ(back->val_nmi, r.val_nmi);
  EXPECT_EQ(back->acc_all, r.acc_all);
  EXPECT_EQ(back->acc_seen, r.acc_seen);
  EXPECT_EQ(back->acc_novel, r.acc_novel);
}

TEST(EpochRecordTest, OptionalGroupsAreOmittedAtSentinels) {
  obs::EpochRecord r;
  r.trainer = "ORCA";
  r.epoch = 0;
  r.loss = 1.0;
  const obs::json::Value v = r.ToJson();
  EXPECT_EQ(v.Find("loss_ce"), nullptr);
  EXPECT_EQ(v.Find("pseudo_labels"), nullptr);
  EXPECT_EQ(v.Find("val_acc"), nullptr);
  auto back = obs::EpochRecord::FromJson(v);
  ASSERT_TRUE(back.ok());
  EXPECT_FALSE(back->has_components);
  EXPECT_FALSE(back->has_quality);
  EXPECT_EQ(back->pseudo_labels, -1);
}

TEST(TelemetryLogTest, AppendsOneJsonLinePerRecord) {
  const std::string path = TempPath("telemetry_log.jsonl");
  obs::TelemetryLog log;
  ASSERT_TRUE(log.Open(path).ok());
  EXPECT_TRUE(log.is_open());
  obs::EpochRecord r = FullRecord();
  ASSERT_TRUE(log.Append(r).ok());
  r.epoch = 4;
  ASSERT_TRUE(log.Append(r).ok());
  EXPECT_EQ(log.records_written(), 2);
  ASSERT_TRUE(log.Close().ok());

  auto lines = obs::ReadJsonl(path);
  ASSERT_TRUE(lines.ok()) << lines.status().ToString();
  ASSERT_EQ(lines->size(), 2u);
  for (const auto& line : *lines) {
    auto rec = obs::EpochRecord::FromJson(line);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    EXPECT_EQ(rec->trainer, "OpenIMA");
  }
}

TEST(TelemetryLogTest, ReadJsonlRejectsMalformedLines) {
  const std::string path = TempPath("telemetry_bad.jsonl");
  WriteFileBytes(path, "{\"trainer\":\"A\",\"epoch\":0,\"loss\":1}\nnot json\n");
  auto lines = obs::ReadJsonl(path);
  EXPECT_FALSE(lines.ok());
}

TEST(GradNormAccumulatorTest, AccumulatesGlobalAndPerParamNorms) {
  obs::GradNormAccumulator acc;
  const float a[2] = {3.0f, 4.0f};  // ||a|| = 5
  const float b[1] = {12.0f};       // ||b|| = 12
  acc.Add(a, 2);
  acc.Add(b, 1);
  ASSERT_EQ(acc.per_param().size(), 2u);
  EXPECT_DOUBLE_EQ(acc.per_param()[0], 5.0);
  EXPECT_DOUBLE_EQ(acc.per_param()[1], 12.0);
  EXPECT_DOUBLE_EQ(acc.global(), 13.0);  // sqrt(25 + 144)
}

// ---------------------------------------------------------------------------
// Determinism contract: the JSONL a training run emits is bit-identical
// across thread counts and pooled-vs-heap storage, and enabling telemetry
// does not change the training computation itself. Only meaningful when the
// layer is compiled in (under OPENIMA_OBS=OFF the sink cannot start).
// ---------------------------------------------------------------------------

#if OPENIMA_OBS_ENABLED

struct TinyProblem {
  graph::Dataset dataset;
  graph::OpenWorldSplit split;
};

TinyProblem MakeTinyProblem() {
  graph::SbmConfig sbm;
  sbm.num_nodes = 160;
  sbm.num_classes = 4;
  sbm.feature_dim = 12;
  sbm.avg_degree = 8.0;
  sbm.homophily = 0.85;
  sbm.feature_noise = 1.0;
  auto dataset = graph::GenerateSbm(sbm, 3, "telemetry");
  EXPECT_TRUE(dataset.ok());
  graph::SplitOptions so;
  so.labeled_per_class = 10;
  so.val_per_class = 5;
  auto split = graph::MakeOpenWorldSplit(*dataset, so, 4);
  EXPECT_TRUE(split.ok());
  return TinyProblem{std::move(*dataset), std::move(*split)};
}

core::OpenImaConfig TinyConfig(const TinyProblem& p,
                               const exec::Context* ctx = nullptr,
                               bool pooled = true) {
  core::OpenImaConfig config;
  config.encoder.in_dim = p.dataset.feature_dim();
  config.encoder.hidden_dim = 16;
  config.encoder.embedding_dim = 16;
  config.encoder.num_heads = 2;
  config.num_seen = p.split.num_seen;
  config.num_novel = p.split.num_novel;
  config.epochs = 4;
  config.batch_size = 256;
  config.lr = 5e-3f;
  config.exec = ctx;
  config.use_memory_pool = pooled;
  return config;
}

/// Trains the tiny problem with the global telemetry sink pointed at `path`
/// and returns the model's epoch losses.
std::vector<double> TrainWithTelemetry(const TinyProblem& p,
                                       const std::string& path,
                                       const exec::Context* ctx,
                                       bool pooled) {
  EXPECT_TRUE(obs::StartTelemetry(path).ok());
  core::OpenImaModel model(TinyConfig(p, ctx, pooled), p.dataset.feature_dim(),
                           99);
  EXPECT_TRUE(model.Train(p.dataset, p.split).ok());
  EXPECT_TRUE(obs::StopTelemetry().ok());
  return model.train_stats().epoch_losses;
}

TEST(TelemetryDeterminismTest, JsonlIsThreadCountInvariant) {
  const TinyProblem p = MakeTinyProblem();
  exec::Context c1(1);
  exec::Context c4(4);
  const std::string path1 = TempPath("telemetry_t1.jsonl");
  const std::string path4 = TempPath("telemetry_t4.jsonl");
  TrainWithTelemetry(p, path1, &c1, /*pooled=*/true);
  TrainWithTelemetry(p, path4, &c4, /*pooled=*/true);
  const std::string bytes1 = ReadFileBytes(path1);
  EXPECT_FALSE(bytes1.empty());
  EXPECT_EQ(bytes1, ReadFileBytes(path4))
      << "telemetry JSONL differs across thread counts";
}

TEST(TelemetryDeterminismTest, JsonlIsMemoryPoolInvariant) {
  const TinyProblem p = MakeTinyProblem();
  const std::string pooled_path = TempPath("telemetry_pooled.jsonl");
  const std::string heap_path = TempPath("telemetry_heap.jsonl");
  TrainWithTelemetry(p, pooled_path, nullptr, /*pooled=*/true);
  TrainWithTelemetry(p, heap_path, nullptr, /*pooled=*/false);
  const std::string pooled_bytes = ReadFileBytes(pooled_path);
  EXPECT_FALSE(pooled_bytes.empty());
  EXPECT_EQ(pooled_bytes, ReadFileBytes(heap_path))
      << "telemetry JSONL differs between pooled and heap training";
}

TEST(TelemetryDeterminismTest, RecordingDoesNotChangeTraining) {
  const TinyProblem p = MakeTinyProblem();
  // Telemetry off: plain training run.
  core::OpenImaModel off(TinyConfig(p), p.dataset.feature_dim(), 99);
  ASSERT_TRUE(off.Train(p.dataset, p.split).ok());
  // Telemetry on: same seed, sink active.
  const std::vector<double> on_losses =
      TrainWithTelemetry(p, TempPath("telemetry_parity.jsonl"), nullptr,
                         /*pooled=*/true);
  EXPECT_EQ(off.train_stats().epoch_losses, on_losses)
      << "enabling telemetry changed the training computation";
}

TEST(TelemetryDeterminismTest, EmitsOneCompleteRecordPerEpoch) {
  const TinyProblem p = MakeTinyProblem();
  const std::string path = TempPath("telemetry_schema.jsonl");
  TrainWithTelemetry(p, path, nullptr, /*pooled=*/true);
  auto lines = obs::ReadJsonl(path);
  ASSERT_TRUE(lines.ok());
  ASSERT_EQ(lines->size(), 4u);  // config.epochs
  bool saw_refresh = false;
  for (size_t i = 0; i < lines->size(); ++i) {
    auto rec = obs::EpochRecord::FromJson((*lines)[i]);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    EXPECT_EQ(rec->trainer, "OpenIMA");
    EXPECT_EQ(rec->epoch, static_cast<int>(i));
    EXPECT_TRUE(rec->has_components);
    EXPECT_GE(rec->grad_norm, 0.0);
    EXPECT_FALSE(rec->param_grad_norms.empty());
    EXPECT_TRUE(rec->has_quality);
    EXPECT_GE(rec->val_nmi, 0.0);
    if (rec->refreshed) {
      saw_refresh = true;
      EXPECT_GE(rec->pseudo_labels, 0);
    }
  }
  EXPECT_TRUE(saw_refresh) << "no pseudo-label refresh epoch was recorded";
}

TEST(TelemetryGlobalSinkTest, DoubleStartFailsAndLabelSticks) {
  const std::string path = TempPath("telemetry_global.jsonl");
  ASSERT_TRUE(obs::StartTelemetry(path).ok());
  EXPECT_TRUE(obs::TelemetryEnabled());
  EXPECT_FALSE(obs::StartTelemetry(path).ok());
  obs::SetTelemetryRunLabel("cora/OpenIMA/seed0");
  obs::EpochRecord r;
  r.trainer = "OpenIMA";
  r.epoch = 0;
  r.loss = 1.0;
  ASSERT_TRUE(obs::AppendTelemetry(r).ok());
  obs::SetTelemetryRunLabel("");
  ASSERT_TRUE(obs::StopTelemetry().ok());
  EXPECT_FALSE(obs::TelemetryEnabled());
  auto lines = obs::ReadJsonl(path);
  ASSERT_TRUE(lines.ok());
  ASSERT_EQ(lines->size(), 1u);
  const obs::json::Value* label = (*lines)[0].Find("run");
  ASSERT_NE(label, nullptr);
  EXPECT_EQ(label->AsString(), "cora/OpenIMA/seed0");
}

// A full disk fails the append (the flush is checked) instead of training on
// with every record lost.
TEST(TelemetryGlobalSinkTest, AppendReportsFullDisk) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "telemetry needs OPENIMA_OBS=ON";
  std::FILE* probe = std::fopen("/dev/full", "w");
  if (probe == nullptr) GTEST_SKIP() << "needs /dev/full";
  std::fclose(probe);
  ASSERT_TRUE(obs::StartTelemetry("/dev/full").ok());
  obs::EpochRecord r;
  r.trainer = "OpenIMA";
  r.loss = 1.0;
  const Status status = obs::AppendTelemetry(r);
  EXPECT_EQ(status.code(), StatusCode::kIOError) << status.ToString();
  { const Status ignored = obs::StopTelemetry(); (void)ignored; }
  EXPECT_FALSE(obs::TelemetryEnabled());
}

// ---------------------------------------------------------------------------
// Numeric-health watchdog: NaN/Inf injection under each policy.
// ---------------------------------------------------------------------------

class WatchdogTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::Watchdog::ResetForTest(); }
  void TearDown() override { obs::Watchdog::ResetForTest(); }

  static obs::WatchdogOptions Options(obs::WatchdogPolicy policy,
                                      double max_norm = 1e8) {
    obs::WatchdogOptions o;
    o.policy = policy;
    o.max_grad_norm = max_norm;
    return o;
  }
};

TEST_F(WatchdogTest, OffByDefaultAndSkipsScans) {
  EXPECT_FALSE(obs::Watchdog::active());
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_EQ(obs::Watchdog::CheckTensor("test.off", &nan, 1), 0);
  EXPECT_EQ(obs::Watchdog::events(), 0);
  EXPECT_TRUE(obs::Watchdog::ConsumeStatus().ok());
}

TEST_F(WatchdogTest, RecordCountsNanAndInfElements) {
  obs::Watchdog::Configure(Options(obs::WatchdogPolicy::kRecord));
  ASSERT_TRUE(obs::Watchdog::active());
  const float bad[4] = {1.0f, std::numeric_limits<float>::quiet_NaN(),
                        std::numeric_limits<float>::infinity(), 2.0f};
  EXPECT_EQ(obs::Watchdog::CheckTensor("test.record", bad, 4), 2);
  EXPECT_EQ(obs::Watchdog::events(), 2);
  EXPECT_FALSE(obs::Watchdog::tripped());
  EXPECT_TRUE(obs::Watchdog::ConsumeStatus().ok());
}

TEST_F(WatchdogTest, WarnRecordsWithoutTripping) {
  obs::Watchdog::Configure(Options(obs::WatchdogPolicy::kWarn));
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(obs::Watchdog::CheckTensor("test.warn", &inf, 1), 1);
  EXPECT_EQ(obs::Watchdog::events(), 1);
  EXPECT_FALSE(obs::Watchdog::tripped());
  EXPECT_TRUE(obs::Watchdog::ConsumeStatus().ok());
}

TEST_F(WatchdogTest, AbortTripsOnNanAndSurfacesStatus) {
  obs::Watchdog::Configure(Options(obs::WatchdogPolicy::kAbort));
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_EQ(obs::Watchdog::CheckTensor("test.abort", &nan, 1), 1);
  EXPECT_TRUE(obs::Watchdog::tripped());
  const Status s = obs::Watchdog::ConsumeStatus();
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("test.abort"), std::string::npos);
  // The trip is sticky until reconfigured.
  EXPECT_FALSE(obs::Watchdog::ConsumeStatus().ok());
  obs::Watchdog::ResetForTest();
  EXPECT_TRUE(obs::Watchdog::ConsumeStatus().ok());
}

TEST_F(WatchdogTest, NormExplosionCountsAndTrips) {
  obs::Watchdog::Configure(Options(obs::WatchdogPolicy::kRecord,
                                   /*max_norm=*/10.0));
  obs::Watchdog::CheckNorm("test.norm", 5.0);
  EXPECT_EQ(obs::Watchdog::events(), 0);
  obs::Watchdog::CheckNorm("test.norm", 100.0);
  EXPECT_EQ(obs::Watchdog::events(), 1);
  obs::Watchdog::Configure(Options(obs::WatchdogPolicy::kAbort,
                                   /*max_norm=*/10.0));
  obs::Watchdog::CheckNorm("test.norm",
                           std::numeric_limits<double>::infinity());
  EXPECT_TRUE(obs::Watchdog::tripped());
}

TEST_F(WatchdogTest, BackwardScansLossAndLeafGradients) {
  obs::Watchdog::Configure(Options(obs::WatchdogPolicy::kRecord));
  la::Matrix value(2, 2);
  value.Fill(1.0f);
  value(0, 1) = std::numeric_limits<float>::quiet_NaN();
  autograd::Variable w = autograd::Variable::Leaf(std::move(value), true);
  autograd::ops::SumAll(w).Backward();
  // The NaN parameter poisons the loss value; the scan sees it.
  EXPECT_GE(obs::Watchdog::events(), 1);
}

TEST_F(WatchdogTest, AdamStepAbortsOnPoisonedGradient) {
  obs::Watchdog::Configure(Options(obs::WatchdogPolicy::kAbort));
  la::Matrix value(1, 2);
  value.Fill(0.5f);
  autograd::Variable p = autograd::Variable::Leaf(std::move(value), true);
  p.ZeroGrad();
  p.node()->grad(0, 0) = std::numeric_limits<float>::quiet_NaN();
  nn::Adam optimizer({p}, nn::AdamOptions{});
  optimizer.Step();
  const Status s = obs::Watchdog::ConsumeStatus();
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("adam.grad"), std::string::npos);
}

TEST_F(WatchdogTest, ParsePolicyNames) {
  auto p = obs::ParseWatchdogPolicy("abort");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(*p, obs::WatchdogPolicy::kAbort);
  EXPECT_STREQ(obs::WatchdogPolicyName(*p), "abort");
  EXPECT_FALSE(obs::ParseWatchdogPolicy("loudly").ok());
}

TEST_F(WatchdogTest, EnvMaxNormTakesAnyPositiveLimitIncludingInf) {
  ::setenv("OPENIMA_WATCHDOG", "record", 1);
  ::setenv("OPENIMA_WATCHDOG_MAX_NORM", "inf", 1);
  obs::InitWatchdogFromEnv();
  EXPECT_TRUE(std::isinf(obs::Watchdog::options().max_grad_norm));
  obs::Watchdog::CheckNorm("test.norm", 1e300);  // norm check switched off
  EXPECT_EQ(obs::Watchdog::events(), 0);
  ::setenv("OPENIMA_WATCHDOG_MAX_NORM", "250", 1);
  obs::InitWatchdogFromEnv();
  EXPECT_EQ(obs::Watchdog::options().max_grad_norm, 250.0);
  for (const char* bad : {"abc", "0", "-3", "nan", "5x"}) {
    ::setenv("OPENIMA_WATCHDOG_MAX_NORM", bad, 1);
    obs::InitWatchdogFromEnv();
    EXPECT_EQ(obs::Watchdog::options().max_grad_norm, 1e8) << bad;
  }
  ::unsetenv("OPENIMA_WATCHDOG");
  ::unsetenv("OPENIMA_WATCHDOG_MAX_NORM");
}

#endif  // OPENIMA_OBS_ENABLED

// ---------------------------------------------------------------------------
// run_diff: glob matching, tolerance rules, artifact diff + validation.
// Available in OPENIMA_OBS=OFF builds too.
// ---------------------------------------------------------------------------

TEST(RunDiffPathTest, GlobComponentsMatch) {
  EXPECT_TRUE(obs::PathMatches("records/3/loss", "records/3/loss"));
  EXPECT_TRUE(obs::PathMatches("records/*/loss", "records/3/loss"));
  EXPECT_FALSE(obs::PathMatches("records/*/loss", "records/3/val_acc"));
  EXPECT_TRUE(obs::PathMatches("runs/*/*_ms", "runs/0/epoch_ms"));
  EXPECT_FALSE(obs::PathMatches("runs/*/*_ms", "runs/0/final/loss"));
  EXPECT_TRUE(obs::PathMatches("run/**", "run/host/compiler"));
  EXPECT_TRUE(obs::PathMatches("run/**", "run"));
  EXPECT_FALSE(obs::PathMatches("run/**", "runs/0"));
  // A bare '*' is one component, not a remainder.
  EXPECT_FALSE(obs::PathMatches("records/*", "records/3/loss"));
}

obs::json::Value ParseJson(const std::string& text) {
  auto v = obs::json::Value::Parse(text);
  EXPECT_TRUE(v.ok()) << v.status().ToString();
  return std::move(*v);
}

TEST(RunDiffTest, IdenticalDocumentsPass) {
  const obs::json::Value doc =
      ParseJson("{\"a\": 1.5, \"b\": [1, 2, 3], \"c\": {\"d\": \"x\"}}");
  const obs::DiffResult result = obs::DiffJson(doc, doc, obs::DiffOptions{});
  EXPECT_TRUE(result.ok());
  EXPECT_GT(result.values_compared, 0);
}

TEST(RunDiffTest, PerturbedLeafFailsExactComparison) {
  const obs::json::Value lhs = ParseJson("{\"a\": 1.0, \"b\": 2.0}");
  const obs::json::Value rhs = ParseJson("{\"a\": 1.0, \"b\": 2.0000001}");
  const obs::DiffResult result = obs::DiffJson(lhs, rhs, obs::DiffOptions{});
  EXPECT_FALSE(result.ok());
  ASSERT_EQ(result.mismatches.size(), 1u);
  EXPECT_EQ(result.mismatches[0].path, "b");
}

TEST(RunDiffTest, ToleranceRulesGateMismatches) {
  const obs::json::Value lhs = ParseJson("{\"a\": 100.0, \"t\": 5.0}");
  const obs::json::Value rhs = ParseJson("{\"a\": 101.0, \"t\": 50.0}");
  obs::DiffOptions options;
  options.rules = {{"a", obs::RuleKind::kRel, 0.02},
                   {"t", obs::RuleKind::kIgnore, 0.0}};
  EXPECT_TRUE(obs::DiffJson(lhs, rhs, options).ok());
  options.rules[0].tolerance = 0.001;  // 1% drift no longer allowed
  EXPECT_FALSE(obs::DiffJson(lhs, rhs, options).ok());
}

TEST(RunDiffTest, MissingAndExtraKeysAreMismatches) {
  const obs::json::Value lhs = ParseJson("{\"a\": 1, \"only_lhs\": 2}");
  const obs::json::Value rhs = ParseJson("{\"a\": 1, \"only_rhs\": 3}");
  const obs::DiffResult result = obs::DiffJson(lhs, rhs, obs::DiffOptions{});
  EXPECT_EQ(result.total_mismatches, 2);
}

TEST(RunDiffTest, LoadToleranceFileKeepsOrder) {
  const std::string path = TempPath("tolerances.json");
  WriteFileBytes(path,
                 "{\"rules\": ["
                 "{\"path\": \"records/*/loss\", \"rel\": 0.05},"
                 "{\"path\": \"run/**\", \"ignore\": true},"
                 "{\"path\": \"runs/*/final/loss\", \"abs\": 1e-9}]}");
  auto rules = obs::LoadToleranceFile(path);
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  ASSERT_EQ(rules->size(), 3u);
  EXPECT_EQ((*rules)[0].pattern, "records/*/loss");
  EXPECT_EQ((*rules)[0].kind, obs::RuleKind::kRel);
  EXPECT_EQ((*rules)[1].kind, obs::RuleKind::kIgnore);
  EXPECT_EQ((*rules)[2].kind, obs::RuleKind::kAbs);
  EXPECT_FALSE(
      obs::LoadToleranceFile(TempPath("missing_tolerances.json")).ok());
}

const char kTelemetryLine[] =
    "{\"trainer\":\"OpenIMA\",\"epoch\":0,\"loss\":12.5,"
    "\"grad_norm\":2.0,\"watchdog_events\":0}\n";

TEST(RunDiffArtifactTest, DetectsAndDiffsTelemetryJsonl) {
  const std::string lhs = TempPath("artifact_lhs.jsonl");
  const std::string rhs = TempPath("artifact_rhs.jsonl");
  WriteFileBytes(lhs, kTelemetryLine);
  WriteFileBytes(rhs, kTelemetryLine);

  obs::ArtifactType type = obs::ArtifactType::kUnknown;
  auto doc = obs::LoadArtifact(lhs, &type);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(type, obs::ArtifactType::kTelemetryJsonl);
  ASSERT_NE(doc->Find("records"), nullptr);

  auto same = obs::DiffArtifacts(lhs, rhs, obs::DiffOptions{});
  ASSERT_TRUE(same.ok());
  EXPECT_TRUE(same->ok());

  std::string perturbed(kTelemetryLine);
  perturbed.replace(perturbed.find("12.5"), 4, "12.6");
  WriteFileBytes(rhs, perturbed);
  auto diff = obs::DiffArtifacts(lhs, rhs, obs::DiffOptions{});
  ASSERT_TRUE(diff.ok());
  EXPECT_FALSE(diff->ok());
  ASSERT_FALSE(diff->mismatches.empty());
  EXPECT_EQ(diff->mismatches[0].path, "records/0/loss");
}

TEST(RunDiffArtifactTest, BenchTrainDefaultsIgnoreTimingFields) {
  const char* lhs_text =
      "{\"schema\": \"openima-bench-train\","
      " \"run\": {\"host\": \"a\"},"
      " \"runs\": [{\"name\": \"quickstart/openima\", \"epoch_ms\": 10.0,"
      "             \"final\": {\"loss\": 1.5}}]}";
  std::string rhs_text(lhs_text);
  rhs_text.replace(rhs_text.find("10.0"), 4, "99.0");
  rhs_text.replace(rhs_text.find("\"a\""), 3, "\"b\"");
  const std::string lhs = TempPath("bench_lhs.json");
  const std::string rhs = TempPath("bench_rhs.json");
  WriteFileBytes(lhs, lhs_text);
  WriteFileBytes(rhs, rhs_text);
  // Timing + host metadata differ, but the default rules ignore both; the
  // gated "final" payload is identical.
  auto result = obs::DiffArtifacts(lhs, rhs, obs::DiffOptions{});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->ok());

  rhs_text.replace(rhs_text.find("1.5"), 3, "0.5");
  WriteFileBytes(rhs, rhs_text);
  result = obs::DiffArtifacts(lhs, rhs, obs::DiffOptions{});
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->ok());
}

TEST(RunDiffArtifactTest, MismatchedTypesRefuseToDiff) {
  const std::string jsonl = TempPath("type_lhs.jsonl");
  const std::string bench = TempPath("type_rhs.json");
  WriteFileBytes(jsonl, kTelemetryLine);
  WriteFileBytes(bench,
                 "{\"schema\": \"openima-bench-train\", \"runs\": "
                 "[{\"name\": \"x\", \"final\": {}}]}");
  EXPECT_FALSE(obs::DiffArtifacts(jsonl, bench, obs::DiffOptions{}).ok());
}

TEST(RunDiffArtifactTest, ValidateAcceptsGoodAndRejectsBad) {
  const std::string good = TempPath("validate_good.jsonl");
  WriteFileBytes(good, kTelemetryLine);
  EXPECT_TRUE(obs::ValidateArtifact(good).ok());

  const std::string bad = TempPath("validate_bad.jsonl");
  WriteFileBytes(bad, "{\"no_trainer\": true}\n");
  EXPECT_FALSE(obs::ValidateArtifact(bad).ok());

  const std::string unknown = TempPath("validate_unknown.json");
  WriteFileBytes(unknown, "{\"mystery\": 1}");
  EXPECT_FALSE(obs::ValidateArtifact(unknown).ok());
}

}  // namespace
}  // namespace openima

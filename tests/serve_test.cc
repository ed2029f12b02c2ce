// Frozen-model inference service (src/core/serve.h): loading a training
// checkpoint, the classify contract (batched == one-by-one, deterministic
// across sessions and tags with exhaustive fanout, LUT consistency with the
// checkpointed alignment), and the load-time rejection paths (no centers
// yet, wrong feature dimension, missing file, negative fanout, impossible
// encoder geometry).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/openima.h"
#include "src/core/serve.h"
#include "src/graph/splits.h"
#include "src/graph/synthetic.h"
#include "src/io/checkpoint.h"
#include "src/la/pool.h"
#include "src/obs/obs.h"
#include "src/util/rng.h"

namespace openima {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

struct Fixture {
  graph::Dataset dataset;
  graph::OpenWorldSplit split;
};

Fixture SmallProblem() {
  graph::SbmConfig c;
  c.num_nodes = 120;
  c.num_classes = 4;
  c.feature_dim = 8;
  c.avg_degree = 8.0;
  c.homophily = 0.8;
  auto ds = graph::GenerateSbm(c, /*seed=*/5, "serve_test");
  EXPECT_TRUE(ds.ok());
  graph::SplitOptions so;
  so.labeled_per_class = 8;
  so.val_per_class = 4;
  auto split = graph::MakeOpenWorldSplit(*ds, so, /*seed=*/3);
  EXPECT_TRUE(split.ok());
  return Fixture{std::move(*ds), std::move(*split)};
}

// Trains a small model for `epochs` and saves a checkpoint; returns its path.
std::string TrainAndSave(const Fixture& fx, const char* name, int epochs) {
  core::OpenImaConfig config;
  config.encoder.in_dim = fx.dataset.feature_dim();
  config.encoder.hidden_dim = 8;
  config.encoder.embedding_dim = 8;
  config.encoder.num_heads = 2;
  config.num_seen = fx.split.num_seen;
  config.num_novel = fx.split.num_novel;
  config.epochs = epochs;
  config.pseudo_warmup_epochs = 2;
  core::OpenImaModel model(config, fx.dataset.feature_dim(), /*seed=*/11);
  EXPECT_TRUE(model.Train(fx.dataset, fx.split).ok());
  const std::string path = TempPath(name);
  EXPECT_TRUE(model.SaveCheckpoint(path).ok());
  return path;
}

TEST(ServeTest, LoadExposesCheckpointGeometry) {
  Fixture fx = SmallProblem();
  const std::string path = TrainAndSave(fx, "serve_geom.ckpt", 5);
  auto service =
      core::InferenceService::Load(path, &fx.dataset, core::ServeOptions{});
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  EXPECT_EQ((*service)->num_seen(), fx.split.num_seen);
  EXPECT_EQ((*service)->num_clusters(),
            fx.split.num_seen + fx.split.num_novel);
  EXPECT_EQ((*service)->epochs_done(), 5);
  EXPECT_EQ((*service)->cluster_to_final_class().size(),
            static_cast<size_t>((*service)->num_clusters()));
  // The LUT is a permutation of the final open-world class ids: every seen
  // and novel class appears exactly once.
  std::vector<int> lut = (*service)->cluster_to_final_class();
  std::sort(lut.begin(), lut.end());
  std::vector<int> want(lut.size());
  std::iota(want.begin(), want.end(), 0);
  EXPECT_EQ(lut, want);
}

TEST(ServeTest, BatchedEqualsOneByOne) {
  Fixture fx = SmallProblem();
  const std::string path = TrainAndSave(fx, "serve_batch.ckpt", 5);
  auto service =
      core::InferenceService::Load(path, &fx.dataset, core::ServeOptions{});
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  const std::vector<int> nodes = {3, 17, 44, 90, 119};
  auto session = (*service)->NewSession();
  std::vector<core::ClassifyResult> batched;
  ASSERT_TRUE(session->Classify(nodes, /*tag=*/0, &batched).ok());
  ASSERT_EQ(batched.size(), nodes.size());

  auto single_session = (*service)->NewSession();
  for (size_t i = 0; i < nodes.size(); ++i) {
    std::vector<core::ClassifyResult> one;
    ASSERT_TRUE(single_session->Classify({nodes[i]}, /*tag=*/7, &one).ok());
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0].class_id, batched[i].class_id) << "node " << nodes[i];
    EXPECT_EQ(one[0].cluster, batched[i].cluster);
    EXPECT_EQ(one[0].is_novel, batched[i].is_novel);
    EXPECT_EQ(one[0].distance2, batched[i].distance2);
  }
}

TEST(ServeTest, DeterministicAcrossSessionsAndConsistentWithLut) {
  Fixture fx = SmallProblem();
  const std::string path = TrainAndSave(fx, "serve_det.ckpt", 5);
  auto service =
      core::InferenceService::Load(path, &fx.dataset, core::ServeOptions{});
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  std::vector<int> nodes(fx.dataset.num_nodes());
  std::iota(nodes.begin(), nodes.end(), 0);

  auto s1 = (*service)->NewSession();
  auto s2 = (*service)->NewSession();
  std::vector<core::ClassifyResult> r1, r2;
  ASSERT_TRUE(s1->Classify(nodes, /*tag=*/1, &r1).ok());
  ASSERT_TRUE(s2->Classify(nodes, /*tag=*/2, &r2).ok());
  ASSERT_EQ(r1.size(), r2.size());

  const auto& lut = (*service)->cluster_to_final_class();
  for (size_t i = 0; i < r1.size(); ++i) {
    // Exhaustive fanout: the tag keys sampling draws that never happen, so
    // two sessions with different tags must agree bit-for-bit.
    EXPECT_EQ(r1[i].class_id, r2[i].class_id) << "node " << i;
    EXPECT_EQ(r1[i].distance2, r2[i].distance2) << "node " << i;
    // Internal consistency of each result row.
    ASSERT_GE(r1[i].cluster, 0);
    ASSERT_LT(r1[i].cluster, (*service)->num_clusters());
    EXPECT_EQ(r1[i].class_id, lut[r1[i].cluster]);
    EXPECT_EQ(r1[i].is_novel, r1[i].class_id >= (*service)->num_seen());
    EXPECT_GE(r1[i].distance2, 0.0f);
    EXPECT_GE(r1[i].margin, 0.0f);
    EXPECT_TRUE(std::isfinite(r1[i].distance2));
  }
}

TEST(ServeTest, BoundedFanoutIsDeterministicPerTag) {
  Fixture fx = SmallProblem();
  const std::string path = TrainAndSave(fx, "serve_fanout.ckpt", 5);
  core::ServeOptions options;
  options.sample_fanout = 3;
  auto service = core::InferenceService::Load(path, &fx.dataset, options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  const std::vector<int> nodes = {0, 25, 50, 75, 100};
  auto s1 = (*service)->NewSession();
  auto s2 = (*service)->NewSession();
  std::vector<core::ClassifyResult> r1, r2;
  ASSERT_TRUE(s1->Classify(nodes, /*tag=*/42, &r1).ok());
  ASSERT_TRUE(s2->Classify(nodes, /*tag=*/42, &r2).ok());
  for (size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_EQ(r1[i].class_id, r2[i].class_id);
    EXPECT_EQ(r1[i].distance2, r2[i].distance2);
  }
}

TEST(ServeTest, ClassifyRejectsBadIds) {
  Fixture fx = SmallProblem();
  const std::string path = TrainAndSave(fx, "serve_badids.ckpt", 5);
  auto service =
      core::InferenceService::Load(path, &fx.dataset, core::ServeOptions{});
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  auto session = (*service)->NewSession();
  std::vector<core::ClassifyResult> out;
  EXPECT_FALSE(session->Classify({-1}, 0, &out).ok());
  EXPECT_FALSE(session->Classify({fx.dataset.num_nodes()}, 0, &out).ok());
  EXPECT_FALSE(session->Classify({5, 5}, 0, &out).ok());  // duplicate
  EXPECT_FALSE(session->Classify({}, 0, &out).ok());      // empty batch
  // The session stays usable after a rejected request.
  EXPECT_TRUE(session->Classify({5, 6}, 0, &out).ok());
  EXPECT_EQ(out.size(), 2u);
}

/// A session draws every matrix of a request from its own pool: once a few
/// requests have warmed it, further requests allocate no matrix storage
/// outside it (the tape path made about 87 such allocations per request).
TEST(ServeTest, WarmClassifyMakesNoUnpooledAllocations) {
  Fixture fx = SmallProblem();
  const std::string path = TrainAndSave(fx, "serve_allocs.ckpt", 5);
  auto service =
      core::InferenceService::Load(path, &fx.dataset, core::ServeOptions{});
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  auto session = (*service)->NewSession();
  Rng rng(9);
  std::vector<core::ClassifyResult> out;
  for (uint64_t tag = 0; tag < 4; ++tag) {
    ASSERT_TRUE(session
                    ->Classify(rng.SampleWithoutReplacement(
                                   fx.dataset.num_nodes(), 8),
                               tag, &out)
                    .ok());
  }
  const int64_t before = la::UnpooledAllocCount();
  for (uint64_t tag = 4; tag < 20; ++tag) {
    ASSERT_TRUE(session
                    ->Classify(rng.SampleWithoutReplacement(
                                   fx.dataset.num_nodes(), 8),
                               tag, &out)
                    .ok());
  }
  EXPECT_EQ(la::UnpooledAllocCount() - before, 0);
}

TEST(ServeTest, LoadRejectsCheckpointWithoutCenters) {
  Fixture fx = SmallProblem();
  // Stop inside the warmup window: no pseudo-label refresh has run, so the
  // checkpoint has no K-Means centers to classify against.
  core::OpenImaConfig config;
  config.encoder.in_dim = fx.dataset.feature_dim();
  config.encoder.hidden_dim = 8;
  config.encoder.embedding_dim = 8;
  config.encoder.num_heads = 2;
  config.num_seen = fx.split.num_seen;
  config.num_novel = fx.split.num_novel;
  config.epochs = 6;
  config.pseudo_warmup_epochs = 4;
  config.stop_after_epochs = 2;
  core::OpenImaModel model(config, fx.dataset.feature_dim(), /*seed=*/11);
  ASSERT_TRUE(model.Train(fx.dataset, fx.split).ok());
  const std::string path = TempPath("serve_nocenters.ckpt");
  ASSERT_TRUE(model.SaveCheckpoint(path).ok());

  auto service =
      core::InferenceService::Load(path, &fx.dataset, core::ServeOptions{});
  ASSERT_FALSE(service.ok());
  EXPECT_NE(service.status().message().find("centers"), std::string::npos);
}

TEST(ServeTest, LoadRejectsFeatureDimMismatchAndMissingFile) {
  Fixture fx = SmallProblem();
  const std::string path = TrainAndSave(fx, "serve_dim.ckpt", 5);

  graph::SbmConfig c;
  c.num_nodes = 40;
  c.num_classes = 2;
  c.feature_dim = 6;  // checkpoint expects 8
  auto other = graph::GenerateSbm(c, /*seed=*/9, "serve_test_other");
  ASSERT_TRUE(other.ok());
  auto service =
      core::InferenceService::Load(path, &*other, core::ServeOptions{});
  ASSERT_FALSE(service.ok());

  auto missing = core::InferenceService::Load(TempPath("serve_missing.ckpt"),
                                              &fx.dataset,
                                              core::ServeOptions{});
  EXPECT_FALSE(missing.ok());
}

TEST(ServeTest, LoadRejectsNegativeFanout) {
  Fixture fx = SmallProblem();
  const std::string path = TrainAndSave(fx, "serve_fanout.ckpt", 5);
  core::ServeOptions options;
  options.sample_fanout = -2;
  auto service = core::InferenceService::Load(path, &fx.dataset, options);
  ASSERT_FALSE(service.ok());
  EXPECT_EQ(service.status().code(), StatusCode::kInvalidArgument);
}

/// A checkpoint whose meta declares an impossible encoder geometry comes
/// back as InvalidArgument rather than aborting the process while the
/// service builds its probe encoder. Each file is a trained model's
/// checkpoint rewritten through the container writer (checksums valid)
/// with only the meta geometry changed.
TEST(ServeTest, LoadRejectsImpossibleGeometry) {
  Fixture fx = SmallProblem();
  const std::string trained = TrainAndSave(fx, "serve_geometry.ckpt", 5);
  auto reader = io::CheckpointReader::Open(trained);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();

  struct Geometry {
    const char* name;
    int32_t hidden_dim;
    int32_t embedding_dim;
    int32_t num_heads;
    int32_t num_novel;
  };
  // The trained model: hidden_dim 8 over 2 heads, embedding_dim 8.
  const Geometry bad[] = {
      {"zero_heads", 8, 8, 0, fx.split.num_novel},  // hidden % heads: SIGFPE
      {"heads_do_not_divide", 8, 8, 3, fx.split.num_novel},
      {"zero_hidden", 0, 8, 2, fx.split.num_novel},
      {"zero_embedding", 8, 0, 2, fx.split.num_novel},
      {"zero_novel", 8, 8, 2, 0},
  };
  for (const Geometry& g : bad) {
    io::CheckpointWriter writer;
    for (const std::string& name : reader->SectionNames()) {
      auto src = reader->Section(name);
      ASSERT_TRUE(src.ok()) << src.status().ToString();
      io::ByteSink sink;
      if (name == "meta") {
        // u64 seed; u8 arch; i32 in_dim, hidden_dim, embedding_dim,
        // num_heads, num_seen, num_novel, workers, epochs_done.
        uint64_t seed = 0;
        uint8_t arch = 0;
        int32_t fields[8];
        ASSERT_TRUE(src->ReadU64(&seed).ok());
        ASSERT_TRUE(src->ReadU8(&arch).ok());
        for (int32_t& v : fields) ASSERT_TRUE(src->ReadI32(&v).ok());
        fields[1] = g.hidden_dim;
        fields[2] = g.embedding_dim;
        fields[3] = g.num_heads;
        fields[5] = g.num_novel;
        sink.PutU64(seed);
        sink.PutU8(arch);
        for (int32_t v : fields) sink.PutI32(v);
      } else {
        std::string bytes(src->remaining(), '\0');
        ASSERT_TRUE(src->ReadBytes(bytes.data(), bytes.size()).ok());
        sink.PutBytes(bytes.data(), bytes.size());
      }
      ASSERT_TRUE(writer.AddSection(name, sink).ok());
    }
    const std::string path =
        TempPath((std::string("serve_") + g.name + ".ckpt").c_str());
    ASSERT_TRUE(writer.Finish(path).ok()) << g.name;

    auto service =
        core::InferenceService::Load(path, &fx.dataset, core::ServeOptions{});
    ASSERT_FALSE(service.ok()) << g.name;
    EXPECT_EQ(service.status().code(), StatusCode::kInvalidArgument) << g.name;
    EXPECT_NE(service.status().message().find("geometry"), std::string::npos)
        << g.name << ": " << service.status().ToString();
  }
}

// --------------------------------------- live observability on serve --

// Splits all node ids by the frozen model's own novel-vs-seen call, so the
// drift tests below can compose request streams with a known predicted mix.
void PartitionByPrediction(core::InferenceService* service,
                           const graph::Dataset& dataset,
                           std::vector<int>* seen, std::vector<int>* novel) {
  std::vector<int> nodes(dataset.num_nodes());
  std::iota(nodes.begin(), nodes.end(), 0);
  auto session = service->NewSession();
  std::vector<core::ClassifyResult> results;
  ASSERT_TRUE(session->Classify(nodes, /*tag=*/0, &results).ok());
  for (size_t i = 0; i < results.size(); ++i) {
    (results[i].is_novel ? novel : seen)->push_back(nodes[i]);
  }
}

// Feeds `count` observations drawn round-robin from `pool` (batches never
// repeat a node, consecutive batches may).
void FeedRequests(core::InferenceSession* session, const std::vector<int>& pool,
                  int count) {
  int fed = 0;
  size_t next = 0;
  while (fed < count) {
    std::vector<int> batch;
    const int take = std::min<int>(count - fed, 8);
    for (int i = 0; i < take; ++i) {
      batch.push_back(pool[next]);
      next = (next + 1) % pool.size();
      if (next == 0 && static_cast<int>(batch.size()) < take) break;
    }
    std::vector<core::ClassifyResult> out;
    ASSERT_TRUE(session->Classify(batch, /*tag=*/0, &out).ok());
    fed += static_cast<int>(batch.size());
  }
}

// Acceptance demo for the drift monitor: an in-distribution request mix
// keeps the warn-policy monitor quiet, while a novel-heavy mix raises an
// alert within one evaluation window.
TEST(ServeTest, DriftMonitorAlertsOnNovelHeavyMixOnly) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "drift needs OPENIMA_OBS=ON";
  Fixture fx = SmallProblem();
  const std::string path = TrainAndSave(fx, "serve_drift.ckpt", 5);

  auto plain =
      core::InferenceService::Load(path, &fx.dataset, core::ServeOptions{});
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  std::vector<int> seen_nodes, novel_nodes;
  PartitionByPrediction(plain->get(), fx.dataset, &seen_nodes, &novel_nodes);
  ASSERT_GE(seen_nodes.size(), 8u);
  ASSERT_GE(novel_nodes.size(), 4u);

  constexpr int kWindow = 30;
  core::ServeOptions options;
  options.drift.policy = obs::WatchdogPolicy::kWarn;
  options.drift.window = kWindow;
  options.drift.baseline_windows = 1;
  auto service = core::InferenceService::Load(path, &fx.dataset, options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  obs::DriftMonitor* drift = (*service)->drift_monitor();
  ASSERT_NE(drift, nullptr);

  auto session = (*service)->NewSession();
  // Calibration window: the model's own seen-dominant prediction mix.
  FeedRequests(session.get(), seen_nodes, kWindow);
  obs::DriftStats stats = drift->stats();
  EXPECT_EQ(stats.windows_completed, 1);
  EXPECT_TRUE(stats.baseline_set);
  EXPECT_EQ(stats.alerts, 0);

  // Two more windows of the same mix: in-distribution traffic stays quiet.
  FeedRequests(session.get(), seen_nodes, 2 * kWindow);
  stats = drift->stats();
  EXPECT_EQ(stats.windows_completed, 3);
  EXPECT_EQ(stats.alerts, 0) << "in-distribution mix must not alert";

  // Novel-heavy mix: every request predicted novel, against a baseline
  // novel fraction of 0. One window is enough to alert.
  FeedRequests(session.get(), novel_nodes, kWindow);
  stats = drift->stats();
  EXPECT_EQ(stats.windows_completed, 4);
  EXPECT_GE(stats.alerts, 1) << "novel-heavy mix must alert within a window";
  EXPECT_DOUBLE_EQ(stats.last_novel_fraction, 1.0);
  // kWarn alerts never surface as request errors.
  EXPECT_TRUE(drift->ConsumeStatus().ok());
}

TEST(ServeTest, DriftAbortPolicyFailsRequestsAfterAlert) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "drift needs OPENIMA_OBS=ON";
  Fixture fx = SmallProblem();
  const std::string path = TrainAndSave(fx, "serve_drift_abort.ckpt", 5);

  auto plain =
      core::InferenceService::Load(path, &fx.dataset, core::ServeOptions{});
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  std::vector<int> seen_nodes, novel_nodes;
  PartitionByPrediction(plain->get(), fx.dataset, &seen_nodes, &novel_nodes);
  ASSERT_GE(seen_nodes.size(), 8u);
  ASSERT_GE(novel_nodes.size(), 4u);

  core::ServeOptions options;
  options.drift.policy = obs::WatchdogPolicy::kAbort;
  options.drift.window = 16;
  options.drift.baseline_windows = 1;
  auto service = core::InferenceService::Load(path, &fx.dataset, options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  auto session = (*service)->NewSession();
  FeedRequests(session.get(), seen_nodes, 16);  // calibration, all OK

  // Classify the novel-heavy stream until the window closes: the request
  // that completes the alerting window comes back as an error.
  Status last = Status::OK();
  for (int i = 0; i < 16 && last.ok(); i += 4) {
    std::vector<int> batch(novel_nodes.begin(), novel_nodes.begin() + 4);
    std::vector<core::ClassifyResult> out;
    last = session->Classify(batch, /*tag=*/0, &out);
  }
  EXPECT_FALSE(last.ok()) << "abort policy must surface the drift trip";
  // The trip is sticky: subsequent requests keep failing.
  std::vector<core::ClassifyResult> out;
  EXPECT_FALSE(
      session->Classify({seen_nodes[0], seen_nodes[1]}, 0, &out).ok());
}

TEST(ServeTest, WatchdogRejectsNonFiniteForward) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "watchdog needs OPENIMA_OBS=ON";
  Fixture fx = SmallProblem();
  const std::string path = TrainAndSave(fx, "serve_nan.ckpt", 5);
  auto service =
      core::InferenceService::Load(path, &fx.dataset, core::ServeOptions{});
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  // Poison one node's features after load: the forward pass now produces
  // non-finite embeddings for any batch touching it.
  fx.dataset.features(7, 0) = std::numeric_limits<float>::quiet_NaN();

  auto session = (*service)->NewSession();
  std::vector<core::ClassifyResult> out;
  // Watchdog off (default): the request "succeeds" with garbage — exactly
  // what the forward-pass scan is there to prevent.
  ASSERT_TRUE(session->Classify({7}, 0, &out).ok());

  obs::WatchdogOptions wd;
  wd.policy = obs::WatchdogPolicy::kRecord;
  obs::Watchdog::Configure(wd);
  Status status = session->Classify({7}, 0, &out);
  obs::Watchdog::ResetForTest();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("non-finite"), std::string::npos);

  // Clean batches keep working; the per-request rejection is not sticky.
  EXPECT_TRUE(session->Classify({3, 5}, 0, &out).ok());
}

TEST(ServeTest, TraceSamplingEmitsOneInNRequests) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "tracing needs OPENIMA_OBS=ON";
  Fixture fx = SmallProblem();
  const std::string path = TrainAndSave(fx, "serve_trace.ckpt", 5);
  auto service =
      core::InferenceService::Load(path, &fx.dataset, core::ServeOptions{});
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  obs::ResetTraceForTest();
  obs::SetTraceSamplePeriod(4);
  const std::string trace_path = TempPath("serve_trace_out.json");
  ASSERT_TRUE(obs::StartTracing(trace_path).ok());
  auto session = (*service)->NewSession();
  for (int i = 0; i < 8; ++i) {
    std::vector<core::ClassifyResult> out;
    ASSERT_TRUE(session->Classify({i}, /*tag=*/1, &out).ok());
  }
  ASSERT_TRUE(obs::StopTracing().ok());
  obs::SetTraceSamplePeriod(1);

  std::ifstream in(trace_path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  auto doc = obs::json::Value::Parse(buf.str());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const obs::json::Value& events = doc->at("traceEvents");
  ASSERT_TRUE(events.is_array());

  // 1-in-4 sampling over 8 requests: exactly requests 0 and 4 are traced.
  int request_events = 0;
  int metadata_events = 0;
  int phase_events = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    const obs::json::Value& event = events.at(i);
    const std::string& name = event.at("name").AsString();
    if (name == "serve_request") {
      ++request_events;
      const obs::json::Value& args = event.at("args");
      if (args.Has("batch") && args.Has("tag") && args.Has("novel") &&
          args.Has("clusters")) {
        ++metadata_events;
        EXPECT_EQ(args.at("batch").AsString(), "1");
      }
    } else if (name.rfind("serve_", 0) == 0) {
      ++phase_events;  // nested phases of the sampled requests only
    }
  }
  EXPECT_EQ(request_events, 2);
  EXPECT_EQ(metadata_events, 2);
  EXPECT_GT(phase_events, 0);
  // Unsampled requests contribute no events at all: every event traces back
  // to one of the two sampled requests.
  for (size_t i = 0; i < events.size(); ++i) {
    const obs::json::Value& event = events.at(i);
    const obs::json::Value* event_path = event.at("args").Find("path");
    const std::string& name = event.at("name").AsString();
    if (name.rfind("serve", 0) != 0) continue;
    if (event_path != nullptr) {
      EXPECT_EQ(event_path->AsString().rfind("serve_request", 0), 0u)
          << event_path->AsString();
    }
  }
  std::remove(trace_path.c_str());
}

}  // namespace
}  // namespace openima

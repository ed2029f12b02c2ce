// Live-serving observability (DESIGN.md §2.10): the windowed counters and
// histograms' logical-clock determinism, the MetricsExporter's snapshot formats
// (ordered JSON + Prometheus text exposition) — including the acceptance
// pin that exported bytes are identical across thread counts under the
// logical clock — and the online drift monitor's baseline/alert/abort
// behaviour.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/obs.h"
#include "src/obs/run_diff.h"

namespace openima::obs {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Restores the process-wide rolling clock around each test that touches it.
struct ClockGuard {
  ClockGuard() { RollingClock::ResetForTest(); }
  ~ClockGuard() { RollingClock::ResetForTest(); }
};

// ------------------------------------------------------- rolling clock --

TEST(RollingTest, LogicalClockCountsTicks) {
  ClockGuard guard;
  EXPECT_EQ(RollingClock::Now(), 0);
  EXPECT_FALSE(RollingClock::wall_clock());
  EXPECT_EQ(RollingClock::Tick(), 1);
  EXPECT_EQ(RollingClock::Tick(), 2);
  EXPECT_EQ(RollingClock::Now(), 2);
}

TEST(RollingTest, WallClockModeAdvancesWithoutTick) {
  ClockGuard guard;
  RollingClock::EnableWallClock(1);  // 1ms ticks
  EXPECT_TRUE(RollingClock::wall_clock());
  const int64_t t0 = RollingClock::Now();
  // Tick() is a no-op in wall mode; time itself moves the clock.
  RollingClock::Tick();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_GT(RollingClock::Now(), t0);
  RollingClock::DisableWallClock();
  EXPECT_FALSE(RollingClock::wall_clock());
}

// ---------------------------------------------------- windowed counter --

// The window of the registry metric `name` as of the current tick.
int64_t WindowTotal(const MetricsRegistry& registry, const std::string& name) {
  return registry.Snapshot().window_counters.at(name).total;
}

TEST(RollingTest, CounterWindowExpiresOldTicks) {
  ClockGuard guard;
  MetricsRegistry registry;
  Counter* counter = registry.counter("c", /*window_ticks=*/4);
  counter->Add(10);  // tick 0
  RollingClock::Tick();
  counter->Add(5);  // tick 1
  EXPECT_EQ(WindowTotal(registry, "c"), 15);
  EXPECT_EQ(registry.Snapshot().window_counters.at("c").window, 4);
  EXPECT_DOUBLE_EQ(
      registry.Snapshot().window_counters.at("c").rate_per_tick(), 15.0 / 4.0);

  // Advance until tick 0 leaves the window (window covers (now-4, now]).
  RollingClock::Tick();  // 2
  RollingClock::Tick();  // 3
  RollingClock::Tick();  // 4: tick 0 now out of range, tick 1 still in
  EXPECT_EQ(WindowTotal(registry, "c"), 5);
  RollingClock::Tick();  // 5: everything expired
  EXPECT_EQ(WindowTotal(registry, "c"), 0);

  // Slots recycle: new traffic lands cleanly after expiry, while the
  // cumulative total keeps everything.
  counter->Add(7);
  EXPECT_EQ(WindowTotal(registry, "c"), 7);
  EXPECT_EQ(counter->Total(), 22);
  registry.Reset();
  EXPECT_EQ(WindowTotal(registry, "c"), 0);
  EXPECT_EQ(counter->Total(), 0);
}

TEST(RollingTest, CounterWindowTotalIsThreadCountInvariant) {
  ClockGuard guard;
  std::vector<int64_t> totals;
  for (int threads : {1, 2, 4}) {
    RollingClock::ResetForTest();
    MetricsRegistry registry;
    Counter* counter = registry.counter("c", /*window_ticks=*/8);
    for (int tick = 0; tick < 6; ++tick) {
      std::vector<std::thread> pool;
      for (int t = 0; t < threads; ++t) {
        pool.emplace_back([counter, threads, t] {
          // 120 increments per tick, partitioned across the pool.
          for (int i = t; i < 120; i += threads) counter->Add(1);
        });
      }
      for (auto& th : pool) th.join();
      RollingClock::Tick();
    }
    totals.push_back(WindowTotal(registry, "c"));
  }
  EXPECT_EQ(totals[0], totals[1]);
  EXPECT_EQ(totals[0], totals[2]);
  EXPECT_EQ(totals[0], 6 * 120);
}

// -------------------------------------------------- windowed histogram --

TEST(RollingTest, HistogramWindowMergesAndExpires) {
  ClockGuard guard;
  MetricsRegistry registry;
  Histogram* hist = registry.histogram("h", /*window_ticks=*/4);
  const auto window = [&registry] {
    return registry.Snapshot().window_histograms.at("h").hist;
  };
  hist->Record(10);
  hist->Record(100);
  RollingClock::Tick();
  hist->Record(1000);

  HistogramSnapshot snap = window();
  EXPECT_EQ(snap.count, 3);
  EXPECT_EQ(snap.sum, 1110);
  EXPECT_EQ(snap.min, 10);
  EXPECT_EQ(snap.max, 1000);
  const double p50 = HistogramQuantile(snap, 0.5);
  EXPECT_GE(p50, 10.0);
  EXPECT_LE(p50, 1000.0);
  // The ring and the cumulative shards merge through one function, so a
  // window covering every tick equals the cumulative view field by field.
  const HistogramSnapshot all = hist->Snapshot();
  EXPECT_EQ(all.count, snap.count);
  EXPECT_EQ(all.sum, snap.sum);
  EXPECT_EQ(all.min, snap.min);
  EXPECT_EQ(all.max, snap.max);
  EXPECT_EQ(all.buckets, snap.buckets);

  // Advance to tick 4: the window (0, 4] drops the first tick's two
  // records; only the 1000 recorded at tick 1 remains.
  for (int i = 0; i < 3; ++i) RollingClock::Tick();
  snap = window();
  EXPECT_EQ(snap.count, 1);
  EXPECT_EQ(snap.min, 1000);
  EXPECT_EQ(snap.max, 1000);

  // Fully expired window: the canonical empty snapshot (min/max 0).
  RollingClock::Tick();
  snap = window();
  EXPECT_EQ(snap.count, 0);
  EXPECT_EQ(snap.sum, 0);
  EXPECT_EQ(snap.min, 0);
  EXPECT_EQ(snap.max, 0);
  EXPECT_TRUE(snap.buckets.empty());
  EXPECT_EQ(HistogramQuantile(snap, 0.99), 0.0);
  EXPECT_EQ(hist->Snapshot().count, 3);  // cumulative keeps every record
}

TEST(RollingTest, RegistryReturnsStableHandlesAndSortedSnapshots) {
  ClockGuard guard;
  MetricsRegistry registry;
  Counter* c = registry.counter("b.requests", kDefaultWindowTicks);
  EXPECT_EQ(c, registry.counter("b.requests", kDefaultWindowTicks));
  registry.counter("a.nodes", kDefaultWindowTicks)->Add(3);
  registry.counter("z.cumulative_only")->Add(9);
  c->Add(1);
  registry.histogram("lat_ns", kDefaultWindowTicks)->Record(50);

  MetricsSnapshot snap = registry.Snapshot();
  // Windowed metrics appear in both views; cumulative-only ones in one.
  ASSERT_EQ(snap.window_counters.size(), 2u);
  EXPECT_EQ(snap.window_counters.begin()->first, "a.nodes");  // name-sorted
  EXPECT_EQ(snap.window_counters.at("a.nodes").total, 3);
  EXPECT_EQ(snap.window_counters.at("b.requests").total, 1);
  EXPECT_EQ(snap.window_counters.at("b.requests").window, kDefaultWindowTicks);
  EXPECT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters.at("a.nodes"), 3);
  ASSERT_EQ(snap.window_histograms.size(), 1u);
  EXPECT_EQ(snap.window_histograms.at("lat_ns").hist.count, 1);
  EXPECT_EQ(snap.histograms.at("lat_ns").count, 1);

  registry.Reset();
  snap = registry.Snapshot();
  EXPECT_EQ(snap.window_counters.at("a.nodes").total, 0);
  EXPECT_EQ(snap.counters.at("a.nodes"), 0);
}

TEST(RollingTest, RegistryRejectsASecondWindowForOneName) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  MetricsRegistry registry;
  registry.counter("c", /*window_ticks=*/4);
  registry.histogram("h", /*window_ticks=*/4);
  registry.counter("plain");
  EXPECT_EQ(registry.counter("c", 4)->window_ticks(), 4);
  EXPECT_DEATH(registry.counter("c", 8), "metric 'c' has window 4");
  EXPECT_DEATH(registry.counter("c"), "metric 'c' has window 4");
  EXPECT_DEATH(registry.histogram("h"), "metric 'h' has window 4");
  EXPECT_DEATH(registry.counter("plain", kDefaultWindowTicks),
               "metric 'plain' has window 0");
}

// --------------------------------------------------------- exporter --

// Feeds one deterministic workload into a local registry, partitioned over
// `threads` workers: per tick, every update is issued (by whichever worker
// owns it), then the main thread ticks the clock. The update multiset per
// tick is identical for every thread count.
void FeedWorkload(MetricsRegistry* metrics, int threads) {
  for (int tick = 0; tick < 5; ++tick) {
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        for (int i = t; i < 64; i += threads) {
          metrics->counter("serve.requests", kDefaultWindowTicks)
              ->Increment();
          metrics->histogram("time/serve_forward")->Record(1000 + 10 * i);
          metrics->histogram("serve.request_ns", kDefaultWindowTicks)
              ->Record(1000 + 10 * i);
        }
      });
    }
    for (auto& th : pool) th.join();
    metrics->gauge("train.loss")->Set(0.5 - 0.01 * tick);
    RollingClock::Tick();
  }
}

// Acceptance criterion: under the logical clock, exported snapshot bytes
// are a pure function of the recorded updates — identical across 1/2/4
// worker threads, for both the JSON document and the Prometheus text.
TEST(ExporterTest, SnapshotBytesAreThreadCountInvariant) {
  ClockGuard guard;
  std::vector<std::string> json_dumps;
  std::vector<std::string> prom_dumps;
  for (int threads : {1, 2, 4}) {
    RollingClock::ResetForTest();
    MetricsRegistry metrics;
    FeedWorkload(&metrics, threads);
    const MetricsSnapshot snapshot = metrics.Snapshot();
    json_dumps.push_back(
        MetricsExporter::SnapshotJson(snapshot, /*sequence=*/1).Dump(1));
    prom_dumps.push_back(
        MetricsExporter::PrometheusText(snapshot, /*sequence=*/1));
  }
  EXPECT_EQ(json_dumps[0], json_dumps[1]);
  EXPECT_EQ(json_dumps[0], json_dumps[2]);
  EXPECT_EQ(prom_dumps[0], prom_dumps[1]);
  EXPECT_EQ(prom_dumps[0], prom_dumps[2]);
}

TEST(ExporterTest, SnapshotJsonCarriesSchemaAndWindows) {
  ClockGuard guard;
  MetricsRegistry metrics;
  FeedWorkload(&metrics, 1);

  const json::Value doc =
      MetricsExporter::SnapshotJson(metrics.Snapshot(), /*sequence=*/3);
  EXPECT_EQ(doc.at("schema").AsString(), "openima-metrics-snapshot");
  EXPECT_EQ(doc.at("sequence").AsInt(), 3);
  EXPECT_EQ(doc.at("tick").AsInt(), 5);
  EXPECT_EQ(doc.at("counters").at("serve.requests").AsInt(), 5 * 64);
  EXPECT_TRUE(doc.at("gauges").Has("train.loss"));

  const json::Value& hist = doc.at("histograms").at("time/serve_forward");
  EXPECT_EQ(hist.at("count").AsInt(), 5 * 64);
  EXPECT_GE(hist.at("p999").AsDouble(), hist.at("p50").AsDouble());
  // A windowed histogram's cumulative view sits with the others.
  EXPECT_EQ(doc.at("histograms").at("serve.request_ns").at("count").AsInt(),
            5 * 64);
  EXPECT_FALSE(doc.at("windows").at("histograms").Has("time/serve_forward"));

  const json::Value& wc = doc.at("windows").at("counters").at("serve.requests");
  EXPECT_EQ(wc.at("window").AsInt(), kDefaultWindowTicks);
  EXPECT_EQ(wc.at("total").AsInt(), 5 * 64);
  EXPECT_DOUBLE_EQ(wc.at("rate_per_tick").AsDouble(),
                   5.0 * 64 / kDefaultWindowTicks);
  const json::Value& wh =
      doc.at("windows").at("histograms").at("serve.request_ns");
  EXPECT_EQ(wh.at("count").AsInt(), 5 * 64);
  EXPECT_GE(wh.at("max").AsDouble(), wh.at("min").AsDouble());
}

TEST(ExporterTest, PrometheusTextExposesCumulativeBuckets) {
  ClockGuard guard;
  MetricsRegistry metrics;
  metrics.counter("serve.requests")->Add(7);
  metrics.histogram("time/forward_ns")->Record(3);

  const std::string text =
      MetricsExporter::PrometheusText(metrics.Snapshot(), /*sequence=*/1);
  EXPECT_NE(text.find("# TYPE openima_serve_requests counter"),
            std::string::npos);
  EXPECT_NE(text.find("openima_serve_requests 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE openima_time_forward_ns histogram"),
            std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(text.find("openima_time_forward_ns_sum 3"), std::string::npos);
  EXPECT_NE(text.find("openima_time_forward_ns_count 1"), std::string::npos);
}

TEST(ExporterTest, ExportNowRoundTripsAndValidates) {
  ClockGuard guard;
  MetricsRegistry metrics;
  FeedWorkload(&metrics, 2);

  ExporterOptions options;
  options.path = TempPath("live_obs_export.json");
  options.registry = &metrics;
  MetricsExporter exporter(options);
  ASSERT_TRUE(exporter.ExportNow().ok());

  // The written JSON is a valid run_diff artifact of the snapshot type.
  ASSERT_TRUE(ValidateArtifact(options.path).ok());
  ArtifactType type = ArtifactType::kUnknown;
  auto loaded = LoadArtifact(options.path, &type);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(type, ArtifactType::kMetricsSnapshot);
  EXPECT_EQ(loaded->at("counters").at("serve.requests").AsInt(), 5 * 64);

  // The Prometheus twin sits next to it.
  const std::string prom = ReadFileOrDie(options.path + ".prom");
  EXPECT_NE(prom.find("openima_serve_requests"), std::string::npos);

  // Identical state diffs clean against itself under the default rules.
  DiffOptions diff_options;
  auto diff = DiffArtifacts(options.path, options.path, diff_options);
  ASSERT_TRUE(diff.ok());
  EXPECT_TRUE(diff->ok());
  std::remove(options.path.c_str());
  std::remove((options.path + ".prom").c_str());
}

TEST(ExporterTest, BackgroundThreadWritesAndStops) {
  if (!kCompiledIn) GTEST_SKIP() << "exporter thread needs OPENIMA_OBS=ON";
  ClockGuard guard;
  MetricsRegistry metrics;
  metrics.counter("beat")->Add(1);

  ExporterOptions options;
  options.path = TempPath("live_obs_bg.json");
  options.interval_ms = 3600 * 1000;  // rely on Notify + final export only
  options.registry = &metrics;
  MetricsExporter exporter(options);
  ASSERT_TRUE(exporter.Start().ok());
  ASSERT_TRUE(exporter.Start().ok());  // idempotent
  exporter.Notify();
  exporter.Stop();  // runs one final export
  EXPECT_GE(exporter.exports_done(), 1);
  const std::string text = ReadFileOrDie(options.path);
  auto doc = json::Value::Parse(text);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->at("schema").AsString(), "openima-metrics-snapshot");
  std::remove(options.path.c_str());
  std::remove((options.path + ".prom").c_str());
}

// A malformed or out-of-range OPENIMA_METRICS_EXPORT_INTERVAL_MS keeps the
// 1000 ms default instead of collapsing to a 1 ms export loop.
TEST(ExporterTest, EnvIntervalKeepsDefaultOnMalformedValues) {
  if (!kCompiledIn) GTEST_SKIP() << "exporter needs OPENIMA_OBS=ON";
  const std::string path = TempPath("live_obs_env.json");
  ::setenv("OPENIMA_METRICS_EXPORT", path.c_str(), 1);
  for (const char* bad : {"abc", "0", "-5", "250ms"}) {
    ::setenv("OPENIMA_METRICS_EXPORT_INTERVAL_MS", bad, 1);
    InitExporterFromEnv();
    ASSERT_NE(GlobalMetricsExporter(), nullptr) << bad;
    EXPECT_EQ(GlobalMetricsExporter()->options().interval_ms, 1000) << bad;
    StopMetricsExporter();
  }
  ::setenv("OPENIMA_METRICS_EXPORT_INTERVAL_MS", "250", 1);
  InitExporterFromEnv();
  ASSERT_NE(GlobalMetricsExporter(), nullptr);
  EXPECT_EQ(GlobalMetricsExporter()->options().interval_ms, 250);
  StopMetricsExporter();
  ::unsetenv("OPENIMA_METRICS_EXPORT");
  ::unsetenv("OPENIMA_METRICS_EXPORT_INTERVAL_MS");
  std::remove(path.c_str());
  std::remove((path + ".prom").c_str());
}

// ------------------------------------------------------ drift monitor --

DriftMonitorOptions SmallDriftOptions(WatchdogPolicy policy) {
  DriftMonitorOptions options;
  options.policy = policy;
  options.window = 20;
  options.baseline_windows = 1;
  options.novel_fraction_delta = 0.15;
  options.entropy_delta = 0.5;
  options.distance_rel_delta = 0.5;
  return options;
}

// One window of in-distribution traffic: 10% novel, classes balanced,
// distance2 near 0.2.
void FeedInDistributionWindow(DriftMonitor* monitor) {
  for (int i = 0; i < 20; ++i) {
    monitor->Observe(/*class_id=*/i % 4, /*is_novel=*/i % 10 == 0,
                     /*distance2=*/0.2);
  }
}

TEST(DriftTest, InDistributionTrafficStaysQuiet) {
  if (!kCompiledIn) GTEST_SKIP() << "drift monitor needs OPENIMA_OBS=ON";
  DriftMonitor monitor(SmallDriftOptions(WatchdogPolicy::kRecord), 4);
  FeedInDistributionWindow(&monitor);  // calibration window
  DriftStats stats = monitor.stats();
  EXPECT_EQ(stats.windows_completed, 1);
  EXPECT_TRUE(stats.baseline_set);
  EXPECT_DOUBLE_EQ(stats.baseline_novel_fraction, 0.1);
  EXPECT_EQ(stats.alerts, 0);

  for (int w = 0; w < 3; ++w) FeedInDistributionWindow(&monitor);
  stats = monitor.stats();
  EXPECT_EQ(stats.windows_completed, 4);
  EXPECT_EQ(stats.alerts, 0) << "in-distribution windows must not alert";
  EXPECT_TRUE(monitor.ConsumeStatus().ok());
}

TEST(DriftTest, NovelHeavyMixAlertsWithinOneWindow) {
  if (!kCompiledIn) GTEST_SKIP() << "drift monitor needs OPENIMA_OBS=ON";
  DriftMonitor monitor(SmallDriftOptions(WatchdogPolicy::kRecord), 4);
  FeedInDistributionWindow(&monitor);  // calibration

  // Novel-heavy shift: 80% novel vs the 10% baseline — well past the 0.15
  // novel-fraction threshold. One window is enough.
  for (int i = 0; i < 20; ++i) {
    monitor.Observe(i % 4, /*is_novel=*/i % 5 != 0, /*distance2=*/0.2);
  }
  DriftStats stats = monitor.stats();
  EXPECT_EQ(stats.windows_completed, 2);
  EXPECT_GE(stats.alerts, 1) << "novel-heavy window must alert";
  EXPECT_DOUBLE_EQ(stats.last_novel_fraction, 0.8);
  // kRecord never turns alerts into errors.
  EXPECT_TRUE(monitor.ConsumeStatus().ok());
}

TEST(DriftTest, DistanceBlowupAlerts) {
  if (!kCompiledIn) GTEST_SKIP() << "drift monitor needs OPENIMA_OBS=ON";
  DriftMonitor monitor(SmallDriftOptions(WatchdogPolicy::kRecord), 4);
  FeedInDistributionWindow(&monitor);  // baseline distance2 = 0.2

  // Same class mix and novel rate, but points land far from every center.
  for (int i = 0; i < 20; ++i) {
    monitor.Observe(i % 4, i % 10 == 0, /*distance2=*/5.0);
  }
  EXPECT_GE(monitor.stats().alerts, 1);
}

TEST(DriftTest, AbortPolicyTripsConsumeStatusSticky) {
  if (!kCompiledIn) GTEST_SKIP() << "drift monitor needs OPENIMA_OBS=ON";
  DriftMonitor monitor(SmallDriftOptions(WatchdogPolicy::kAbort), 4);
  FeedInDistributionWindow(&monitor);
  EXPECT_TRUE(monitor.ConsumeStatus().ok());

  for (int i = 0; i < 20; ++i) monitor.Observe(i % 4, true, 0.2);
  Status status = monitor.ConsumeStatus();
  EXPECT_FALSE(status.ok());
  // Sticky, like a watchdog trip: the service stays refused.
  EXPECT_FALSE(monitor.ConsumeStatus().ok());
}

TEST(DriftTest, OptionsFromEnvParsePolicyAndKnobs) {
  ::setenv("OPENIMA_DRIFT", "warn", 1);
  ::setenv("OPENIMA_DRIFT_WINDOW", "33", 1);
  ::setenv("OPENIMA_DRIFT_NOVEL_DELTA", "0.25", 1);
  DriftMonitorOptions options = DriftOptionsFromEnv();
  EXPECT_EQ(options.policy, WatchdogPolicy::kWarn);
  EXPECT_EQ(options.window, 33);
  EXPECT_DOUBLE_EQ(options.novel_fraction_delta, 0.25);

  // Malformed or out-of-range knobs keep their defaults (with a stderr
  // note naming the variable) instead of parsing as 0.
  const DriftMonitorOptions defaults;
  const char* knobs[] = {"OPENIMA_DRIFT_WINDOW", "OPENIMA_DRIFT_NOVEL_DELTA",
                         "OPENIMA_DRIFT_ENTROPY_DELTA",
                         "OPENIMA_DRIFT_DISTANCE_DELTA"};
  for (const char* bad : {"abc", "-1", "0.2x"}) {
    for (const char* knob : knobs) ::setenv(knob, bad, 1);
    options = DriftOptionsFromEnv();
    EXPECT_EQ(options.window, defaults.window) << bad;
    EXPECT_DOUBLE_EQ(options.novel_fraction_delta,
                     defaults.novel_fraction_delta) << bad;
    EXPECT_DOUBLE_EQ(options.entropy_delta, defaults.entropy_delta) << bad;
    EXPECT_DOUBLE_EQ(options.distance_rel_delta, defaults.distance_rel_delta)
        << bad;
  }
  ::setenv("OPENIMA_DRIFT_WINDOW", "2.5", 1);  // windows are whole numbers
  EXPECT_EQ(DriftOptionsFromEnv().window, defaults.window);

  // `inf` is in range for a delta (it switches that alert off), not for
  // the window.
  for (const char* knob : knobs) ::setenv(knob, "inf", 1);
  options = DriftOptionsFromEnv();
  EXPECT_EQ(options.window, defaults.window);
  EXPECT_TRUE(std::isinf(options.novel_fraction_delta));
  EXPECT_TRUE(std::isinf(options.entropy_delta));
  EXPECT_TRUE(std::isinf(options.distance_rel_delta));

  ::unsetenv("OPENIMA_DRIFT");
  for (const char* knob : knobs) ::unsetenv(knob);
  EXPECT_EQ(DriftOptionsFromEnv().policy, WatchdogPolicy::kOff);
}

}  // namespace
}  // namespace openima::obs

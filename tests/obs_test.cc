// Observability layer: JSON round-trips, deterministic metric merges,
// span nesting, chrome-trace well-formedness, and the OPENIMA_OBS=OFF
// no-op guarantee.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/obs.h"

namespace openima::obs {
namespace {

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// /dev/full accepts opens and fails every flush with ENOSPC: the writers'
// full-disk path.
bool DevFullAvailable() {
  std::FILE* f = std::fopen("/dev/full", "w");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

// ---------------------------------------------------------------- JSON --

TEST(JsonTest, RoundTripAllTypes) {
  json::Value root = json::Value::Object();
  root.Set("null", json::Value::Null());
  root.Set("bool", json::Value::Bool(true));
  root.Set("int", json::Value::Int(-1234567890123456789LL));
  root.Set("double", json::Value::Double(0.1));
  root.Set("tiny", json::Value::Double(5e-324));
  root.Set("str", json::Value::Str("a \"quoted\"\nline\twith\\escapes"));
  json::Value arr = json::Value::Array();
  arr.Append(json::Value::Int(0));
  arr.Append(json::Value::Double(-1.5));
  arr.Append(json::Value::Str(""));
  root.Set("arr", std::move(arr));
  json::Value nested = json::Value::Object();
  nested.Set("k", json::Value::Int(7));
  root.Set("obj", std::move(nested));

  for (int indent : {0, 2}) {
    auto reparsed = json::Value::Parse(root.Dump(indent));
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
    EXPECT_TRUE(*reparsed == root) << "indent=" << indent;
  }
}

TEST(JsonTest, IntegersSurviveExactly) {
  for (int64_t v : {int64_t{0}, int64_t{-1}, int64_t{1} << 62,
                    std::numeric_limits<int64_t>::max(),
                    std::numeric_limits<int64_t>::min()}) {
    json::Value j = json::Value::Int(v);
    auto back = json::Value::Parse(j.Dump());
    ASSERT_TRUE(back.ok());
    ASSERT_TRUE(back->is_int()) << v;
    EXPECT_EQ(back->AsInt(), v);
  }
}

TEST(JsonTest, NonFiniteDoublesBecomeNull) {
  json::Value j = json::Value::Double(std::nan(""));
  auto back = json::Value::Parse(j.Dump());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->is_null());
}

TEST(JsonTest, RejectsMalformedInput) {
  for (const char* bad : {"", "{", "[1,]", "{\"a\":}", "123 456", "nul",
                          "\"unterminated", "{\"a\" 1}"}) {
    EXPECT_FALSE(json::Value::Parse(bad).ok()) << bad;
  }
}

// ------------------------------------------------------------- metrics --

// Splits `total` Add(1) calls over `num_threads` threads; the merged value
// must equal `total` for every thread count (the determinism contract: all
// recorded values are exact int64 sums).
int64_t CounterTotalWithThreads(int num_threads, int64_t total) {
  Counter c;
  std::vector<std::thread> threads;
  for (int t = 0; t < num_threads; ++t) {
    const int64_t begin = total * t / num_threads;
    const int64_t end = total * (t + 1) / num_threads;
    threads.emplace_back([&c, begin, end] {
      for (int64_t i = begin; i < end; ++i) c.Add(1);
    });
  }
  for (auto& th : threads) th.join();
  return c.Total();
}

TEST(MetricsTest, CounterMergeIsThreadCountInvariant) {
  constexpr int64_t kTotal = 20000;
  for (int threads : {1, 2, 4}) {
    EXPECT_EQ(CounterTotalWithThreads(threads, kTotal), kTotal)
        << threads << " threads";
  }
}

HistogramSnapshot HistogramSnapshotWithThreads(int num_threads, int n) {
  Histogram h;
  std::vector<std::thread> threads;
  for (int t = 0; t < num_threads; ++t) {
    const int begin = n * t / num_threads;
    const int end = n * (t + 1) / num_threads;
    threads.emplace_back([&h, begin, end] {
      // Same multiset of values regardless of the partition.
      for (int i = begin; i < end; ++i) h.Record((i % 37) * 100 - 100);
    });
  }
  for (auto& th : threads) th.join();
  return h.Snapshot();
}

TEST(MetricsTest, HistogramMergeIsThreadCountInvariant) {
  constexpr int kN = 10000;
  const HistogramSnapshot ref = HistogramSnapshotWithThreads(1, kN);
  EXPECT_EQ(ref.count, kN);
  for (int threads : {2, 4}) {
    const HistogramSnapshot s = HistogramSnapshotWithThreads(threads, kN);
    EXPECT_EQ(s.count, ref.count) << threads;
    EXPECT_EQ(s.sum, ref.sum) << threads;
    EXPECT_EQ(s.min, ref.min) << threads;
    EXPECT_EQ(s.max, ref.max) << threads;
    EXPECT_EQ(s.buckets, ref.buckets) << threads;
  }
}

TEST(MetricsTest, HistogramBuckets) {
  EXPECT_EQ(Histogram::BucketFor(-5), 0);
  EXPECT_EQ(Histogram::BucketFor(0), 0);
  EXPECT_EQ(Histogram::BucketFor(1), 1);
  EXPECT_EQ(Histogram::BucketFor(2), 2);
  EXPECT_EQ(Histogram::BucketFor(3), 2);
  EXPECT_EQ(Histogram::BucketFor(4), 3);
  EXPECT_EQ(Histogram::BucketFor(1 << 20), 21);
}

TEST(MetricsTest, HistogramQuantileInterpolatesAndClamps) {
  HistogramSnapshot empty;
  EXPECT_EQ(HistogramQuantile(empty, 0.5), 0.0);

  // A single value: every quantile is that value (clamped by min == max).
  Histogram one;
  one.Record(100);
  const HistogramSnapshot s1 = one.Snapshot();
  EXPECT_EQ(HistogramQuantile(s1, 0.0), 100.0);
  EXPECT_EQ(HistogramQuantile(s1, 0.5), 100.0);
  EXPECT_EQ(HistogramQuantile(s1, 0.99), 100.0);

  // 100 values 1..100: quantile estimates live inside power-of-two
  // buckets, so p50 lands in [32, 64) and p99 in [64, 100] (clamped by the
  // exact max), both within a bucket-width of the exact order statistic.
  Histogram h;
  for (int v = 1; v <= 100; ++v) h.Record(v);
  const HistogramSnapshot s = h.Snapshot();
  const double p50 = HistogramQuantile(s, 0.50);
  const double p99 = HistogramQuantile(s, 0.99);
  EXPECT_GE(p50, 32.0);
  EXPECT_LT(p50, 64.0);
  EXPECT_GE(p99, 64.0);
  EXPECT_LE(p99, 100.0);
  EXPECT_LE(HistogramQuantile(s, 0.0), p50);
  EXPECT_LE(p50, p99);
  // Quantiles never escape the observed range.
  EXPECT_GE(HistogramQuantile(s, 0.0), 1.0);
  EXPECT_LE(HistogramQuantile(s, 1.0), 100.0);
}

TEST(MetricsTest, HistogramQuantileEdgeCases) {
  // Empty histogram: every quantile — including the tail ones the live
  // dashboard asks for — is 0, never NaN or a stale bucket edge.
  HistogramSnapshot empty;
  EXPECT_EQ(HistogramQuantile(empty, 0.0), 0.0);
  EXPECT_EQ(HistogramQuantile(empty, 0.999), 0.0);
  EXPECT_EQ(HistogramQuantile(empty, 1.0), 0.0);

  // All mass in one bucket: interpolation inside the bucket must still be
  // clamped to the observed [min, max], so identical values are exact.
  Histogram same;
  for (int i = 0; i < 1000; ++i) same.Record(37);
  const HistogramSnapshot s_same = same.Snapshot();
  EXPECT_EQ(HistogramQuantile(s_same, 0.001), 37.0);
  EXPECT_EQ(HistogramQuantile(s_same, 0.5), 37.0);
  EXPECT_EQ(HistogramQuantile(s_same, 0.999), 37.0);

  // p999 with 1000 distinct values: rank 999 of 1..1000 — the estimate
  // sits in the top power-of-two bucket and never escapes the range.
  Histogram h;
  for (int v = 1; v <= 1000; ++v) h.Record(v);
  const HistogramSnapshot s = h.Snapshot();
  const double p999 = HistogramQuantile(s, 0.999);
  EXPECT_GE(p999, 512.0);
  EXPECT_LE(p999, 1000.0);
  EXPECT_GE(p999, HistogramQuantile(s, 0.99));

  // Values at/beyond the last bucket boundary: the top bucket is open-ended,
  // so the estimate must stay finite and clamp to the recorded max.
  Histogram big;
  big.Record(1);
  big.Record(std::numeric_limits<int64_t>::max());
  const HistogramSnapshot s_big = big.Snapshot();
  const double tail = HistogramQuantile(s_big, 0.999);
  EXPECT_TRUE(std::isfinite(tail));
  EXPECT_LE(tail, static_cast<double>(std::numeric_limits<int64_t>::max()));
  EXPECT_GE(tail, 1.0);
  EXPECT_EQ(s_big.max, std::numeric_limits<int64_t>::max());
}

TEST(MetricsTest, RegistrySnapshotIsSortedAndResettable) {
  MetricsRegistry registry;
  registry.counter("b.second")->Add(2);
  registry.counter("a.first")->Add(1);
  registry.gauge("g")->Set(0.5);
  registry.histogram("h")->Record(42);

  MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters.begin()->first, "a.first");
  EXPECT_EQ(snap.counters.at("b.second"), 2);
  EXPECT_DOUBLE_EQ(snap.gauges.at("g"), 0.5);
  EXPECT_EQ(snap.histograms.at("h").count, 1);

  registry.Reset();
  snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("a.first"), 0);  // handles survive a reset
  EXPECT_EQ(snap.histograms.at("h").count, 0);
}

// --------------------------------------------------------------- spans --

#if OPENIMA_OBS_ENABLED

TEST(SpanTest, NestedPhasesFormSlashPaths) {
  MetricsRegistry::Global()->Reset();
  {
    Phase outer("span_outer");
    {
      Phase inner("span_inner");
    }
    {
      Phase inner("span_inner");
    }
  }
  MetricsSnapshot snap = MetricsRegistry::Global()->Snapshot();
  ASSERT_TRUE(snap.histograms.count("time/span_outer"));
  ASSERT_TRUE(snap.histograms.count("time/span_outer/span_inner"));
  EXPECT_EQ(snap.histograms.at("time/span_outer").count, 1);
  EXPECT_EQ(snap.histograms.at("time/span_outer/span_inner").count, 2);

  const std::string breakdown = PhaseBreakdown();
  EXPECT_NE(breakdown.find("span_outer/span_inner"), std::string::npos);
}

TEST(SpanTest, TraceFileIsWellFormedAndNested) {
  MetricsRegistry::Global()->Reset();
  ResetTraceForTest();
  const std::string path = testing::TempDir() + "/obs_test_trace.json";
  ASSERT_TRUE(StartTracing(path).ok());
  EXPECT_TRUE(TracingActive());
  EXPECT_FALSE(StartTracing(path).ok());  // already active
  {
    Phase outer("trace_outer");
    Phase inner("trace_inner");
  }
  ASSERT_TRUE(StopTracing().ok());
  EXPECT_FALSE(TracingActive());

  auto doc = json::Value::Parse(ReadFileOrDie(path));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_TRUE(doc->is_object());
  const json::Value& events = doc->at("traceEvents");
  ASSERT_TRUE(events.is_array());
  ASSERT_EQ(events.size(), 2u);

  // Events are sorted parents-first per thread; the child must be fully
  // contained in the parent (that containment IS the nesting chrome's
  // viewer reconstructs).
  const json::Value& outer = events.at(0);
  const json::Value& inner = events.at(1);
  EXPECT_EQ(outer.at("name").AsString(), "trace_outer");
  EXPECT_EQ(inner.at("name").AsString(), "trace_inner");
  EXPECT_EQ(outer.at("ph").AsString(), "X");
  EXPECT_EQ(inner.at("args").at("path").AsString(),
            "trace_outer/trace_inner");
  const double o_ts = outer.at("ts").AsDouble();
  const double o_end = o_ts + outer.at("dur").AsDouble();
  const double i_ts = inner.at("ts").AsDouble();
  const double i_end = i_ts + inner.at("dur").AsDouble();
  EXPECT_GE(i_ts, o_ts);
  EXPECT_LE(i_end, o_end);
  std::remove(path.c_str());
}

// A trace whose file cannot be written reports the failure instead of
// dropping the events silently.
TEST(SpanTest, StopTracingReportsWriteFailure) {
  if (!DevFullAvailable()) GTEST_SKIP() << "needs /dev/full";
  ResetTraceForTest();
  ASSERT_TRUE(StartTracing("/dev/full").ok());
  { Phase phase("trace_to_full_disk"); }
  const Status status = StopTracing();
  EXPECT_EQ(status.code(), StatusCode::kIOError) << status.ToString();
}

#else  // !OPENIMA_OBS_ENABLED

TEST(SpanTest, CompiledOutMacrosAreNoOps) {
  MetricsRegistry::Global()->Reset();
  {
    OPENIMA_OBS_PHASE("disabled_phase");
    OPENIMA_OBS_COUNT("disabled.count", 1);
    OPENIMA_OBS_GAUGE("disabled.gauge", 1.0);
    OPENIMA_OBS_WINDOWED_COUNT("disabled.windowed", 1);
    OPENIMA_OBS_TICK();
    Phase phase("disabled_phase_object");
    RequestTrace request("disabled_request", "disabled.request_ns");
  }
  EXPECT_TRUE(MetricsRegistry::Global()->Snapshot().empty());
  EXPECT_TRUE(PhaseBreakdown().empty());
  EXPECT_FALSE(StartTracing("/dev/null").ok());
  EXPECT_FALSE(TracingActive());
  EXPECT_FALSE(kCompiledIn);
}

#endif  // OPENIMA_OBS_ENABLED

// -------------------------------------------------------------- report --

TEST(ReportTest, RoundTripsThroughJson) {
  RunReport report("obs_test");
  report.Set("run", "dataset", json::Value::Str("synthetic"));
  report.Set("run", "epochs", json::Value::Int(15));

  MetricsRegistry registry;
  registry.counter("adam.steps")->Add(15);
  registry.gauge("train.loss")->Set(1.25);
  registry.histogram("time/epoch")->Record(1000000);
  registry.histogram("block.bytes")->Record(4096);
  report.AddMetrics(registry.Snapshot());

  EXPECT_EQ(report.root().at("run_name").AsString(), "obs_test");
  EXPECT_EQ(report.root().at("run").at("epochs").AsInt(), 15);
  const json::Value& metrics = report.root().at("metrics");
  EXPECT_EQ(metrics.at("counters").at("adam.steps").AsInt(), 15);
  // Phase histograms are reported via AddPhaseBreakdown, not AddMetrics.
  EXPECT_FALSE(metrics.at("histograms").Has("time/epoch"));
  EXPECT_EQ(metrics.at("histograms").at("block.bytes").at("count").AsInt(), 1);

  auto reparsed = RunReport::Parse(report.ToJson());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_TRUE(*reparsed == report.root());
}

TEST(ReportTest, WriteFileMatchesToJson) {
  RunReport report("obs_test_file");
  report.Set("run", "k", json::Value::Int(1));
  const std::string path = testing::TempDir() + "/obs_test_report.json";
  ASSERT_TRUE(report.WriteFile(path).ok());
  auto from_disk = json::Value::Parse(ReadFileOrDie(path));
  ASSERT_TRUE(from_disk.ok());
  EXPECT_TRUE(*from_disk == report.root());
  std::remove(path.c_str());
}

TEST(ReportTest, WriteFileReportsFullDisk) {
  if (!DevFullAvailable()) GTEST_SKIP() << "needs /dev/full";
  RunReport report("obs_test_full_disk");
  const Status status = report.WriteFile("/dev/full");
  EXPECT_EQ(status.code(), StatusCode::kIOError) << status.ToString();
}

}  // namespace
}  // namespace openima::obs

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>

#include "src/util/flags.h"
#include "src/util/rng.h"
#include "src/util/status.h"
#include "src/util/string_util.h"
#include "src/util/table.h"
#include "src/util/thread_pool.h"

namespace openima {
namespace {

// ---------------------------------------------------------------------------
// Status / StatusOr
// ---------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoryFunctionsSetCodeAndMessage) {
  EXPECT_EQ(Status::InvalidArgument("bad").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
  EXPECT_FALSE(Status::InvalidArgument("bad").ok());
  EXPECT_EQ(Status::InvalidArgument("bad").message(), "bad");
}

TEST(StatusTest, ToStringIncludesCodeAndMessage) {
  EXPECT_EQ(Status::InvalidArgument("k must be positive").ToString(),
            "InvalidArgument: k must be positive");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("nope");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, MoveOutValue) {
  StatusOr<std::string> v = std::string("hello");
  std::string s = std::move(v).value();
  EXPECT_EQ(s, "hello");
}

Status FailsAtStep(int failing_step, int step) {
  if (step == failing_step) return Status::Internal("boom");
  return Status::OK();
}

Status RunSteps(int failing_step) {
  OPENIMA_RETURN_IF_ERROR(FailsAtStep(failing_step, 0));
  OPENIMA_RETURN_IF_ERROR(FailsAtStep(failing_step, 1));
  return Status::OK();
}

TEST(StatusOrTest, ReturnIfErrorMacroPropagates) {
  EXPECT_TRUE(RunSteps(-1).ok());
  EXPECT_FALSE(RunSteps(0).ok());
  EXPECT_FALSE(RunSteps(1).ok());
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 16; ++i) differing += a.NextUint64() != b.NextUint64();
  EXPECT_GT(differing, 0);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(-2.0, 3.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 300; ++i) {
    const uint64_t v = rng.UniformInt(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u) << "all residues should appear in 300 draws";
}

TEST(RngTest, NormalMoments) {
  Rng rng(99);
  const int n = 20000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(5);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  rng.Shuffle(&v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 50; ++i) EXPECT_EQ(sorted[static_cast<size_t>(i)], i);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(11);
  auto sample = rng.SampleWithoutReplacement(20, 12);
  EXPECT_EQ(sample.size(), 12u);
  std::set<int> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 12u);
  for (int s : sample) {
    EXPECT_GE(s, 0);
    EXPECT_LT(s, 20);
  }
}

TEST(RngTest, SampleWholePopulation) {
  Rng rng(3);
  auto sample = rng.SampleWithoutReplacement(5, 5);
  std::set<int> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 5u);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(17);
  std::vector<double> w = {0.0, 1.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 4000; ++i) ++counts[static_cast<size_t>(rng.Categorical(w))];
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.5);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(42);
  Rng b = a.Fork();
  // The fork must not replay the parent's stream.
  Rng a2(42);
  a2.Fork();
  EXPECT_NE(a.NextUint64(), b.NextUint64());
}

// ---------------------------------------------------------------------------
// String utilities
// ---------------------------------------------------------------------------

TEST(StringUtilTest, StrFormatBasics) {
  EXPECT_EQ(StrFormat("x=%d y=%.2f s=%s", 3, 1.5, "hi"), "x=3 y=1.50 s=hi");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StringUtilTest, JoinAndSplit) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  const auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(Split("x", ',').size(), 1u);
}

TEST(StringUtilTest, PctFormatsPercentage) {
  EXPECT_EQ(Pct(0.7312), "73.1");
  EXPECT_EQ(Pct(1.0), "100.0");
  EXPECT_EQ(Pct(0.0), "0.0");
}

// ---------------------------------------------------------------------------
// Table
// ---------------------------------------------------------------------------

TEST(TableTest, RendersAlignedCells) {
  Table t({"Method", "All"});
  t.AddRow({"OpenIMA", "77.1"});
  t.AddRow({"X", "1.0"});
  const std::string out = t.ToString();
  EXPECT_NE(out.find("| Method  |"), std::string::npos);
  EXPECT_NE(out.find("OpenIMA"), std::string::npos);
  // All lines between separators have equal width.
  size_t width = out.find('\n');
  for (size_t pos = 0; pos < out.size();) {
    size_t next = out.find('\n', pos);
    if (next == std::string::npos) break;
    EXPECT_EQ(next - pos, width);
    pos = next + 1;
  }
}

TEST(TableTest, CsvOutput) {
  Table t({"a", "b"});
  t.AddRow({"1", "2"});
  t.AddSeparator();
  t.AddRow({"3", "4"});
  EXPECT_EQ(t.ToCsv(), "a,b\n1,2\n3,4\n");
}

TEST(TableTest, TitleShown) {
  Table t({"a"});
  t.SetTitle("Table III");
  EXPECT_EQ(t.ToString().rfind("Table III", 0), 0u);
}

// ---------------------------------------------------------------------------
// Flags
// ---------------------------------------------------------------------------

TEST(FlagsTest, ParsesTypedValues) {
  const char* argv[] = {"prog",      "--seeds=3",  "--scale=0.5", "--name=x",
                        "--verbose", "--stop=-1", "--norm=inf"};
  Flags flags(7, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("seeds", 1), 3);
  EXPECT_DOUBLE_EQ(flags.GetDouble("scale", 1.0), 0.5);
  EXPECT_EQ(flags.GetInt("stop", 0), -1);
  EXPECT_EQ(flags.GetDouble("norm", 1.0),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(flags.GetString("name", ""), "x");
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_EQ(flags.GetInt("missing", 7), 7);
  EXPECT_TRUE(flags.Has("seeds"));
  EXPECT_FALSE(flags.Has("missing"));
}

// A value that is not a whole int or number exits 2 with a usage message
// instead of running with atoi's 0.
TEST(FlagsTest, MalformedNumbersExitWithUsageError) {
  for (const char* bad : {"abc", "5x", "", "1e3", "99999999999"}) {
    const std::string arg = std::string("--epochs=") + bad;
    const char* argv[] = {"prog", arg.c_str()};
    Flags flags(2, const_cast<char**>(argv));
    EXPECT_EXIT(flags.GetInt("epochs", 1), ::testing::ExitedWithCode(2),
                "flag --epochs: expected an integer, got \"" +
                    std::string(bad) + "\"")
        << bad;
  }
  for (const char* bad : {"abc", "0.5x", ""}) {
    const std::string arg = std::string("--scale=") + bad;
    const char* argv[] = {"prog", arg.c_str()};
    Flags flags(2, const_cast<char**>(argv));
    EXPECT_EXIT(flags.GetDouble("scale", 1.0), ::testing::ExitedWithCode(2),
                "flag --scale: expected a number")
        << bad;
  }
}

// ---------------------------------------------------------------------------
// ThreadPool / ParallelFor
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, InlineModeOnSingleThread) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 0) << "single-thread pools run inline";
  int x = 0;
  pool.Submit([&x] { x = 5; });
  EXPECT_EQ(x, 5);
}

TEST(ThreadPoolTest, WaitWithEmptyQueueReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();  // nothing submitted: must not deadlock
  pool.Wait();  // and must be repeatable
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  pool.Wait();  // queue drained again
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, ReentrantSubmitFromWorkerTask) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&pool, &counter] {
      counter.fetch_add(1);
      pool.Submit([&counter] { counter.fetch_add(1); });
    });
  }
  pool.Wait();  // must also cover the tasks submitted from inside workers
  EXPECT_EQ(counter.load(), 16);
}

TEST(ThreadPoolTest, ForcedThreadModeSpawnsARealWorker) {
  ThreadPool pool(1, /*inline_when_single=*/false);
  EXPECT_EQ(pool.num_threads(), 1);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id task_thread;
  pool.Submit([&task_thread] { task_thread = std::this_thread::get_id(); });
  pool.Wait();
  EXPECT_NE(task_thread, caller)
      << "inline_when_single=false must move work off the calling thread";
}

// ---------------------------------------------------------------------------
// TaskGroup
// ---------------------------------------------------------------------------

TEST(TaskGroupTest, WaitsForExactlyItsOwnTasks) {
  ThreadPool pool(2);
  std::atomic<int> group_done{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 32; ++i) {
    group.Submit([&group_done] { group_done.fetch_add(1); });
  }
  group.Wait();
  EXPECT_EQ(group_done.load(), 32);
}

TEST(TaskGroupTest, RethrowsFirstExceptionBySubmissionOrder) {
  ThreadPool pool(4);
  TaskGroup group(&pool);
  group.Submit([] {});  // slot 0: fine
  group.Submit([] { throw std::runtime_error("first"); });
  group.Submit([] { throw std::runtime_error("second"); });
  try {
    group.Wait();
    FAIL() << "Wait() must rethrow";
  } catch (const std::runtime_error& e) {
    // Deterministic choice even when both tasks fail concurrently.
    EXPECT_STREQ(e.what(), "first");
  }
}

TEST(TaskGroupTest, IsReusableAfterWait) {
  ThreadPool pool(2);
  TaskGroup group(&pool);
  std::atomic<int> counter{0};
  group.Submit([&counter] { counter.fetch_add(1); });
  group.Wait();
  group.Submit([] { throw std::runtime_error("round two"); });
  EXPECT_THROW(group.Wait(), std::runtime_error);
  group.Submit([&counter] { counter.fetch_add(1); });
  group.Wait();  // error state cleared by the previous Wait()
  EXPECT_EQ(counter.load(), 2);
}

TEST(TaskGroupTest, NullPoolRunsInlineAndStillDefersExceptions) {
  TaskGroup group(nullptr);
  int x = 0;
  group.Submit([&x] { x = 7; });
  EXPECT_EQ(x, 7) << "no workers: task runs inline at Submit";
  group.Submit([] { throw std::runtime_error("deferred"); });
  // The exception must NOT escape Submit — uniform control flow with the
  // threaded path means it surfaces at Wait().
  EXPECT_THROW(group.Wait(), std::runtime_error);
}

TEST(TaskGroupTest, InlinePoolDefersExceptionsToo) {
  ThreadPool pool(1);  // inline mode: num_threads() == 0
  TaskGroup group(&pool);
  group.Submit([] { throw std::runtime_error("inline"); });
  EXPECT_THROW(group.Wait(), std::runtime_error);
  group.Wait();  // reusable and clean after the rethrow
}

TEST(ParallelForTest, CoversEntireRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(&pool, 1000, [&hits](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) hits[static_cast<size_t>(i)]++;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, NullPoolRunsSerially) {
  int total = 0;
  ParallelFor(nullptr, 10, [&total](int64_t begin, int64_t end) {
    total += static_cast<int>(end - begin);
  });
  EXPECT_EQ(total, 10);
}

TEST(ParallelForTest, EmptyRangeIsNoop) {
  bool called = false;
  ParallelFor(nullptr, 0, [&called](int64_t, int64_t) { called = true; });
  EXPECT_FALSE(called);
}

}  // namespace
}  // namespace openima

#ifndef OPENIMA_PERFBENCH_BENCH_H_
#define OPENIMA_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/openima.h"
#include "src/core/serve.h"
#include "src/graph/dataset.h"
#include "src/graph/splits.h"
#include "src/util/status.h"

/// Shared pieces of the OpenIMA benchmark harness (perfbench/README.md):
/// workload definitions, input generation from the workload seed, and the
/// report every run prints as its last line.
namespace perfbench {

namespace oi = openima;

/// Command-line arguments of one benchmark run.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int threads = 1;      ///< the workload's kernel threads, capped at nproc
  std::string out_dir;  ///< scratch directory for checkpoints and traces
};

/// One workload: which stand-in graph, at what size, trained how.
struct WorkloadSpec {
  const char* name;
  const char* dataset;  ///< graph::GetBenchmark name
  double scale;         ///< node-count scale of the stand-in
  int max_features;     ///< feature-dimension cap
  int hidden;           ///< GAT hidden width (total over heads)
  int heads;
  int epochs;           ///< epochs per Train() call
  bool sampled;         ///< neighbor-sampled minibatch training
  int workers;          ///< data-parallel replicas (0 = serial)
  bool serve;           ///< closed-loop classify workload
  int threads;          ///< kernel threads of the process default context
};

/// The four workloads, or nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

/// Inputs of a training run, generated from the workload seed.
struct Fixture {
  oi::graph::Dataset dataset;
  oi::graph::OpenWorldSplit split;
  oi::core::OpenImaConfig config;
  uint64_t model_seed = 0;
};

/// Builds the stand-in graph, its open-world split and the model config.
oi::StatusOr<std::unique_ptr<Fixture>> MakeFixture(const WorkloadSpec& spec,
                                                   uint64_t seed);

/// A serving fixture: a short training run on the train_full graph, saved
/// as a checkpoint and loaded into a frozen InferenceService.
struct ServeFixture {
  std::unique_ptr<Fixture> fixture;
  std::unique_ptr<oi::core::OpenImaModel> model;
  std::unique_ptr<oi::core::InferenceService> service;
  std::unique_ptr<oi::core::InferenceSession> session;
  double save_ms = 0.0;
  double load_ms = 0.0;
  double checkpoint_mib = 0.0;
};

/// Metrics, operation counts and correctness verdict of one run.
class Report {
 public:
  /// Counts one program operation; a non-OK status is a failure.
  void Count(const oi::Status& status, const std::string& what);
  /// Records a correctness check; a false check fails the run.
  void Check(bool ok, const std::string& what);
  void Set(const std::string& name, double value, const std::string& unit);
  /// An ungated output kept in the run's record (accuracies, p99, counts).
  void Detail(const std::string& name, double value, const std::string& unit);

  bool correct() const { return problems_.empty() && failed_ == 0; }
  const std::vector<std::string>& problems() const { return problems_; }

  /// Deterministic output digest (predictions), compared across runs.
  std::string checksum;

  /// `{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`
  /// plus the details, the checksum, failed checks and provenance.
  std::string Json(const std::string& provenance) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> problems_;
  std::vector<Metric> metrics_;
  std::vector<Metric> details_;
};

/// Closed-loop request stream: batches of distinct node ids drawn from the
/// workload seed (node sets are not repeated on purpose).
class RequestStream {
 public:
  RequestStream(uint64_t seed, int num_nodes, int batch);
  std::vector<int> Next();

 private:
  oi::Rng rng_;
  int num_nodes_;
  int batch_;
};

/// Nodes per classify request of the serve workload.
constexpr int kServeBatch = 8;

/// Stream ids for DeriveStreamSeed(seed, ...): every input of a run is a
/// pure function of the workload seed.
enum SeedStream : uint64_t {
  kGraphStream = 1,
  kSplitStream = 2,
  kModelStream = 3,
  kRequestStream = 4,
  kReplayStream = 5,
};

/// Untraced end-to-end runs (end-to-end metrics).
void RunTrainingWorkload(const WorkloadSpec& spec, const Args& args,
                         Report* report);
void RunServeWorkload(const Args& args, Report* report);

/// Traced runs (per-layer metrics).
void TraceTrainingWorkload(const WorkloadSpec& spec, const Args& args,
                           Report* report);
void TraceServeWorkload(const Args& args, Report* report);

// ---------------------------------------------------------------------------
// Shared helpers (workloads.cc).
// ---------------------------------------------------------------------------

/// One untraced Train of a fresh model, one Predict, and
/// `inference_calls` full-graph HeadPredict passes.
struct TrainOutcome {
  std::unique_ptr<oi::core::OpenImaModel> model;
  double train_s = 0.0;
  double predict_ms = 0.0;
  std::vector<double> inference_ms;
  std::vector<int> predictions;
  double acc_all = 0.0;
  double acc_seen = 0.0;
  double acc_novel = 0.0;
};
TrainOutcome TrainAndPredict(const Fixture& fixture, int inference_calls,
                             Report* report);

/// Trains, saves and loads a serving fixture.
oi::StatusOr<ServeFixture> MakeServeFixture(const Args& args,
                                            Report* report);

/// Accuracy floor a workload must beat: twice the uniform-guess accuracy.
double ChanceFloor(int num_classes);

/// FNV-1a over a sequence of class ids, as 16 hex digits.
std::string Checksum(const std::vector<int>& values);

double Median(std::vector<double> values);

/// Nearest-rank quantile of an ascending-sorted sample, q in (0, 1].
double NearestRank(const std::vector<double>& sorted, double q);

double PeakRssMib();

inline double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace perfbench

#endif  // OPENIMA_PERFBENCH_BENCH_H_

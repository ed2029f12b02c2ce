// Workload definitions, input generation and the untraced end-to-end runs.

#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "perfbench/bench.h"
#include "perfbench/replay.h"
#include "src/graph/benchmarks.h"
#include "src/metrics/clustering_accuracy.h"
#include "src/util/rng.h"
#include "src/util/string_util.h"

namespace perfbench {

using oi::Status;
using oi::StatusOr;
namespace core = oi::core;
namespace graph = oi::graph;

namespace {

// Serve set-ups (each trains a checkpoint) per run.
constexpr int kServeSetupReps = 3;

// Train + Predict repetitions per run: at least two, so every run checks
// that one seed reproduces its predictions bit for bit.
constexpr int kMinTrainReps = 2;

// Full-graph inference passes after each Train: their median is the
// training workloads' inference latency.
constexpr int kInferenceCalls = 5;

// A p99 needs at least ten samples beyond it: 1000 requests.
constexpr int kMinServeRequests = 1000;

// Serve latencies are summarized per window of this many seconds.
constexpr double kServeWindowS = 1.0;

// Requests classified during serve set-up (lazy state warms up; their
// predictions are compared across set-ups and replayed layer by layer).
constexpr int kServeWarmRequests = 16;

// Training uses every CPU (4 on the reference host; the kernels balance
// their ranges dynamically). Serve runs one single-threaded session, the
// service's concurrency model: threading an 8-node request's forward makes
// it slower (p50 0.73 ms at 4 threads vs 0.45 ms at 1 on a 4-vCPU x86-64
// VM).
const WorkloadSpec kWorkloads[] = {
    // name, dataset, scale, features, hidden, heads, epochs, sampled,
    // workers, serve, threads
    {"train_full", "coauthor_cs", 0.3, 64, 64, 4, 3, false, 0, false, 4},
    {"train_sampled", "ogbn_arxiv", 0.05, 128, 64, 2, 2, true, 0, false, 4},
    {"train_dp", "ogbn_arxiv", 0.05, 128, 64, 2, 2, true, 2, false, 4},
    {"serve", "coauthor_cs", 0.3, 64, 64, 4, 2, false, 0, true, 1},
};

std::string FormatDouble(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// Open-world accuracy on the test nodes under one Hungarian alignment.
Status TestAccuracy(const Fixture& f, const std::vector<int>& predictions,
                    oi::metrics::OpenWorldAccuracy* out) {
  std::vector<int> preds, labels;
  preds.reserve(f.split.test_nodes.size());
  labels.reserve(f.split.test_nodes.size());
  for (int v : f.split.test_nodes) {
    preds.push_back(predictions[static_cast<size_t>(v)]);
    labels.push_back(f.split.remapped_labels[static_cast<size_t>(v)]);
  }
  auto acc = oi::metrics::EvaluateOpenWorld(preds, labels, f.split.num_seen,
                                            f.split.num_total_classes());
  if (!acc.ok()) return acc.status();
  *out = *acc;
  return Status::OK();
}

// Moves the calling thread across the CPUs it may run on, one step per
// call, and restores its original CPU set when destroyed. The serve
// workload is single-threaded; neighbor load slows single CPUs for seconds
// at a time, so rotating keeps one contended CPU from holding a whole run.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &original_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(original_), &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Next() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[step_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
  size_t step_ = 0;
};

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

StatusOr<std::unique_ptr<Fixture>> MakeFixture(const WorkloadSpec& spec,
                                               uint64_t seed) {
  auto bench = graph::GetBenchmark(spec.dataset);
  if (!bench.ok()) return bench.status();
  auto fixture = std::make_unique<Fixture>();
  auto dataset =
      graph::MakeDataset(*bench, spec.scale, spec.max_features,
                         oi::DeriveStreamSeed(seed, kGraphStream));
  if (!dataset.ok()) return dataset.status();
  fixture->dataset = std::move(*dataset);

  graph::SplitOptions split_options;
  split_options.labeled_per_class = bench->labeled_per_class;
  split_options.val_per_class = bench->labeled_per_class;
  auto split = graph::MakeOpenWorldSplit(
      fixture->dataset, split_options,
      oi::DeriveStreamSeed(seed, kSplitStream));
  if (!split.ok()) return split.status();
  fixture->split = std::move(*split);

  core::OpenImaConfig& c = fixture->config;
  c.encoder.hidden_dim = spec.hidden;
  c.encoder.embedding_dim = spec.hidden;
  c.encoder.num_heads = spec.heads;
  c.num_seen = fixture->split.num_seen;
  c.num_novel = fixture->split.num_novel;
  c.epochs = spec.epochs;
  c.lr = 5e-3f;
  c.batch_size = 2048;
  // Refresh every epoch after one warm-up epoch; every refresh after the
  // first warm-starts from the previous centers.
  c.pseudo_refresh_every = 1;
  c.pseudo_warmup_epochs = 1;
  if (spec.sampled) {
    // The paper's large-graph recipe: mini-batch K-Means refreshes, head
    // prediction, pairwise regularizer.
    c.large_graph_mode = true;
    c.sampled_training = true;
    c.sample_fanout = 10;
    c.batch_nodes = 1024;
    c.workers = spec.workers;
  }
  fixture->model_seed = oi::DeriveStreamSeed(seed, kModelStream);
  return fixture;
}

void Report::Count(const Status& status, const std::string& what) {
  ++attempted_;
  if (!status.ok()) {
    ++failed_;
    problems_.push_back(what + " failed: " + status.ToString());
  }
}

void Report::Check(bool ok, const std::string& what) {
  if (!ok) problems_.push_back("check failed: " + what);
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

void Report::Detail(const std::string& name, double value,
                    const std::string& unit) {
  details_.push_back({name, value, unit});
}

std::string Report::Json(const std::string& provenance) const {
  auto object = [](const std::vector<Metric>& metrics) {
    std::string out = "{";
    for (size_t i = 0; i < metrics.size(); ++i) {
      if (i > 0) out += ", ";
      out += JsonString(metrics[i].name) + ": {\"value\": " +
             FormatDouble(metrics[i].value) +
             ", \"unit\": " + JsonString(metrics[i].unit) + "}";
    }
    return out + "}";
  };
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": " + object(metrics_);
  out += ", \"details\": " + object(details_);
  out += ", \"checksum\": " + JsonString(checksum);
  out += ", \"problems\": [";
  for (size_t i = 0; i < problems_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(problems_[i]);
  }
  out += "], \"provenance\": " + provenance + "}";
  return out;
}

RequestStream::RequestStream(uint64_t seed, int num_nodes, int batch)
    : rng_(oi::DeriveStreamSeed(seed, kRequestStream)),
      num_nodes_(num_nodes),
      batch_(batch) {}

std::vector<int> RequestStream::Next() {
  return rng_.SampleWithoutReplacement(num_nodes_, batch_);
}

double ChanceFloor(int num_classes) {
  return 2.0 / static_cast<double>(std::max(1, num_classes));
}

std::string Checksum(const std::vector<int>& values) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (int v : values) {
    const uint32_t u = static_cast<uint32_t>(v);
    for (int b = 0; b < 4; ++b) {
      hash ^= (u >> (8 * b)) & 0xffu;
      hash *= 0x100000001b3ULL;
    }
  }
  return oi::StrFormat("%016llx", static_cast<unsigned long long>(hash));
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double NearestRank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const size_t n = sorted.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return sorted[rank - 1];
}

double PeakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

TrainOutcome TrainAndPredict(const Fixture& fixture, int inference_calls,
                             Report* report) {
  TrainOutcome out;
  out.model = std::make_unique<core::OpenImaModel>(
      fixture.config, fixture.dataset.feature_dim(), fixture.model_seed);
  auto t0 = std::chrono::steady_clock::now();
  const Status trained = out.model->Train(fixture.dataset, fixture.split);
  out.train_s = SecondsSince(t0);
  report->Count(trained, "Train");
  if (!trained.ok()) return out;

  t0 = std::chrono::steady_clock::now();
  auto predicted = out.model->Predict(fixture.dataset, fixture.split);
  out.predict_ms = SecondsSince(t0) * 1e3;
  report->Count(predicted.status(), "Predict");
  if (!predicted.ok()) return out;
  out.predictions = std::move(*predicted);

  // Full-graph inference passes (every node's class from the head; what
  // Predict runs in large-graph mode). Unlike two-stage Predict, whose
  // K-Means draws make its time vary call to call and seed to seed, the
  // pass is fixed work, so its median is a steady inference latency.
  for (int call = 0; call < inference_calls; ++call) {
    t0 = std::chrono::steady_clock::now();
    const std::vector<int> head = out.model->HeadPredict(fixture.dataset);
    out.inference_ms.push_back(SecondsSince(t0) * 1e3);
    report->Count(head.size() == out.predictions.size()
                      ? Status::OK()
                      : Status::Internal("HeadPredict returned a short vector"),
                  "HeadPredict");
  }

  oi::metrics::OpenWorldAccuracy acc;
  const Status evaluated = TestAccuracy(fixture, out.predictions, &acc);
  report->Check(evaluated.ok(), "test accuracy: " + evaluated.ToString());
  out.acc_all = acc.all;
  out.acc_seen = acc.seen;
  out.acc_novel = acc.novel;
  return out;
}

void RunTrainingWorkload(const WorkloadSpec& spec, const Args& args,
                         Report* report) {
  // Every repetition sets up afresh, so set-up samples spread over the run
  // like the training samples do.
  std::vector<double> setup_s, nodes_per_s, inference_ms, predict_ms;
  TrainOutcome first;
  int nodes = 0, classes = 0;
  double peak_rss_mib = 0.0;
  const auto start = std::chrono::steady_clock::now();
  for (int rep = 0;; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    auto made = MakeFixture(spec, args.seed);
    setup_s.push_back(SecondsSince(t0));
    if (!made.ok()) {
      report->Check(false, "fixture: " + made.status().ToString());
      return;
    }
    const Fixture& fixture = **made;
    nodes = fixture.dataset.num_nodes();
    classes = fixture.split.num_total_classes();

    TrainOutcome o = TrainAndPredict(fixture, kInferenceCalls, report);
    if (o.predictions.empty()) return;
    o.model.reset();
    nodes_per_s.push_back(static_cast<double>(nodes) * spec.epochs /
                          o.train_s);
    inference_ms.push_back(Median(o.inference_ms));
    predict_ms.push_back(o.predict_ms);
    if (rep == 0) {
      first = std::move(o);
      report->checksum = Checksum(first.predictions);
      // Later repetitions add only allocator reuse noise to the peak.
      peak_rss_mib = PeakRssMib();
    } else {
      report->Check(Checksum(o.predictions) == report->checksum,
                    "Predict checksum repeats within the run");
    }
    // Stop before a repetition would overrun the measuring time.
    const double elapsed = SecondsSince(start);
    if (rep + 1 >= kMinTrainReps &&
        elapsed * (rep + 2) / (rep + 1) > args.seconds) {
      break;
    }
  }
  const double floor = ChanceFloor(classes);
  report->Check(first.acc_all > floor,
                oi::StrFormat("acc_all %.4f above the chance floor %.4f",
                              first.acc_all, floor));

  // Neighbor load on a shared host slows whole seconds of a run (a fixed
  // single-thread loop reads 1.0-1.7x its best across 2 s windows) and
  // never speeds it up, so each timing is the run's best repetition: its
  // fastest set-up, fastest Train and lowest median inference latency.
  report->Set("setup_s", *std::min_element(setup_s.begin(), setup_s.end()),
              "s");
  report->Set("peak_rss_mib", peak_rss_mib, "MiB");
  report->Set("nodes_per_s",
              *std::max_element(nodes_per_s.begin(), nodes_per_s.end()),
              "nodes/s");
  report->Set("latency_p50_ms",
              *std::min_element(inference_ms.begin(), inference_ms.end()),
              "ms");
  report->Detail("median_setup_s", Median(setup_s), "s");
  report->Detail("median_nodes_per_s", Median(nodes_per_s), "nodes/s");
  report->Detail("median_latency_p50_ms", Median(inference_ms), "ms");
  report->Detail("predict_s", Median(predict_ms) / 1e3, "s");
  report->Detail("train_repetitions", static_cast<double>(nodes_per_s.size()),
                 "count");
  report->Detail("acc_all", first.acc_all, "ratio");
  report->Detail("acc_seen", first.acc_seen, "ratio");
  report->Detail("acc_novel", first.acc_novel, "ratio");
  std::printf(
      "train: %d nodes, %d epochs, %zu repetitions, acc_all %.4f acc_seen "
      "%.4f acc_novel %.4f\n",
      nodes, spec.epochs, nodes_per_s.size(), first.acc_all, first.acc_seen,
      first.acc_novel);
}

StatusOr<ServeFixture> MakeServeFixture(const Args& args, Report* report) {
  const WorkloadSpec& spec = *FindWorkload("serve");
  auto made = MakeFixture(spec, args.seed);
  if (!made.ok()) return made.status();
  ServeFixture sf;
  sf.fixture = std::move(*made);
  const Fixture& f = *sf.fixture;
  sf.model = std::make_unique<core::OpenImaModel>(
      f.config, f.dataset.feature_dim(), f.model_seed);
  Status s = sf.model->Train(f.dataset, f.split);
  report->Count(s, "Train");
  if (!s.ok()) return s;

  const std::string path = oi::StrFormat(
      "%s/serve-%llu.ckpt", args.out_dir.c_str(),
      static_cast<unsigned long long>(args.seed));
  auto t0 = std::chrono::steady_clock::now();
  s = sf.model->SaveCheckpoint(path);
  sf.save_ms = SecondsSince(t0) * 1e3;
  report->Count(s, "SaveCheckpoint");
  if (!s.ok()) return s;
  struct stat st {};
  if (stat(path.c_str(), &st) == 0) {
    sf.checkpoint_mib = static_cast<double>(st.st_size) / (1024.0 * 1024.0);
  }

  core::ServeOptions options;
  options.sample_fanout = 0;  // exact 2-hop neighborhoods
  t0 = std::chrono::steady_clock::now();
  auto service = core::InferenceService::Load(path, &f.dataset, options);
  sf.load_ms = SecondsSince(t0) * 1e3;
  report->Count(service.status(), "InferenceService::Load");
  if (!service.ok()) return service.status();
  sf.service = std::move(*service);
  sf.session = sf.service->NewSession();
  return sf;
}

void RunServeWorkload(const Args& args, Report* report) {
  std::vector<double> setup_s;
  ServeFixture sf;
  std::vector<std::vector<int>> warm_requests;
  std::vector<int> warm_classes;
  CpuRotation rotation;
  for (int i = 0; i < kServeSetupReps; ++i) {
    // Release the previous set-up first (session before the service, both
    // before the dataset they point into) so set-ups never overlap.
    sf.session.reset();
    sf.service.reset();
    sf = ServeFixture();
    rotation.Next();
    const auto t0 = std::chrono::steady_clock::now();
    auto made = MakeServeFixture(args, report);
    if (!made.ok()) {
      report->Check(false, "serve fixture: " + made.status().ToString());
      return;
    }
    // Warm-up requests finish lazy set-up before timing; their predictions
    // must repeat across the independently trained set-ups.
    RequestStream warm(args.seed, made->fixture->dataset.num_nodes(),
                       kServeBatch);
    std::vector<int> classes;
    std::vector<core::ClassifyResult> out;
    std::vector<std::vector<int>> requests;
    for (int r = 0; r < kServeWarmRequests; ++r) {
      requests.push_back(warm.Next());
      const Status s = made->session->Classify(
          requests.back(), static_cast<uint64_t>(r), &out);
      report->Count(s, "Classify");
      if (!s.ok()) return;
      for (const auto& c : out) classes.push_back(c.class_id);
    }
    setup_s.push_back(SecondsSince(t0));
    if (i == 0) {
      warm_classes = classes;
      report->checksum = Checksum(classes);
    } else {
      report->Check(classes == warm_classes,
                    "serve predictions repeat across set-ups");
    }
    warm_requests = std::move(requests);
    sf = std::move(*made);
  }
  const Fixture& f = *sf.fixture;

  // Closed loop, one session: the next request is sent when the previous
  // one returns. The stream continues past the warm-up requests, so no
  // node set is sent twice on purpose.
  RequestStream stream(args.seed, f.dataset.num_nodes(), kServeBatch);
  for (int r = 0; r < kServeWarmRequests; ++r) stream.Next();
  // Latencies are also kept per one-second window: the window with the
  // lowest median gives the gated p50 and rate (see RunTrainingWorkload).
  std::vector<double> latency_ms, window_ms;
  std::vector<double> window_p50_ms, window_nodes_per_s;
  std::vector<int> predicted(static_cast<size_t>(f.dataset.num_nodes()), -1);
  std::vector<core::ClassifyResult> out;
  const auto start = std::chrono::steady_clock::now();
  auto window_start = start;
  for (uint64_t tag = kServeWarmRequests;
       static_cast<int>(latency_ms.size()) < kMinServeRequests ||
       SecondsSince(start) < args.seconds;
       ++tag) {
    const std::vector<int> nodes = stream.Next();
    const auto t0 = std::chrono::steady_clock::now();
    const Status s = sf.session->Classify(nodes, tag, &out);
    const double ms = SecondsSince(t0) * 1e3;
    report->Count(s, "Classify");
    if (!s.ok()) continue;
    latency_ms.push_back(ms);
    window_ms.push_back(ms);
    for (size_t i = 0; i < nodes.size(); ++i) {
      predicted[static_cast<size_t>(nodes[i])] = out[i].class_id;
    }
    if (const double w = SecondsSince(window_start); w >= kServeWindowS) {
      window_p50_ms.push_back(Median(window_ms));
      window_nodes_per_s.push_back(
          static_cast<double>(window_ms.size() * kServeBatch) / w);
      window_ms.clear();
      rotation.Next();
      window_start = std::chrono::steady_clock::now();
    }
  }
  const double wall_s = SecondsSince(start);
  if (window_p50_ms.empty()) {
    window_p50_ms.push_back(Median(window_ms));
    window_nodes_per_s.push_back(
        static_cast<double>(window_ms.size() * kServeBatch) /
        SecondsSince(window_start));
  }

  // Replayed requests (sample -> gather -> EmbedSampled -> nearest center
  // -> cluster_to_final_class) must return Classify's class ids.
  {
    ServeReplay replay(sf);
    std::vector<int> replayed;
    for (size_t r = 0; r < warm_requests.size(); ++r) {
      const std::vector<int> ids =
          replay.Classify(warm_requests[r], static_cast<uint64_t>(r));
      replayed.insert(replayed.end(), ids.begin(), ids.end());
    }
    report->Check(replayed == warm_classes,
                  "replayed serve requests match Classify");
  }

  // Accuracy of the served predictions on the test nodes they covered.
  std::vector<int> preds, labels;
  for (int v : f.split.test_nodes) {
    if (predicted[static_cast<size_t>(v)] < 0) continue;
    preds.push_back(predicted[static_cast<size_t>(v)]);
    labels.push_back(f.split.remapped_labels[static_cast<size_t>(v)]);
  }
  auto acc = oi::metrics::EvaluateOpenWorld(preds, labels, f.split.num_seen,
                                            f.split.num_total_classes());
  const double floor = ChanceFloor(f.split.num_total_classes());
  report->Check(acc.ok() && acc->all > floor,
                oi::StrFormat("served accuracy %.4f above the chance floor "
                              "%.4f",
                              acc.ok() ? acc->all : -1.0, floor));

  std::sort(latency_ms.begin(), latency_ms.end());
  const size_t n = latency_ms.size();
  const size_t p99_rank = static_cast<size_t>(std::ceil(0.99 * n));
  const size_t beyond_p99 = n - p99_rank;
  report->Check(beyond_p99 >= 10, "at least 10 samples beyond p99");

  const double p50 = NearestRank(latency_ms, 0.50);
  const size_t best = static_cast<size_t>(
      std::min_element(window_p50_ms.begin(), window_p50_ms.end()) -
      window_p50_ms.begin());
  report->Set("setup_s", *std::min_element(setup_s.begin(), setup_s.end()),
              "s");
  report->Set("peak_rss_mib", PeakRssMib(), "MiB");
  report->Set("nodes_per_s", window_nodes_per_s[best], "nodes/s");
  report->Set("latency_p50_ms", window_p50_ms[best], "ms");
  report->Detail("median_setup_s", Median(setup_s), "s");
  report->Detail("serve_windows", static_cast<double>(window_p50_ms.size()),
                 "count");
  report->Detail("serve_nodes_per_s",
                 static_cast<double>(n * kServeBatch) / wall_s, "nodes/s");
  report->Detail("serve_p50_ms", p50, "ms");
  report->Detail("serve_p99_ms", NearestRank(latency_ms, 0.99), "ms");
  report->Detail("serve_samples", static_cast<double>(n), "count");
  report->Detail("serve_beyond_p99", static_cast<double>(beyond_p99),
                 "count");
  report->Detail("serve_rps", static_cast<double>(n) / wall_s, "1/s");
  if (acc.ok()) {
    report->Detail("acc_all", acc->all, "ratio");
    report->Detail("acc_seen", acc->seen, "ratio");
    report->Detail("acc_novel", acc->novel, "ratio");
  }
  std::printf(
      "serve: %zu requests of %d nodes in %.2f s, %zu samples beyond p99, "
      "served acc_all %.4f\n",
      n, kServeBatch, wall_s, beyond_p99, acc.ok() ? acc->all : -1.0);
}

}  // namespace perfbench

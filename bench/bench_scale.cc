// Full-scale sampled-training benchmark: trains OpenIMA end to end
// (training + pseudo-label refresh + open-world eval) on an *unscaled*
// ogbn-arxiv-sized synthetic graph — 169,343 nodes, ~1.17M undirected
// edges — in neighbor-sampled minibatch mode, and prints the scaling
// numbers the full-graph trainer cannot produce at this size: per-epoch
// wall time, seed-node throughput, accuracy and peak RSS. By default the
// run is a worker sweep — the serial trainer followed by the deterministic
// data-parallel trainer at 8 workers (DESIGN.md §2.8).
//
// Run: ./bench_scale
// Knobs:
//   --scale=1.0 --features=128          # graph size / feature cap
//   --epochs=3 --sample-fanout=10 --batch-nodes=1024
//   --hidden=64 --heads=2 --threads=N
//   --workers=8                         # single run at W workers instead
//                                       # of the sweep (OPENIMA_WORKERS
//                                       # env; flag wins)
//   --workers-list=0,8                  # sweep rows (0 = serial trainer)
//
// Peak RSS is the process high-water mark, so a sweep row also carries
// the rows before it; run one --workers value per process to isolate it.

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/core/openima.h"
#include "src/exec/context.h"
#include "src/graph/benchmarks.h"
#include "src/graph/splits.h"
#include "src/metrics/clustering_accuracy.h"
#include "src/obs/obs.h"
#include "src/util/flags.h"
#include "src/util/stopwatch.h"
#include "src/util/string_util.h"

namespace {

double PeakRssMib() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return -1.0;
  // Linux reports ru_maxrss in KiB.
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace openima;

  Flags flags(argc, argv);
  const int threads = flags.GetInt("threads", -1);
  if (threads >= 0) exec::SetDefaultNumThreads(threads);
  obs::InitFromEnv();

  const double scale = flags.GetDouble("scale", 1.0);
  const int max_features = flags.GetInt("features", 128);
  auto spec = graph::GetBenchmark("ogbn_arxiv");
  if (!spec.ok()) {
    std::fprintf(stderr, "spec: %s\n", spec.status().ToString().c_str());
    return 1;
  }

  Stopwatch gen_watch;
  auto dataset = graph::MakeDataset(*spec, scale, max_features, /*seed=*/42);
  if (!dataset.ok()) {
    std::fprintf(stderr, "dataset: %s\n", dataset.status().ToString().c_str());
    return 1;
  }
  const double gen_ms = gen_watch.ElapsedMillis();
  std::printf("graph: %d nodes, %lld undirected edges, %d classes "
              "(generated in %.1f s)\n",
              dataset->num_nodes(),
              static_cast<long long>(dataset->graph.num_undirected_edges()),
              dataset->num_classes, gen_ms / 1000.0);

  graph::SplitOptions split_options;
  split_options.labeled_per_class = spec->labeled_per_class;
  split_options.val_per_class = spec->labeled_per_class;
  auto split = graph::MakeOpenWorldSplit(*dataset, split_options, /*seed=*/7);
  if (!split.ok()) {
    std::fprintf(stderr, "split: %s\n", split.status().ToString().c_str());
    return 1;
  }

  core::OpenImaConfig config;
  config.encoder.in_dim = dataset->feature_dim();
  config.encoder.hidden_dim = flags.GetInt("hidden", 64);
  config.encoder.embedding_dim = config.encoder.hidden_dim;
  config.encoder.num_heads = flags.GetInt("heads", 2);
  config.num_seen = split->num_seen;
  config.num_novel = split->num_novel;
  config.epochs = flags.GetInt("epochs", 3);
  config.lr = 5e-3f;
  // The paper's large-graph recipe: mini-batch K-Means refreshes and
  // head-based prediction — the only pieces that still see all n nodes.
  config.large_graph_mode = true;
  config.sampled_training = true;
  config.sample_fanout = flags.GetInt("sample-fanout", 10);
  config.batch_nodes = flags.GetInt("batch-nodes", 1024);
  config.pseudo_warmup_epochs = 1;

  // Worker counts to run: an explicit --workers (or OPENIMA_WORKERS) pins
  // a single row, otherwise the default sweep pairs the serial trainer
  // with the 8-worker data-parallel row.
  const auto env_int = [](const char* name, int fallback) {
    const char* v = std::getenv(name);
    return v == nullptr ? fallback : std::atoi(v);
  };
  std::vector<int> worker_counts;
  const int single = flags.GetInt("workers", env_int("OPENIMA_WORKERS", -1));
  if (single >= 0) {
    worker_counts.push_back(single);
  } else {
    for (const std::string& part :
         Split(flags.GetString("workers-list", "0,8"), ',')) {
      if (!part.empty()) worker_counts.push_back(std::atoi(part.c_str()));
    }
  }

  for (const int workers : worker_counts) {
    config.workers = workers;
    std::printf("sampled training: fanout %d, %d seed nodes/batch, %d "
                "epochs, %d data-parallel workers\n",
                config.sample_fanout, config.batch_nodes, config.epochs,
                config.workers);

    core::OpenImaModel model(config, dataset->feature_dim(), /*seed=*/1);
    Stopwatch train_watch;
    if (Status s = model.Train(*dataset, *split); !s.ok()) {
      std::fprintf(stderr, "train: %s\n", s.ToString().c_str());
      return 1;
    }
    const double train_ms = train_watch.ElapsedMillis();

    Stopwatch eval_watch;
    auto predictions = model.Predict(*dataset, *split);
    if (!predictions.ok()) {
      std::fprintf(stderr, "predict: %s\n",
                   predictions.status().ToString().c_str());
      return 1;
    }
    std::vector<int> test_preds, test_labels;
    for (int v : split->test_nodes) {
      test_preds.push_back((*predictions)[static_cast<size_t>(v)]);
      test_labels.push_back(split->remapped_labels[static_cast<size_t>(v)]);
    }
    auto acc = metrics::EvaluateOpenWorld(test_preds, test_labels,
                                          split->num_seen,
                                          split->num_total_classes());
    if (!acc.ok()) {
      std::fprintf(stderr, "eval: %s\n", acc.status().ToString().c_str());
      return 1;
    }
    const double eval_ms = eval_watch.ElapsedMillis();

    // Every epoch shuffles all n nodes into seed batches, so throughput is
    // seed nodes consumed per second of training wall time.
    const double epoch_ms = train_ms / config.epochs;
    const double nodes_per_sec =
        static_cast<double>(dataset->num_nodes()) * config.epochs /
        (train_ms / 1000.0);
    const double peak_rss_mib = PeakRssMib();

    std::printf("train: %.1f s total, %.1f s/epoch, %.0f nodes/s\n",
                train_ms / 1000.0, epoch_ms / 1000.0, nodes_per_sec);
    std::printf(
        "eval: %.1f s; accuracy all %.1f%% seen %.1f%% novel %.1f%%\n",
        eval_ms / 1000.0, 100.0 * acc->all, 100.0 * acc->seen,
        100.0 * acc->novel);
    std::printf("peak RSS: %.0f MiB\n", peak_rss_mib);
  }
  return 0;
}

// Quickstart: the minimal end-to-end OpenIMA workflow.
//
//  1. Build (or load) a partially labeled graph.
//  2. Construct an open-world split: half the classes are "seen" (labeled),
//     the rest are novel.
//  3. Train OpenIMA from scratch (GAT encoder + BPCL + CE, Eq. 6).
//  4. Predict: K-Means over embeddings + Hungarian cluster-class alignment.
//  5. Evaluate All / Seen / Novel clustering accuracy (GCD protocol).
//
// Run: ./quickstart
//
// Observability (see README "Observability & benchmarking"):
//   OPENIMA_TRACE=run.json ./quickstart   # chrome://tracing span timeline
//   ./quickstart --trace=run.json         # same, as a flag
//   ./quickstart --report=report.json     # machine-readable RunReport
//   ./quickstart --telemetry=run.jsonl    # per-epoch training time-series
//   ./quickstart --watchdog=abort         # NaN/Inf + norm-explosion guard
//   ./quickstart --obs-smoke              # CI check: report round-trips
//   ./quickstart --backend=scalar         # pin the kernel backend
//                                         # (auto|scalar|avx2; exit 77 when
//                                         # the named backend is unusable)
//   ./quickstart --sampled                # neighbor-sampled minibatch mode
//   ./quickstart --sample-fanout=10       # per-layer fanout (implies
//                                         # --sampled; 0 = exhaustive)
//   ./quickstart --batch-nodes=1024       # seed nodes per sampled batch
//                                         # (implies --sampled)
//   ./quickstart --workers=8              # deterministic data-parallel
//                                         # training: W model replicas +
//                                         # tree all-reduce (implies
//                                         # --sampled; bit-identical for
//                                         # any W, DESIGN.md §2.8)
//   ./quickstart --epochs=15              # training epochs
//   ./quickstart --checkpoint-out=m.ckpt  # save a versioned checkpoint
//                                         # after training (SERVING.md)
//   ./quickstart --resume=m.ckpt          # load a checkpoint and continue
//                                         # training where it stopped
//   ./quickstart --stop-after=8           # stop after this absolute epoch
//                                         # (resume replays the rest
//                                         # bit-identically)
// Env equivalents (flags win): OPENIMA_SAMPLE_TRAIN=1,
// OPENIMA_SAMPLE_FANOUT=<n>, OPENIMA_SAMPLE_BATCH_NODES=<n>,
// OPENIMA_WORKERS=<w>.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/core/openima.h"
#include "src/la/backend/backend.h"
#include "src/graph/splits.h"
#include "src/graph/synthetic.h"
#include "src/metrics/clustering_accuracy.h"
#include "src/obs/obs.h"
#include "src/util/flags.h"

int main(int argc, char** argv) {
  using namespace openima;

  Flags flags(argc, argv);
  obs::InitFromEnv();
  // Pin the kernel backend before anything computes or reports: RunReport
  // snapshots la::backend::Default() into its "run" provenance section. A
  // backend that exists but is unusable on this host (e.g. --backend=avx2
  // on a pre-Haswell CPU) exits 77 — the conventional "skipped" code, which
  // the ctest fixtures map to SKIP_RETURN_CODE so portable CI stays green.
  if (const std::string backend = flags.GetString("backend", "");
      !backend.empty()) {
    if (Status s = la::backend::SetDefault(backend); !s.ok()) {
      std::fprintf(stderr, "backend: %s\n", s.ToString().c_str());
      return s.code() == StatusCode::kFailedPrecondition ? 77 : 1;
    }
  }
  std::printf("kernel backend: %s\n", la::backend::Default().name());
  const std::string trace_path = flags.GetString("trace", "");
  if (!trace_path.empty()) {
    if (Status s = obs::StartTracing(trace_path); !s.ok()) {
      std::fprintf(stderr, "trace: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  const std::string telemetry_path = flags.GetString("telemetry", "");
  if (!telemetry_path.empty()) {
    if (Status s = obs::StartTelemetry(telemetry_path); !s.ok()) {
      std::fprintf(stderr, "telemetry: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  // --metrics-export mirrors OPENIMA_METRICS_EXPORT: a background thread
  // publishing the registry (JSON + .prom twin) while training runs, so
  // `openima_top --snapshot=<path>` can watch the epoch loop live.
  const std::string metrics_export = flags.GetString("metrics-export", "");
  if (!metrics_export.empty()) {
    obs::ExporterOptions export_options;
    export_options.path = metrics_export;
    export_options.interval_ms =
        flags.GetInt("metrics-export-interval-ms", export_options.interval_ms);
    if (Status s = obs::StartMetricsExporter(export_options); !s.ok()) {
      std::fprintf(stderr, "metrics-export: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  if (const std::string wd = flags.GetString("watchdog", ""); !wd.empty()) {
    auto policy = obs::ParseWatchdogPolicy(wd);
    if (!policy.ok()) {
      std::fprintf(stderr, "watchdog: %s\n",
                   policy.status().ToString().c_str());
      return 1;
    }
    obs::WatchdogOptions options;
    options.policy = *policy;
    options.max_grad_norm =
        flags.GetDouble("watchdog-max-norm", options.max_grad_norm);
    obs::Watchdog::Configure(options);
  }
  const bool obs_smoke = flags.GetBool("obs-smoke", false);
  const std::string report_path = flags.GetString("report", "");

  // 1. A small synthetic graph: 600 nodes, 6 classes, homophilous edges,
  //    class-conditional Gaussian features.
  graph::SbmConfig data_config;
  data_config.num_nodes = 600;
  data_config.num_classes = 6;
  data_config.feature_dim = 24;
  data_config.avg_degree = 12.0;
  data_config.homophily = 0.8;
  data_config.feature_noise = 1.5;
  auto dataset = graph::GenerateSbm(data_config, /*seed=*/42, "quickstart");
  if (!dataset.ok()) {
    std::fprintf(stderr, "dataset: %s\n", dataset.status().ToString().c_str());
    return 1;
  }
  std::printf("graph: %d nodes, %lld undirected edges, %d classes\n",
              dataset->num_nodes(),
              static_cast<long long>(dataset->graph.num_undirected_edges()),
              dataset->num_classes);

  // 2. Open-world split: 3 seen classes with 25 labeled + 10 validation
  //    nodes each; everything else is the unlabeled test set.
  graph::SplitOptions split_options;
  split_options.labeled_per_class = 25;
  split_options.val_per_class = 10;
  auto split = graph::MakeOpenWorldSplit(*dataset, split_options, /*seed=*/7);
  if (!split.ok()) {
    std::fprintf(stderr, "split: %s\n", split.status().ToString().c_str());
    return 1;
  }
  std::printf("split: %d seen / %d novel classes, %zu labeled nodes\n",
              split->num_seen, split->num_novel, split->train_nodes.size());

  // 3. Train OpenIMA.
  core::OpenImaConfig config;
  config.encoder.in_dim = dataset->feature_dim();
  config.encoder.hidden_dim = 32;
  config.encoder.embedding_dim = 32;
  config.encoder.num_heads = 4;
  config.num_seen = split->num_seen;
  config.num_novel = split->num_novel;
  // The smoke run only checks that the report plumbing works end to end; a
  // few epochs keep it under a second in CI.
  config.epochs = flags.GetInt("epochs", obs_smoke ? 4 : 15);
  config.lr = 5e-3f;
  // Neighbor-sampled minibatch mode: --sampled turns it on explicitly;
  // giving either tuning flag (or any OPENIMA_SAMPLE_* env) implies it.
  const auto env_int = [](const char* name, int fallback) {
    const char* v = std::getenv(name);
    return v == nullptr ? fallback : std::atoi(v);
  };
  config.sample_fanout = flags.GetInt(
      "sample-fanout", env_int("OPENIMA_SAMPLE_FANOUT", config.sample_fanout));
  config.batch_nodes = flags.GetInt(
      "batch-nodes",
      env_int("OPENIMA_SAMPLE_BATCH_NODES", config.batch_nodes));
  config.sampled_training =
      flags.GetBool("sampled",
                    std::getenv("OPENIMA_SAMPLE_TRAIN") != nullptr) ||
      flags.Has("sample-fanout") || flags.Has("batch-nodes") ||
      std::getenv("OPENIMA_SAMPLE_FANOUT") != nullptr ||
      std::getenv("OPENIMA_SAMPLE_BATCH_NODES") != nullptr;
  // Data-parallel minibatch training: W persistent replicas, fixed-topology
  // tree all-reduce, one Adam step per round — bit-identical to the serial
  // schedule for any W, so it composes with every --backend and the
  // telemetry-diff fixtures can gate the worker axis exactly.
  config.workers =
      flags.GetInt("workers", env_int("OPENIMA_WORKERS", config.workers));
  if (config.workers > 0) config.sampled_training = true;
  // Checkpointing knobs (SERVING.md): stop the epoch loop early, save a
  // versioned checkpoint, resume a saved one. A stop-save-resume sequence
  // reproduces the uninterrupted run bit-for-bit, telemetry included.
  config.stop_after_epochs = flags.GetInt("stop-after", 0);
  const std::string checkpoint_out = flags.GetString("checkpoint-out", "");
  const std::string resume_path = flags.GetString("resume", "");
  if (config.sampled_training) {
    std::printf("training mode: sampled minibatch (fanout %d, %d seed "
                "nodes/batch%s)\n",
                config.sample_fanout, config.batch_nodes,
                config.workers > 0
                    ? (", " + std::to_string(config.workers) +
                       " data-parallel workers")
                          .c_str()
                    : "");
  }
  core::OpenImaModel model(config, dataset->feature_dim(), /*seed=*/1);
  if (!resume_path.empty()) {
    if (Status s = model.LoadCheckpoint(resume_path); !s.ok()) {
      std::fprintf(stderr, "resume: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("resumed from %s at epoch %d\n", resume_path.c_str(),
                model.epochs_done());
  }
  // A fully trained checkpoint has no epochs left; Train() would
  // (correctly) refuse to run again.
  if (model.epochs_done() < config.epochs) {
    if (Status s = model.Train(*dataset, *split); !s.ok()) {
      std::fprintf(stderr, "train: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  if (!model.train_stats().epoch_losses.empty()) {
    std::printf("trained through epoch %d; final loss %.4f; %d pseudo labels\n",
                model.epochs_done(),
                model.train_stats().epoch_losses.back(),
                model.train_stats().pseudo_labeled_last_epoch);
  }
  // Save before Predict: prediction consumes RNG draws, and the checkpoint
  // must capture the state a resumed run needs to replay the next epoch.
  if (!checkpoint_out.empty()) {
    if (Status s = model.SaveCheckpoint(checkpoint_out); !s.ok()) {
      std::fprintf(stderr, "checkpoint: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("wrote checkpoint (epoch %d) to %s\n", model.epochs_done(),
                checkpoint_out.c_str());
  }

  // 4. Two-stage prediction for every node.
  auto predictions = model.Predict(*dataset, *split);
  if (!predictions.ok()) {
    std::fprintf(stderr, "predict: %s\n",
                 predictions.status().ToString().c_str());
    return 1;
  }

  // 5. Test accuracy under a single Hungarian alignment.
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
  std::printf(
      "test accuracy: all %.1f%%  seen %.1f%%  novel %.1f%%  "
      "(%d test nodes; chance would be ~%.1f%%)\n",
      100.0 * acc->all, 100.0 * acc->seen, 100.0 * acc->novel, acc->n_all,
      100.0 / dataset->num_classes);

  // Close the telemetry sink (one EpochRecord per epoch was appended by the
  // training loop) and, under --obs-smoke, check the series is complete.
  if (!telemetry_path.empty()) {
    if (Status s = obs::StopTelemetry(); !s.ok()) {
      std::fprintf(stderr, "telemetry: %s\n", s.ToString().c_str());
      return 1;
    }
    auto lines = obs::ReadJsonl(telemetry_path);
    if (!lines.ok()) {
      std::fprintf(stderr, "telemetry: %s\n",
                   lines.status().ToString().c_str());
      return 1;
    }
    std::printf("wrote %zu telemetry records to %s\n", lines->size(),
                telemetry_path.c_str());
    if (obs_smoke) {
      if (static_cast<int>(lines->size()) != config.epochs) {
        std::fprintf(stderr,
                     "obs-smoke: expected %d telemetry records, got %zu\n",
                     config.epochs, lines->size());
        return 1;
      }
      for (const auto& line : *lines) {
        auto record = obs::EpochRecord::FromJson(line);
        if (!record.ok()) {
          std::fprintf(stderr, "obs-smoke: bad telemetry record: %s\n",
                       record.status().ToString().c_str());
          return 1;
        }
        if (!record->has_components || !record->has_quality ||
            record->grad_norm < 0.0) {
          std::fprintf(stderr,
                       "obs-smoke: epoch %d record is missing loss "
                       "components, quality metrics, or grad norms\n",
                       record->epoch);
          return 1;
        }
      }
      std::printf("obs-smoke: telemetry ok\n");
    }
  }

  // 6. Assemble the RunReport: run identity, TrainStats, live metrics and
  //    the phase breakdown, in one JSON document.
  obs::RunReport report("quickstart");
  using obs::json::Value;
  report.Set("run", "dataset", Value::Str(dataset->name));
  report.Set("run", "num_nodes", Value::Int(dataset->num_nodes()));
  report.Set("run", "num_seen", Value::Int(split->num_seen));
  report.Set("run", "num_novel", Value::Int(split->num_novel));
  report.Set("run", "epochs", Value::Int(config.epochs));
  report.Set("run", "acc_all", Value::Double(acc->all));
  report.Set("run", "acc_seen", Value::Double(acc->seen));
  report.Set("run", "acc_novel", Value::Double(acc->novel));
  report.Section("train")->Set("openima",
                               core::TrainStatsJson(model.train_stats()));
  report.AddMetrics(obs::MetricsRegistry::Global()->Snapshot());
  report.AddPhaseBreakdown();

  if (!report_path.empty()) {
    if (Status s = report.WriteFile(report_path); !s.ok()) {
      std::fprintf(stderr, "report: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("wrote run report to %s\n", report_path.c_str());
  }

  if (const std::string breakdown = obs::PhaseBreakdown(); !breakdown.empty()) {
    std::printf("\nphase breakdown:\n%s", breakdown.c_str());
  }

  if (obs_smoke) {
    // CI smoke check: a non-empty report must survive Dump -> Parse intact.
    const std::string text = report.ToJson();
    auto reparsed = obs::RunReport::Parse(text);
    if (!reparsed.ok()) {
      std::fprintf(stderr, "obs-smoke: reparse failed: %s\n",
                   reparsed.status().ToString().c_str());
      return 1;
    }
    if (!(*reparsed == report.root())) {
      std::fprintf(stderr, "obs-smoke: round-trip mismatch\n");
      return 1;
    }
    const Value* train = report.root().Find("train");
    if (train == nullptr || train->Find("openima") == nullptr) {
      std::fprintf(stderr, "obs-smoke: train section missing\n");
      return 1;
    }
    if (obs::kCompiledIn) {
      const Value* phases = report.root().Find("phases");
      if (phases == nullptr || phases->size() == 0) {
        std::fprintf(stderr, "obs-smoke: phase breakdown empty\n");
        return 1;
      }
    }
    std::printf("obs-smoke: ok\n");
  }
  if (!metrics_export.empty()) {
    // Stop runs one final export, so the file on disk reflects the whole
    // run, and reports the first export that failed.
    if (Status s = obs::StopMetricsExporter(); !s.ok()) {
      std::fprintf(stderr, "metrics-export: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("wrote metrics snapshot to %s (+ .prom)\n",
                metrics_export.c_str());
  }
  if (!trace_path.empty()) {
    // Written here rather than by the exit hook, so a trace that cannot be
    // written fails the run like --report and --telemetry do.
    if (Status s = obs::StopTracing(); !s.ok()) {
      std::fprintf(stderr, "trace: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("wrote trace to %s\n", trace_path.c_str());
  }
  return 0;
}

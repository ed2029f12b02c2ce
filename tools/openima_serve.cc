// openima_serve: frozen-model open-world inference benchmark (SERVING.md).
//
// Loads a training checkpoint written by `quickstart --checkpoint-out` (or
// OpenImaModel::SaveCheckpoint), regenerates the quickstart SBM graph the
// checkpoint was trained on, and drives batched classify-node requests
// through core::InferenceService from several driver threads. Per-request
// latencies land in obs histogram buckets; one line per batch size reports
// p50/p99, throughput, the novel share and a prediction checksum.
//
//   ./openima_serve --checkpoint=model.ckpt
//   ./openima_serve --checkpoint=model.ckpt --batch-sizes=1,16,64 \
//       --requests=256 --threads=4 --fanout=0 --seed=1 --warmup=8
//   ./openima_serve --checkpoint=model.ckpt --warmup-requests=4
//   ./openima_serve --checkpoint=model.ckpt --backend=scalar  # pin kernels
//   ./openima_serve --checkpoint=model.ckpt --metrics-export=serve.json
//       --trace-sample=64 --drift=warn  # live obs knobs
//
// Live observability: --metrics-export periodically writes the exposition
// snapshot (JSON + .prom twin, watchable with tools/openima_top);
// --trace-sample=N records full phase spans for 1-in-N requests when
// tracing (OPENIMA_TRACE) is on; --drift enables the online drift monitor
// (policy off|record|warn|abort, window via --drift-window).
//
// Everything except the wall-clock numbers is deterministic: the novel
// share and the FNV-1a checksum over the predicted classes in request
// order are independent of the thread count and schedule.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "src/core/serve.h"
#include "src/graph/synthetic.h"
#include "src/la/backend/backend.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"
#include "src/util/flags.h"
#include "src/util/rng.h"
#include "src/util/string_util.h"

namespace {

using namespace openima;

uint64_t Fnv1a64Step(uint64_t hash, uint32_t value) {
  for (int b = 0; b < 4; ++b) {
    hash ^= (value >> (8 * b)) & 0xffu;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  obs::InitFromEnv();
  if (const std::string backend = flags.GetString("backend", "");
      !backend.empty()) {
    if (Status s = la::backend::SetDefault(backend); !s.ok()) {
      std::fprintf(stderr, "backend: %s\n", s.ToString().c_str());
      return s.code() == StatusCode::kFailedPrecondition ? 77 : 1;
    }
  }
  const std::string checkpoint_path = flags.GetString("checkpoint", "");
  if (checkpoint_path.empty()) {
    std::fprintf(stderr,
                 "usage: openima_serve --checkpoint=<path> "
                 "[--batch-sizes=1,16,64] [--requests=256] [--threads=4] "
                 "[--fanout=0] [--seed=1] [--warmup=8] [--warmup-requests=4] "
                 "[--backend=auto] "
                 "[--metrics-export=<path>] [--metrics-export-interval-ms=1000] "
                 "[--trace-sample=N] [--drift=off|record|warn|abort] "
                 "[--drift-window=256]\n");
    return 1;
  }
  const int threads = std::max(1, flags.GetInt("threads", 4));
  const int requests = std::max(1, flags.GetInt("requests", 256));
  const int warmup = std::max(0, flags.GetInt("warmup", 8));
  // Per-session warmup requests excluded from the timed window (the first
  // requests through a fresh session pay one-time allocation/cache costs
  // that used to land in the latency histogram and skew p99).
  const int warmup_requests = std::max(0, flags.GetInt("warmup-requests", 4));
  const int fanout = flags.GetInt("fanout", 0);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));

  if (flags.Has("trace-sample")) {
    obs::SetTraceSamplePeriod(flags.GetInt("trace-sample", 1));
  }
  if (const std::string export_path = flags.GetString("metrics-export", "");
      !export_path.empty() && obs::GlobalMetricsExporter() == nullptr) {
    obs::ExporterOptions export_options;
    export_options.path = export_path;
    export_options.interval_ms = flags.GetInt("metrics-export-interval-ms", 1000);
    if (Status s = obs::StartMetricsExporter(export_options); !s.ok()) {
      std::fprintf(stderr, "metrics-export: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  const std::vector<int> batch_sizes =
      flags.GetIntList("batch-sizes", {1, 16, 64});
  for (const int b : batch_sizes) {
    if (b <= 0) {
      std::fprintf(stderr, "bad --batch-sizes entry %d\n", b);
      return 1;
    }
  }

  // The graph the quickstart checkpoint was trained on (features are part
  // of the model's input contract — Load() checks the dimension).
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

  core::ServeOptions options;
  options.sample_fanout = fanout;
  options.drift = obs::DriftOptionsFromEnv();
  if (const std::string drift = flags.GetString("drift", ""); !drift.empty()) {
    auto policy = obs::ParseWatchdogPolicy(drift);
    if (!policy.ok()) {
      std::fprintf(stderr, "drift: %s\n", policy.status().ToString().c_str());
      return 1;
    }
    options.drift.policy = policy.value();
  }
  if (flags.Has("drift-window")) {
    options.drift.window = std::max(1, flags.GetInt("drift-window", 256));
  }
  auto service_or =
      core::InferenceService::Load(checkpoint_path, &*dataset, options);
  if (!service_or.ok()) {
    std::fprintf(stderr, "load: %s\n",
                 service_or.status().ToString().c_str());
    return 1;
  }
  const core::InferenceService& service = **service_or;
  std::printf(
      "serving %s (epoch %d, %d clusters, %d seen classes) on %s, "
      "%d threads, fanout %d\n",
      checkpoint_path.c_str(), service.epochs_done(), service.num_clusters(),
      service.num_seen(), la::backend::Default().name(), threads, fanout);

  const int n = dataset->num_nodes();
  for (const int batch : batch_sizes) {
    if (batch > n) {
      std::fprintf(stderr, "batch size %d exceeds the %d-node graph\n", batch,
                   n);
      return 1;
    }

    // Request streams are pure functions of (seed, batch, request index),
    // so every thread schedule classifies the same node sets.
    std::vector<std::vector<int>> request_nodes(
        static_cast<size_t>(requests));
    for (int i = 0; i < requests; ++i) {
      Rng rng(DeriveStreamSeed(seed, static_cast<uint64_t>(batch) * 1000003u +
                                         static_cast<uint64_t>(i)));
      request_nodes[static_cast<size_t>(i)] =
          rng.SampleWithoutReplacement(n, batch);
    }

    // Untimed warmup (first touches populate caches and the sampler
    // workspace) on a throwaway session.
    {
      auto session = service.NewSession();
      std::vector<core::ClassifyResult> scratch;
      for (int i = 0; i < warmup; ++i) {
        const auto& nodes = request_nodes[static_cast<size_t>(i % requests)];
        if (Status s = session->Classify(nodes, static_cast<uint64_t>(i),
                                         &scratch);
            !s.ok()) {
          std::fprintf(stderr, "warmup: %s\n", s.ToString().c_str());
          return 1;
        }
      }
    }

    // Driver sessions are created AND warmed before the clock starts:
    // session construction (model replica allocation) and each session's
    // first requests pay one-time costs that belong to startup, not to the
    // steady-state latency distribution (they used to put b1's p99 at
    // ~190x its p50).
    std::vector<std::unique_ptr<core::InferenceSession>> sessions;
    sessions.reserve(static_cast<size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      sessions.push_back(service.NewSession());
      std::vector<core::ClassifyResult> scratch;
      for (int i = 0; i < warmup_requests; ++i) {
        const auto& nodes = request_nodes[static_cast<size_t>(i % requests)];
        if (Status s = sessions.back()->Classify(
                nodes, static_cast<uint64_t>(i), &scratch);
            !s.ok()) {
          std::fprintf(stderr, "session warmup: %s\n", s.ToString().c_str());
          return 1;
        }
      }
    }

    obs::Histogram* latency = obs::MetricsRegistry::Global()->histogram(
        StrFormat("serve.request_ns/b%d", batch));

    // Timed window: `threads` drivers, each with a private pre-warmed
    // session, draining a shared atomic request queue.
    std::vector<std::vector<core::ClassifyResult>> results(
        static_cast<size_t>(requests));
    std::atomic<int> next{0};
    std::atomic<bool> failed{false};
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> drivers;
    drivers.reserve(static_cast<size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      drivers.emplace_back([&, t] {
        core::InferenceSession* session = sessions[static_cast<size_t>(t)].get();
        while (true) {
          const int i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= requests || failed.load(std::memory_order_relaxed)) break;
          const auto r0 = std::chrono::steady_clock::now();
          Status s = session->Classify(request_nodes[static_cast<size_t>(i)],
                                       static_cast<uint64_t>(i),
                                       &results[static_cast<size_t>(i)]);
          const auto r1 = std::chrono::steady_clock::now();
          if (!s.ok()) {
            std::fprintf(stderr, "classify: %s\n", s.ToString().c_str());
            failed.store(true, std::memory_order_relaxed);
            break;
          }
          latency->Record(
              std::chrono::duration_cast<std::chrono::nanoseconds>(r1 - r0)
                  .count());
        }
      });
    }
    for (std::thread& d : drivers) d.join();
    const double elapsed_sec =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count() /
        1e9;
    if (failed.load()) return 1;

    const obs::HistogramSnapshot lat = latency->Snapshot();
    const double req_per_sec = elapsed_sec > 0.0 ? requests / elapsed_sec : 0.0;

    // Deterministic payload: walk the results in request order (independent
    // of which thread served what).
    int num_classified = 0;
    int num_novel = 0;
    uint64_t checksum = 0xcbf29ce484222325ULL;
    for (const auto& batch_results : results) {
      for (const core::ClassifyResult& r : batch_results) {
        ++num_classified;
        num_novel += r.is_novel ? 1 : 0;
        checksum = Fnv1a64Step(checksum, static_cast<uint32_t>(r.class_id));
      }
    }

    std::printf(
        "  b=%-4d %5d req  p50 %.3f ms  p99 %.3f ms  %.0f req/s  "
        "%.0f nodes/s  novel %.1f%%  checksum %016llx\n",
        batch, requests, obs::HistogramQuantile(lat, 0.50) / 1e6,
        obs::HistogramQuantile(lat, 0.99) / 1e6, req_per_sec,
        req_per_sec * batch, 100.0 * num_novel / num_classified,
        static_cast<unsigned long long>(checksum));
  }

  if (const obs::DriftMonitor* drift = service.drift_monitor()) {
    const obs::DriftStats stats = drift->stats();
    std::printf(
        "drift: %lld observations, %lld windows, %lld alerts"
        " (novel %.3f vs baseline %.3f, entropy %.3f vs %.3f)\n",
        static_cast<long long>(stats.observations),
        static_cast<long long>(stats.windows_completed),
        static_cast<long long>(stats.alerts), stats.last_novel_fraction,
        stats.baseline_novel_fraction, stats.last_entropy,
        stats.baseline_entropy);
  }
  if (obs::MetricsExporter* exporter = obs::GlobalMetricsExporter()) {
    const std::string export_path = exporter->options().path;
    // The final export rides on Stop(), which also reports the first
    // export that failed.
    if (Status s = obs::StopMetricsExporter(); !s.ok()) {
      std::fprintf(stderr, "metrics-export: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("wrote metrics snapshot to %s (+ .prom)\n",
                export_path.c_str());
  }
  return 0;
}

// Sampled-vs-full quality gate: trains OpenIMA twice per medium benchmark
// (the five non-ogbn graphs of Table II) — once with the full-graph trainer
// and once in neighbor-sampled minibatch mode — and writes one
// "openima-bench-train" document per mode with identical run names. The
// two documents feed `tools/run_diff --tolerances
// tools/sampled_quality_tolerances.json`: sampling is a gradient estimator,
// not a bit-identical rewrite, so the gate bounds the open-world accuracy
// gap instead of demanding equality (wired as the sampled_quality_diff
// ctest fixture).
//
// Run: ./bench_sampled_quality --out-full=BENCH_quality_full.json \
//                              --out-sampled=BENCH_quality_sampled.json
// Knobs: the shared bench flags (--scale --seeds --features --hidden
// --heads --epochs_end_to_end --threads) plus --sample-fanout/--batch-nodes.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/eval/experiment.h"
#include "src/graph/benchmarks.h"
#include "src/obs/json.h"
#include "src/util/flags.h"

int main(int argc, char** argv) {
  using namespace openima;
  using obs::json::Value;

  Flags flags(argc, argv);
  eval::ExperimentOptions options = bench::OptionsFromFlags(flags);
  const int fanout = flags.GetInt("sample-fanout", 10);
  const int batch_nodes = flags.GetInt("batch-nodes", 256);
  const std::string out_full =
      flags.GetString("out-full", "BENCH_quality_full.json");
  const std::string out_sampled =
      flags.GetString("out-sampled", "BENCH_quality_sampled.json");

  Value full_runs = Value::Array();
  Value sampled_runs = Value::Array();
  for (const graph::BenchmarkSpec& spec : graph::AllBenchmarks()) {
    if (spec.large_scale) continue;  // ogbn graphs are bench_scale's job
    struct ModeResult {
      const char* mode;
      bool sampled;
      Value* runs;
    };
    const ModeResult modes[] = {{"full", false, &full_runs},
                                {"sampled", true, &sampled_runs}};
    for (const ModeResult& mode : modes) {
      auto agg = eval::RunOpenImaVariant(
          spec, mode.mode, options, [&](core::OpenImaConfig* config) {
            config->sampled_training = mode.sampled;
            config->sample_fanout = fanout;
            config->batch_nodes = batch_nodes;
          });
      if (!agg.ok()) {
        std::fprintf(stderr, "%s/%s: %s\n", spec.name.c_str(), mode.mode,
                     agg.status().ToString().c_str());
        return 1;
      }
      std::printf("%-18s %-8s all %.1f%%  seen %.1f%%  novel %.1f%%\n",
                  spec.name.c_str(), mode.mode, 100.0 * agg->MeanAll(),
                  100.0 * agg->MeanSeen(), 100.0 * agg->MeanNovel());
      Value entry = Value::Object();
      // Same name in both documents so run_diff pairs the entries.
      entry.Set("name", Value::Str("quality/" + spec.name));
      entry.Set("seeds", Value::Int(options.num_seeds));
      Value final_metrics = Value::Object();
      final_metrics.Set("acc_all", Value::Double(agg->MeanAll()));
      final_metrics.Set("acc_seen", Value::Double(agg->MeanSeen()));
      final_metrics.Set("acc_novel", Value::Double(agg->MeanNovel()));
      entry.Set("final", std::move(final_metrics));
      mode.runs->Append(std::move(entry));
    }
  }

  auto write_doc = [&](const std::string& path, Value runs) {
    Value doc = Value::Object();
    doc.Set("schema", Value::Str("openima-bench-train"));
    Value run_meta = Value::Object();
    run_meta.Set("scale", Value::Double(options.scale));
    run_meta.Set("sample_fanout", Value::Int(fanout));
    run_meta.Set("batch_nodes", Value::Int(batch_nodes));
    doc.Set("run", std::move(run_meta));
    doc.Set("runs", std::move(runs));
    if (Status s = obs::WriteTextFile(path, doc.Dump(1) + "\n"); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return false;
    }
    std::printf("wrote %s\n", path.c_str());
    return true;
  };
  if (!write_doc(out_full, std::move(full_runs)) ||
      !write_doc(out_sampled, std::move(sampled_runs))) {
    return 1;
  }
  return bench::Finish();
}

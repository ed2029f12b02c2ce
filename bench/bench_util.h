#ifndef OPENIMA_BENCH_BENCH_UTIL_H_
#define OPENIMA_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>
#include <vector>

#include "src/eval/experiment.h"
#include "src/exec/context.h"
#include "src/obs/obs.h"
#include "src/util/flags.h"
#include "src/util/string_util.h"
#include "src/util/table.h"

namespace openima::bench {

/// Paper-reported reference numbers (%) for one method row, so every bench
/// prints "ours vs paper" side by side. Negative = not reported.
struct PaperRef {
  double all = -1.0;
  double seen = -1.0;
  double novel = -1.0;
};

/// Shared CPU-scaled defaults, overridable from the command line:
///   --scale=0.04 --seeds=1 --features=32 --hidden=64 --heads=4
///   --epochs_two_stage=45 --epochs_end_to_end=50 --batch=2048
///   --threads=N (0 = hardware concurrency; also honors OPENIMA_THREADS)
///   --trace=path (chrome-trace span timeline; also honors OPENIMA_TRACE)
inline eval::ExperimentOptions OptionsFromFlags(const Flags& flags) {
  eval::ExperimentOptions options;
  // --threads replaces the process-default execution context that every
  // kernel falls back to; results are thread-count invariant by design.
  const int threads = flags.GetInt("threads", -1);
  if (threads >= 0) exec::SetDefaultNumThreads(threads);
  obs::InitFromEnv();
  if (const std::string trace = flags.GetString("trace", ""); !trace.empty()) {
    if (Status s = obs::StartTracing(trace); !s.ok()) {
      std::fprintf(stderr, "trace: %s\n", s.ToString().c_str());
    }
  }
  options.scale = flags.GetDouble("scale", options.scale);
  // One split seed by default so the full bench suite fits a single-core
  // hour (the paper averages ten; raise --seeds given more compute).
  options.num_seeds = flags.GetInt("seeds", 1);
  options.max_feature_dim = flags.GetInt("features", options.max_feature_dim);
  options.hidden_dim = flags.GetInt("hidden", options.hidden_dim);
  options.num_heads = flags.GetInt("heads", options.num_heads);
  options.embedding_dim = options.hidden_dim;
  options.epochs_two_stage =
      flags.GetInt("epochs_two_stage", options.epochs_two_stage);
  options.epochs_end_to_end =
      flags.GetInt("epochs_end_to_end", options.epochs_end_to_end);
  options.batch_size = flags.GetInt("batch", options.batch_size);
  options.base_seed =
      static_cast<uint64_t>(flags.GetInt("base_seed", 1234));
  return options;
}

/// "73.1" or "-" for missing reference values.
inline std::string RefPct(double value) {
  return value < 0.0 ? "-" : StrFormat("%.1f", value);
}

/// Accuracy triple "all seen novel" in percent.
inline void AddAccuracyCells(const eval::MethodAggregate& agg,
                             const PaperRef& ref,
                             std::vector<std::string>* row) {
  row->push_back(Pct(agg.MeanAll()));
  row->push_back(Pct(agg.MeanSeen()));
  row->push_back(Pct(agg.MeanNovel()));
  row->push_back(RefPct(ref.all));
  row->push_back(RefPct(ref.seen));
  row->push_back(RefPct(ref.novel));
}

inline void PrintNote(const std::string& note) {
  std::printf("%s\n", note.c_str());
}

/// The benches' common epilogue (`return bench::Finish();`): writes the
/// --trace / OPENIMA_TRACE file now rather than from the exit hook, so a
/// trace that cannot be written fails the run.
inline int Finish() {
  if (Status s = obs::StopTracing(); !s.ok()) {
    std::fprintf(stderr, "trace: %s\n", s.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace openima::bench

#endif  // OPENIMA_BENCH_BENCH_UTIL_H_

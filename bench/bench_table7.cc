// Reproduces the paper's Table VII: comparison of hyper-parameter search
// metrics — SC (silhouette), ACC (validation accuracy), and the paper's
// SC&ACC — on Amazon Photos. For every method a small hyper-parameter grid
// is trained; each selection metric picks one candidate and the bench
// reports the picked model's test accuracy and seen/novel gap.
//
// Flags: --scale --seeds --features --hidden --heads --batch
//        --dataset=amazon_photos --methods=a,b

#include <cstdio>
#include <map>

#include "bench/bench_util.h"
#include "src/eval/experiment.h"
#include "src/graph/benchmarks.h"
#include "src/metrics/sc_acc.h"
#include "src/util/flags.h"

namespace openima {
namespace {

struct PaperCells {
  double all, seen, novel, gap;
};

/// Paper Table VII (Amazon Photos), per method x metric.
const std::map<std::string, std::map<std::string, PaperCells>>& PaperTable7() {
  static const auto* table =
      new std::map<std::string, std::map<std::string, PaperCells>>{
          {"orca_zm",
           {{"SC", {54.4, 67.3, 39.0, 28.3}},
            {"ACC", {71.4, 86.5, 54.9, 31.6}},
            {"SC&ACC", {74.6, 89.9, 58.2, 31.7}}}},
          {"orca",
           {{"SC", {41.4, 44.7, 33.9, 10.8}},
            {"ACC", {73.3, 85.8, 60.3, 25.5}},
            {"SC&ACC", {76.2, 87.1, 64.9, 22.2}}}},
          {"simgcd",
           {{"SC", {79.6, 87.7, 71.9, 15.8}},
            {"ACC", {79.5, 92.1, 66.1, 26.0}},
            {"SC&ACC", {80.5, 90.0, 70.8, 19.2}}}},
          {"openldn",
           {{"SC", {48.6, 48.9, 46.0, 2.9}},
            {"ACC", {71.6, 88.4, 52.3, 36.1}},
            {"SC&ACC", {80.9, 90.6, 71.9, 18.7}}}},
          {"opencon",
           {{"SC", {83.6, 90.8, 76.0, 14.8}},
            {"ACC", {82.0, 92.3, 72.0, 20.3}},
            {"SC&ACC", {82.6, 92.1, 72.8, 19.3}}}},
          {"opencon_2stage",
           {{"SC", {80.4, 85.7, 74.9, 10.8}},
            {"ACC", {81.2, 91.5, 71.8, 19.7}},
            {"SC&ACC", {82.9, 87.9, 78.1, 9.8}}}},
          {"infonce",
           {{"SC", {77.0, 77.1, 77.5, 0.4}},
            {"ACC", {75.4, 78.5, 73.4, 5.1}},
            {"SC&ACC", {76.3, 78.5, 75.1, 3.4}}}},
          {"infonce_supcon",
           {{"SC", {77.2, 77.5, 77.3, 0.2}},
            {"ACC", {75.5, 79.7, 72.4, 7.3}},
            {"SC&ACC", {75.6, 80.3, 72.0, 8.3}}}},
          {"infonce_supcon_ce",
           {{"SC", {77.6, 78.5, 77.2, 1.3}},
            {"ACC", {75.5, 79.7, 71.8, 7.9}},
            {"SC&ACC", {76.4, 80.5, 72.9, 7.6}}}},
          {"openima",
           {{"SC", {83.3, 89.3, 77.1, 12.2}},
            {"ACC", {82.1, 90.6, 73.4, 17.2}},
            {"SC&ACC", {83.6, 89.9, 77.3, 12.6}}}},
      };
  return *table;
}

int Run(int argc, char** argv) {
  Flags flags(argc, argv);
  eval::ExperimentOptions options = bench::OptionsFromFlags(flags);
  if (!flags.Has("seeds")) options.num_seeds = 1;  // grid is expensive
  options.compute_extra_metrics = true;
  const std::string dataset_name = flags.GetString("dataset", "amazon_photos");
  auto spec = graph::GetBenchmark(dataset_name);
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    return 1;
  }
  std::vector<std::string> methods = {
      "orca_zm", "orca",    "simgcd",         "openldn",
      "opencon", "opencon_2stage", "infonce", "infonce_supcon",
      "infonce_supcon_ce", "openima"};
  if (flags.Has("methods")) {
    methods = Split(flags.GetString("methods", ""), ',');
  }

  // The searched grid: epoch budget (a proxy for the per-method learning
  // rate / schedule searches of §VII, cheap enough for CPU).
  const std::vector<double> lr_grid = {1e-3, 3e-3, 1e-2};

  Table t({"Method", "Metric", "All", "Seen", "Novel", "Gap", "paper All",
           "paper Gap"});
  t.SetTitle(StrFormat(
      "Table VII — selection-metric comparison on %s (%d seed(s), grid over "
      "lr {1e-3, 3e-3, 1e-2})",
      dataset_name.c_str(), options.num_seeds));

  for (const auto& method : methods) {
    std::vector<double> sc, acc;
    std::vector<eval::MethodAggregate> aggs;
    for (double lr : lr_grid) {
      eval::ExperimentOptions run_options = options;
      run_options.grid_lr = lr;
      auto agg = eval::RunMethod(*spec, method, run_options);
      if (!agg.ok()) {
        std::fprintf(stderr, "%s failed: %s\n", method.c_str(),
                     agg.status().ToString().c_str());
        return 1;
      }
      sc.push_back(agg->MeanSilhouette());
      acc.push_back(agg->MeanValAcc());
      aggs.push_back(std::move(*agg));
    }
    auto combined = metrics::CombineScAcc(sc, acc);
    if (!combined.ok()) return 1;

    struct Selection {
      const char* metric;
      int index;
    };
    const Selection selections[] = {
        {"SC", metrics::ArgmaxIndex(sc)},
        {"ACC", metrics::ArgmaxIndex(acc)},
        {"SC&ACC", metrics::ArgmaxIndex(*combined)},
    };
    for (const auto& sel : selections) {
      const auto& agg = aggs[static_cast<size_t>(sel.index)];
      PaperCells paper = {-1, -1, -1, -1};
      auto mit = PaperTable7().find(method);
      if (mit != PaperTable7().end()) {
        auto cit = mit->second.find(sel.metric);
        if (cit != mit->second.end()) paper = cit->second;
      }
      t.AddRow({agg.display_name, sel.metric, Pct(agg.MeanAll()),
                Pct(agg.MeanSeen()), Pct(agg.MeanNovel()),
                Pct(agg.SeenNovelGap()), bench::RefPct(paper.all),
                bench::RefPct(paper.gap)});
    }
    t.AddSeparator();
  }
  std::printf("%s", t.ToString().c_str());
  std::printf(
      "\nExpected shape (paper): selecting by validation ACC biases models\n"
      "toward seen classes (larger Gap); SC favors balanced but sometimes\n"
      "weak models; SC&ACC is the most stable across methods.\n");
  return bench::Finish();
}

}  // namespace
}  // namespace openima

int main(int argc, char** argv) { return openima::Run(argc, argv); }

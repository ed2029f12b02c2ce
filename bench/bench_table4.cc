// Reproduces the paper's Table IV: evaluation on the (scaled-down stand-ins
// of the) larger graphs ogbn-Arxiv and ogbn-Products with mini-batch
// K-Means, head-based prediction and the pairwise regularizer for OpenIMA.
//
// Flags: --scale --seeds --features --hidden --heads --epochs_end_to_end
//        --batch

#include <cstdio>
#include <map>

#include "bench/bench_util.h"
#include "src/eval/experiment.h"
#include "src/graph/benchmarks.h"
#include "src/util/flags.h"

namespace openima {
namespace {

using bench::PaperRef;

int Run(int argc, char** argv) {
  Flags flags(argc, argv);
  eval::ExperimentOptions options = bench::OptionsFromFlags(flags);
  if (!flags.Has("seeds")) options.num_seeds = 1;  // large graphs are slow
  // The many-class heads of the end-to-end baselines need a longer budget.
  if (!flags.Has("epochs_end_to_end")) options.epochs_end_to_end = 50;
  // The ogbn stand-ins are larger; scale the node floor only.
  const std::vector<std::string> datasets = {"ogbn_arxiv", "ogbn_products"};
  const std::vector<std::string> methods = {"orca_zm", "orca", "opencon",
                                            "openima"};

  const std::map<std::string, std::map<std::string, PaperRef>> paper = {
      {"ogbn_arxiv",
       {{"orca_zm", {41.6, 47.0, -1}},
        {"orca", {41.6, 44.7, -1}},
        {"opencon", {32.2, 31.8, -1}},
        {"openima", {43.6, 49.2, 32.9}}}},
      {"ogbn_products",
       {{"orca_zm", {49.5, 61.5, 32.3}},
        {"orca", {46.8, 55.5, 34.3}},
        {"opencon", {43.7, 46.0, 43.0}},
        {"openima", {62.0, 73.6, 44.3}}}},
  };

  // The global default scale would blow the ogbn stand-ins up to 10^5
  // nodes; these defaults land near the 60-nodes-per-class floor instead
  // (~2.5-3k nodes). Override with --scale.
  const std::map<std::string, double> default_scales = {
      {"ogbn_arxiv", 0.015}, {"ogbn_products", 0.0012}};

  for (const auto& dataset_name : datasets) {
    auto spec = graph::GetBenchmark(dataset_name);
    if (!spec.ok()) {
      std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
      return 1;
    }
    if (!flags.Has("scale")) {
      auto it = default_scales.find(dataset_name);
      if (it != default_scales.end()) options.scale = it->second;
    }
    Table t({"Method", "All", "Seen", "Novel", "paper All", "paper Seen",
             "paper Novel"});
    t.SetTitle(StrFormat(
        "Table IV — %s (paper: %d nodes; stand-in scaled, %d seed(s))",
        spec->name.c_str(), spec->paper_nodes, options.num_seeds));
    for (const auto& method : methods) {
      auto agg = eval::RunMethod(*spec, method, options);
      if (!agg.ok()) {
        std::fprintf(stderr, "%s on %s failed: %s\n", method.c_str(),
                     dataset_name.c_str(), agg.status().ToString().c_str());
        return 1;
      }
      PaperRef ref = paper.at(dataset_name).at(method);
      std::vector<std::string> row = {agg->display_name};
      bench::AddAccuracyCells(*agg, ref, &row);
      t.AddRow(std::move(row));
    }
    std::printf("%s\n", t.ToString().c_str());
  }
  std::printf(
      "Expected shape (paper): OpenIMA keeps the best overall accuracy on\n"
      "both large graphs, with the largest margin on ogbn-Products.\n");
  return bench::Finish();
}

}  // namespace
}  // namespace openima

int main(int argc, char** argv) { return openima::Run(argc, argv); }

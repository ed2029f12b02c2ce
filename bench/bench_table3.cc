// Reproduces the paper's Table III: overall open-world SSL evaluation on
// the five medium benchmarks (Citeseer, Amazon Photos, Amazon Computers,
// Coauthor CS, Coauthor Physics) across all twelve methods, reporting
// All / Seen / Novel test accuracy next to the paper's reported numbers.
//
// Flags: --scale --seeds --features --hidden --heads --epochs_two_stage
//        --epochs_end_to_end --batch --datasets=a,b,c --methods=x,y

#include <cstdio>
#include <map>

#include "bench/bench_util.h"
#include "src/eval/experiment.h"
#include "src/graph/benchmarks.h"
#include "src/util/flags.h"

namespace openima {
namespace {

using bench::PaperRef;

/// Paper Table III values (%); -1 where the source rendering was illegible.
const std::map<std::string, std::map<std::string, PaperRef>>& PaperTable3() {
  static const auto* table =
      new std::map<std::string, std::map<std::string, PaperRef>>{
          {"citeseer",
           {{"oodgat", {-1, 56.9, 37.5}},
            {"openwgl", {-1, 71.0, 54.2}},
            {"orca_zm", {58.3, 70.6, 44.4}},
            {"orca", {58.2, -1, 49.0}},
            {"simgcd", {61.5, -1, 53.4}},
            {"openldn", {62.3, -1, 51.6}},
            {"opencon", {68.8, -1, 62.1}},
            {"opencon_2stage", {66.7, -1, 60.0}},
            {"infonce", {68.1, 70.7, 65.2}},
            {"infonce_supcon", {68.1, 71.9, 64.1}},
            {"infonce_supcon_ce", {68.1, 73.6, 62.6}},
            {"openima", {68.1, 71.8, 64.3}}}},
          {"amazon_photos",
           {{"oodgat", {-1, 71.1, 54.5}},
            {"openwgl", {-1, 74.8, 69.3}},
            {"orca_zm", {74.6, 89.9, 58.2}},
            {"orca", {76.2, 87.1, 64.9}},
            {"simgcd", {80.5, 90.0, 70.8}},
            {"openldn", {80.9, 90.6, 71.9}},
            {"opencon", {82.6, 92.1, 72.8}},
            {"opencon_2stage", {82.9, 87.9, 78.1}},
            {"infonce", {76.3, 78.5, 75.1}},
            {"infonce_supcon", {75.6, 80.3, 72.0}},
            {"infonce_supcon_ce", {76.4, 80.5, 72.9}},
            {"openima", {83.6, 89.9, 77.3}}}},
          {"amazon_computers",
           {{"oodgat", {61.3, 63.3, 55.9}},
            {"openwgl", {57.6, 65.9, 44.6}},
            {"orca_zm", {63.8, 73.7, 52.6}},
            {"orca", {60.9, 67.8, 53.7}},
            {"simgcd", {61.9, 73.8, 50.3}},
            {"openldn", {63.3, 76.5, 51.8}},
            {"opencon", {62.3, 74.9, 51.2}},
            {"opencon_2stage", {59.4, 69.0, 53.2}},
            {"infonce", {56.1, 51.3, 59.1}},
            {"infonce_supcon", {56.3, 52.5, 58.9}},
            {"infonce_supcon_ce", {55.8, 54.7, 56.5}},
            {"openima", {67.8, 77.8, 59.0}}}},
          {"coauthor_cs",
           {{"oodgat", {68.1, 68.8, 65.6}},
            {"openwgl", {58.6, 67.1, 50.3}},
            {"orca_zm", {75.0, 74.2, 73.5}},
            {"orca", {73.9, 81.6, 68.3}},
            {"simgcd", {71.2, 84.2, 61.2}},
            {"openldn", {68.4, 80.6, 60.3}},
            {"opencon", {73.5, 83.4, 67.5}},
            {"opencon_2stage", {71.0, 81.9, 64.8}},
            {"infonce", {72.2, 72.8, 72.7}},
            {"infonce_supcon", {72.4, 75.1, 71.0}},
            {"infonce_supcon_ce", {74.4, 77.1, 73.0}},
            {"openima", {77.1, 78.3, 75.9}}}},
          {"coauthor_physics",
           {{"oodgat", {68.3, 69.4, 62.5}},
            {"openwgl", {73.3, 85.0, 68.1}},
            {"orca_zm", {64.7, 81.1, 55.9}},
            {"orca", {66.2, 84.8, 58.2}},
            {"simgcd", {60.9, 81.1, 52.8}},
            {"openldn", {62.2, 72.4, 57.2}},
            {"opencon", {65.8, 95.0, 55.4}},
            {"opencon_2stage", {62.6, 83.8, 54.4}},
            {"infonce", {60.6, 58.1, 60.2}},
            {"infonce_supcon", {60.5, 59.7, 59.8}},
            {"infonce_supcon_ce", {62.8, 79.4, 56.1}},
            {"openima", {78.0, 93.6, 72.2}}}},
      };
  return *table;
}

std::vector<std::string> ParseList(const std::string& csv,
                                   const std::vector<std::string>& fallback) {
  if (csv.empty()) return fallback;
  return Split(csv, ',');
}

int Run(int argc, char** argv) {
  Flags flags(argc, argv);
  eval::ExperimentOptions options = bench::OptionsFromFlags(flags);
  const std::vector<std::string> datasets = ParseList(
      flags.GetString("datasets", ""),
      {"citeseer", "amazon_photos", "amazon_computers", "coauthor_cs",
       "coauthor_physics"});
  const std::vector<std::string> methods =
      ParseList(flags.GetString("methods", ""), eval::AllMethodKeys());

  for (const auto& dataset_name : datasets) {
    auto spec = graph::GetBenchmark(dataset_name);
    if (!spec.ok()) {
      std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
      return 1;
    }
    Table t({"Method", "All", "Seen", "Novel", "paper All", "paper Seen",
             "paper Novel"});
    t.SetTitle(StrFormat("Table III — %s (scale=%.3f, %d seed(s))",
                         spec->name.c_str(), options.scale,
                         options.num_seeds));
    double best_all = -1.0, openima_all = -1.0;
    std::string best_method;
    for (const auto& method : methods) {
      auto agg = eval::RunMethod(*spec, method, options);
      if (!agg.ok()) {
        std::fprintf(stderr, "%s on %s failed: %s\n", method.c_str(),
                     dataset_name.c_str(), agg.status().ToString().c_str());
        return 1;
      }
      PaperRef ref;
      auto dit = PaperTable3().find(dataset_name);
      if (dit != PaperTable3().end()) {
        auto mit = dit->second.find(method);
        if (mit != dit->second.end()) ref = mit->second;
      }
      std::vector<std::string> row = {agg->display_name};
      bench::AddAccuracyCells(*agg, ref, &row);
      t.AddRow(std::move(row));
      if (agg->MeanAll() > best_all) {
        best_all = agg->MeanAll();
        best_method = agg->display_name;
      }
      if (method == "openima") openima_all = agg->MeanAll();
    }
    std::printf("%s", t.ToString().c_str());
    std::printf("best overall: %s (%.1f%%); OpenIMA: %.1f%%\n\n",
                best_method.c_str(), 100.0 * best_all, 100.0 * openima_all);
  }
  std::printf(
      "Expected shape (paper): OpenIMA has the best (or tied-best) overall\n"
      "accuracy on every dataset, balancing seen and novel classes; the\n"
      "C+1 extensions (OODGAT/OpenWGL) and vision-born open-world SSL\n"
      "baselines trail it without pre-trained encoders.\n");
  return bench::Finish();
}

}  // namespace
}  // namespace openima

int main(int argc, char** argv) { return openima::Run(argc, argv); }

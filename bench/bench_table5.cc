// Reproduces the paper's Table V: ablation of the OpenIMA objective — the
// power set of {L_BPCL^emb, L_BPCL^logit, L_CE} plus "ours w/o PL" — by
// overall test accuracy on the five medium datasets.
//
// Flags: --scale --seeds --features --hidden --heads --epochs_two_stage
//        --batch --datasets=a,b,c

#include <cstdio>
#include <map>

#include "bench/bench_util.h"
#include "src/eval/experiment.h"
#include "src/graph/benchmarks.h"
#include "src/util/flags.h"

namespace openima {
namespace {

struct AblationRow {
  const char* label;
  bool emb, logit, ce, pl;
  /// Paper overall accuracy (%) per dataset; -1 = illegible in the source.
  std::map<std::string, double> paper;
};

int Run(int argc, char** argv) {
  Flags flags(argc, argv);
  eval::ExperimentOptions options = bench::OptionsFromFlags(flags);
  // Three datasets by default (single-core budget); pass --datasets=... for
  // the full five.
  std::vector<std::string> datasets = {"citeseer", "amazon_computers",
                                       "coauthor_cs"};
  if (flags.Has("datasets")) {
    datasets = Split(flags.GetString("datasets", ""), ',');
  }

  // Paper Table V values. NOTE: the source table's row layout was partially
  // garbled in extraction; the mapping of the middle rows follows the
  // paper's ablation discussion (§V-C) and is approximate.
  const std::vector<AblationRow> rows = {
      {"CE", false, false, true, true,
       {{"citeseer", 49.5}, {"amazon_photos", 60.1},
        {"amazon_computers", 60.1}, {"coauthor_cs", 65.9},
        {"coauthor_physics", 49.3}}},
      {"BPCL-emb", true, false, false, true,
       {{"citeseer", 67.8}, {"amazon_photos", 80.8},
        {"amazon_computers", 55.8}, {"coauthor_cs", 76.0},
        {"coauthor_physics", 58.8}}},
      {"BPCL-logit", false, true, false, true,
       {{"citeseer", 67.2}, {"amazon_photos", 79.7},
        {"amazon_computers", 56.5}, {"coauthor_cs", 73.4},
        {"coauthor_physics", 54.6}}},
      {"BPCL-logit+CE", false, true, true, true,
       {{"citeseer", 67.0}, {"amazon_photos", 81.9},
        {"amazon_computers", 67.7}, {"coauthor_cs", 75.8},
        {"coauthor_physics", 82.5}}},
      {"BPCL-emb+BPCL-logit", true, true, false, true,
       {{"citeseer", 68.7}, {"amazon_photos", 80.6},
        {"amazon_computers", 55.7}, {"coauthor_cs", 77.0},
        {"coauthor_physics", 59.1}}},
      {"BPCL-emb+CE", true, false, true, true,
       {{"citeseer", 69.0}, {"amazon_photos", 82.8},
        {"amazon_computers", 66.4}, {"coauthor_cs", 78.1},
        {"coauthor_physics", 64.0}}},
      {"OpenIMA (full)", true, true, true, true,
       {{"citeseer", 68.1}, {"amazon_photos", 83.6},
        {"amazon_computers", 67.8}, {"coauthor_cs", 77.1},
        {"coauthor_physics", 78.0}}},
      {"Ours w/o PL", true, true, true, false,
       {{"citeseer", 67.2}, {"amazon_photos", 77.2},
        {"amazon_computers", 57.3}, {"coauthor_cs", 71.6},
        {"coauthor_physics", 64.1}}},
  };

  std::vector<std::string> headers = {"Ablation"};
  for (const auto& d : datasets) {
    headers.push_back(d);
    headers.push_back("paper " + d);
  }
  Table t(headers);
  t.SetTitle(StrFormat(
      "Table V — loss-component ablations, overall accuracy (scale=%.3f, "
      "%d seed(s))",
      options.scale, options.num_seeds));

  for (const auto& row : rows) {
    std::vector<std::string> cells = {row.label};
    for (const auto& dataset_name : datasets) {
      auto spec = graph::GetBenchmark(dataset_name);
      if (!spec.ok()) {
        std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
        return 1;
      }
      auto agg = eval::RunOpenImaVariant(
          *spec, row.label, options, [&row](core::OpenImaConfig* config) {
            config->use_bpcl_emb = row.emb;
            config->use_bpcl_logit = row.logit;
            config->use_ce = row.ce;
            config->use_pseudo_labels = row.pl;
          });
      if (!agg.ok()) {
        std::fprintf(stderr, "%s on %s failed: %s\n", row.label,
                     dataset_name.c_str(), agg.status().ToString().c_str());
        return 1;
      }
      cells.push_back(Pct(agg->MeanAll()));
      auto it = row.paper.find(dataset_name);
      cells.push_back(it == row.paper.end() || it->second < 0
                          ? "-"
                          : StrFormat("%.1f", it->second));
    }
    t.AddRow(std::move(cells));
  }
  std::printf("%s", t.ToString().c_str());
  std::printf(
      "\nExpected shape (paper): CE alone is weakest (unlabeled data\n"
      "unused); adding CE helps the BPCL variants; removing the\n"
      "bias-reduced pseudo labels (w/o PL) degrades the full model.\n");
  return bench::Finish();
}

}  // namespace
}  // namespace openima

int main(int argc, char** argv) { return openima::Run(argc, argv); }

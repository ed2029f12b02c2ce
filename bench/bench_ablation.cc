// Design-choice ablations beyond the paper's Table V (DESIGN.md §3):
//
//  (a) the clustering algorithm behind pseudo-labeling and two-stage
//      prediction — K-Means (the paper's choice) vs spherical K-Means vs
//      the GCD-style semi-supervised ("constrained") K-Means the paper
//      reports as inferior (§V-A) vs a diagonal GMM;
//  (b) the encoder architecture — GAT (the paper's choice) vs GCN.
//
// Flags: --scale --seeds --features --hidden --heads --epochs_two_stage
//        --batch --dataset=coauthor_cs

#include <cstdio>

#include "bench/bench_util.h"
#include "src/eval/experiment.h"
#include "src/graph/benchmarks.h"
#include "src/util/flags.h"

namespace openima {
namespace {

int Run(int argc, char** argv) {
  Flags flags(argc, argv);
  eval::ExperimentOptions options = bench::OptionsFromFlags(flags);
  if (!flags.Has("seeds")) options.num_seeds = 1;  // extension ablation
  const std::string dataset_name = flags.GetString("dataset", "coauthor_cs");
  auto spec = graph::GetBenchmark(dataset_name);
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    return 1;
  }

  {
    Table t({"Clusterer", "All", "Seen", "Novel"});
    t.SetTitle(StrFormat(
        "Ablation (a) — clustering algorithm inside OpenIMA on %s "
        "(%d seed(s))",
        dataset_name.c_str(), options.num_seeds));
    for (auto kind :
         {core::ClustererKind::kKMeans, core::ClustererKind::kSphericalKMeans,
          core::ClustererKind::kConstrainedKMeans, core::ClustererKind::kGmm}) {
      auto agg = eval::RunOpenImaVariant(
          *spec, core::ClustererKindName(kind), options,
          [kind](core::OpenImaConfig* config) { config->clusterer = kind; });
      if (!agg.ok()) {
        std::fprintf(stderr, "%s failed: %s\n",
                     core::ClustererKindName(kind).c_str(),
                     agg.status().ToString().c_str());
        return 1;
      }
      t.AddRow({core::ClustererKindName(kind), Pct(agg->MeanAll()),
                Pct(agg->MeanSeen()), Pct(agg->MeanNovel())});
    }
    std::printf("%s\n", t.ToString().c_str());
  }

  {
    Table t({"Encoder", "All", "Seen", "Novel"});
    t.SetTitle(StrFormat("Ablation (b) — encoder architecture on %s",
                         dataset_name.c_str()));
    for (auto arch : {nn::EncoderArch::kGat, nn::EncoderArch::kGcn}) {
      const char* name = arch == nn::EncoderArch::kGat ? "GAT" : "GCN";
      auto agg = eval::RunOpenImaVariant(
          *spec, name, options, [arch](core::OpenImaConfig* config) {
            config->encoder.arch = arch;
          });
      if (!agg.ok()) {
        std::fprintf(stderr, "%s failed: %s\n", name,
                     agg.status().ToString().c_str());
        return 1;
      }
      t.AddRow({name, Pct(agg->MeanAll()), Pct(agg->MeanSeen()),
                Pct(agg->MeanNovel())});
    }
    std::printf("%s\n", t.ToString().c_str());
  }
  std::printf(
      "Expected shape (paper, §V-A): plain K-Means beats the semi-supervised\n"
      "constrained variant, whose pinned labeled points drag diverse classes\n"
      "together; the paper's encoder is GAT.\n");
  return bench::Finish();
}

}  // namespace
}  // namespace openima

int main(int argc, char** argv) { return openima::Run(argc, argv); }

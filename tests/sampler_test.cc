#include "src/graph/sampler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/core/openima.h"
#include "src/exec/context.h"
#include "src/graph/splits.h"
#include "src/graph/synthetic.h"
#include "src/la/matrix.h"
#include "src/metrics/clustering_accuracy.h"
#include "src/obs/obs_config.h"
#include "src/obs/watchdog.h"

/// The neighbor sampler promises a block that is a pure function of
/// (graph, seed, fanout, num_layers, seeds, tag) — bit-identical across
/// thread counts, pooled-vs-heap storage, and repeated calls on the same
/// sampler instance. These tests pin that contract with EXPECT_EQ (exact
/// equality, no tolerances), check the structural invariants every kernel
/// downstream relies on (dst-prefix locals, canonical edge order, transpose
/// round-trip, self-loop retention), and close with end-to-end sampled
/// OpenIMA runs under the same determinism lens as determinism_test.cc.
namespace openima {
namespace {

graph::Dataset MakeSbmDataset() {
  graph::SbmConfig sbm;
  sbm.num_nodes = 160;
  sbm.num_classes = 4;
  sbm.feature_dim = 12;
  sbm.avg_degree = 8.0;
  sbm.homophily = 0.85;
  sbm.feature_noise = 1.0;
  auto dataset = graph::GenerateSbm(sbm, 3, "sampler");
  EXPECT_TRUE(dataset.ok());
  return std::move(dataset).value();
}

std::vector<int> EveryThirdNode(const graph::Graph& g) {
  std::vector<int> seeds;
  for (int v = 0; v < g.num_nodes(); v += 3) seeds.push_back(v);
  return seeds;
}

void ExpectBlocksIdentical(const graph::SampledBlock& a,
                           const graph::SampledBlock& b) {
  EXPECT_EQ(a.input_nodes, b.input_nodes);
  ASSERT_EQ(a.layers.size(), b.layers.size());
  for (size_t l = 0; l < a.layers.size(); ++l) {
    const graph::SampledLayer& la = a.layers[l];
    const graph::SampledLayer& lb = b.layers[l];
    EXPECT_EQ(la.num_dst, lb.num_dst) << "layer " << l;
    EXPECT_EQ(la.num_src, lb.num_src) << "layer " << l;
    EXPECT_EQ(la.row_ptr, lb.row_ptr) << "layer " << l;
    EXPECT_EQ(la.col_idx, lb.col_idx) << "layer " << l;
    EXPECT_EQ(la.src_row_ptr, lb.src_row_ptr) << "layer " << l;
    EXPECT_EQ(la.src_dst_idx, lb.src_dst_idx) << "layer " << l;
    EXPECT_EQ(la.src_edge_pos, lb.src_edge_pos) << "layer " << l;
  }
}

TEST(SamplerTest, SampleIsThreadCountInvariant) {
  const graph::Dataset dataset = MakeSbmDataset();
  const std::vector<int> seeds = EveryThirdNode(dataset.graph);
  graph::SamplerConfig sc;
  sc.num_layers = 2;
  sc.fanout = 4;
  sc.seed = 17;

  exec::Context c1(1);
  exec::Context c4(4);
  graph::NeighborSampler s1(&dataset.graph, sc);
  graph::NeighborSampler s4(&dataset.graph, sc);
  for (uint64_t tag = 0; tag < 5; ++tag) {
    const graph::SampledBlock b1 = s1.Sample(seeds, tag, &c1);
    const graph::SampledBlock b4 = s4.Sample(seeds, tag, &c4);
    ExpectBlocksIdentical(b1, b4);
  }
}

TEST(SamplerTest, RepeatedSamplesReuseWorkspaceWithoutLeakage) {
  // The sampler's dense map and scratch are recycled across calls; a call
  // after many unrelated draws must still match a fresh sampler's output.
  const graph::Dataset dataset = MakeSbmDataset();
  const std::vector<int> seeds = EveryThirdNode(dataset.graph);
  graph::SamplerConfig sc;
  sc.num_layers = 2;
  sc.fanout = 3;
  sc.seed = 23;

  graph::NeighborSampler warm(&dataset.graph, sc);
  std::vector<int> other_seeds = {1, 5, 9, 100, 159};
  for (uint64_t tag = 0; tag < 7; ++tag) warm.Sample(other_seeds, tag);

  graph::NeighborSampler fresh(&dataset.graph, sc);
  ExpectBlocksIdentical(warm.Sample(seeds, 42), fresh.Sample(seeds, 42));
}

TEST(SamplerTest, DifferentTagsDrawDifferentNeighborhoods) {
  const graph::Dataset dataset = MakeSbmDataset();
  const std::vector<int> seeds = EveryThirdNode(dataset.graph);
  graph::SamplerConfig sc;
  sc.num_layers = 1;
  sc.fanout = 3;
  sc.seed = 5;
  graph::NeighborSampler sampler(&dataset.graph, sc);
  const graph::SampledBlock b0 = sampler.Sample(seeds, 0);
  const graph::SampledBlock b1 = sampler.Sample(seeds, 1);
  // Identical draws for distinct tags would mean the counter is dead.
  const bool differ = b0.input_nodes != b1.input_nodes ||
                      b0.layers[0].col_idx != b1.layers[0].col_idx;
  EXPECT_TRUE(differ);
}

TEST(SamplerTest, ExhaustiveFanoutMatchesFullOneHopNeighborhood) {
  const graph::Dataset dataset = MakeSbmDataset();
  const graph::Graph& g = dataset.graph;
  const std::vector<int> seeds = EveryThirdNode(g);
  graph::SamplerConfig sc;
  sc.num_layers = 1;
  sc.fanout = 0;  // exhaustive
  graph::NeighborSampler sampler(&dataset.graph, sc);
  const graph::SampledBlock block = sampler.Sample(seeds, 0);

  ASSERT_EQ(block.layers.size(), 1u);
  const graph::SampledLayer& layer = block.layers[0];
  ASSERT_EQ(layer.num_dst, static_cast<int>(seeds.size()));
  for (int i = 0; i < layer.num_dst; ++i) {
    // Rows are sorted by global id and neighbors are sorted ascending, so
    // the mapped row must equal Neighbors() element-for-element.
    std::vector<int> sampled;
    for (int64_t e = layer.row_ptr[static_cast<size_t>(i)];
         e < layer.row_ptr[static_cast<size_t>(i) + 1]; ++e) {
      sampled.push_back(
          block.input_nodes[static_cast<size_t>(
              layer.col_idx[static_cast<size_t>(e)])]);
    }
    auto [begin, end] = g.Neighbors(seeds[static_cast<size_t>(i)]);
    const std::vector<int> full(begin, end);
    EXPECT_EQ(sampled, full) << "dst " << seeds[static_cast<size_t>(i)];
  }
}

TEST(SamplerTest, StructuralInvariantsHold) {
  const graph::Dataset dataset = MakeSbmDataset();
  const graph::Graph& g = dataset.graph;
  const std::vector<int> seeds = EveryThirdNode(g);
  graph::SamplerConfig sc;
  sc.num_layers = 2;
  sc.fanout = 4;
  sc.seed = 31;
  graph::NeighborSampler sampler(&dataset.graph, sc);
  const graph::SampledBlock block = sampler.Sample(seeds, 9);

  // The seeds are the first num_output() input nodes.
  ASSERT_EQ(block.num_output(), static_cast<int>(seeds.size()));
  for (size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(block.input_nodes[i], seeds[i]);
  }
  // Input nodes are distinct global ids.
  std::vector<int> sorted_inputs = block.input_nodes;
  std::sort(sorted_inputs.begin(), sorted_inputs.end());
  EXPECT_EQ(std::adjacent_find(sorted_inputs.begin(), sorted_inputs.end()),
            sorted_inputs.end());

  int prev_src = block.num_input();
  for (size_t l = 0; l < block.layers.size(); ++l) {
    const graph::SampledLayer& layer = block.layers[l];
    // Frontiers shrink inward: layer l+1's sources are layer l's dsts, and
    // every dst list is a prefix of its own src list.
    EXPECT_LE(layer.num_dst, layer.num_src);
    EXPECT_EQ(layer.num_src, prev_src);
    prev_src = layer.num_dst;

    ASSERT_EQ(layer.row_ptr.size(), static_cast<size_t>(layer.num_dst) + 1);
    EXPECT_EQ(layer.row_ptr.back(), layer.num_edges());
    for (int i = 0; i < layer.num_dst; ++i) {
      const int dst_global = block.input_nodes[static_cast<size_t>(i)];
      int prev_global = -1;
      bool has_self = false;
      for (int64_t e = layer.row_ptr[static_cast<size_t>(i)];
           e < layer.row_ptr[static_cast<size_t>(i) + 1]; ++e) {
        const int local = layer.col_idx[static_cast<size_t>(e)];
        ASSERT_GE(local, 0);
        ASSERT_LT(local, layer.num_src);
        const int global = block.input_nodes[static_cast<size_t>(local)];
        // Canonical edge order: strictly ascending global ids per row.
        EXPECT_GT(global, prev_global);
        prev_global = global;
        has_self |= global == dst_global;
        // Every sampled edge exists in the graph.
        auto [begin, end] = g.Neighbors(dst_global);
        EXPECT_TRUE(std::binary_search(begin, end, global));
      }
      // Self-loop retention: the graph carries self-loops, so every row
      // must keep its own node even when the fanout truncates.
      if (g.has_self_loops()) {
        EXPECT_TRUE(has_self) << "dst " << dst_global;
      }
      // Per-row budget: full neighborhood when it fits, else fanout draws
      // plus the pinned self edge.
      const int64_t row =
          layer.row_ptr[static_cast<size_t>(i) + 1] -
          layer.row_ptr[static_cast<size_t>(i)];
      const int degree = g.Degree(dst_global);
      if (degree <= sc.fanout) {
        EXPECT_EQ(row, degree);
      } else {
        EXPECT_LE(row, sc.fanout + (g.has_self_loops() ? 1 : 0));
      }
    }

    // Transpose round-trip: every dst-major edge appears exactly once in
    // the src-major view, under the right source, pointing back at the
    // right dst row, in ascending edge-position order.
    ASSERT_EQ(layer.src_row_ptr.size(),
              static_cast<size_t>(layer.num_src) + 1);
    EXPECT_EQ(layer.src_row_ptr.back(), layer.num_edges());
    ASSERT_EQ(layer.src_dst_idx.size(),
              static_cast<size_t>(layer.num_edges()));
    ASSERT_EQ(layer.src_edge_pos.size(),
              static_cast<size_t>(layer.num_edges()));
    for (int s = 0; s < layer.num_src; ++s) {
      int64_t prev_pos = -1;
      for (int64_t t = layer.src_row_ptr[static_cast<size_t>(s)];
           t < layer.src_row_ptr[static_cast<size_t>(s) + 1]; ++t) {
        const int64_t pos = layer.src_edge_pos[static_cast<size_t>(t)];
        EXPECT_GT(pos, prev_pos);
        prev_pos = pos;
        EXPECT_EQ(layer.col_idx[static_cast<size_t>(pos)], s);
        const int d = layer.src_dst_idx[static_cast<size_t>(t)];
        EXPECT_GE(pos, layer.row_ptr[static_cast<size_t>(d)]);
        EXPECT_LT(pos, layer.row_ptr[static_cast<size_t>(d) + 1]);
      }
    }
  }
}

struct SampledRunOutput {
  la::Matrix embeddings;
  std::vector<int> predictions;
  std::vector<double> epoch_losses;
};

core::OpenImaConfig SampledConfig(const graph::Dataset& dataset,
                                  const graph::OpenWorldSplit& split) {
  core::OpenImaConfig config;
  config.encoder.in_dim = dataset.feature_dim();
  config.encoder.hidden_dim = 16;
  config.encoder.embedding_dim = 16;
  config.encoder.num_heads = 2;
  config.num_seen = split.num_seen;
  config.num_novel = split.num_novel;
  config.epochs = 4;
  config.lr = 5e-3f;
  config.sampled_training = true;
  config.sample_fanout = 4;
  config.batch_nodes = 48;
  return config;
}

SampledRunOutput RunSampled(const graph::Dataset& dataset,
                            const graph::OpenWorldSplit& split,
                            core::OpenImaConfig config) {
  core::OpenImaModel model(config, dataset.feature_dim(), 99);
  EXPECT_TRUE(model.Train(dataset, split).ok());
  SampledRunOutput out;
  out.embeddings = model.Embeddings(dataset);
  auto preds = model.Predict(dataset, split);
  EXPECT_TRUE(preds.ok());
  out.predictions = std::move(preds).value();
  out.epoch_losses = model.train_stats().epoch_losses;
  return out;
}

/// End-to-end: sampled-minibatch OpenIMA training (sample -> gather ->
/// sampled GAT forward -> Eq. 6 batch losses -> per-batch optimizer steps)
/// must produce the same bits under one and four threads.
TEST(SampledPipelineTest, SampledOpenImaIsThreadCountInvariant) {
  const graph::Dataset dataset = MakeSbmDataset();
  graph::SplitOptions so;
  so.labeled_per_class = 10;
  so.val_per_class = 5;
  auto split = graph::MakeOpenWorldSplit(dataset, so, 4);
  ASSERT_TRUE(split.ok());

  exec::Context c1(1);
  exec::Context c4(4);
  auto run = [&](const exec::Context* ctx) {
    core::OpenImaConfig config = SampledConfig(dataset, *split);
    config.exec = ctx;
    return RunSampled(dataset, *split, config);
  };
  const SampledRunOutput r1 = run(&c1);
  const SampledRunOutput r4 = run(&c4);
  EXPECT_TRUE(r1.embeddings == r4.embeddings)
      << "sampled-training embeddings differ across thread counts";
  EXPECT_EQ(r1.predictions, r4.predictions);
  EXPECT_EQ(r1.epoch_losses, r4.epoch_losses);
}

/// Pooled vs plain-heap storage must not change sampled-training results:
/// the per-batch tape recycling and pooled scratch are storage-only.
TEST(SampledPipelineTest, SampledOpenImaIsMemoryPoolInvariant) {
  const graph::Dataset dataset = MakeSbmDataset();
  graph::SplitOptions so;
  so.labeled_per_class = 10;
  so.val_per_class = 5;
  auto split = graph::MakeOpenWorldSplit(dataset, so, 4);
  ASSERT_TRUE(split.ok());

  auto run = [&](bool pooled) {
    core::OpenImaConfig config = SampledConfig(dataset, *split);
    config.use_memory_pool = pooled;
    return RunSampled(dataset, *split, config);
  };
  const SampledRunOutput pooled = run(true);
  const SampledRunOutput heap = run(false);
  EXPECT_TRUE(pooled.embeddings == heap.embeddings)
      << "sampled-training embeddings differ between pooled and heap";
  EXPECT_EQ(pooled.predictions, heap.predictions);
  EXPECT_EQ(pooled.epoch_losses, heap.epoch_losses);
}

/// A NaN feature row spreads through attention to part of the graph. The
/// large-graph pairwise term must then skip the rows whose peer
/// similarities are all NaN — a -1 peer index fails PairwiseDotBce's
/// CHECK — so training returns, and under the abort watchdog it returns
/// the non-finite loss as a Status. The full-graph trainer's peer search
/// gets the same input.
TEST(SampledPipelineTest, NanFeatureRowReturnsStatusInsteadOfAborting) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "the watchdog needs OPENIMA_OBS=ON";
  graph::Dataset dataset = MakeSbmDataset();
  dataset.features.Row(5)[0] = std::numeric_limits<float>::quiet_NaN();
  graph::SplitOptions so;
  so.labeled_per_class = 10;
  so.val_per_class = 5;
  auto split = graph::MakeOpenWorldSplit(dataset, so, 4);
  ASSERT_TRUE(split.ok());
  for (bool sampled : {true, false}) {
    core::OpenImaConfig config = SampledConfig(dataset, *split);
    config.sampled_training = sampled;
    config.large_graph_mode = true;
    {
      // Without the watchdog the run trains on NaN, but it must return.
      core::OpenImaModel model(config, dataset.feature_dim(), 99);
      (void)model.Train(dataset, *split);
    }
    obs::WatchdogOptions watchdog;
    watchdog.policy = obs::WatchdogPolicy::kAbort;
    obs::Watchdog::Configure(watchdog);
    core::OpenImaModel model(config, dataset.feature_dim(), 99);
    const Status trained = model.Train(dataset, *split);
    obs::Watchdog::ResetForTest();
    EXPECT_FALSE(trained.ok()) << (sampled ? "sampled" : "full graph");
  }
}

}  // namespace
}  // namespace openima

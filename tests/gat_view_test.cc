// The GAT attention op over its two CSR views (src/nn/gat.cc): the full
// graph, whose transpose is itself through Graph::reverse_edge(), and a
// sampled layer, which carries its own. One kernel and one backward serve
// both, so on a fanout-0 block over every node the two give the same bits,
// except where the backward's last pass keeps a form per view.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "src/autograd/gradcheck.h"
#include "src/autograd/ops.h"
#include "src/core/encoder_with_head.h"
#include "src/exec/context.h"
#include "src/graph/sampler.h"
#include "src/graph/synthetic.h"
#include "src/la/backend/backend.h"
#include "src/la/matrix_ops.h"
#include "src/nn/gat.h"
#include "src/util/rng.h"

namespace openima {
namespace {

namespace ops = autograd::ops;
using autograd::Variable;

void ExpectSameBits(const float* want, const float* got, int64_t count,
                    const std::string& where) {
  EXPECT_EQ(std::memcmp(want, got, sizeof(float) * static_cast<size_t>(count)),
            0)
      << where;
}

void ExpectSameBits(const la::Matrix& want, const la::Matrix& got,
                    const std::string& where) {
  ASSERT_EQ(want.rows(), got.rows()) << where;
  ASSERT_EQ(want.cols(), got.cols()) << where;
  ExpectSameBits(want.data(), got.data(), want.size(), where);
}

/// A path over nodes 0..n-2, one chord, and node n-1 with only its
/// self-loop.
graph::Graph GraphWithIsolatedNode(int n) {
  graph::GraphBuilder builder(n);
  for (int i = 0; i + 2 < n; ++i) builder.AddEdge(i, i + 1);
  builder.AddEdge(0, 5);
  return builder.Build(/*add_self_loops=*/true);
}

std::vector<int> AllNodes(int n) {
  std::vector<int> nodes(static_cast<size_t>(n));
  std::iota(nodes.begin(), nodes.end(), 0);
  return nodes;
}

graph::SampledBlock Sample(const graph::Graph& g, int num_layers, int fanout,
                           const std::vector<int>& seeds) {
  graph::SamplerConfig sc;
  sc.num_layers = num_layers;
  sc.fanout = fanout;
  sc.seed = 5;
  graph::NeighborSampler sampler(&g, sc);
  return sampler.Sample(seeds, /*tag=*/3);
}

// ---------------------------------------------------------------------------
// Sampled view gradcheck
// ---------------------------------------------------------------------------

/// Finite differences against GatAttentionSampled's analytic gradients with
/// respect to wh, a_src and a_dst, on a layer whose rows keep at most two
/// neighbours besides the self-loop and on an exhaustive (fanout-0) layer.
TEST(GatViewTest, SampledGradcheckWhAndAttentionVectors) {
  graph::GraphBuilder builder(9);
  for (int i = 0; i + 1 < 9; ++i) builder.AddEdge(i, i + 1);
  builder.AddEdge(0, 4);
  builder.AddEdge(2, 6);
  builder.AddEdge(4, 8);
  builder.AddEdge(1, 7);
  const graph::Graph g = builder.Build(/*add_self_loops=*/true);
  for (const int fanout : {2, 0}) {
    const graph::SampledBlock block = Sample(g, 1, fanout, {4, 1, 6});
    const graph::SampledLayer& layer = block.layers[0];
    ASSERT_GT(layer.num_src, layer.num_dst);
    const int f = 3;
    Rng rng(7);
    std::vector<Variable> leaves = {
        Variable::Leaf(la::Matrix::Normal(layer.num_src, f, 0.0f, 0.8f, &rng),
                       true),
        Variable::Leaf(la::Matrix::Normal(1, f, 0.0f, 0.8f, &rng), true),
        Variable::Leaf(la::Matrix::Normal(1, f, 0.0f, 0.8f, &rng), true)};
    auto fn = [&layer](const std::vector<Variable>& v) {
      Variable out = nn::GatAttentionSampled(layer, v[0], v[1], v[2], 0.2f,
                                             0.0f, false, nullptr);
      return ops::MeanAll(ops::Mul(out, out));
    };
    auto result = autograd::CheckGradients(fn, &leaves);
    EXPECT_TRUE(result.ok) << "fanout " << fanout << ": "
                           << result.first_failure << " max err "
                           << result.max_abs_error;
  }
}

// ---------------------------------------------------------------------------
// Full graph == all-node fanout-0 block
// ---------------------------------------------------------------------------

struct Attended {
  la::Matrix out, dwh, dasrc, dadst;
};

// One attention op over `graph` (layer == nullptr) or `layer`, then the
// backward of sum(out * upstream), so the op's incoming gradient is exactly
// `upstream`. Training mode with attention dropout: the mask draws from a
// fresh Rng(11), so both views drop the same edges.
Attended RunAttention(const graph::Graph& graph,
                      const graph::SampledLayer* layer, const la::Matrix& wh,
                      const la::Matrix& a_src, const la::Matrix& a_dst,
                      const la::Matrix& upstream, const exec::Context* ctx) {
  Variable vwh = Variable::Leaf(wh, true);
  Variable vas = Variable::Leaf(a_src, true);
  Variable vad = Variable::Leaf(a_dst, true);
  Rng rng(11);
  Variable out =
      layer == nullptr
          ? nn::GatAttention(graph, vwh, vas, vad, 0.2f, 0.3f, true, &rng, ctx)
          : nn::GatAttentionSampled(*layer, vwh, vas, vad, 0.2f, 0.3f, true,
                                    &rng, ctx);
  ops::SumAll(ops::Mul(out, Variable::Leaf(upstream, false))).Backward();
  return {out.value(), vwh.grad(), vas.grad(), vad.grad()};
}

/// Seeded with every node in id order, a fanout-0 block's layer is the
/// graph's own CSR, and its transpose lists each source's edges in the
/// order reverse_edge() does. The forward and the attention-vector
/// gradients then match bit for bit on every backend and thread count; the
/// wh gradients differ only by the last pass, which adds
/// dssrc * a_src + dsdst * a_dst in one expression on the graph and as two
/// AxpyRow calls on the layer. With a_dst = 0 the second product is zero
/// and the two forms agree bit for bit too.
TEST(GatViewTest, GraphMatchesAllNodeFanoutZeroBlock) {
  const int n = 12, f = 11;  // f = 11: AxpyRow's 8-lane body and its tail
  const graph::Graph g = GraphWithIsolatedNode(n);
  const graph::SampledBlock block = Sample(g, 1, 0, AllNodes(n));
  const graph::SampledLayer& layer = block.layers[0];
  ASSERT_EQ(layer.num_dst, n);
  ASSERT_EQ(layer.num_src, n);
  ASSERT_EQ(layer.row_ptr, g.row_ptr());
  ASSERT_EQ(layer.col_idx, g.col_idx());

  Rng rng(13);
  const la::Matrix wh = la::Matrix::Normal(n, f, 0.0f, 1.0f, &rng);
  const la::Matrix a_src = la::Matrix::Normal(1, f, 0.0f, 0.8f, &rng);
  const la::Matrix a_dst = la::Matrix::Normal(1, f, 0.0f, 0.8f, &rng);
  const la::Matrix upstream = la::Matrix::Normal(n, f, 0.0f, 1.0f, &rng);
  const la::Matrix zero_dst(1, f);

  exec::Context c1(1), c4(4);
  for (const la::backend::KernelBackend* be :
       la::backend::RegisteredBackends()) {
    c1.set_kernel_backend(be);
    c4.set_kernel_backend(be);
    for (const exec::Context* ctx : {&c1, &c4}) {
      const std::string where = std::string(be->name()) + " threads=" +
                                std::to_string(ctx->num_threads());
      const Attended full =
          RunAttention(g, nullptr, wh, a_src, a_dst, upstream, ctx);
      const Attended sampled =
          RunAttention(g, &layer, wh, a_src, a_dst, upstream, ctx);
      ExpectSameBits(full.out, sampled.out, where + " forward");
      ExpectSameBits(full.dasrc, sampled.dasrc, where + " d a_src");
      ExpectSameBits(full.dadst, sampled.dadst, where + " d a_dst");
      ASSERT_EQ(full.dwh.size(), sampled.dwh.size());
      for (int64_t k = 0; k < full.dwh.size(); ++k) {
        EXPECT_NEAR(full.dwh.data()[k], sampled.dwh.data()[k], 1e-6f)
            << where << " d wh entry " << k;
      }

      const Attended full0 =
          RunAttention(g, nullptr, wh, a_src, zero_dst, upstream, ctx);
      const Attended sampled0 =
          RunAttention(g, &layer, wh, a_src, zero_dst, upstream, ctx);
      ExpectSameBits(full0.dwh, sampled0.dwh, where + " d wh, a_dst = 0");
    }
  }
}

// ---------------------------------------------------------------------------
// The fanout-0 lemma
// ---------------------------------------------------------------------------

/// A fanout-0 block keeps every neighbour, so the frozen sampled forward of
/// the encoder gives each seed row the bits EvalEmbeddings gives that node
/// on the full graph: for every node as a seed, and for a random subset in
/// random order, on every backend at 1 and 4 threads.
TEST(GatViewTest, EvalEmbeddingsEqualFanoutZeroBlockSeedRows) {
  graph::SbmConfig c;
  c.num_nodes = 90;
  c.num_classes = 3;
  c.feature_dim = 12;
  c.avg_degree = 6.0;
  auto ds = graph::GenerateSbm(c, /*seed=*/31, "gat_view");
  ASSERT_TRUE(ds.ok());
  const int n = ds->num_nodes();
  Rng pick(19);
  const std::vector<std::vector<int>> seed_sets = {
      AllNodes(n), pick.SampleWithoutReplacement(n, 23)};

  exec::Context c1(1), c4(4);
  for (const la::backend::KernelBackend* be :
       la::backend::RegisteredBackends()) {
    c1.set_kernel_backend(be);
    c4.set_kernel_backend(be);
    for (const exec::Context* ctx : {&c1, &c4}) {
      nn::GatEncoderConfig cfg;
      cfg.in_dim = ds->feature_dim();
      cfg.hidden_dim = 24;
      cfg.embedding_dim = 13;
      cfg.num_heads = 3;
      cfg.exec = ctx;
      Rng rng(7);
      core::EncoderWithHead model(cfg, /*num_classes=*/4, &rng);
      const la::Matrix full = model.EvalEmbeddings(*ds);
      for (const std::vector<int>& seeds : seed_sets) {
        const std::string where =
            std::string(be->name()) + " threads=" +
            std::to_string(ctx->num_threads()) +
            " seeds=" + std::to_string(seeds.size());
        const graph::SampledBlock block = Sample(ds->graph, 2, 0, seeds);
        const la::Matrix z = model.encoder().ForwardSampledFrozen(
            block, la::GatherRows(ds->features, block.input_nodes));
        ASSERT_EQ(z.rows(), static_cast<int>(seeds.size())) << where;
        for (size_t k = 0; k < seeds.size(); ++k) {
          ExpectSameBits(full.Row(seeds[k]), z.Row(static_cast<int>(k)),
                         full.cols(),
                         where + " seed " + std::to_string(seeds[k]));
        }
      }
    }
  }
}

}  // namespace
}  // namespace openima

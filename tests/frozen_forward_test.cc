#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "src/autograd/tape.h"
#include "src/autograd/variable.h"
#include "src/core/encoder_with_head.h"
#include "src/exec/context.h"
#include "src/graph/benchmarks.h"
#include "src/graph/sampler.h"
#include "src/graph/synthetic.h"
#include "src/la/backend/backend.h"
#include "src/la/matrix_ops.h"
#include "src/la/pool.h"
#include "src/util/rng.h"

/// The frozen forward (Encoder::ForwardFrozen and friends) is the eval path
/// of the refresh, HeadPredict and serving. It must give every bit the
/// autograd forward gives in eval mode — the layer-level tape stays the
/// reference — while drawing no graph node and no parameter gradient.
namespace openima {
namespace {

using autograd::Variable;

void ExpectSameBits(const la::Matrix& want, const la::Matrix& got,
                    const std::string& where) {
  ASSERT_EQ(want.rows(), got.rows()) << where;
  ASSERT_EQ(want.cols(), got.cols()) << where;
  EXPECT_EQ(std::memcmp(want.data(), got.data(),
                        sizeof(float) * static_cast<size_t>(want.size())),
            0)
      << where;
}

graph::Dataset SmallGraph(uint64_t seed) {
  graph::SbmConfig c;
  c.num_nodes = 90;
  c.num_classes = 3;
  c.feature_dim = 12;
  c.avg_degree = 6.0;
  auto ds = graph::GenerateSbm(c, seed, "frozen");
  EXPECT_TRUE(ds.ok());
  return std::move(*ds);
}

/// A path over nodes 0..n-2 plus node n-1 with only its self-loop.
graph::Dataset GraphWithIsolatedNode() {
  constexpr int kNodes = 12;
  graph::GraphBuilder builder(kNodes);
  for (int i = 0; i + 2 < kNodes; ++i) builder.AddEdge(i, i + 1);
  builder.AddEdge(0, 5);
  graph::Dataset ds;
  ds.name = "isolated";
  ds.graph = builder.Build(/*add_self_loops=*/true);
  Rng rng(17);
  ds.features = la::Matrix::Normal(kNodes, 12, 0.0f, 1.0f, &rng);
  ds.labels.assign(kNodes, 0);
  ds.num_classes = 1;
  return ds;
}

struct Arch {
  const char* name;
  nn::EncoderArch arch;
  int hidden;
  int embedding;
  int heads;
};

/// Eval embeddings, logits and sampled blocks of the frozen path against
/// the layer-level tape (GatEncoder/GcnEncoder::Forward with training=false
/// and the head's Linear::Forward), memcmp on every float, for every
/// registered backend at 1 and 4 threads, on the heap and from a pool whose
/// buffers are dirty.
TEST(FrozenForwardTest, BitIdenticalToTapeForward) {
  const std::vector<Arch> archs = {
      {"gat64x4", nn::EncoderArch::kGat, 64, 64, 4},
      {"gat24x3", nn::EncoderArch::kGat, 24, 16, 3},
      {"gat8x1", nn::EncoderArch::kGat, 8, 5, 1},
      {"gcn", nn::EncoderArch::kGcn, 16, 8, 1},
  };
  std::vector<graph::Dataset> datasets;
  datasets.push_back(SmallGraph(31));
  datasets.push_back(GraphWithIsolatedNode());
  exec::Context c1(1), c4(4);
  for (const la::backend::KernelBackend* be :
       la::backend::RegisteredBackends()) {
    c1.set_kernel_backend(be);
    c4.set_kernel_backend(be);
    for (const exec::Context* ctx : {&c1, &c4}) {
      for (const Arch& a : archs) {
        for (const graph::Dataset& ds : datasets) {
          const std::string where =
              std::string(be->name()) + " threads=" +
              std::to_string(ctx->num_threads()) + " " + a.name + " " +
              ds.name;
          nn::GatEncoderConfig cfg;
          cfg.arch = a.arch;
          cfg.in_dim = ds.feature_dim();
          cfg.hidden_dim = a.hidden;
          cfg.embedding_dim = a.embedding;
          cfg.num_heads = a.heads;
          cfg.dropout = 0.5f;  // eval mode must ignore it
          cfg.exec = ctx;
          Rng rng(7);
          core::EncoderWithHead model(cfg, /*num_classes=*/4, &rng);

          const Variable tape_z = model.encoder().Forward(
              ds.graph, Variable::Leaf(ds.features, false), false, nullptr);
          const la::Matrix tape_logits = model.head().Forward(tape_z).value();
          ExpectSameBits(tape_z.value(), model.EvalEmbeddings(ds),
                         where + " heap embeddings");
          ExpectSameBits(tape_logits, model.EvalLogits(ds),
                         where + " heap logits");
          {
            la::Pool pool;
            la::PoolBinding bind(&pool);
            model.EvalLogits(ds);  // leaves dirty buffers
            ExpectSameBits(tape_z.value(), model.EvalEmbeddings(ds),
                           where + " pooled embeddings");
            ExpectSameBits(tape_logits, model.EvalLogits(ds),
                           where + " pooled logits");
          }

          if (!model.encoder().SupportsSampled()) continue;
          for (int fanout : {0, 3}) {
            graph::SamplerConfig sc;
            sc.num_layers = 2;
            sc.fanout = fanout;
            sc.seed = 5;
            graph::NeighborSampler sampler(&ds.graph, sc);
            for (const std::vector<int>& seeds :
                 {std::vector<int>{ds.num_nodes() - 1},
                  std::vector<int>{3, 0, 11, 7, 1, 9, 4, 2}}) {
              const graph::SampledBlock block = sampler.Sample(seeds, 9);
              const la::Matrix x = la::GatherRows(ds.features,
                                                  block.input_nodes);
              const std::string bwhere =
                  where + " fanout=" + std::to_string(fanout) +
                  " seeds=" + std::to_string(seeds.size());
              const la::Matrix want =
                  model.encoder()
                      .ForwardSampled(block, Variable::Leaf(x, false), false,
                                      nullptr)
                      .value();
              ExpectSameBits(
                  want, model.EmbedSampled(block, x, false, nullptr).value(),
                  bwhere + " heap block");
              la::Pool pool;
              la::PoolBinding bind(&pool);
              model.EmbedSampled(block, x, false, nullptr);
              ExpectSameBits(
                  want, model.EmbedSampled(block, x, false, nullptr).value(),
                  bwhere + " pooled block");
            }
          }
        }
      }
    }
  }
}

/// The eval calls stay off the tape: on a fresh model under a bound tape,
/// EvalEmbeddings, EvalLogits and eval EmbedSampled draw one node in total
/// (EmbedSampled's constant leaf), no parameter gains a gradient buffer,
/// and a full-graph EvalEmbeddings of a ~3.7k-node graph draws a fraction
/// of what the tape held (its nodes, closures and gradient buffers took
/// about 42 MiB of pool storage).
TEST(FrozenForwardTest, EvalDrawsNoTapeOrGradients) {
  auto bench = graph::GetBenchmark("coauthor_cs");
  ASSERT_TRUE(bench.ok());
  auto ds = graph::MakeDataset(*bench, 0.2, 64, /*seed=*/3);
  ASSERT_TRUE(ds.ok());
  ASSERT_GT(ds->num_nodes(), 3500);
  nn::GatEncoderConfig cfg;
  cfg.in_dim = ds->feature_dim();
  cfg.hidden_dim = 64;
  cfg.embedding_dim = 64;
  cfg.num_heads = 4;
  Rng rng(3);
  core::EncoderWithHead model(cfg, /*num_classes=*/8, &rng);

  graph::SamplerConfig sc;
  sc.num_layers = 2;
  sc.fanout = 0;
  graph::NeighborSampler sampler(&ds->graph, sc);
  const graph::SampledBlock block = sampler.Sample({0, 1, 2, 3}, 0);
  const la::Matrix x = la::GatherRows(ds->features, block.input_nodes);

  autograd::Tape tape;
  la::Pool pool;
  {
    autograd::TapeBinding tape_binding(&tape);
    la::PoolBinding pool_binding(&pool);
    const la::Matrix emb = model.EvalEmbeddings(*ds);
    EXPECT_EQ(tape.stats().nodes, 0);
    EXPECT_LT(pool.stats().bytes_acquired, int64_t{16} << 20)
        << "EvalEmbeddings drew "
        << static_cast<double>(pool.stats().bytes_acquired) / (1 << 20)
        << " MiB";
    model.EvalLogits(*ds);
    model.EmbedSampled(block, x, false, nullptr);
  }
  EXPECT_LE(tape.stats().nodes, 1);
  for (const Variable& p : model.parameters()) {
    EXPECT_FALSE(p.HasGrad()) << "an eval call allocated a gradient";
  }
}

}  // namespace
}  // namespace openima

#include "src/nn/gcn.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/autograd/ops.h"
#include "src/la/matrix_ops.h"
#include "src/util/logging.h"

namespace openima::nn {

namespace {
using autograd::MakeOp;
using autograd::Node;
using autograd::Variable;

/// out = Â x with Â = D^{-1/2} (A + I) D^{-1/2} (self-loops included in the
/// CSR). Parallel over output rows: each row only reads x and writes its
/// own slice, so the result is identical for any range split.
la::Matrix Aggregate(const graph::Graph& graph, const la::Matrix& x,
                     const std::vector<float>& inv_sqrt_deg,
                     const exec::Context& ex) {
  const int n = graph.num_nodes(), f = x.cols();
  la::Matrix out(n, f);
  const auto& row_ptr = graph.row_ptr();
  const auto& col_idx = graph.col_idx();
  ex.ParallelFor(n, std::max<int64_t>(64, n / 256),
                 [&](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      float* orow = out.Row(static_cast<int>(i));
      const float di = inv_sqrt_deg[static_cast<size_t>(i)];
      for (int64_t e = row_ptr[static_cast<size_t>(i)];
           e < row_ptr[static_cast<size_t>(i) + 1]; ++e) {
        const int j = col_idx[static_cast<size_t>(e)];
        const float c = di * inv_sqrt_deg[static_cast<size_t>(j)];
        const float* src = x.Row(j);
        for (int k = 0; k < f; ++k) orow[k] += c * src[k];
      }
    }
  });
  return out;
}

std::vector<float> InvSqrtDegrees(const graph::Graph& graph) {
  std::vector<float> out(static_cast<size_t>(graph.num_nodes()));
  for (int v = 0; v < graph.num_nodes(); ++v) {
    out[static_cast<size_t>(v)] =
        1.0f / std::sqrt(static_cast<float>(std::max(1, graph.Degree(v))));
  }
  return out;
}

}  // namespace

Variable GcnAggregate(const graph::Graph& graph, const Variable& x,
                      const exec::Context* exec_ctx) {
  OPENIMA_CHECK_EQ(x.rows(), graph.num_nodes());
  OPENIMA_CHECK(graph.has_self_loops())
      << "GCN normalization expects self-loops";
  std::vector<float> inv_sqrt_deg = InvSqrtDegrees(graph);
  la::Matrix out = Aggregate(graph, x.value(), inv_sqrt_deg,
                             exec::Get(exec_ctx));
  const graph::Graph* gptr = &graph;
  return MakeOp("gcn_aggregate", std::move(out), {x},
                [gptr, exec_ctx, inv_sqrt_deg = std::move(inv_sqrt_deg)](
                    Node* n) {
                  if (!n->inputs[0]->requires_grad) return;
                  // Â is symmetric: dX = Â * dOut.
                  n->inputs[0]->grad += Aggregate(*gptr, n->grad, inv_sqrt_deg,
                                                  exec::Get(exec_ctx));
                });
}

GcnEncoder::GcnEncoder(const GatEncoderConfig& config, Rng* rng)
    : config_(config) {
  OPENIMA_CHECK_GT(config.in_dim, 0);
  layer1_ = std::make_unique<Linear>(config.in_dim, config.hidden_dim,
                                     /*use_bias=*/true, rng, config.exec);
  layer2_ = std::make_unique<Linear>(config.hidden_dim, config.embedding_dim,
                                     /*use_bias=*/true, rng, config.exec);
  RegisterSubmodule(*layer1_);
  RegisterSubmodule(*layer2_);
}

Variable GcnEncoder::Forward(const graph::Graph& graph,
                             const Variable& features, bool training,
                             Rng* rng) const {
  namespace ops = autograd::ops;
  Variable x = ops::Dropout(features, config_.dropout, training, rng);
  x = GcnAggregate(graph, layer1_->Forward(x), config_.exec);
  x = ops::Elu(x);
  x = ops::Dropout(x, config_.dropout, training, rng);
  return GcnAggregate(graph, layer2_->Forward(x), config_.exec);
}

la::Matrix GcnEncoder::ForwardFrozen(const graph::Graph& graph,
                                     const la::Matrix& features) const {
  OPENIMA_CHECK_EQ(features.rows(), graph.num_nodes());
  OPENIMA_CHECK(graph.has_self_loops())
      << "GCN normalization expects self-loops";
  const std::vector<float> inv_sqrt_deg = InvSqrtDegrees(graph);
  const exec::Context& ex = exec::Get(config_.exec);
  // Eval dropout is the identity, so the frozen forward skips it.
  la::Matrix x =
      Aggregate(graph, layer1_->ForwardFrozen(features), inv_sqrt_deg, ex);
  la::EluInPlace(1.0f, &x);
  return Aggregate(graph, layer2_->ForwardFrozen(x), inv_sqrt_deg, ex);
}

std::unique_ptr<Encoder> MakeEncoder(const GatEncoderConfig& config,
                                     Rng* rng) {
  switch (config.arch) {
    case EncoderArch::kGat:
      return std::make_unique<GatEncoder>(config, rng);
    case EncoderArch::kGcn:
      return std::make_unique<GcnEncoder>(config, rng);
  }
  OPENIMA_CHECK(false) << "unknown encoder arch";
  return nullptr;
}

}  // namespace openima::nn

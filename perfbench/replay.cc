// Traced runs: each workload's unit of work replayed through the public
// functions of the program's modules, with a span around every call, on
// the workload's real graph, shapes and trained model state.
//
// The replay builds its own copy of the encoder from the layers it is made
// of (two nn::GatLayer plus the linear head, as nn::GatEncoder and
// core::EncoderWithHead build them) so each layer's Forward can be timed
// on its own; an eval-mode check proves the copy computes bit-identical
// embeddings to the trained model before any number is taken from it.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>

#include "perfbench/replay.h"
#include "src/assign/cluster_alignment.h"
#include "src/autograd/ops.h"
#include "src/cluster/kmeans.h"
#include "src/core/positive_sets.h"
#include "src/core/pseudo_labels.h"
#include "src/la/backend/backend.h"
#include "src/la/matrix_ops.h"
#include "src/la/pool.h"
#include "src/nn/adam.h"
#include "src/nn/gat.h"
#include "src/nn/linear.h"
#include "src/util/rng.h"
#include "src/util/string_util.h"

namespace perfbench {

namespace autograd = oi::autograd;
namespace cluster = oi::cluster;
namespace core = oi::core;
namespace exec = oi::exec;
namespace graph = oi::graph;
namespace la = oi::la;
namespace nn = oi::nn;
namespace ops = oi::autograd::ops;
using autograd::Variable;
using oi::Status;
using oi::StrFormat;
using Scope = Tracer::Scope;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

// Untraced units run first so pools, tapes and Adam moments are warm.
constexpr int kWarmUnits = 2;
// Units timed untraced and then traced (their ratio is trace.overhead).
constexpr int kTimedUnits = 5;
constexpr int kServeTimedUnits = 100;
// Repetitions of each single-call probe.
constexpr int kProbeReps = 3;
// Square GEMM edge for the backend's ceiling.
constexpr int kPeakGemmDim = 512;

// Every per-layer metric, reported on every workload; a layer a workload
// never calls reads 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
const LayerMetric kLayerMetrics[] = {
    {"graph.sample_ms", "ms"},
    {"graph.block_edges", "count"},
    {"la.gather_ms", "ms"},
    {"la.gather_mib", "MiB"},
    {"la.gemm_gflops", "GFLOP/s"},
    {"la.gemm_peak_gflops", "GFLOP/s"},
    {"la.distance_ms", "ms"},
    {"la.pool_high_water_mib", "MiB"},
    {"la.steady_allocs", "count"},
    {"nn.gat1.proj_ms", "ms"},
    {"nn.gat1.attn_ms", "ms"},
    {"nn.gat1.fwd_ms", "ms"},
    {"nn.gat1.fwd_mib", "MiB"},
    {"nn.gat1.bwd_ms", "ms"},
    {"nn.gat1.bwd_mib", "MiB"},
    {"nn.gat2.proj_ms", "ms"},
    {"nn.gat2.attn_ms", "ms"},
    {"nn.gat2.fwd_ms", "ms"},
    {"nn.gat2.fwd_mib", "MiB"},
    {"nn.gat2.bwd_ms", "ms"},
    {"nn.gat2.bwd_mib", "MiB"},
    {"nn.head.fwd_ms", "ms"},
    {"nn.adam.step_ms", "ms"},
    {"autograd.supcon_fwd_ms", "ms"},
    {"autograd.supcon_bwd_ms", "ms"},
    {"autograd.supcon_mib", "MiB"},
    {"autograd.ce_ms", "ms"},
    {"autograd.backward_ms", "ms"},
    {"autograd.tape_nodes", "count"},
    {"autograd.eval_tape_nodes", "count"},
    {"core.eval_embed_ms", "ms"},
    {"core.eval_embed_mib", "MiB"},
    {"core.embed_sampled_ms", "ms"},
    {"core.pseudo_labels_ms", "ms"},
    {"core.dp.rounds", "count"},
    {"core.dp.allreduce_mib", "MiB"},
    {"core.dp.idle_share", "ratio"},
    {"cluster.kmeans_ms", "ms"},
    {"cluster.kmeans_iters", "count"},
    {"cluster.prune_ratio", "ratio"},
    {"cluster.minibatch_kmeans_ms", "ms"},
    {"assign.align_ms", "ms"},
    {"io.save_ms", "ms"},
    {"io.load_ms", "ms"},
    {"io.checkpoint_mib", "MiB"},
    {"trace.coverage", "ratio"},
    {"trace.overhead", "ratio"},
};

void ZeroLayerMetrics(Report* report) {
  for (const LayerMetric& m : kLayerMetrics) report->Set(m.name, 0.0, m.unit);
}

void SetLayer(Report* report, const std::string& name, double value) {
  for (const LayerMetric& m : kLayerMetrics) {
    if (name == m.name) {
      report->Set(name, value, m.unit);
      return;
    }
  }
  report->Check(false, "unknown per-layer metric " + name);
}

double MedianMs(const Tracer& t, const std::string& name) {
  return Median(t.Durations(name));
}

double MedianMib(const Tracer& t, const std::string& name) {
  return Median(t.PoolMib(name));
}

// Median over spans named `name` of the time their direct children cover:
// the part of the span explained by named calls.
double MedianChildrenMs(const Tracer& t, const std::string& name) {
  const std::vector<Span>& spans = t.spans();
  std::vector<double> covered;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name != name) continue;
    covered.push_back(spans[i].ms() - t.SelfMs(static_cast<int>(i)));
  }
  return Median(covered);
}

bool SameBits(const la::Matrix& a, const la::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), sizeof(float) * a.size()) == 0;
}

// Copies parameter values; both lists must have identical shapes.
Status CopyValues(const std::vector<Variable>& src,
                  const std::vector<Variable>& dst) {
  if (src.size() != dst.size()) {
    return Status::Internal(StrFormat("parameter count %zu != %zu",
                                      src.size(), dst.size()));
  }
  for (size_t k = 0; k < src.size(); ++k) {
    const la::Matrix& s = src[k].value();
    Variable d = dst[k];
    la::Matrix& dv = d.mutable_value();
    if (s.rows() != dv.rows() || s.cols() != dv.cols()) {
      return Status::Internal(StrFormat("parameter %zu shape mismatch", k));
    }
    std::copy(s.data(), s.data() + s.size(), dv.data());
  }
  return Status::OK();
}

// GFLOP/s of `flops` floating-point operations done in `ms`.
double Gflops(double flops, double ms) {
  return ms > 0.0 ? flops / (ms * 1e6) : 0.0;
}

// The encoder and head rebuilt layer by layer, mirroring nn::GatEncoder
// (hidden layer: concatenated heads with fused bias + ELU; output layer:
// averaged heads) and core::EncoderWithHead (bias-free linear head).
class LayeredModel {
 public:
  LayeredModel(const nn::GatEncoderConfig& enc, int num_classes) {
    oi::Rng rng(0);  // overwritten by CopyValues
    nn::GatLayerConfig l1;
    l1.in_dim = enc.in_dim;
    l1.out_dim = enc.hidden_dim / enc.num_heads;
    l1.num_heads = enc.num_heads;
    l1.concat_heads = true;
    l1.attn_dropout = enc.attn_dropout;
    l1.fused_bias_elu = true;
    l1.exec = enc.exec;
    nn::GatLayerConfig l2;
    l2.in_dim = enc.hidden_dim;
    l2.out_dim = enc.embedding_dim;
    l2.num_heads = enc.num_heads;
    l2.concat_heads = false;
    l2.attn_dropout = enc.attn_dropout;
    l2.exec = enc.exec;
    gat1 = std::make_unique<nn::GatLayer>(l1, &rng);
    gat2 = std::make_unique<nn::GatLayer>(l2, &rng);
    head = std::make_unique<nn::Linear>(enc.embedding_dim, num_classes,
                                        /*use_bias=*/false, &rng, enc.exec);
    for (const nn::Module* m :
         {static_cast<const nn::Module*>(gat1.get()),
          static_cast<const nn::Module*>(gat2.get()),
          static_cast<const nn::Module*>(head.get())}) {
      params.insert(params.end(), m->parameters().begin(),
                    m->parameters().end());
    }
    dropout = enc.dropout;
  }

  // Dropout -> gat1 -> dropout -> gat2, as GatEncoder::Forward /
  // ForwardSampled chain them; `block` selects the sampled form.
  Variable Embed(Tracer* t, const graph::Graph* g,
                 const graph::SampledBlock* block, const Variable& x,
                 bool training, oi::Rng* rng) const {
    Variable h;
    {
      Scope s(t, "nn.dropout");
      h = ops::Dropout(x, dropout, training, rng);
    }
    {
      Scope s(t, "nn.gat1.fwd");
      h = block != nullptr
              ? gat1->ForwardSampled(block->layers[0], h, training, rng)
              : gat1->Forward(*g, h, training, rng);
    }
    {
      Scope s(t, "nn.dropout");
      h = ops::Dropout(h, dropout, training, rng);
    }
    {
      Scope s(t, "nn.gat2.fwd");
      h = block != nullptr
              ? gat2->ForwardSampled(block->layers[1], h, training, rng)
              : gat2->Forward(*g, h, training, rng);
    }
    return h;
  }

  void ZeroGrad() {
    gat1->ZeroGrad();
    gat2->ZeroGrad();
    head->ZeroGrad();
  }

  int64_t ParamBytes() const {
    return 4 * (gat1->NumParameters() + gat2->NumParameters() +
                head->NumParameters());
  }

  std::unique_ptr<nn::GatLayer> gat1;
  std::unique_ptr<nn::GatLayer> gat2;
  std::unique_ptr<nn::Linear> head;
  std::vector<Variable> params;  // gat1, gat2, head: EncoderWithHead order
  float dropout = 0.0f;
};

// Times proj (la::Matmul per head), attn (GatAttention[Sampled] per head)
// and, when `with_backward`, the layer's Backward on its own, for one GAT
// layer at the given input. Returns the projection FLOPs per call.
double ProbeGatLayer(Tracer* t, const nn::GatLayer& layer, int index,
                     const la::Matrix& x, const graph::Graph* g,
                     const graph::SampledLayer* slayer, bool with_backward,
                     oi::Rng* rng) {
  const std::string prefix = StrFormat("nn.gat%d.", index);
  const nn::GatLayerConfig& c = layer.config();
  const std::vector<Variable>& p = layer.parameters();
  for (int rep = 0; rep < kProbeReps; ++rep) {
    std::vector<la::Matrix> wh(static_cast<size_t>(c.num_heads));
    {
      Scope s(t, (prefix + "proj").c_str());
      for (int h = 0; h < c.num_heads; ++h) {
        wh[static_cast<size_t>(h)] =
            la::Matmul(x, p[static_cast<size_t>(3 * h)].value(), c.exec);
      }
    }
    std::vector<Variable> whv;
    for (la::Matrix& m : wh) {
      whv.push_back(Variable::Leaf(std::move(m), /*requires_grad=*/false));
    }
    {
      Scope s(t, (prefix + "attn").c_str());
      for (int h = 0; h < c.num_heads; ++h) {
        const Variable& a_src = p[static_cast<size_t>(3 * h + 1)];
        const Variable& a_dst = p[static_cast<size_t>(3 * h + 2)];
        Variable out =
            slayer != nullptr
                ? nn::GatAttentionSampled(*slayer, whv[static_cast<size_t>(h)],
                                          a_src, a_dst, c.leaky_slope,
                                          c.attn_dropout, false, nullptr,
                                          c.exec)
                : nn::GatAttention(*g, whv[static_cast<size_t>(h)], a_src,
                                   a_dst, c.leaky_slope, c.attn_dropout, false,
                                   nullptr, c.exec);
      }
    }
    if (!with_backward) continue;
    // The hidden layer's input is the (constant) feature matrix; the output
    // layer's input is an activation that needs its own gradient.
    Variable xin = Variable::Leaf(x, /*requires_grad=*/index == 2);
    Variable out = slayer != nullptr
                       ? layer.ForwardSampled(*slayer, xin, true, rng)
                       : layer.Forward(*g, xin, true, rng);
    Variable loss = ops::SumAll(out);
    {
      Scope s(t, (prefix + "bwd").c_str());
      loss.Backward();
    }
  }
  return 2.0 * x.rows() * c.in_dim * c.out_dim * c.num_heads;
}

// The backend's square-GEMM ceiling (best of kProbeReps).
double PeakGemmGflops(Tracer* t) {
  oi::Rng rng(7);
  const la::Matrix a =
      la::Matrix::Uniform(kPeakGemmDim, kPeakGemmDim, -1.0f, 1.0f, &rng);
  const la::Matrix b =
      la::Matrix::Uniform(kPeakGemmDim, kPeakGemmDim, -1.0f, 1.0f, &rng);
  for (int rep = 0; rep < kProbeReps; ++rep) {
    Scope s(t, "la.gemm_peak");
    la::Matrix c = la::Matmul(a, b);
  }
  const std::vector<double> ms = t->Durations("la.gemm_peak");
  const double best = *std::min_element(ms.begin(), ms.end());
  return Gflops(2.0 * kPeakGemmDim * kPeakGemmDim * kPeakGemmDim, best);
}

// ---------------------------------------------------------------------------
// Training replay.
// ---------------------------------------------------------------------------

class TrainReplay {
 public:
  TrainReplay(const Fixture& f, const core::OpenImaModel& trained,
              uint64_t seed, Tracer* tracer, Report* report)
      : f_(f),
        cfg_(trained.config()),
        mb_ctx_(cfg_.workers > 0 ? &replica_ctx_ : cfg_.exec),
        stats_(trained.train_stats()),
        tracer_(tracer),
        report_(report),
        rng_(oi::DeriveStreamSeed(seed, kReplayStream)),
        eval_model_(cfg_.encoder, cfg_.num_classes(), &rng_),
        layered_(MicrobatchEncoder(cfg_.encoder, mb_ctx_), cfg_.num_classes()),
        adam_(layered_.params, AdamOptionsOf(cfg_)) {
    for (int v : f.split.train_nodes) {
      train_nodes_.push_back(v);
      train_labels_.push_back(
          f.split.remapped_labels[static_cast<size_t>(v)]);
    }
    ce_labels_ = train_labels_;
    ce_labels_.insert(ce_labels_.end(), train_labels_.begin(),
                      train_labels_.end());
    train_label_of_.assign(static_cast<size_t>(f.dataset.num_nodes()), -1);
    for (size_t i = 0; i < train_nodes_.size(); ++i) {
      train_label_of_[static_cast<size_t>(train_nodes_[i])] = train_labels_[i];
    }
    if (cfg_.sampled_training) {
      graph::SamplerConfig sc;
      sc.num_layers = 2;
      sc.fanout = cfg_.sample_fanout;
      sc.seed = oi::DeriveStreamSeed(seed, kReplayStream);
      sampler_ = std::make_unique<graph::NeighborSampler>(&f.dataset.graph, sc);
    }
    // Load the trained weights and prove the layer-by-layer copy computes
    // the trained model's embeddings.
    report_->Check(
        CopyValues(trained.model().parameters(), layered_.params).ok(),
        "copy trained weights");
    const la::Matrix program = trained.model().EvalEmbeddings(f.dataset);
    const Variable mine = layered_.Embed(
        nullptr, &f.dataset.graph, nullptr,
        Variable::Leaf(f.dataset.features, false), false, nullptr);
    report_->Check(SameBits(program, mine.value()),
                   "layer-by-layer replay reproduces EvalEmbeddings bit for "
                   "bit");
    const int w = std::max(1, cfg_.workers);
    slots_.resize(static_cast<size_t>(w));
    replicas_.resize(static_cast<size_t>(w));
    for (int s = 0; s < w; ++s) {
      for (const Variable& p : layered_.params) {
        slots_[static_cast<size_t>(s)].emplace_back(p.rows(), p.cols());
        replicas_[static_cast<size_t>(s)].emplace_back(p.rows(), p.cols());
      }
    }
  }

  // A cold refresh for the warm-start centers, then kWarmUnits untraced
  // units.
  void WarmUp() {
    report_->Check(CopyValues(layered_.params, eval_model_.parameters()).ok(),
                   "copy replay weights");
    Refresh();
    for (int i = 0; i < kWarmUnits; ++i) RunUnit();
  }

  // One unit of work; returns its wall time (ms).
  double RunUnit() {
    if (cfg_.workers > 0) return RunRound();
    if (cfg_.sampled_training) return RunMicrobatchUnit();
    report_->Check(CopyValues(layered_.params, eval_model_.parameters()).ok(),
                   "copy replay weights");
    const auto t0 = std::chrono::steady_clock::now();
    {
      Scope unit(tracer_, "unit.epoch");
      Refresh();
      FullStep();
    }
    return SecondsSince(t0) * 1e3;
  }

  // Sampled workloads replay the refresh as a unit of its own.
  void RunRefreshUnit() {
    report_->Check(CopyValues(layered_.params, eval_model_.parameters()).ok(),
                   "copy replay weights");
    Scope unit(tracer_, "unit.refresh");
    Refresh();
  }

  void Probes();
  void Fill(double real_epoch_ms, double overhead);

 private:
  static nn::GatEncoderConfig MicrobatchEncoder(nn::GatEncoderConfig enc,
                                                const exec::Context* ctx) {
    enc.exec = ctx;
    return enc;
  }

  static nn::AdamOptions AdamOptionsOf(const core::OpenImaConfig& c) {
    nn::AdamOptions o;
    o.lr = c.lr;
    o.weight_decay = c.weight_decay;
    return o;
  }

  // Mirrors OpenImaModel::ComputeRefresh: eval embeddings, row
  // normalization, bias-reduced pseudo labels warm-started from the last
  // refresh's centers.
  void Refresh() {
    Scope refresh(tracer_, "core.refresh");
    la::Matrix emb = [&] {
      Scope s(tracer_, "core.eval_embed");
      return eval_model_.EvalEmbeddings(f_.dataset);
    }();
    {
      Scope s(tracer_, "la.normalize");
      la::RowL2NormalizeInPlace(&emb, 1e-12f, cfg_.exec);
    }
    core::PseudoLabelOptions pl;
    pl.clusterer = cfg_.clusterer;
    pl.num_clusters = cfg_.num_classes();
    pl.select_rate_pct = cfg_.rho_pct;
    pl.kmeans.max_iterations = cfg_.kmeans_max_iterations;
    pl.kmeans.num_init = cfg_.kmeans_num_init;
    pl.kmeans.exec = cfg_.exec;
    pl.use_minibatch = cfg_.large_graph_mode;
    pl.minibatch.batch_size = cfg_.minibatch_kmeans_batch;
    pl.minibatch.max_iterations = cfg_.minibatch_kmeans_iterations;
    pl.minibatch.exec = cfg_.exec;
    pl.warm_start_centers = centers_;
    auto result = [&] {
      Scope s(tracer_, "core.pseudo_labels");
      return core::GenerateBiasReducedPseudoLabels(
          emb, train_nodes_, train_labels_, cfg_.num_seen, pl, &rng_);
    }();
    report_->Count(result.status(), "GenerateBiasReducedPseudoLabels");
    if (!result.ok()) return;
    warm_used_ = std::move(centers_);
    centers_ = std::move(result->centers);
    cl_labels_ = std::move(result->labels);
    last_emb_ = std::move(emb);
  }

  // Mirrors OpenImaModel::TrainOneEpoch (full graph, no large-graph
  // pairwise term): two dropout views, head logits, SupCon over shuffled
  // contrastive blocks on embeddings and logits, CE on labeled nodes, one
  // backward and one Adam step.
  void FullStep() {
    Scope step(tracer_, "train.step");
    const graph::Dataset& ds = f_.dataset;
    const int n = ds.num_nodes();
    const int nb = std::max(2, std::min(cfg_.batch_size, n));
    Variable z1, z2, logits1, logits2;
    {
      Scope s(tracer_, "forward");
      z1 = layered_.Embed(tracer_, &ds.graph, nullptr,
                          Variable::Leaf(ds.features, false), true, &rng_);
      z2 = layered_.Embed(tracer_, &ds.graph, nullptr,
                          Variable::Leaf(ds.features, false), true, &rng_);
      {
        Scope h(tracer_, "nn.head.fwd");
        logits1 = layered_.head->Forward(z1);
      }
      {
        Scope h(tracer_, "nn.head.fwd");
        logits2 = layered_.head->Forward(z2);
      }
    }
    std::vector<int> order(static_cast<size_t>(n));
    std::iota(order.begin(), order.end(), 0);
    rng_.Shuffle(&order);
    const int num_blocks = (n + nb - 1) / nb;
    const float block_scale = 1.0f / static_cast<float>(num_blocks);
    Variable total;
    auto add = [&total](const Variable& piece) {
      total = total.defined() ? ops::Add(total, piece) : piece;
    };
    {
      Scope s(tracer_, "losses");
      for (int blk = 0; blk < num_blocks; ++blk) {
        const int begin = blk * nb;
        const int end = std::min(n, begin + nb);
        if (end - begin < 2) continue;
        const std::vector<int> nodes(order.begin() + begin,
                                     order.begin() + end);
        const auto positives = Positives(nodes);
        {
          Scope c(tracer_, "loss.supcon_emb");
          add(ops::Scale(ops::NormalizedSupCon(
                             ops::ConcatRows({ops::GatherRows(z1, nodes),
                                              ops::GatherRows(z2, nodes)}),
                             positives, cfg_.tau, 1e-12f, cfg_.exec),
                         block_scale));
        }
        {
          Scope c(tracer_, "loss.supcon_logit");
          add(ops::Scale(ops::NormalizedSupCon(
                             ops::ConcatRows({ops::GatherRows(logits1, nodes),
                                              ops::GatherRows(logits2, nodes)}),
                             positives, cfg_.tau, 1e-12f, cfg_.exec),
                         block_scale));
        }
      }
      Scope c(tracer_, "autograd.ce");
      add(ops::Scale(
          ops::SoftmaxCrossEntropy(
              ops::ConcatRows({ops::GatherRows(logits1, train_nodes_),
                               ops::GatherRows(logits2, train_nodes_)}),
              ce_labels_),
          cfg_.eta));
    }
    {
      Scope s(tracer_, "autograd.backward");
      layered_.ZeroGrad();
      total.Backward();
    }
    Scope s(tracer_, "nn.adam.step");
    adam_.Step();
  }

  std::vector<std::vector<int>> Positives(const std::vector<int>& nodes) {
    std::vector<int> labels;
    labels.reserve(nodes.size());
    for (int v : nodes) labels.push_back(cl_labels_[static_cast<size_t>(v)]);
    Scope s(tracer_, "core.positive_sets");
    return core::BuildPositiveSets(labels);
  }

  // The next batch of seed nodes from a shuffled order, as the sampled
  // trainers draw them.
  std::vector<int> NextSeeds() {
    const int n = f_.dataset.num_nodes();
    const int bn = std::max(2, std::min(cfg_.batch_nodes, n));
    if (order_.empty() || cursor_ + bn > n) {
      order_.resize(static_cast<size_t>(n));
      std::iota(order_.begin(), order_.end(), 0);
      rng_.Shuffle(&order_);
      cursor_ = 0;
    }
    std::vector<int> seeds(order_.begin() + cursor_,
                           order_.begin() + cursor_ + bn);
    cursor_ += bn;
    return seeds;
  }

  // Mirrors OpenImaModel::RunSampledMicrobatch in large-graph mode:
  // sample, gather, two dropout views of the block, SupCon on embeddings
  // and logits, the pairwise term, CE on labeled seeds, backward of the
  // loss scaled by `inv_round`.
  void Microbatch(const std::vector<int>& seeds, float inv_round) {
    const graph::Dataset& ds = f_.dataset;
    const int fd = ds.feature_dim();
    const uint64_t tag = next_tag_++;
    oi::Rng mb_rng(oi::DeriveStreamSeed(f_.model_seed, tag));
    graph::SampledBlock block = [&] {
      Scope s(tracer_, "graph.sample");
      return sampler_->Sample(seeds, tag, mb_ctx_);
    }();
    la::Matrix feats(block.num_input(), fd);
    {
      Scope s(tracer_, "la.gather");
      la::backend::Resolve(mb_ctx_)
          .GatherRows(ds.features.data(), fd, block.input_nodes.data(),
                      block.num_input(), fd, feats.data(), fd);
    }
    int64_t edges = 0;
    for (const graph::SampledLayer& l : block.layers) edges += l.num_edges();
    block_edges_.push_back(static_cast<double>(edges));
    gather_mib_.push_back(static_cast<double>(block.num_input()) * fd * 4 /
                          kMiB);
    {
      Variable z1, z2, logits1, logits2;
      {
        Scope s(tracer_, "forward");
        z1 = layered_.Embed(tracer_, nullptr, &block,
                            Variable::Leaf(feats, false), true, &mb_rng);
        z2 = layered_.Embed(tracer_, nullptr, &block,
                            Variable::Leaf(feats, false), true, &mb_rng);
        {
          Scope h(tracer_, "nn.head.fwd");
          logits1 = layered_.head->Forward(z1);
        }
        {
          Scope h(tracer_, "nn.head.fwd");
          logits2 = layered_.head->Forward(z2);
        }
      }
      const auto positives = Positives(seeds);
      Variable total;
      auto add = [&total](const Variable& piece) {
        total = total.defined() ? ops::Add(total, piece) : piece;
      };
      {
        Scope s(tracer_, "losses");
        {
          Scope c(tracer_, "loss.supcon_emb");
          add(ops::NormalizedSupCon(ops::ConcatRows({z1, z2}), positives,
                                    cfg_.tau, 1e-12f, mb_ctx_));
        }
        {
          Scope c(tracer_, "loss.supcon_logit");
          add(ops::NormalizedSupCon(ops::ConcatRows({logits1, logits2}),
                                    positives, cfg_.tau, 1e-12f, mb_ctx_));
        }
        {
          Scope c(tracer_, "loss.pairwise");
          add(ops::Scale(ops::PairwiseDotBce(logits1, NearestPeers(z1.value())),
                         cfg_.pairwise_loss_weight));
        }
        Scope c(tracer_, "autograd.ce");
        std::vector<int> local, labels;
        for (size_t i = 0; i < seeds.size(); ++i) {
          const int l = train_label_of_[static_cast<size_t>(seeds[i])];
          if (l >= 0) {
            local.push_back(static_cast<int>(i));
            labels.push_back(l);
          }
        }
        if (!local.empty()) {
          std::vector<int> both = labels;
          both.insert(both.end(), labels.begin(), labels.end());
          add(ops::Scale(
              ops::SoftmaxCrossEntropy(
                  ops::ConcatRows({ops::GatherRows(logits1, local),
                                   ops::GatherRows(logits2, local)}),
                  both),
              cfg_.eta));
        }
      }
      Scope s(tracer_, "autograd.backward");
      layered_.ZeroGrad();
      if (inv_round != 1.0f) {
        ops::Scale(total, inv_round).Backward();
      } else {
        total.Backward();
      }
    }
    last_block_ = std::move(block);
    last_feats_ = std::move(feats);
  }

  // The pairwise term's partners: each seed's most cosine-similar batch
  // peer under the first view's embeddings.
  static std::vector<ops::Pair> NearestPeers(const la::Matrix& z) {
    const int b = z.rows();
    const int d = z.cols();
    std::vector<float> norms(static_cast<size_t>(b));
    for (int a = 0; a < b; ++a) {
      double sq = 0.0;
      const float* row = z.Row(a);
      for (int j = 0; j < d; ++j) sq += static_cast<double>(row[j]) * row[j];
      norms[static_cast<size_t>(a)] =
          static_cast<float>(std::sqrt(std::max(sq, 1e-24)));
    }
    std::vector<ops::Pair> pairs;
    pairs.reserve(static_cast<size_t>(b));
    for (int a = 0; a < b; ++a) {
      const float* za = z.Row(a);
      int best = -1;
      float best_sim = -2.0f;
      for (int c = 0; c < b; ++c) {
        if (a == c) continue;
        const float* zc = z.Row(c);
        float dot = 0.0f;
        for (int j = 0; j < d; ++j) dot += za[j] * zc[j];
        const float sim = dot / (norms[static_cast<size_t>(a)] *
                                 norms[static_cast<size_t>(c)]);
        if (sim > best_sim) {
          best_sim = sim;
          best = c;
        }
      }
      pairs.push_back({a, best, 1.0f});
    }
    return pairs;
  }

  double RunMicrobatchUnit() {
    const std::vector<int> seeds = NextSeeds();
    const auto t0 = std::chrono::steady_clock::now();
    {
      Scope unit(tracer_, "unit.microbatch");
      Microbatch(seeds, 1.0f);
      Scope s(tracer_, "nn.adam.step");
      adam_.Step();
    }
    return SecondsSince(t0) * 1e3;
  }

  // One data-parallel round, run serially: W microbatches at loss / W, each
  // one's gradients parked in its slot, the fixed-topology tree reduction
  // over the slots, one Adam step on the reduced gradients, and the weight
  // broadcast to every replica.
  double RunRound() {
    const int w = cfg_.workers;
    std::vector<std::vector<int>> seeds;
    for (int i = 0; i < w; ++i) seeds.push_back(NextSeeds());
    const auto t0 = std::chrono::steady_clock::now();
    {
      Scope unit(tracer_, "unit.round");
      for (int i = 0; i < w; ++i) {
        {
          Scope m(tracer_, "unit.microbatch");
          Microbatch(seeds[static_cast<size_t>(i)], 1.0f / w);
        }
        Scope c(tracer_, "harness.grad_copy");
        for (size_t k = 0; k < layered_.params.size(); ++k) {
          const la::Matrix& g = layered_.params[k].grad();
          la::Matrix& dst = slots_[static_cast<size_t>(i)][k];
          std::copy(g.data(), g.data() + g.size(), dst.data());
        }
      }
      {
        Scope r(tracer_, "core.dp.allreduce");
        for (size_t s = 1; s < slots_.size(); s *= 2) {
          for (size_t i = 0; i + s < slots_.size(); i += 2 * s) {
            for (size_t k = 0; k < layered_.params.size(); ++k) {
              float* d = slots_[i][k].data();
              const float* src = slots_[i + s][k].data();
              const int64_t n = slots_[i][k].size();
              for (int64_t e = 0; e < n; ++e) d[e] += src[e];
            }
          }
        }
      }
      {
        Scope a(tracer_, "nn.adam.step");
        std::vector<const la::Matrix*> grads;
        for (const la::Matrix& g : slots_[0]) grads.push_back(&g);
        adam_.Step(grads);
      }
      Scope b(tracer_, "core.dp.broadcast");
      for (auto& replica : replicas_) {
        for (size_t k = 0; k < layered_.params.size(); ++k) {
          const la::Matrix& v = layered_.params[k].value();
          std::copy(v.data(), v.data() + v.size(), replica[k].data());
        }
      }
    }
    return SecondsSince(t0) * 1e3;
  }

  const Fixture& f_;
  const core::OpenImaConfig cfg_;
  // Data-parallel replicas run their microbatches on one-thread contexts;
  // the replay's microbatches do too, so its round matches theirs.
  exec::Context replica_ctx_{1};
  const exec::Context* mb_ctx_;
  const core::TrainStats stats_;  // of the trained model
  Tracer* tracer_;
  Report* report_;
  oi::Rng rng_;
  core::EncoderWithHead eval_model_;  // EvalEmbeddings at replay weights
  LayeredModel layered_;              // the model the replay trains
  nn::Adam adam_;
  std::unique_ptr<graph::NeighborSampler> sampler_;

  std::vector<int> train_nodes_, train_labels_, ce_labels_, train_label_of_;
  std::vector<int> cl_labels_;
  la::Matrix centers_;    // warm start of the next refresh
  la::Matrix warm_used_;  // warm start the last refresh used
  la::Matrix last_emb_;   // last refresh's normalized embeddings
  std::vector<int> order_;
  int cursor_ = 0;
  uint64_t next_tag_ = 0;
  graph::SampledBlock last_block_;
  la::Matrix last_feats_;
  std::vector<double> block_edges_, gather_mib_;
  std::vector<std::vector<la::Matrix>> slots_;     // per-microbatch grads
  std::vector<std::vector<la::Matrix>> replicas_;  // broadcast targets
  double gemm_gflops_ = 0.0;
  double gemm_peak_gflops_ = 0.0;
  double kmeans_iters_ = 0.0;
  double prune_ratio_ = 0.0;
};

void TrainReplay::Probes() {
  const graph::Dataset& ds = f_.dataset;
  const bool sampled = cfg_.sampled_training;
  // GAT layers at the workload's shapes: the full graph, or the last
  // microbatch's block.
  const la::Matrix& x1 = sampled ? last_feats_ : ds.features;
  const la::Matrix x2 = [&] {
    Variable h = Variable::Leaf(x1, false);
    return sampled ? layered_.gat1->ForwardSampled(last_block_.layers[0], h,
                                                   false, nullptr)
                         .value()
                   : layered_.gat1->Forward(ds.graph, h, false, nullptr)
                         .value();
  }();
  const double flops1 = ProbeGatLayer(
      tracer_, *layered_.gat1, 1, x1, &ds.graph,
      sampled ? &last_block_.layers[0] : nullptr, true, &rng_);
  const double flops2 = ProbeGatLayer(
      tracer_, *layered_.gat2, 2, x2, &ds.graph,
      sampled ? &last_block_.layers[1] : nullptr, true, &rng_);
  gemm_gflops_ =
      Gflops(flops1 + flops2, MedianMs(*tracer_, "nn.gat1.proj") +
                                  MedianMs(*tracer_, "nn.gat2.proj"));

  // SupCon at the contrastive block: 2 x Nb rows.
  const int n = ds.num_nodes();
  const int nb =
      std::max(2, std::min(sampled ? cfg_.batch_nodes : cfg_.batch_size, n));
  std::vector<int> nodes(static_cast<size_t>(n));
  std::iota(nodes.begin(), nodes.end(), 0);
  rng_.Shuffle(&nodes);
  nodes.resize(static_cast<size_t>(nb));
  const auto positives = Positives(nodes);
  const la::Matrix rows = la::GatherRows(last_emb_, nodes, cfg_.exec);
  for (int rep = 0; rep < kProbeReps; ++rep) {
    Variable zb = Variable::Leaf(la::VStack(rows, rows), true);
    Variable loss = [&] {
      Scope s(tracer_, "autograd.supcon_fwd");
      return ops::NormalizedSupCon(zb, positives, cfg_.tau, 1e-12f, cfg_.exec);
    }();
    Scope s(tracer_, "autograd.supcon_bwd");
    loss.Backward();
  }

  // Clustering and alignment on the last refresh's embeddings, from the
  // warm start that refresh used.
  const int k = cfg_.num_classes();
  const bool warm = warm_used_.rows() == k;
  std::vector<int> assignments;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    oi::Rng probe_rng(oi::DeriveStreamSeed(f_.model_seed, 99));
    if (cfg_.large_graph_mode) {
      cluster::MiniBatchKMeansOptions o;
      o.num_clusters = k;
      o.batch_size = cfg_.minibatch_kmeans_batch;
      o.max_iterations = cfg_.minibatch_kmeans_iterations;
      o.exec = cfg_.exec;
      if (warm) o.initial_centers = warm_used_;
      auto km = [&] {
        Scope s(tracer_, "cluster.minibatch_kmeans");
        return cluster::MiniBatchKMeans(last_emb_, o, &probe_rng);
      }();
      report_->Count(km.status(), "MiniBatchKMeans");
      if (!km.ok()) return;
      assignments = std::move(km->assignments);
    } else {
      cluster::KMeansOptions o;
      o.num_clusters = k;
      o.max_iterations = cfg_.kmeans_max_iterations;
      o.num_init = cfg_.kmeans_num_init;
      o.exec = cfg_.exec;
      if (warm) o.initial_centers = warm_used_;
      auto km = [&] {
        Scope s(tracer_, "cluster.kmeans");
        return cluster::KMeans(last_emb_, o, &probe_rng);
      }();
      report_->Count(km.status(), "KMeans");
      if (!km.ok()) return;
      kmeans_iters_ = km->iterations;
      const double tries =
          static_cast<double>(km->bound_prunes + km->bound_failures);
      prune_ratio_ = tries > 0 ? km->bound_prunes / tries : 0.0;
      assignments = std::move(km->assignments);
    }
    std::vector<int> clusters;
    for (int v : train_nodes_) {
      clusters.push_back(assignments[static_cast<size_t>(v)]);
    }
    auto aligned = [&] {
      Scope s(tracer_, "assign.align");
      return oi::assign::AlignClustersWithLabels(clusters, train_labels_, k,
                                                 cfg_.num_seen);
    }();
    report_->Count(aligned.status(), "AlignClustersWithLabels");
  }
  gemm_peak_gflops_ = PeakGemmGflops(tracer_);
}

void TrainReplay::Fill(double real_epoch_ms, double overhead) {
  const Tracer& t = *tracer_;
  Report* r = report_;
  const bool sampled = cfg_.sampled_training;
  if (sampled) {
    SetLayer(r, "graph.sample_ms", MedianMs(t, "graph.sample"));
    SetLayer(r, "graph.block_edges", Median(block_edges_));
    SetLayer(r, "la.gather_ms", MedianMs(t, "la.gather"));
    SetLayer(r, "la.gather_mib", Median(gather_mib_));
  }
  SetLayer(r, "la.gemm_gflops", gemm_gflops_);
  SetLayer(r, "la.gemm_peak_gflops", gemm_peak_gflops_);
  SetLayer(r, "la.pool_high_water_mib",
           static_cast<double>(stats_.pool_stats.bytes_allocated) / kMiB);
  if (!stats_.epoch_unpooled_allocs.empty()) {
    SetLayer(r, "la.steady_allocs",
             static_cast<double>(stats_.epoch_unpooled_allocs.back() +
                                 stats_.epoch_pool_misses.back()));
  }
  for (const char* layer : {"nn.gat1.", "nn.gat2."}) {
    const std::string p = layer;
    for (const char* what : {"proj", "attn", "fwd", "bwd"}) {
      SetLayer(r, p + what + "_ms", MedianMs(t, p + what));
    }
    SetLayer(r, p + "fwd_mib", MedianMib(t, p + "fwd"));
    SetLayer(r, p + "bwd_mib", MedianMib(t, p + "bwd"));
  }
  SetLayer(r, "nn.head.fwd_ms", MedianMs(t, "nn.head.fwd"));
  SetLayer(r, "nn.adam.step_ms", MedianMs(t, "nn.adam.step"));
  SetLayer(r, "autograd.supcon_fwd_ms", MedianMs(t, "autograd.supcon_fwd"));
  SetLayer(r, "autograd.supcon_bwd_ms", MedianMs(t, "autograd.supcon_bwd"));
  SetLayer(r, "autograd.supcon_mib",
           MedianMib(t, "autograd.supcon_fwd") +
               MedianMib(t, "autograd.supcon_bwd"));
  SetLayer(r, "autograd.ce_ms", MedianMs(t, "autograd.ce"));
  SetLayer(r, "autograd.backward_ms", MedianMs(t, "autograd.backward"));
  const char* step = cfg_.workers > 0 ? "unit.round"
                     : sampled        ? "unit.microbatch"
                                      : "train.step";
  SetLayer(r, "autograd.tape_nodes", Median(t.TapeNodes(step)));
  SetLayer(r, "autograd.eval_tape_nodes",
           Median(t.TapeNodes("core.eval_embed")));
  SetLayer(r, "core.eval_embed_ms", MedianMs(t, "core.eval_embed"));
  SetLayer(r, "core.eval_embed_mib", MedianMib(t, "core.eval_embed"));
  SetLayer(r, "core.pseudo_labels_ms", MedianMs(t, "core.pseudo_labels"));
  if (cfg_.large_graph_mode) {
    SetLayer(r, "cluster.minibatch_kmeans_ms",
             MedianMs(t, "cluster.minibatch_kmeans"));
  } else {
    SetLayer(r, "cluster.kmeans_ms", MedianMs(t, "cluster.kmeans"));
    SetLayer(r, "cluster.kmeans_iters", kmeans_iters_);
    SetLayer(r, "cluster.prune_ratio", prune_ratio_);
  }
  SetLayer(r, "assign.align_ms", MedianMs(t, "assign.align"));

  // Coverage: the replayed spans' account of one real epoch.
  const int n = f_.dataset.num_nodes();
  const int bn = std::max(2, std::min(cfg_.batch_nodes, n));
  const int batches = (n + bn - 1) / bn;
  const double refresh_share =
      static_cast<double>(cfg_.epochs - cfg_.pseudo_warmup_epochs) /
      cfg_.epochs;
  double explained = 0.0;
  if (cfg_.workers > 0) {
    // Replicas run a round's microbatches in parallel: the round's
    // critical path is its slowest microbatch plus the serial reduce, step
    // and broadcast; replicas idle for the rest.
    const int w = cfg_.workers;
    const std::vector<double> mb = t.Durations("unit.microbatch");
    const std::vector<double> reduce = t.Durations("core.dp.allreduce");
    const std::vector<double> adam = t.Durations("nn.adam.step");
    const std::vector<double> bcast = t.Durations("core.dp.broadcast");
    std::vector<double> critical;
    double idle = 0.0, busy_span = 0.0;
    for (size_t round = 0; round < reduce.size(); ++round) {
      double slowest = 0.0, sum = 0.0;
      for (int i = 0; i < w; ++i) {
        const double ms = mb[round * w + static_cast<size_t>(i)];
        slowest = std::max(slowest, ms);
        sum += ms;
      }
      const double serial = reduce[round] + adam[round] + bcast[round];
      critical.push_back(slowest + serial);
      idle += w * (slowest + serial) - sum;
      busy_span += w * (slowest + serial);
    }
    const int rounds = (batches + w - 1) / w;
    explained = rounds * Median(critical);
    SetLayer(r, "core.dp.rounds", rounds);
    SetLayer(r, "core.dp.allreduce_mib",
             rounds * (w - 1) * static_cast<double>(layered_.ParamBytes()) /
                 kMiB);
    SetLayer(r, "core.dp.idle_share", busy_span > 0 ? idle / busy_span : 0.0);
  } else if (sampled) {
    explained = batches * MedianChildrenMs(t, "unit.microbatch") +
                refresh_share * MedianChildrenMs(t, "core.refresh");
  } else {
    explained = MedianChildrenMs(t, "train.step") +
                refresh_share * MedianChildrenMs(t, "core.refresh");
  }
  SetLayer(r, "trace.coverage", explained / real_epoch_ms);
  SetLayer(r, "trace.overhead", overhead);
}

// Prints the per-layer table, self-checks the trace and writes it out.
void FinishTrace(const Tracer& tracer, const Args& args, Report* report) {
  for (const std::string& line : tracer.Table()) {
    std::printf("%s\n", line.c_str());
  }
  const Status check = tracer.SelfCheck();
  report->Check(check.ok(), "trace self-check: " + check.ToString());
  const std::string path =
      StrFormat("%s/trace-%s-%llu.json", args.out_dir.c_str(),
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed));
  report->Check(tracer.WriteJson(path).ok(), "write " + path);
}

}  // namespace

void TraceTrainingWorkload(const WorkloadSpec& spec, const Args& args,
                           Report* report) {
  ZeroLayerMetrics(report);
  auto made = MakeFixture(spec, args.seed);
  if (!made.ok()) {
    report->Check(false, "fixture: " + made.status().ToString());
    return;
  }
  const Fixture& f = **made;
  // One untraced Train + Predict: the trained state the replay starts from,
  // the real epoch time the trace is read against, and the Predict
  // checksum compared with the untraced runs of the same seed.
  TrainOutcome trained = TrainAndPredict(f, /*inference_calls=*/0, report);
  if (trained.predictions.empty()) return;
  report->checksum = Checksum(trained.predictions);
  report->Check(trained.acc_all > ChanceFloor(f.split.num_total_classes()),
                "acc_all above the chance floor");
  const double real_epoch_ms = trained.train_s * 1e3 / spec.epochs;

  la::Pool pool;
  autograd::Tape tape;
  Tracer tracer(&pool, &tape);
  {
    la::PoolBinding pool_binding(&pool);
    autograd::TapeBinding tape_binding(&tape);
    TrainReplay replay(f, *trained.model, args.seed, &tracer, report);
    trained.model.reset();  // the replay holds copies of what it needs
    tracer.set_enabled(false);
    replay.WarmUp();
    std::vector<double> untraced, traced;
    for (int i = 0; i < kTimedUnits; ++i) untraced.push_back(replay.RunUnit());
    tracer.set_enabled(true);
    for (int i = 0; i < kTimedUnits; ++i) traced.push_back(replay.RunUnit());
    if (spec.sampled) {
      for (int i = 0; i < 2; ++i) replay.RunRefreshUnit();
    }
    replay.Probes();
    replay.Fill(real_epoch_ms, Median(traced) / Median(untraced));
  }
  FinishTrace(tracer, args, report);
}

ServeReplay::ServeReplay(const ServeFixture& fixture, Tracer* tracer)
    : fixture_(fixture), tracer_(tracer) {
  graph::SamplerConfig sc;
  sc.num_layers = 2;
  sc.fanout = 0;  // the service's exact 2-hop neighborhoods
  sc.seed = 0;
  sampler_ = std::make_unique<graph::NeighborSampler>(
      &fixture.fixture->dataset.graph, sc);
}

std::vector<int> ServeReplay::Classify(const std::vector<int>& nodes,
                                       uint64_t tag) {
  const graph::Dataset& ds = fixture_.fixture->dataset;
  const core::InferenceService& service = *fixture_.service;
  const int fd = ds.feature_dim();
  std::vector<int> classes;
  Scope unit(tracer_, "unit.request");
  {
    Scope s(tracer_, "graph.sample");
    block_ = sampler_->Sample(nodes, tag);
  }
  features_ = la::Matrix(block_.num_input(), fd);
  {
    Scope s(tracer_, "la.gather");
    la::backend::Default().GatherRows(ds.features.data(), fd,
                                      block_.input_nodes.data(),
                                      block_.num_input(), fd,
                                      features_.data(), fd);
  }
  la::Matrix emb = [&] {
    Scope s(tracer_, "core.embed_sampled");
    return fixture_.model->model()
        .EmbedSampled(block_, features_, /*training=*/false, nullptr)
        .value();
  }();
  {
    Scope s(tracer_, "la.normalize");
    la::RowL2NormalizeInPlace(&emb, 1e-12f);
  }
  const la::Matrix dist = [&] {
    Scope s(tracer_, "la.distance");
    return la::PairwiseSquaredDistances(emb, service.centers());
  }();
  Scope s(tracer_, "serve.nearest_center");
  for (int i = 0; i < dist.rows(); ++i) {
    const float* row = dist.Row(i);
    int best = 0;
    for (int c = 1; c < dist.cols(); ++c) {
      if (row[c] < row[best]) best = c;
    }
    classes.push_back(
        service.cluster_to_final_class()[static_cast<size_t>(best)]);
  }
  return classes;
}

void TraceServeWorkload(const Args& args, Report* report) {
  ZeroLayerMetrics(report);
  auto made = MakeServeFixture(args, report);
  if (!made.ok()) {
    report->Check(false, "serve fixture: " + made.status().ToString());
    return;
  }
  const ServeFixture& sf = *made;
  const graph::Dataset& ds = sf.fixture->dataset;

  // Untraced Classify over the request stream: the class ids the replay
  // must reproduce, the checksum compared with untraced runs of the same
  // seed, the per-request time the trace is read against, and the
  // allocations a warmed request still makes.
  RequestStream stream(args.seed, ds.num_nodes(), kServeBatch);
  std::vector<std::vector<int>> requests;
  for (int r = 0; r < kServeTimedUnits; ++r) requests.push_back(stream.Next());
  std::vector<int> served;
  std::vector<double> classify_ms;
  std::vector<core::ClassifyResult> out;
  const int64_t allocs_before = la::UnpooledAllocCount();
  for (size_t r = 0; r < requests.size(); ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    const Status s = sf.session->Classify(requests[r], r, &out);
    classify_ms.push_back(SecondsSince(t0) * 1e3);
    report->Count(s, "Classify");
    if (!s.ok()) return;
    for (const auto& c : out) served.push_back(c.class_id);
  }
  const double allocs_per_request =
      static_cast<double>(la::UnpooledAllocCount() - allocs_before) /
      static_cast<double>(requests.size());
  report->checksum = Checksum(
      std::vector<int>(served.begin(), served.begin() + 16 * kServeBatch));

  la::Pool pool;
  autograd::Tape tape;
  Tracer tracer(&pool, &tape);
  {
    la::PoolBinding pool_binding(&pool);
    autograd::TapeBinding tape_binding(&tape);
    ServeReplay replay(sf, &tracer);
    tracer.set_enabled(false);
    for (int i = 0; i < kWarmUnits; ++i) replay.Classify(requests[0], 0);
    std::vector<double> untraced, traced;
    std::vector<int> replayed;
    for (int pass = 0; pass < 2; ++pass) {
      tracer.set_enabled(pass == 1);
      for (size_t r = 0; r < requests.size(); ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        const std::vector<int> ids = replay.Classify(requests[r], r);
        (pass == 0 ? untraced : traced).push_back(SecondsSince(t0) * 1e3);
        if (pass == 1) replayed.insert(replayed.end(), ids.begin(), ids.end());
      }
    }
    report->Check(replayed == served,
                  "traced replay of serve requests matches Classify");

    // Layer probes on the last request's block (eval mode, forward only).
    LayeredModel layered(sf.model->config().encoder,
                         sf.model->config().num_classes());
    report->Check(
        CopyValues(sf.model->model().parameters(), layered.params).ok(),
        "copy trained weights");
    const graph::SampledBlock& block = replay.last_block();
    const la::Matrix& x1 = replay.last_features();
    Variable z;
    for (int rep = 0; rep < kProbeReps; ++rep) {
      z = layered.Embed(&tracer, nullptr, &block, Variable::Leaf(x1, false),
                        false, nullptr);
    }
    const la::Matrix program =
        sf.model->model().EmbedSampled(block, x1, false, nullptr).value();
    report->Check(SameBits(program, z.value()),
                  "layer-by-layer replay reproduces EmbedSampled bit for bit");
    const la::Matrix x2 = layered.gat1
                              ->ForwardSampled(block.layers[0],
                                               Variable::Leaf(x1, false),
                                               false, nullptr)
                              .value();
    oi::Rng rng(oi::DeriveStreamSeed(args.seed, kReplayStream));
    const double flops =
        ProbeGatLayer(&tracer, *layered.gat1, 1, x1, nullptr,
                      &block.layers[0], false, &rng) +
        ProbeGatLayer(&tracer, *layered.gat2, 2, x2, nullptr,
                      &block.layers[1], false, &rng);
    const double gemm_ms =
        MedianMs(tracer, "nn.gat1.proj") + MedianMs(tracer, "nn.gat2.proj");
    SetLayer(report, "la.gemm_gflops", Gflops(flops, gemm_ms));
    SetLayer(report, "la.gemm_peak_gflops", PeakGemmGflops(&tracer));

    int64_t edges = 0;
    for (const graph::SampledLayer& l : block.layers) edges += l.num_edges();
    SetLayer(report, "graph.block_edges", static_cast<double>(edges));
    SetLayer(report, "la.gather_mib",
             static_cast<double>(block.num_input()) * ds.feature_dim() * 4 /
                 kMiB);
    SetLayer(report, "trace.overhead", Median(traced) / Median(untraced));
    SetLayer(report, "trace.coverage",
             MedianChildrenMs(tracer, "unit.request") / Median(classify_ms));
  }
  const Tracer& t = tracer;
  SetLayer(report, "graph.sample_ms", MedianMs(t, "graph.sample"));
  SetLayer(report, "la.gather_ms", MedianMs(t, "la.gather"));
  SetLayer(report, "la.distance_ms", MedianMs(t, "la.distance"));
  SetLayer(report, "la.steady_allocs", allocs_per_request);
  for (const char* layer : {"nn.gat1.", "nn.gat2."}) {
    const std::string p = layer;
    for (const char* what : {"proj", "attn", "fwd"}) {
      SetLayer(report, p + what + "_ms", MedianMs(t, p + what));
    }
    SetLayer(report, p + "fwd_mib", MedianMib(t, p + "fwd"));
  }
  SetLayer(report, "autograd.tape_nodes",
           Median(t.TapeNodes("core.embed_sampled")));
  SetLayer(report, "core.embed_sampled_ms", MedianMs(t, "core.embed_sampled"));
  SetLayer(report, "io.save_ms", sf.save_ms);
  SetLayer(report, "io.load_ms", sf.load_ms);
  SetLayer(report, "io.checkpoint_mib", sf.checkpoint_mib);
  FinishTrace(tracer, args, report);
}

}  // namespace perfbench

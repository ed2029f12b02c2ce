#include "src/core/serve.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "src/assign/cluster_alignment.h"
#include "src/io/checkpoint.h"
#include "src/la/backend/backend.h"
#include "src/la/matrix_ops.h"
#include "src/obs/obs.h"
#include "src/util/string_util.h"

namespace openima::core {

namespace {

// Reads one field group of the checkpoint's meta section (the writer is
// OpenImaModel::SaveCheckpoint in model_checkpoint.cc; byte layout in
// SERVING.md).
struct CheckpointMeta {
  uint64_t seed = 0;
  uint8_t arch = 0;
  int32_t in_dim = 0;
  int32_t hidden_dim = 0;
  int32_t embedding_dim = 0;
  int32_t num_heads = 0;
  int32_t num_seen = 0;
  int32_t num_novel = 0;
  int32_t workers = 0;
  int32_t epochs_done = 0;
};

Status ReadMeta(const io::CheckpointReader& reader, CheckpointMeta* out) {
  auto src_or = reader.Section("meta");
  if (!src_or.ok()) return src_or.status();
  io::ByteSource src = std::move(*src_or);
  OPENIMA_RETURN_IF_ERROR(src.ReadU64(&out->seed));
  OPENIMA_RETURN_IF_ERROR(src.ReadU8(&out->arch));
  OPENIMA_RETURN_IF_ERROR(src.ReadI32(&out->in_dim));
  OPENIMA_RETURN_IF_ERROR(src.ReadI32(&out->hidden_dim));
  OPENIMA_RETURN_IF_ERROR(src.ReadI32(&out->embedding_dim));
  OPENIMA_RETURN_IF_ERROR(src.ReadI32(&out->num_heads));
  OPENIMA_RETURN_IF_ERROR(src.ReadI32(&out->num_seen));
  OPENIMA_RETURN_IF_ERROR(src.ReadI32(&out->num_novel));
  OPENIMA_RETURN_IF_ERROR(src.ReadI32(&out->workers));
  OPENIMA_RETURN_IF_ERROR(src.ReadI32(&out->epochs_done));
  return src.ExpectEnd();
}

}  // namespace

StatusOr<std::unique_ptr<InferenceService>> InferenceService::Load(
    const std::string& checkpoint_path, const graph::Dataset* dataset,
    const ServeOptions& options) {
  if (dataset == nullptr) {
    return Status::InvalidArgument("serve requires a dataset (graph+features)");
  }
  if (options.sample_fanout < 0) {
    return Status::InvalidArgument(StrFormat(
        "serve sample_fanout must be >= 0, got %d", options.sample_fanout));
  }
  auto reader_or = io::CheckpointReader::Open(checkpoint_path);
  if (!reader_or.ok()) return reader_or.status();
  const io::CheckpointReader& reader = *reader_or;

  CheckpointMeta meta;
  OPENIMA_RETURN_IF_ERROR(ReadMeta(reader, &meta));
  if (meta.in_dim != dataset->feature_dim()) {
    return Status::InvalidArgument(StrFormat(
        "checkpoint expects %d-dim features, dataset has %d",
        meta.in_dim, dataset->feature_dim()));
  }
  if (meta.arch != static_cast<uint8_t>(nn::EncoderArch::kGat)) {
    return Status::InvalidArgument(
        "serve requires a GAT checkpoint (sampled forward support)");
  }
  // The probe model below is built from this geometry, and the encoder
  // CHECK-aborts on an impossible one.
  if (meta.num_heads < 1 || meta.hidden_dim < 1 ||
      meta.hidden_dim % meta.num_heads != 0 || meta.embedding_dim < 1 ||
      meta.num_seen < 1 || meta.num_novel < 1) {
    return Status::InvalidArgument(StrFormat(
        "checkpoint geometry is impossible: hidden_dim %d, num_heads %d, "
        "embedding_dim %d, num_seen %d, num_novel %d (need num_heads >= 1, "
        "hidden_dim a positive multiple of num_heads, the rest >= 1)",
        meta.hidden_dim, meta.num_heads, meta.embedding_dim, meta.num_seen,
        meta.num_novel));
  }

  auto service = std::unique_ptr<InferenceService>(new InferenceService());
  service->dataset_ = dataset;
  service->options_ = options;
  service->num_seen_ = meta.num_seen;
  service->num_novel_ = meta.num_novel;
  service->epochs_done_ = meta.epochs_done;
  service->encoder_config_.arch = nn::EncoderArch::kGat;
  service->encoder_config_.in_dim = meta.in_dim;
  service->encoder_config_.hidden_dim = meta.hidden_dim;
  service->encoder_config_.embedding_dim = meta.embedding_dim;
  service->encoder_config_.num_heads = meta.num_heads;
  service->encoder_config_.dropout = 0.0f;  // eval-only; never sampled
  service->encoder_config_.attn_dropout = 0.0f;

  // Parameter tensors, validated against the rebuilt geometry by shape: a
  // throwaway replica provides the authoritative tensor list.
  Rng probe_rng(0);
  EncoderWithHead probe(service->encoder_config_,
                        meta.num_seen + meta.num_novel, &probe_rng);
  const std::vector<autograd::Variable>& probe_params = probe.parameters();
  auto psrc_or = reader.Section("params");
  if (!psrc_or.ok()) return psrc_or.status();
  io::ByteSource psrc = std::move(*psrc_or);
  uint32_t param_count = 0;
  OPENIMA_RETURN_IF_ERROR(psrc.ReadU32(&param_count));
  if (param_count != probe_params.size()) {
    return Status::InvalidArgument(StrFormat(
        "checkpoint parameter count mismatch: rebuilt model has %zu "
        "tensors, checkpoint holds %u",
        probe_params.size(), static_cast<unsigned>(param_count)));
  }
  service->weights_.reserve(probe_params.size());
  for (const auto& p : probe_params) {
    la::Matrix w;
    OPENIMA_RETURN_IF_ERROR(
        io::ReadMatrixExpect(&psrc, p.rows(), p.cols(), &w));
    service->weights_.push_back(std::move(w));
  }
  OPENIMA_RETURN_IF_ERROR(psrc.ExpectEnd());

  auto ksrc_or = reader.Section("kmeans");
  if (!ksrc_or.ok()) return ksrc_or.status();
  io::ByteSource ksrc = std::move(*ksrc_or);
  std::vector<int> pseudo_labels;
  OPENIMA_RETURN_IF_ERROR(io::ReadMatrix(&ksrc, &service->centers_));
  OPENIMA_RETURN_IF_ERROR(io::ReadI32Vector(&ksrc, &pseudo_labels));
  OPENIMA_RETURN_IF_ERROR(ksrc.ExpectEnd());
  if (service->centers_.rows() == 0) {
    return Status::FailedPrecondition(
        "checkpoint holds no K-Means centers (saved before the first "
        "pseudo-label refresh) — nothing to classify against; train past "
        "pseudo_warmup_epochs before serving");
  }
  if (service->centers_.cols() != meta.embedding_dim) {
    return Status::InvalidArgument(StrFormat(
        "checkpoint centers are %d-dim but the encoder embeds into %d",
        service->centers_.cols(), meta.embedding_dim));
  }

  auto lsrc_or = reader.Section("alignment");
  if (!lsrc_or.ok()) return lsrc_or.status();
  io::ByteSource lsrc = std::move(*lsrc_or);
  uint8_t has_alignment = 0;
  assign::ClusterAlignment alignment;
  OPENIMA_RETURN_IF_ERROR(lsrc.ReadU8(&has_alignment));
  OPENIMA_RETURN_IF_ERROR(io::ReadI32Vector(&lsrc, &alignment.cluster_to_class));
  int32_t num_matched = 0;
  OPENIMA_RETURN_IF_ERROR(lsrc.ReadI32(&num_matched));
  alignment.num_matched = num_matched;
  // Telemetry carries follow; serve does not need them.
  if (has_alignment == 0) {
    return Status::FailedPrecondition(
        "checkpoint holds no cluster->class alignment — train past "
        "pseudo_warmup_epochs before serving");
  }
  if (static_cast<int>(alignment.cluster_to_class.size()) !=
      service->centers_.rows()) {
    return Status::InvalidArgument(StrFormat(
        "checkpoint alignment covers %zu clusters but there are %d centers",
        alignment.cluster_to_class.size(), service->centers_.rows()));
  }

  // Precompute cluster -> final class exactly as Predict() would apply it:
  // seen classes through the Hungarian alignment, leftover clusters become
  // novel class ids >= num_seen in cluster-id order.
  std::vector<int> identity(
      static_cast<size_t>(service->centers_.rows()));
  std::iota(identity.begin(), identity.end(), 0);
  service->cluster_final_class_ =
      assign::ApplyAlignment(identity, alignment, meta.num_seen);

  if (obs::kCompiledIn && options.drift.policy != obs::WatchdogPolicy::kOff) {
    service->drift_ = std::make_unique<obs::DriftMonitor>(
        options.drift, service->centers_.rows());
  }
  return service;
}

std::unique_ptr<InferenceSession> InferenceService::NewSession() const {
  return std::unique_ptr<InferenceSession>(new InferenceSession(this));
}

InferenceSession::InferenceSession(const InferenceService* service)
    : service_(service) {
  // The replica's random init is immediately overwritten by the
  // checkpointed weights; any seed works. Its kernels run on the session's
  // own context, so concurrent sessions never share a thread pool queue.
  Rng init_rng(0);
  nn::GatEncoderConfig encoder_config = service->encoder_config_;
  encoder_config.exec = &ctx_;
  model_ = std::make_unique<EncoderWithHead>(
      encoder_config, service->num_seen_ + service->num_novel_, &init_rng);
  const std::vector<autograd::Variable>& params = model_->parameters();
  for (size_t t = 0; t < params.size(); ++t) {
    autograd::Variable p = params[t];
    const la::Matrix& w = service->weights_[t];
    std::copy(w.data(), w.data() + w.size(), p.mutable_value().data());
  }
  graph::SamplerConfig sc;
  sc.num_layers = 2;
  sc.fanout = service->options_.sample_fanout;
  sc.seed = 0;  // fanout 0 (exhaustive) never draws; any seed is fine
  sampler_ = std::make_unique<graph::NeighborSampler>(
      &service->dataset_->graph, sc);
  seen_.assign(static_cast<size_t>(service->dataset_->num_nodes()), 0);
}

Status InferenceSession::Classify(const std::vector<int>& nodes, uint64_t tag,
                                  std::vector<ClassifyResult>* out) {
  // The request's root span: windowed latency (p50/p99 over the last N
  // requests) plus, when sampled, the trace event the inner phases nest
  // under.
  obs::RequestTrace request_trace("serve_request", "serve.request_ns");
  la::PoolBinding pool_binding(&pool_);
  const graph::Dataset& dataset = *service_->dataset_;
  const int n = dataset.num_nodes();
  if (nodes.empty()) {
    return Status::InvalidArgument("classify request has no nodes");
  }
  for (int v : nodes) {
    if (v < 0 || v >= n) {
      return Status::InvalidArgument(
          StrFormat("node id %d out of range [0, %d)", v, n));
    }
  }
  for (int v : nodes) {
    if (seen_[static_cast<size_t>(v)]) {
      for (int u : nodes) seen_[static_cast<size_t>(u)] = 0;
      return Status::InvalidArgument(StrFormat(
          "duplicate node id %d in request (ids must be distinct)", v));
    }
    seen_[static_cast<size_t>(v)] = 1;
  }
  for (int v : nodes) seen_[static_cast<size_t>(v)] = 0;

  graph::SampledBlock block;
  {
    OPENIMA_OBS_PHASE("serve_sample");
    block = sampler_->Sample(nodes, tag, &ctx_);
  }

  const int fd = dataset.feature_dim();
  const la::backend::KernelBackend& be = la::backend::Resolve(&ctx_);
  la::Matrix feats(block.num_input(), fd);
  {
    OPENIMA_OBS_PHASE("serve_gather");
    be.GatherRows(dataset.features.data(), fd, block.input_nodes.data(),
                  block.num_input(), fd, feats.data(), fd);
  }

  // Eval-mode embeddings of the seed rows (deterministic — no dropout), on
  // the unit sphere where the centers live.
  la::Matrix emb;
  {
    OPENIMA_OBS_PHASE("serve_forward");
    emb = model_->encoder().ForwardSampledFrozen(block, feats);
    la::RowL2NormalizeInPlace(&emb, 1e-12f, &ctx_);
  }

  // Numeric-health gate on the frozen forward pass (same watchdog the
  // training loop uses): a checkpoint served against corrupted features can
  // emit NaN/Inf embeddings, and nearest-center argmin over NaN distances
  // would silently classify garbage — reject the request instead.
  if (obs::Watchdog::active()) {
    const int64_t bad = obs::Watchdog::CheckTensor(
        "serve.forward", emb.data(), static_cast<int64_t>(emb.size()));
    if (bad > 0) {
      OPENIMA_OBS_COUNT("serve.watchdog_rejects", 1);
      return Status::Internal(StrFormat(
          "classify request produced %lld non-finite encoder outputs "
          "(watchdog policy %s) — rejecting instead of classifying garbage",
          static_cast<long long>(bad),
          obs::WatchdogPolicyName(obs::Watchdog::options().policy)));
    }
  }

  {
    OPENIMA_OBS_PHASE("serve_distance");
    const la::Matrix dist =
        la::PairwiseSquaredDistances(emb, service_->centers_, &ctx_);
    const int k = dist.cols();
    out->resize(nodes.size());
    for (size_t i = 0; i < nodes.size(); ++i) {
      const float* row = dist.Row(static_cast<int>(i));
      int best = 0;
      float best_d = row[0];
      float second_d = std::numeric_limits<float>::infinity();
      for (int c = 1; c < k; ++c) {
        if (row[c] < best_d) {
          second_d = best_d;
          best_d = row[c];
          best = c;
        } else if (row[c] < second_d) {
          second_d = row[c];
        }
      }
      ClassifyResult& r = (*out)[i];
      r.cluster = best;
      r.class_id = service_->cluster_final_class_[static_cast<size_t>(best)];
      r.is_novel = r.class_id >= service_->num_seen_;
      r.distance2 = best_d;
      r.margin = k > 1 ? second_d - best_d
                       : std::numeric_limits<float>::infinity();
    }
  }

  int64_t novel_count = 0;
  for (const ClassifyResult& r : *out) {
    if (r.is_novel) ++novel_count;
  }
  request_trace.SetMeta("batch", static_cast<int64_t>(nodes.size()));
  request_trace.SetMeta("tag", static_cast<int64_t>(tag));
  request_trace.SetMeta("novel", novel_count);
  request_trace.SetMeta("clusters",
                        static_cast<int64_t>(service_->centers_.rows()));

  OPENIMA_OBS_WINDOWED_COUNT("serve.requests", 1);
  OPENIMA_OBS_WINDOWED_COUNT("serve.nodes", nodes.size());
  OPENIMA_OBS_WINDOWED_COUNT("serve.novel", novel_count);

  if (obs::DriftMonitor* drift = service_->drift_monitor()) {
    for (const ClassifyResult& r : *out) {
      drift->Observe(r.class_id, r.is_novel,
                     static_cast<double>(r.distance2));
    }
    OPENIMA_RETURN_IF_ERROR(drift->ConsumeStatus());
  }

  // The serve path's logical clock is the request counter: one tick per
  // completed request, so "the last 64 ticks" means the last 64 requests.
  OPENIMA_OBS_TICK();
  return Status::OK();
}

}  // namespace openima::core

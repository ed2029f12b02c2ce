// OpenImaModel::SaveCheckpoint / LoadCheckpoint — the model-level layer over
// the versioned container in src/io/checkpoint.h (byte-level spec in
// SERVING.md). A checkpoint taken at an epoch boundary captures everything
// the training loop's next epoch reads: parameters, Adam moments + step
// count, the sequential RNG stream, the cached pseudo-label state and
// telemetry carries, and — under data-parallel training (workers >= 2) —
// the pipelined refresh pipeline (the in-flight background refresh is
// joined and its completed outcome serialized, so the resumed run swaps in
// the same labels the uninterrupted run would have).

#include <algorithm>
#include <utility>
#include <vector>

#include "src/core/openima.h"
#include "src/core/train_internal.h"
#include "src/io/checkpoint.h"
#include "src/util/string_util.h"

namespace openima::core {

namespace {

// Section names of the model checkpoint (container version 1).
constexpr char kMetaSection[] = "meta";
constexpr char kParamsSection[] = "params";
constexpr char kAdamSection[] = "adam";
constexpr char kRngSection[] = "rng";
constexpr char kKMeansSection[] = "kmeans";
constexpr char kAlignmentSection[] = "alignment";
constexpr char kDpSection[] = "dp";

void WriteAlignment(io::ByteSink* sink, const assign::ClusterAlignment& a) {
  io::WriteI32Vector(sink, a.cluster_to_class);
  sink->PutI32(a.num_matched);
}

Status ReadAlignment(io::ByteSource* src, assign::ClusterAlignment* out) {
  OPENIMA_RETURN_IF_ERROR(io::ReadI32Vector(src, &out->cluster_to_class));
  int32_t matched = 0;
  OPENIMA_RETURN_IF_ERROR(src->ReadI32(&matched));
  out->num_matched = matched;
  return Status::OK();
}

Status CheckMetaField(const char* name, int64_t expected, int64_t found) {
  if (expected == found) return Status::OK();
  return Status::InvalidArgument(StrFormat(
      "checkpoint %s mismatch: model was built with %lld, checkpoint "
      "was written under %lld",
      name, static_cast<long long>(expected), static_cast<long long>(found)));
}

}  // namespace

Status OpenImaModel::SaveCheckpoint(const std::string& path) {
  // A pipelined refresh may still be running on the background thread; its
  // outcome is part of the training state (the next boundary swaps it in),
  // so join it and serialize the completed result.
  JoinRefresh();

  io::CheckpointWriter writer;

  io::ByteSink meta;
  meta.PutU64(seed_);
  meta.PutU8(static_cast<uint8_t>(config_.encoder.arch));
  meta.PutI32(config_.encoder.in_dim);
  meta.PutI32(config_.encoder.hidden_dim);
  meta.PutI32(config_.encoder.embedding_dim);
  meta.PutI32(config_.encoder.num_heads);
  meta.PutI32(config_.num_seen);
  meta.PutI32(config_.num_novel);
  meta.PutI32(config_.workers);
  meta.PutI32(epochs_done_);
  OPENIMA_RETURN_IF_ERROR(writer.AddSection(kMetaSection, meta));

  const std::vector<autograd::Variable> params = model_->parameters();
  io::ByteSink psink;
  psink.PutU32(static_cast<uint32_t>(params.size()));
  for (const auto& p : params) io::WriteMatrix(&psink, p.value());
  OPENIMA_RETURN_IF_ERROR(writer.AddSection(kParamsSection, psink));

  io::ByteSink adam;
  adam.PutI64(optimizer_->step_count());
  adam.PutU32(static_cast<uint32_t>(params.size()));
  for (const auto& m : optimizer_->first_moments()) {
    io::WriteMatrix(&adam, m);
  }
  for (const auto& v : optimizer_->second_moments()) {
    io::WriteMatrix(&adam, v);
  }
  OPENIMA_RETURN_IF_ERROR(writer.AddSection(kAdamSection, adam));

  io::ByteSink rng;
  const Rng::State rng_state = rng_.state();
  for (int i = 0; i < 4; ++i) rng.PutU64(rng_state.s[i]);
  rng.PutU8(rng_state.have_cached_normal ? 1 : 0);
  rng.PutF64(rng_state.cached_normal);
  OPENIMA_RETURN_IF_ERROR(writer.AddSection(kRngSection, rng));

  io::ByteSink kmeans;
  io::WriteMatrix(&kmeans, cached_pseudo_centers_);
  io::WriteI32Vector(&kmeans, cached_pseudo_labels_);
  OPENIMA_RETURN_IF_ERROR(writer.AddSection(kKMeansSection, kmeans));

  io::ByteSink align;
  align.PutU8(has_last_alignment_ ? 1 : 0);
  WriteAlignment(&align, last_alignment_);
  align.PutI32(last_pseudo_count_);
  align.PutF64(last_pseudo_precision_);
  align.PutF64(last_alignment_churn_);
  align.PutI32(stats_.pseudo_labeled_last_epoch);
  OPENIMA_RETURN_IF_ERROR(writer.AddSection(kAlignmentSection, align));

  if (dp_ != nullptr) {
    io::ByteSink dp;
    dp.PutU64(dp_->refresh_counter);
    dp.PutI32(dp_->active_snapshot_epoch);
    dp.PutU8(dp_->refresh_pending ? 1 : 0);
    if (dp_->refresh_pending) {
      const RefreshOutcome& o = dp_->pending;
      dp.PutU8(o.ok ? 1 : 0);
      dp.PutString(o.error);
      dp.PutI32(o.snapshot_epoch);
      dp.PutI64(o.unpooled_allocs);
      dp.PutI64(o.pool_misses);
      io::WriteI32Vector(&dp, o.result.labels);
      dp.PutI32(o.result.num_pseudo_labeled);
      io::WriteI32Vector(&dp, o.result.cluster_assignments);
      io::WriteMatrix(&dp, o.result.centers);
      WriteAlignment(&dp, o.result.alignment);
    }
    OPENIMA_RETURN_IF_ERROR(writer.AddSection(kDpSection, dp));
  }

  return writer.Finish(path);
}

Status OpenImaModel::LoadCheckpoint(const std::string& path) {
  if (epochs_done_ > 0) {
    return Status::FailedPrecondition(
        "LoadCheckpoint requires a freshly constructed model (this one has "
        "already trained)");
  }
  auto reader_or = io::CheckpointReader::Open(path);
  if (!reader_or.ok()) return reader_or.status();
  const io::CheckpointReader& reader = *reader_or;
  for (const char* name :
       {kMetaSection, kParamsSection, kAdamSection, kRngSection,
        kKMeansSection, kAlignmentSection}) {
    if (!reader.HasSection(name)) {
      return Status::InvalidArgument(StrFormat(
          "checkpoint %s is missing required section \"%s\"", path.c_str(),
          name));
    }
  }

  // ---- meta: the geometry contract between writer and this model ----------
  auto meta_or = reader.Section(kMetaSection);
  if (!meta_or.ok()) return meta_or.status();
  io::ByteSource meta = std::move(*meta_or);
  uint64_t seed = 0;
  uint8_t arch = 0;
  int32_t in_dim = 0, hidden_dim = 0, embedding_dim = 0, num_heads = 0;
  int32_t num_seen = 0, num_novel = 0, workers = 0, epochs_done = 0;
  OPENIMA_RETURN_IF_ERROR(meta.ReadU64(&seed));
  OPENIMA_RETURN_IF_ERROR(meta.ReadU8(&arch));
  OPENIMA_RETURN_IF_ERROR(meta.ReadI32(&in_dim));
  OPENIMA_RETURN_IF_ERROR(meta.ReadI32(&hidden_dim));
  OPENIMA_RETURN_IF_ERROR(meta.ReadI32(&embedding_dim));
  OPENIMA_RETURN_IF_ERROR(meta.ReadI32(&num_heads));
  OPENIMA_RETURN_IF_ERROR(meta.ReadI32(&num_seen));
  OPENIMA_RETURN_IF_ERROR(meta.ReadI32(&num_novel));
  OPENIMA_RETURN_IF_ERROR(meta.ReadI32(&workers));
  OPENIMA_RETURN_IF_ERROR(meta.ReadI32(&epochs_done));
  OPENIMA_RETURN_IF_ERROR(meta.ExpectEnd());
  if (seed != seed_) {
    return Status::InvalidArgument(StrFormat(
        "checkpoint seed mismatch: model was built with %llu, checkpoint "
        "was written under %llu (resume must replay the same RNG streams)",
        static_cast<unsigned long long>(seed_),
        static_cast<unsigned long long>(seed)));
  }
  OPENIMA_RETURN_IF_ERROR(CheckMetaField(
      "encoder arch", static_cast<int>(config_.encoder.arch), arch));
  OPENIMA_RETURN_IF_ERROR(
      CheckMetaField("encoder in_dim", config_.encoder.in_dim, in_dim));
  OPENIMA_RETURN_IF_ERROR(CheckMetaField(
      "encoder hidden_dim", config_.encoder.hidden_dim, hidden_dim));
  OPENIMA_RETURN_IF_ERROR(CheckMetaField(
      "encoder embedding_dim", config_.encoder.embedding_dim, embedding_dim));
  OPENIMA_RETURN_IF_ERROR(CheckMetaField(
      "encoder num_heads", config_.encoder.num_heads, num_heads));
  OPENIMA_RETURN_IF_ERROR(
      CheckMetaField("num_seen", config_.num_seen, num_seen));
  OPENIMA_RETURN_IF_ERROR(
      CheckMetaField("num_novel", config_.num_novel, num_novel));
  OPENIMA_RETURN_IF_ERROR(CheckMetaField("workers", config_.workers, workers));
  if (epochs_done < 0) {
    return Status::InvalidArgument("checkpoint epochs_done must be >= 0");
  }

  // ---- params -------------------------------------------------------------
  std::vector<autograd::Variable> params = model_->parameters();
  auto psrc_or = reader.Section(kParamsSection);
  if (!psrc_or.ok()) return psrc_or.status();
  io::ByteSource psrc = std::move(*psrc_or);
  uint32_t param_count = 0;
  OPENIMA_RETURN_IF_ERROR(psrc.ReadU32(&param_count));
  if (param_count != params.size()) {
    return Status::InvalidArgument(StrFormat(
        "checkpoint parameter count mismatch: model has %zu tensors, "
        "checkpoint holds %u",
        params.size(), static_cast<unsigned>(param_count)));
  }
  // Decode every tensor before touching the model so a corrupt record can
  // never leave the parameters half-restored.
  std::vector<la::Matrix> values;
  values.reserve(params.size());
  for (const auto& p : params) {
    la::Matrix m;
    OPENIMA_RETURN_IF_ERROR(
        io::ReadMatrixExpect(&psrc, p.rows(), p.cols(), &m));
    values.push_back(std::move(m));
  }
  OPENIMA_RETURN_IF_ERROR(psrc.ExpectEnd());

  // ---- adam ---------------------------------------------------------------
  auto asrc_or = reader.Section(kAdamSection);
  if (!asrc_or.ok()) return asrc_or.status();
  io::ByteSource asrc = std::move(*asrc_or);
  int64_t step_count = 0;
  uint32_t adam_count = 0;
  OPENIMA_RETURN_IF_ERROR(asrc.ReadI64(&step_count));
  OPENIMA_RETURN_IF_ERROR(asrc.ReadU32(&adam_count));
  if (adam_count != params.size()) {
    return Status::InvalidArgument(StrFormat(
        "checkpoint Adam tensor count mismatch: model has %zu tensors, "
        "checkpoint holds %u",
        params.size(), static_cast<unsigned>(adam_count)));
  }
  std::vector<la::Matrix> moments_m, moments_v;
  moments_m.reserve(params.size());
  moments_v.reserve(params.size());
  for (const auto& p : params) {
    la::Matrix m;
    OPENIMA_RETURN_IF_ERROR(
        io::ReadMatrixExpect(&asrc, p.rows(), p.cols(), &m));
    moments_m.push_back(std::move(m));
  }
  for (const auto& p : params) {
    la::Matrix v;
    OPENIMA_RETURN_IF_ERROR(
        io::ReadMatrixExpect(&asrc, p.rows(), p.cols(), &v));
    moments_v.push_back(std::move(v));
  }
  OPENIMA_RETURN_IF_ERROR(asrc.ExpectEnd());

  // ---- rng ----------------------------------------------------------------
  auto rsrc_or = reader.Section(kRngSection);
  if (!rsrc_or.ok()) return rsrc_or.status();
  io::ByteSource rsrc = std::move(*rsrc_or);
  Rng::State rng_state;
  for (int i = 0; i < 4; ++i) {
    OPENIMA_RETURN_IF_ERROR(rsrc.ReadU64(&rng_state.s[i]));
  }
  uint8_t have_cached = 0;
  OPENIMA_RETURN_IF_ERROR(rsrc.ReadU8(&have_cached));
  OPENIMA_RETURN_IF_ERROR(rsrc.ReadF64(&rng_state.cached_normal));
  rng_state.have_cached_normal = have_cached != 0;
  OPENIMA_RETURN_IF_ERROR(rsrc.ExpectEnd());

  // ---- kmeans -------------------------------------------------------------
  auto ksrc_or = reader.Section(kKMeansSection);
  if (!ksrc_or.ok()) return ksrc_or.status();
  io::ByteSource ksrc = std::move(*ksrc_or);
  la::Matrix centers;
  std::vector<int> pseudo_labels;
  OPENIMA_RETURN_IF_ERROR(io::ReadMatrix(&ksrc, &centers));
  OPENIMA_RETURN_IF_ERROR(io::ReadI32Vector(&ksrc, &pseudo_labels));
  OPENIMA_RETURN_IF_ERROR(ksrc.ExpectEnd());

  // ---- alignment (telemetry carries) --------------------------------------
  auto lsrc_or = reader.Section(kAlignmentSection);
  if (!lsrc_or.ok()) return lsrc_or.status();
  io::ByteSource lsrc = std::move(*lsrc_or);
  uint8_t has_alignment = 0;
  assign::ClusterAlignment alignment;
  int32_t pseudo_count = 0, pseudo_labeled_last = 0;
  double pseudo_precision = 0.0, alignment_churn = 0.0;
  OPENIMA_RETURN_IF_ERROR(lsrc.ReadU8(&has_alignment));
  OPENIMA_RETURN_IF_ERROR(ReadAlignment(&lsrc, &alignment));
  OPENIMA_RETURN_IF_ERROR(lsrc.ReadI32(&pseudo_count));
  OPENIMA_RETURN_IF_ERROR(lsrc.ReadF64(&pseudo_precision));
  OPENIMA_RETURN_IF_ERROR(lsrc.ReadF64(&alignment_churn));
  OPENIMA_RETURN_IF_ERROR(lsrc.ReadI32(&pseudo_labeled_last));
  OPENIMA_RETURN_IF_ERROR(lsrc.ExpectEnd());

  // ---- dp (pipelined-refresh pipeline, data-parallel runs only) -----------
  std::unique_ptr<RestoredRefreshState> restored;
  if (reader.HasSection(kDpSection)) {
    // Only W >= 2 pipelines the refresh; W <= 1 refreshes synchronously and
    // would never install this state, so resuming would switch schedules.
    if (config_.workers <= 1) {
      return Status::InvalidArgument(StrFormat(
          "checkpoint %s carries a \"%s\" section (the pipelined refresh of "
          "workers >= 2), but this model trains with workers = %d, which "
          "refreshes synchronously",
          path.c_str(), kDpSection, config_.workers));
    }
    auto dsrc_or = reader.Section(kDpSection);
    if (!dsrc_or.ok()) return dsrc_or.status();
    io::ByteSource dsrc = std::move(*dsrc_or);
    restored = std::make_unique<RestoredRefreshState>();
    uint8_t pending = 0;
    int32_t active_epoch = 0;
    OPENIMA_RETURN_IF_ERROR(dsrc.ReadU64(&restored->refresh_counter));
    OPENIMA_RETURN_IF_ERROR(dsrc.ReadI32(&active_epoch));
    restored->active_snapshot_epoch = active_epoch;
    OPENIMA_RETURN_IF_ERROR(dsrc.ReadU8(&pending));
    restored->refresh_pending = pending != 0;
    if (restored->refresh_pending) {
      RefreshOutcome& o = restored->pending;
      uint8_t ok = 0;
      int32_t snapshot_epoch = 0, num_pl = 0;
      OPENIMA_RETURN_IF_ERROR(dsrc.ReadU8(&ok));
      o.ok = ok != 0;
      OPENIMA_RETURN_IF_ERROR(dsrc.ReadString(&o.error));
      OPENIMA_RETURN_IF_ERROR(dsrc.ReadI32(&snapshot_epoch));
      o.snapshot_epoch = snapshot_epoch;
      OPENIMA_RETURN_IF_ERROR(dsrc.ReadI64(&o.unpooled_allocs));
      OPENIMA_RETURN_IF_ERROR(dsrc.ReadI64(&o.pool_misses));
      OPENIMA_RETURN_IF_ERROR(io::ReadI32Vector(&dsrc, &o.result.labels));
      OPENIMA_RETURN_IF_ERROR(dsrc.ReadI32(&num_pl));
      o.result.num_pseudo_labeled = num_pl;
      OPENIMA_RETURN_IF_ERROR(
          io::ReadI32Vector(&dsrc, &o.result.cluster_assignments));
      OPENIMA_RETURN_IF_ERROR(io::ReadMatrix(&dsrc, &o.result.centers));
      OPENIMA_RETURN_IF_ERROR(ReadAlignment(&dsrc, &o.result.alignment));
    }
    OPENIMA_RETURN_IF_ERROR(dsrc.ExpectEnd());
  }

  // ---- everything validated; commit ---------------------------------------
  for (size_t t = 0; t < params.size(); ++t) {
    autograd::Variable p = params[t];
    la::Matrix& value = p.mutable_value();
    std::copy(values[t].data(), values[t].data() + values[t].size(),
              value.data());
  }
  OPENIMA_RETURN_IF_ERROR(
      optimizer_->RestoreState(moments_m, moments_v, step_count));
  rng_.set_state(rng_state);
  cached_pseudo_centers_ = std::move(centers);
  cached_pseudo_labels_ = std::move(pseudo_labels);
  has_last_alignment_ = has_alignment != 0;
  last_alignment_ = std::move(alignment);
  last_pseudo_count_ = pseudo_count;
  last_pseudo_precision_ = pseudo_precision;
  last_alignment_churn_ = alignment_churn;
  stats_.pseudo_labeled_last_epoch = pseudo_labeled_last;
  restored_refresh_ = std::move(restored);
  epochs_done_ = epochs_done;
  return Status::OK();
}

}  // namespace openima::core

#include "src/obs/telemetry.h"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

#include "src/obs/metrics.h"

namespace openima::obs {

namespace {

json::Value DoubleArray(const std::vector<double>& values) {
  json::Value arr = json::Value::Array();
  for (double v : values) arr.Append(json::Value::Double(v));
  return arr;
}

}  // namespace

json::Value EpochRecord::ToJson() const {
  using json::Value;
  Value out = Value::Object();
  out.Set("trainer", Value::Str(trainer));
#if OPENIMA_OBS_ENABLED
  if (const std::string label = TelemetryRunLabel(); !label.empty()) {
    out.Set("run", Value::Str(label));
  }
#endif
  out.Set("epoch", Value::Int(epoch));
  out.Set("loss", Value::Double(loss));
  if (has_components) {
    out.Set("loss_ce", Value::Double(loss_ce));
    out.Set("loss_bpcl_emb", Value::Double(loss_bpcl_emb));
    out.Set("loss_bpcl_logit", Value::Double(loss_bpcl_logit));
    out.Set("loss_pairwise", Value::Double(loss_pairwise));
  }
  out.Set("grad_norm", Value::Double(grad_norm));
  out.Set("param_grad_norms", DoubleArray(param_grad_norms));
  out.Set("watchdog_events", Value::Int(watchdog_events));
  if (pseudo_labels >= 0 || refreshed) {
    out.Set("pseudo_labels", Value::Int(pseudo_labels));
    out.Set("pseudo_precision", Value::Double(pseudo_precision));
    out.Set("alignment_churn", Value::Double(alignment_churn));
    out.Set("refreshed", Value::Bool(refreshed));
  }
  if (refresh_snapshot_epoch >= 0) {
    out.Set("refresh_snapshot_epoch", Value::Int(refresh_snapshot_epoch));
  }
  if (has_quality) {
    out.Set("val_acc", Value::Double(val_acc));
    out.Set("val_nmi", Value::Double(val_nmi));
    out.Set("acc_all", Value::Double(acc_all));
    out.Set("acc_seen", Value::Double(acc_seen));
    out.Set("acc_novel", Value::Double(acc_novel));
  }
  return out;
}

StatusOr<EpochRecord> EpochRecord::FromJson(const json::Value& v) {
  if (!v.is_object()) {
    return Status::InvalidArgument("telemetry record is not an object");
  }
  for (const char* key : {"trainer", "epoch", "loss"}) {
    if (!v.Has(key)) {
      return Status::InvalidArgument(
          std::string("telemetry record missing required key '") + key + "'");
    }
  }
  EpochRecord rec;
  if (!v.at("trainer").is_string() || !v.at("epoch").is_int() ||
      !v.at("loss").is_number()) {
    return Status::InvalidArgument("telemetry record has mistyped core field");
  }
  rec.trainer = v.at("trainer").AsString();
  rec.epoch = static_cast<int>(v.at("epoch").AsInt());
  rec.loss = v.at("loss").AsDouble();
  if (const json::Value* g = v.Find("grad_norm")) rec.grad_norm = g->AsDouble();
  if (const json::Value* p = v.Find("param_grad_norms")) {
    if (!p->is_array()) {
      return Status::InvalidArgument("param_grad_norms is not an array");
    }
    for (size_t i = 0; i < p->size(); ++i) {
      rec.param_grad_norms.push_back(p->at(i).AsDouble());
    }
  }
  if (const json::Value* w = v.Find("watchdog_events")) {
    rec.watchdog_events = w->AsInt();
  }
  if (v.Has("loss_ce")) {
    rec.has_components = true;
    rec.loss_ce = v.at("loss_ce").AsDouble();
    if (const json::Value* x = v.Find("loss_bpcl_emb")) {
      rec.loss_bpcl_emb = x->AsDouble();
    }
    if (const json::Value* x = v.Find("loss_bpcl_logit")) {
      rec.loss_bpcl_logit = x->AsDouble();
    }
    if (const json::Value* x = v.Find("loss_pairwise")) {
      rec.loss_pairwise = x->AsDouble();
    }
  }
  if (v.Has("pseudo_labels")) {
    rec.pseudo_labels = static_cast<int>(v.at("pseudo_labels").AsInt());
    if (const json::Value* x = v.Find("pseudo_precision")) {
      rec.pseudo_precision = x->AsDouble();
    }
    if (const json::Value* x = v.Find("alignment_churn")) {
      rec.alignment_churn = x->AsDouble();
    }
    if (const json::Value* x = v.Find("refreshed")) rec.refreshed = x->AsBool();
  }
  if (const json::Value* x = v.Find("refresh_snapshot_epoch")) {
    rec.refresh_snapshot_epoch = static_cast<int>(x->AsInt());
  }
  if (v.Has("val_nmi")) {
    rec.has_quality = true;
    rec.val_nmi = v.at("val_nmi").AsDouble();
    if (const json::Value* x = v.Find("val_acc")) rec.val_acc = x->AsDouble();
    if (const json::Value* x = v.Find("acc_all")) rec.acc_all = x->AsDouble();
    if (const json::Value* x = v.Find("acc_seen")) rec.acc_seen = x->AsDouble();
    if (const json::Value* x = v.Find("acc_novel")) {
      rec.acc_novel = x->AsDouble();
    }
  }
  return rec;
}

TelemetryLog::~TelemetryLog() { Close(); }

Status TelemetryLog::Open(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) {
    return Status::FailedPrecondition("telemetry log already open: " + path_);
  }
  if (path.empty()) {
    return Status::InvalidArgument("telemetry path must not be empty");
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IOError("cannot open telemetry file " + path);
  }
  file_ = f;
  path_ = path;
  records_ = 0;
  return Status::OK();
}

bool TelemetryLog::is_open() const {
  std::lock_guard<std::mutex> lock(mu_);
  return file_ != nullptr;
}

Status TelemetryLog::Append(const EpochRecord& record) {
  const std::string line = record.ToJson().Dump(/*indent=*/0) + "\n";
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) {
    return Status::FailedPrecondition("telemetry log is not open");
  }
  OPENIMA_RETURN_IF_ERROR(WriteAndFlush(file_, line, path_));
  ++records_;
  return Status::OK();
}

int64_t TelemetryLog::records_written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

Status TelemetryLog::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return Status::OK();
  std::FILE* f = file_;
  file_ = nullptr;
  return CloseFile(f, path_);
}

StatusOr<std::vector<json::Value>> ReadJsonl(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    return Status::IOError("cannot open " + path);
  }
  std::vector<json::Value> records;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    auto value = json::Value::Parse(line);
    if (!value.ok()) {
      std::ostringstream msg;
      msg << path << ":" << line_no << ": " << value.status().message();
      return Status::InvalidArgument(msg.str());
    }
    records.push_back(std::move(*value));
  }
  return records;
}

#if OPENIMA_OBS_ENABLED

namespace {

/// Global sink state. The log handle is never freed (like the global
/// MetricsRegistry); `enabled` is the fast-path check trainers read per
/// epoch.
struct GlobalTelemetry {
  std::atomic<bool> enabled{false};
  std::mutex mu;
  TelemetryLog log;
  std::string run_label;  // guarded by mu
};

GlobalTelemetry* Sink() {
  static GlobalTelemetry* sink = new GlobalTelemetry();  // never freed
  return sink;
}

}  // namespace

Status StartTelemetry(const std::string& path) {
  GlobalTelemetry* sink = Sink();
  std::lock_guard<std::mutex> lock(sink->mu);
  if (sink->enabled.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition("telemetry already active");
  }
  OPENIMA_RETURN_IF_ERROR(sink->log.Open(path));
  sink->enabled.store(true, std::memory_order_release);
  return Status::OK();
}

bool TelemetryEnabled() {
  return Sink()->enabled.load(std::memory_order_acquire);
}

Status StopTelemetry() {
  GlobalTelemetry* sink = Sink();
  std::lock_guard<std::mutex> lock(sink->mu);
  sink->enabled.store(false, std::memory_order_release);
  return sink->log.Close();
}

Status AppendTelemetry(const EpochRecord& record) {
  GlobalTelemetry* sink = Sink();
  if (!sink->enabled.load(std::memory_order_acquire)) return Status::OK();
  return sink->log.Append(record);
}

void SetTelemetryRunLabel(const std::string& label) {
  GlobalTelemetry* sink = Sink();
  std::lock_guard<std::mutex> lock(sink->mu);
  sink->run_label = label;
}

std::string TelemetryRunLabel() {
  GlobalTelemetry* sink = Sink();
  std::lock_guard<std::mutex> lock(sink->mu);
  return sink->run_label;
}

void InitTelemetryFromEnv() {
  static bool initialized = false;
  if (initialized) return;
  initialized = true;
  const char* path = std::getenv("OPENIMA_TELEMETRY");
  if (path == nullptr || path[0] == '\0') return;
  if (Status s = StartTelemetry(path); !s.ok()) {
    std::fprintf(stderr, "OPENIMA_TELEMETRY: %s\n", s.ToString().c_str());
  }
}

void CountEpoch() {
  static Counter* epochs =
      MetricsRegistry::Global()->counter("train.epochs", kDefaultWindowTicks);
  epochs->Increment();
}

#endif  // OPENIMA_OBS_ENABLED

void GradNormAccumulator::Add(const float* data, int64_t n) {
  double sq = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    const double v = static_cast<double>(data[i]);
    sq += v * v;
  }
  sum_squares_ += sq;
  per_param_.push_back(std::sqrt(sq));
}

double GradNormAccumulator::global() const { return std::sqrt(sum_squares_); }

}  // namespace openima::obs

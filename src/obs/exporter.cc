#include "src/obs/exporter.h"

#include <cctype>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace openima::obs {
namespace {

Status WriteAtomic(const std::string& path, const std::string& text) {
  const std::string tmp = path + ".tmp";
  Status status = WriteTextFile(tmp, text);
  if (status.ok() && std::rename(tmp.c_str(), path.c_str()) != 0) {
    status = Status::IOError("cannot rename " + tmp + " -> " + path);
  }
  if (!status.ok()) std::remove(tmp.c_str());
  return status;
}

std::string PromName(const std::string& name) {
  std::string out = "openima_";
  out.reserve(out.size() + name.size());
  for (char c : name) {
    out.push_back(std::isalnum(static_cast<unsigned char>(c)) != 0 ? c : '_');
  }
  return out;
}

// %.17g like json::Value doubles, so both exports agree byte-for-byte on
// every floating-point value.
std::string PromNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

json::Value HistogramJson(const HistogramSnapshot& h) {
  json::Value out = json::Value::Object();
  out.Set("count", json::Value::Int(h.count));
  out.Set("sum", json::Value::Int(h.sum));
  out.Set("min", json::Value::Int(h.min));
  out.Set("max", json::Value::Int(h.max));
  out.Set("mean", json::Value::Double(h.Mean()));
  out.Set("p50", json::Value::Double(HistogramQuantile(h, 0.50)));
  out.Set("p99", json::Value::Double(HistogramQuantile(h, 0.99)));
  out.Set("p999", json::Value::Double(HistogramQuantile(h, 0.999)));
  return out;
}

}  // namespace

void SetMetricsJson(const MetricsSnapshot& snapshot, json::Value* out) {
  json::Value counters = json::Value::Object();
  for (const auto& [name, total] : snapshot.counters) {
    counters.Set(name, json::Value::Int(total));
  }
  out->Set("counters", std::move(counters));
  json::Value gauges = json::Value::Object();
  for (const auto& [name, value] : snapshot.gauges) {
    gauges.Set(name, json::Value::Double(value));
  }
  out->Set("gauges", std::move(gauges));
  json::Value histograms = json::Value::Object();
  for (const auto& [name, h] : snapshot.histograms) {
    histograms.Set(name, HistogramJson(h));
  }
  out->Set("histograms", std::move(histograms));
}

MetricsExporter::MetricsExporter(const ExporterOptions& options)
    : options_(options) {
  if (options_.registry == nullptr) options_.registry = MetricsRegistry::Global();
}

MetricsExporter::~MetricsExporter() { Stop(); }

json::Value MetricsExporter::SnapshotJson(const MetricsSnapshot& snapshot,
                                          int64_t sequence) {
  json::Value root = json::Value::Object();
  root.Set("schema", json::Value::Str("openima-metrics-snapshot"));
  root.Set("sequence", json::Value::Int(sequence));
  root.Set("tick", json::Value::Int(snapshot.tick));
  SetMetricsJson(snapshot, &root);

  json::Value wc = json::Value::Object();
  for (const auto& [name, w] : snapshot.window_counters) {
    json::Value entry = json::Value::Object();
    entry.Set("window", json::Value::Int(w.window));
    entry.Set("total", json::Value::Int(w.total));
    entry.Set("rate_per_tick", json::Value::Double(w.rate_per_tick()));
    wc.Set(name, std::move(entry));
  }
  json::Value wh = json::Value::Object();
  for (const auto& [name, w] : snapshot.window_histograms) {
    // Window width leads, then the histogram's own fields in order.
    json::Value entry = json::Value::Object();
    entry.Set("window", json::Value::Int(w.window));
    const json::Value fields = HistogramJson(w.hist);
    for (const auto& [key, value] : fields.items()) entry.Set(key, value);
    wh.Set(name, std::move(entry));
  }
  json::Value windows = json::Value::Object();
  windows.Set("counters", std::move(wc));
  windows.Set("histograms", std::move(wh));
  root.Set("windows", std::move(windows));
  return root;
}

std::string MetricsExporter::PrometheusText(const MetricsSnapshot& snapshot,
                                            int64_t sequence) {
  std::string out;
  out += "# openima metrics exposition (sequence " + std::to_string(sequence) +
         ", tick " + std::to_string(snapshot.tick) + ")\n";
  for (const auto& [name, total] : snapshot.counters) {
    const std::string p = PromName(name);
    out += "# TYPE " + p + " counter\n";
    out += p + " " + std::to_string(total) + "\n";
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const std::string p = PromName(name);
    out += "# TYPE " + p + " gauge\n";
    out += p + " " + PromNumber(value) + "\n";
  }
  for (const auto& [name, h] : snapshot.histograms) {
    const std::string p = PromName(name);
    out += "# TYPE " + p + " histogram\n";
    // Power-of-two buckets: buckets[b] counts v < 2^b (b = 0 holds v <= 0,
    // upper bound le="1" after the cumulative sum shifts it).
    int64_t cumulative = 0;
    for (size_t b = 0; b < h.buckets.size(); ++b) {
      cumulative += h.buckets[b];
      out += p + "_bucket{le=\"" + std::to_string(int64_t{1} << b) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += p + "_bucket{le=\"+Inf\"} " + std::to_string(h.count) + "\n";
    out += p + "_sum " + std::to_string(h.sum) + "\n";
    out += p + "_count " + std::to_string(h.count) + "\n";
  }
  for (const auto& [name, w] : snapshot.window_counters) {
    const std::string p = PromName(name) + "_window";
    const std::string window = std::to_string(w.window);
    out += "# TYPE " + p + " gauge\n";
    out += p + "{stat=\"total\",window=\"" + window + "\"} " +
           std::to_string(w.total) + "\n";
    out += p + "{stat=\"rate_per_tick\",window=\"" + window + "\"} " +
           PromNumber(w.rate_per_tick()) + "\n";
  }
  for (const auto& [name, w] : snapshot.window_histograms) {
    const std::string p = PromName(name) + "_window";
    const std::string window = std::to_string(w.window);
    out += "# TYPE " + p + " gauge\n";
    out += p + "{stat=\"count\",window=\"" + window + "\"} " +
           std::to_string(w.hist.count) + "\n";
    out += p + "{stat=\"p50\",window=\"" + window + "\"} " +
           PromNumber(HistogramQuantile(w.hist, 0.50)) + "\n";
    out += p + "{stat=\"p99\",window=\"" + window + "\"} " +
           PromNumber(HistogramQuantile(w.hist, 0.99)) + "\n";
    out += p + "{stat=\"p999\",window=\"" + window + "\"} " +
           PromNumber(HistogramQuantile(w.hist, 0.999)) + "\n";
  }
  return out;
}

Status MetricsExporter::ExportNow() {
  if (options_.path.empty()) {
    return Status::InvalidArgument("exporter path is empty");
  }
  const int64_t sequence = sequence_.fetch_add(1) + 1;
  const MetricsSnapshot snapshot = options_.registry->Snapshot();
  OPENIMA_RETURN_IF_ERROR(WriteAtomic(
      options_.path, SnapshotJson(snapshot, sequence).Dump(1) + "\n"));
  OPENIMA_RETURN_IF_ERROR(
      WriteAtomic(options_.path + ".prom", PrometheusText(snapshot, sequence)));
  exports_done_.fetch_add(1, std::memory_order_acq_rel);
  return Status::OK();
}

Status MetricsExporter::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) return Status::OK();
  if (options_.interval_ms < 1) {
    return Status::InvalidArgument(
        "export interval must be at least 1 ms, got " +
        std::to_string(options_.interval_ms));
  }
  // The first snapshot is written here, so a path that cannot be written
  // fails the caller instead of the background thread.
  OPENIMA_RETURN_IF_ERROR(ExportNow());
  stop_ = false;
  running_ = true;
  first_error_ = Status::OK();
  thread_ = std::thread([this] { ThreadMain(); });
  return Status::OK();
}

Status MetricsExporter::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return Status::OK();
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  Status first_error;
  {
    std::lock_guard<std::mutex> lock(mu_);
    running_ = false;
    first_error = first_error_;
  }
  // Final export so the file on disk reflects the very end of the run.
  Status final_status = ExportNow();
  return first_error.ok() ? final_status : first_error;
}

void MetricsExporter::Notify() { cv_.notify_all(); }

void MetricsExporter::ThreadMain() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    cv_.wait_for(lock, std::chrono::milliseconds(options_.interval_ms));
    if (stop_) break;
    lock.unlock();
    Status status = ExportNow();
    lock.lock();
    if (first_error_.ok()) first_error_ = std::move(status);
  }
}

#if OPENIMA_OBS_ENABLED

namespace {
std::mutex g_exporter_mu;
MetricsExporter* g_exporter = nullptr;               // owned
std::atomic<MetricsExporter*> g_exporter_fast{nullptr};
}  // namespace

Status StartMetricsExporter(const ExporterOptions& options) {
  std::lock_guard<std::mutex> lock(g_exporter_mu);
  if (g_exporter != nullptr) {
    return Status::FailedPrecondition("metrics exporter already running");
  }
  auto* exporter = new MetricsExporter(options);
  const Status status = exporter->Start();
  if (!status.ok()) {
    delete exporter;
    return status;
  }
  g_exporter = exporter;
  g_exporter_fast.store(exporter, std::memory_order_release);
  return Status::OK();
}

Status StopMetricsExporter() {
  std::lock_guard<std::mutex> lock(g_exporter_mu);
  if (g_exporter == nullptr) return Status::OK();
  g_exporter_fast.store(nullptr, std::memory_order_release);
  Status status = g_exporter->Stop();
  delete g_exporter;
  g_exporter = nullptr;
  return status;
}

MetricsExporter* GlobalMetricsExporter() {
  return g_exporter_fast.load(std::memory_order_acquire);
}

void NotifyMetricsExporter() {
  MetricsExporter* exporter = g_exporter_fast.load(std::memory_order_acquire);
  if (exporter != nullptr) exporter->Notify();
}

void InitExporterFromEnv() {
  const char* path = std::getenv("OPENIMA_METRICS_EXPORT");
  if (path == nullptr || path[0] == '\0') return;
  ExporterOptions options;
  options.path = path;
  ReadEnvKnob("OPENIMA_METRICS_EXPORT_INTERVAL_MS", 1, INT_MAX,
              &options.interval_ms);
  if (Status s = StartMetricsExporter(options); !s.ok()) {
    std::fprintf(stderr, "OPENIMA_METRICS_EXPORT: %s\n", s.ToString().c_str());
  }
}

#endif  // OPENIMA_OBS_ENABLED

}  // namespace openima::obs

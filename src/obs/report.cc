#include "src/obs/report.h"

#include <cstdlib>

#include "src/la/backend/backend.h"
#include "src/obs/exporter.h"
#include "src/obs/obs_config.h"

// Build identity baked in by src/obs/CMakeLists.txt; the fallbacks keep
// non-CMake compiles (IDE indexers) working.
#ifndef OPENIMA_BUILD_GIT_SHA
#define OPENIMA_BUILD_GIT_SHA "unknown"
#endif
#ifndef OPENIMA_BUILD_COMPILER
#define OPENIMA_BUILD_COMPILER "unknown"
#endif
#ifndef OPENIMA_BUILD_FLAGS
#define OPENIMA_BUILD_FLAGS ""
#endif
#ifndef OPENIMA_BUILD_TYPE
#define OPENIMA_BUILD_TYPE "unknown"
#endif
#ifndef OPENIMA_BUILD_SANITIZE
#define OPENIMA_BUILD_SANITIZE ""
#endif

namespace openima::obs {

namespace {

std::string EnvOr(const char* name, const char* fallback) {
  const char* value = std::getenv(name);
  return (value != nullptr && value[0] != '\0') ? value : fallback;
}

}  // namespace

RunReport::RunReport(const std::string& run_name) {
  root_ = json::Value::Object();
  root_.Set("run_name", json::Value::Str(run_name));
  // Build/host identity, so every report records what produced it. This
  // section is volatile across machines/builds by design — run_diff ignores
  // "run/**" by default.
  json::Value* run = Section("run");
  run->Set("git_sha", json::Value::Str(OPENIMA_BUILD_GIT_SHA));
  run->Set("compiler", json::Value::Str(OPENIMA_BUILD_COMPILER));
  run->Set("cxx_flags", json::Value::Str(OPENIMA_BUILD_FLAGS));
  run->Set("build_type", json::Value::Str(OPENIMA_BUILD_TYPE));
  run->Set("sanitize", json::Value::Str(OPENIMA_BUILD_SANITIZE));
  run->Set("obs_compiled_in", json::Value::Bool(kCompiledIn));
  run->Set("env_threads", json::Value::Str(EnvOr("OPENIMA_THREADS", "default")));
  // The kernel backend actually selected for this process (after the
  // OPENIMA_BACKEND env var / --backend flag and the CPUID probe) — the
  // provenance key scalar-vs-avx2 run_diff comparisons are keyed on.
  run->Set("kernel_backend",
           json::Value::Str(la::backend::Default().name()));
  run->Set("env_telemetry", json::Value::Str(EnvOr("OPENIMA_TELEMETRY", "")));
  run->Set("env_watchdog", json::Value::Str(EnvOr("OPENIMA_WATCHDOG", "off")));
}

json::Value* RunReport::Section(const std::string& name) {
  if (!root_.Has(name)) {
    root_.Set(name, json::Value::Object());
  }
  // Find() returns const; sections are owned by root_, mutate via the
  // non-const path.
  return const_cast<json::Value*>(root_.Find(name));
}

void RunReport::Set(const std::string& section, const std::string& key,
                    json::Value v) {
  Section(section)->Set(key, std::move(v));
}

void RunReport::AddMetrics(const MetricsSnapshot& snapshot) {
  MetricsSnapshot cumulative = snapshot;
  std::erase_if(cumulative.histograms, [](const auto& entry) {
    return entry.first.rfind("time/", 0) == 0;
  });
  SetMetricsJson(cumulative, Section("metrics"));
}

void RunReport::AddPhaseBreakdown() {
  const MetricsSnapshot snap = MetricsRegistry::Global()->Snapshot();
  json::Value* phases = Section("phases");
  for (const auto& [name, h] : snap.histograms) {
    if (name.rfind("time/", 0) != 0 || h.count == 0) continue;
    json::Value entry = json::Value::Object();
    entry.Set("calls", json::Value::Int(h.count));
    entry.Set("total_ms", json::Value::Double(static_cast<double>(h.sum) / 1e6));
    entry.Set("mean_ms", json::Value::Double(h.Mean() / 1e6));
    phases->Set(name.substr(5), std::move(entry));
  }
}

Status RunReport::WriteFile(const std::string& path) const {
  return WriteTextFile(path, ToJson() + "\n");
}

}  // namespace openima::obs

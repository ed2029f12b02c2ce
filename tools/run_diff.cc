// run_diff — the regression gate for run artifacts.
//
//   run_diff A B                 diff two artifacts (exit 1 on mismatch)
//   run_diff --tolerances T A B  apply the tolerance rules in T first
//   run_diff --validate F...     schema-check artifacts (exit 1 on failure)
//
// Artifacts are detected from content: telemetry JSONL logs, RunReport
// JSON, "openima-bench-train" documents (bench_sampled_quality) and
// metrics snapshots. Volatile sections (build/host metadata, wall-clock
// timings) are ignored by default; everything else must match exactly
// unless a tolerance rule says otherwise (see EXPERIMENTS.md for the rule
// format).
//
// Exit codes: 0 = pass, 1 = regression/validation failure, 2 = usage or
// I/O error.

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/obs/run_diff.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: run_diff [--tolerances FILE] [--max-reported N] A B\n"
               "       run_diff --validate FILE...\n");
  return 2;
}

int RunValidate(const std::vector<std::string>& paths) {
  if (paths.empty()) return Usage();
  bool failed = false;
  for (const std::string& path : paths) {
    openima::obs::ArtifactType type = openima::obs::ArtifactType::kUnknown;
    auto loaded = openima::obs::LoadArtifact(path, &type);
    const openima::Status status =
        loaded.ok() ? openima::obs::ValidateArtifact(path) : loaded.status();
    if (status.ok()) {
      std::printf("OK       %-18s %s\n", openima::obs::ArtifactTypeName(type),
                  path.c_str());
    } else {
      std::printf("INVALID  %s: %s\n", path.c_str(),
                  status.ToString().c_str());
      failed = true;
    }
  }
  return failed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> positional;
  std::string tolerance_path;
  bool validate = false;
  openima::obs::DiffOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--validate") {
      validate = true;
    } else if (arg == "--tolerances") {
      if (++i >= argc) return Usage();
      tolerance_path = argv[i];
    } else if (arg == "--max-reported") {
      if (++i >= argc) return Usage();
      char* end = nullptr;
      errno = 0;
      const long n = std::strtol(argv[i], &end, 10);
      if (end == argv[i] || *end != '\0' || errno == ERANGE || n < 0 ||
          n > INT_MAX) {
        std::fprintf(stderr,
                     "run_diff: --max-reported needs a whole number >= 0, "
                     "got '%s'\n",
                     argv[i]);
        return Usage();
      }
      options.max_reported = static_cast<int>(n);
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "run_diff: unknown flag '%s'\n", arg.c_str());
      return Usage();
    } else {
      positional.push_back(arg);
    }
  }

  if (validate) return RunValidate(positional);
  if (positional.size() != 2) return Usage();

  if (!tolerance_path.empty()) {
    auto rules = openima::obs::LoadToleranceFile(tolerance_path);
    if (!rules.ok()) {
      std::fprintf(stderr, "run_diff: %s\n",
                   rules.status().ToString().c_str());
      return 2;
    }
    options.rules = std::move(*rules);
  }

  auto result =
      openima::obs::DiffArtifacts(positional[0], positional[1], options);
  if (!result.ok()) {
    std::fprintf(stderr, "run_diff: %s\n",
                 result.status().ToString().c_str());
    return 2;
  }

  if (result->ok()) {
    std::printf("PASS: %lld values compared, no mismatches\n",
                static_cast<long long>(result->values_compared));
    return 0;
  }
  std::printf("FAIL: %lld mismatch(es) over %lld values\n",
              static_cast<long long>(result->total_mismatches),
              static_cast<long long>(result->values_compared));
  for (const auto& mismatch : result->mismatches) {
    std::printf("  %s: %s\n", mismatch.path.c_str(), mismatch.detail.c_str());
  }
  if (result->total_mismatches >
      static_cast<int64_t>(result->mismatches.size())) {
    std::printf("  ... and %lld more\n",
                static_cast<long long>(
                    result->total_mismatches -
                    static_cast<int64_t>(result->mismatches.size())));
  }
  return 1;
}

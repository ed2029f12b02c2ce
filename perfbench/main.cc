// openima_perfbench: one run of one benchmark workload (perfbench/README.md).
//
//   openima_perfbench --workload train_full --seed 1 --seconds 10
//       --trace 0 --out-dir <scratch dir>
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// replays the workload's unit of work with a span around every public
// call and reports the per-layer metrics. The last stdout line is a JSON
// object: correct / attempted / failed / metrics, plus the prediction
// checksum, any failed checks and the run's provenance.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "perfbench/bench.h"
#include "src/exec/context.h"
#include "src/la/backend/backend.h"
#include "src/util/string_util.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_SANITIZE
#define PERFBENCH_SANITIZE ""
#endif

extern char** environ;

namespace perfbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "openima_perfbench: %s\nusage: openima_perfbench --workload "
               "train_full|train_sampled|train_dp|serve --seed N --seconds S "
               "--trace 0|1 --out-dir DIR\n",
               why);
  return 2;
}

// Refuses runs whose numbers would not describe the program as built for
// measurement: a non-Release or sanitizer build, or an OPENIMA_*
// environment variable that changes what runs (threads, workers, kernel
// backend, tracing, telemetry, metrics export, sampling, drift, ...).
bool GuardOk() {
  bool ok = true;
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "refusing a %s build: configure with Release\n",
                 PERFBENCH_BUILD_TYPE);
    ok = false;
  }
#ifndef NDEBUG
  std::fprintf(stderr, "refusing a build with assertions on (no NDEBUG)\n");
  ok = false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  std::fprintf(stderr, "refusing a sanitizer build\n");
  ok = false;
#endif
  if (std::strlen(PERFBENCH_SANITIZE) > 0) {
    std::fprintf(stderr, "refusing an OPENIMA_SANITIZE=%s build\n",
                 PERFBENCH_SANITIZE);
    ok = false;
  }
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "OPENIMA_", 8) == 0) {
      std::fprintf(stderr, "refusing to run with %s set\n", *e);
      ok = false;
    }
  }
  return ok;
}

int Main(int argc, char** argv) {
  Args args;
  bool have_workload = false, have_dir = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(value);
    } else if (key == "--trace") {
      args.trace = std::atoi(value) != 0;
    } else if (key == "--out-dir") {
      args.out_dir = value;
      have_dir = true;
    } else {
      return Usage(("unknown flag " + key).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("flags take one value each");
  if (!have_workload || !have_dir) return Usage("missing --workload/--out-dir");
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    return Usage(("unknown workload " + args.workload).c_str());
  }
  if (!(args.seconds > 0.0)) return Usage("--seconds must be positive");
  if (!GuardOk()) return 3;

  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  args.threads = std::min(spec->threads, nproc);
  oi::exec::SetDefaultNumThreads(args.threads);
  const std::string provenance = oi::StrFormat(
      "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, \"nproc\": %d, "
      "\"threads\": %d, \"workers\": %d, \"backend\": \"%s\", "
      "\"build_type\": \"%s\", \"compiler\": \"%s\", \"obs\": %d}",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.trace ? 1 : 0, nproc, args.threads, spec->workers,
      oi::la::backend::Default().name(), PERFBENCH_BUILD_TYPE,
      PERFBENCH_COMPILER, OPENIMA_OBS_ENABLED);
  std::printf("provenance: %s\n", provenance.c_str());

  Report report;
  if (spec->serve) {
    args.trace ? TraceServeWorkload(args, &report)
               : RunServeWorkload(args, &report);
  } else {
    args.trace ? TraceTrainingWorkload(*spec, args, &report)
               : RunTrainingWorkload(*spec, args, &report);
  }
  for (const std::string& p : report.problems()) {
    std::fprintf(stderr, "%s\n", p.c_str());
  }
  std::printf("%s\n", report.Json(provenance).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

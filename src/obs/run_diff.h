#ifndef OPENIMA_OBS_RUN_DIFF_H_
#define OPENIMA_OBS_RUN_DIFF_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/json.h"
#include "src/util/status.h"

namespace openima::obs {

/// Comparison/validation engine behind `tools/run_diff` — the regression
/// gate that compares two run artifacts (RunReports, telemetry JSONL logs,
/// BENCH_*.json) under per-metric tolerances. Lives in src/obs so the tests
/// can exercise it directly; available in OPENIMA_OBS=OFF builds like
/// RunReport.

/// How a rule treats the values its path matches.
enum class RuleKind {
  kIgnore,  ///< skip the subtree entirely
  kAbs,     ///< numbers must satisfy |a - b| <= tolerance
  kRel,     ///< numbers must satisfy |a - b| <= tolerance * max(|a|, |b|)
};

/// One tolerance rule. `pattern` addresses JSON nodes by slash-joined path
/// ("records/3/loss", array indices as decimal components): each component
/// may use '*' glob wildcards ("*_ms" matches "epoch_ms"), a bare "*"
/// matches any one component, and a trailing "**" matches any remainder.
/// The first matching rule wins; unmatched values must compare exactly.
struct DiffRule {
  std::string pattern;
  RuleKind kind = RuleKind::kIgnore;
  double tolerance = 0.0;
};

struct DiffOptions {
  std::vector<DiffRule> rules;
  /// Keep at most this many mismatch descriptions (all are still counted).
  int max_reported = 64;
};

/// One place the two documents disagree.
struct DiffMismatch {
  std::string path;
  std::string detail;  ///< human-readable "lhs vs rhs" description
};

struct DiffResult {
  std::vector<DiffMismatch> mismatches;
  int64_t total_mismatches = 0;  ///< including ones beyond max_reported
  int64_t values_compared = 0;   ///< leaves checked (ignored subtrees not)
  bool ok() const { return total_mismatches == 0; }
};

/// True when `pattern` (see DiffRule) matches the slash-joined `path`.
bool PathMatches(const std::string& pattern, const std::string& path);

/// Structural diff of two documents under the options' tolerance rules.
/// Missing/extra keys, type mismatches, array-length differences and
/// out-of-tolerance leaves all count as mismatches.
DiffResult DiffJson(const json::Value& lhs, const json::Value& rhs,
                    const DiffOptions& options);

/// Parses a tolerance file: {"rules": [{"path": "...", "ignore": true} |
/// {"path": "...", "abs": 1e-9} | {"path": "...", "rel": 0.05}, ...]}.
/// See EXPERIMENTS.md. Rules keep file order (first match wins).
StatusOr<std::vector<DiffRule>> LoadToleranceFile(const std::string& path);

/// The artifact kinds run_diff understands, detected from content.
enum class ArtifactType {
  kUnknown,
  kTelemetryJsonl,   ///< JSON-Lines of EpochRecords (telemetry.h)
  kRunReport,        ///< RunReport document ({"run_name": ...})
  kBenchTrain,       ///< {"schema": "openima-bench-train", ...}
  kMetricsSnapshot,  ///< {"schema": "openima-metrics-snapshot", ...}
};

const char* ArtifactTypeName(ArtifactType type);

/// Loads `path` into one comparable document and reports its detected
/// type. Telemetry JSONL is wrapped as {"records": [...]} so its records
/// are addressable as "records/<i>/<field>".
StatusOr<json::Value> LoadArtifact(const std::string& path,
                                   ArtifactType* type_out);

/// Type-aware default rules applied *after* user rules: volatile sections
/// (host/build metadata, wall-clock timings) are ignored so two runs of the
/// same build compare on computation-derived values only.
std::vector<DiffRule> DefaultRulesFor(ArtifactType type);

/// Loads both artifacts and diffs them (user rules first, then the
/// defaults for the detected type). Error when the types differ or either
/// file fails to load.
StatusOr<DiffResult> DiffArtifacts(const std::string& lhs_path,
                                   const std::string& rhs_path,
                                   const DiffOptions& options);

/// Schema check for one artifact (`run_diff --validate`): the file must
/// parse as a known artifact type and carry that type's required fields —
/// e.g. every telemetry record must satisfy EpochRecord::FromJson, a
/// bench-train document must have its "runs" entries. Unknown types fail.
Status ValidateArtifact(const std::string& path);

}  // namespace openima::obs

#endif  // OPENIMA_OBS_RUN_DIFF_H_

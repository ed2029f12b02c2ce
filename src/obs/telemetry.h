#ifndef OPENIMA_OBS_TELEMETRY_H_
#define OPENIMA_OBS_TELEMETRY_H_

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "src/obs/json.h"
#include "src/obs/obs_config.h"
#include "src/util/status.h"

namespace openima::obs {

/// One epoch of training telemetry (DESIGN.md §2.5). Every trainer appends
/// one record per epoch to the process telemetry sink when one is active
/// (`OPENIMA_TELEMETRY=path` / `--telemetry`); the sink serializes records
/// as JSON Lines — one compact object per line, append-only.
///
/// Determinism contract: a record may only contain values derived from the
/// training computation itself (losses, label counts, quality metrics, grad
/// norms) — never wall-clock times, thread counts, or allocator state.
/// Training is bit-identical across thread counts and pooled-vs-heap
/// storage, so the emitted JSONL is too (tests/telemetry_test.cc).
///
/// Fields that a trainer did not compute stay at their -1 sentinels and are
/// omitted from the JSON (see EXPERIMENTS.md for the schema): the OpenIMA
/// trainer fills everything; baselines fill the loss + gradient-norm core.
struct EpochRecord {
  std::string trainer;  ///< e.g. "OpenIMA", "ORCA", "SimGCD"
  int epoch = -1;       ///< 0-based epoch index

  // -------- losses (loss is required; components are OpenIMA's Eq. 6) ----
  double loss = 0.0;             ///< total training loss this epoch
  bool has_components = false;   ///< emit the four component losses
  double loss_ce = 0.0;          ///< eta-scaled cross-entropy term
  double loss_bpcl_emb = 0.0;    ///< embedding-level BPCL term
  double loss_bpcl_logit = 0.0;  ///< logit-level BPCL term
  double loss_pairwise = 0.0;    ///< large-graph pairwise BCE term

  // -------- gradient health ---------------------------------------------
  double grad_norm = -1.0;              ///< global L2 over all parameters
  std::vector<double> param_grad_norms; ///< per-parameter L2, model order
  int64_t watchdog_events = 0;          ///< anomalies observed this epoch

  // -------- pseudo-label quality (refresh-carried; -1 = not available) ---
  int pseudo_labels = -1;          ///< confident pseudo labels in use
  double pseudo_precision = -1.0;  ///< fraction matching ground truth
  double alignment_churn = -1.0;   ///< changed cluster->class fraction
  bool refreshed = false;          ///< true on pseudo-label refresh epochs

  /// Pipelined-refresh provenance (data-parallel trainer only): the epoch
  /// whose weight snapshot produced the pseudo labels active this epoch.
  /// The background refresh computes on a snapshot one refresh period old,
  /// so this lags `epoch`; the full-graph and W = 0 trainers refresh
  /// synchronously and leave the -1 sentinel (field omitted from the JSON).
  /// Still deterministic — the swap schedule is a pure function of the
  /// config, never of thread timing.
  int refresh_snapshot_epoch = -1;

  // -------- validation quality (-1 = not available) ----------------------
  bool has_quality = false;
  double val_acc = -1.0;   ///< Hungarian-aligned seen-class val accuracy
  double val_nmi = -1.0;   ///< NMI(predictions, labels) on val+test nodes
  double acc_all = -1.0;   ///< open-world accuracy on test nodes
  double acc_seen = -1.0;
  double acc_novel = -1.0;

  /// Serializes to the documented JSONL object (stable key order; -1
  /// sentinel fields of optional groups are omitted).
  json::Value ToJson() const;

  /// Inverse of ToJson (unknown keys ignored; missing optional groups keep
  /// their sentinels). Used by run_diff and the tests.
  static StatusOr<EpochRecord> FromJson(const json::Value& v);
};

/// Append-only JSON-Lines sink for EpochRecords. Like RunReport, the class
/// itself is available in OPENIMA_OBS=OFF builds (run_diff and the tests
/// use it); only the *global* sink hookup below is compiled out.
/// Thread-safe: Append serializes under a mutex (one line per record, never
/// interleaved) and flushes so a crash keeps every completed epoch.
class TelemetryLog {
 public:
  TelemetryLog() = default;
  ~TelemetryLog();

  TelemetryLog(const TelemetryLog&) = delete;
  TelemetryLog& operator=(const TelemetryLog&) = delete;

  /// Opens (truncates) `path` for writing. Error when already open.
  Status Open(const std::string& path);
  bool is_open() const;

  Status Append(const EpochRecord& record);
  int64_t records_written() const;

  Status Close();
  const std::string& path() const { return path_; }

 private:
  mutable std::mutex mu_;
  std::FILE* file_ = nullptr;
  std::string path_;
  int64_t records_ = 0;
};

/// Parses a telemetry JSONL file into one json::Value per line. Blank lines
/// are skipped; any malformed line is an error naming its line number.
StatusOr<std::vector<json::Value>> ReadJsonl(const std::string& path);

// ------------------------------------------------------------------------
// Global telemetry sink. Compiled to no-ops under OPENIMA_OBS=OFF like the
// rest of the instrumentation layer: StartTelemetry fails, TelemetryEnabled
// is a compile-time false (so `if (TelemetryEnabled())` blocks in trainers
// are dead-code eliminated), and AppendTelemetry does nothing.
// ------------------------------------------------------------------------

#if OPENIMA_OBS_ENABLED

/// Opens the process-wide telemetry sink. FailedPrecondition when already
/// active.
Status StartTelemetry(const std::string& path);

/// True while the global sink is open.
bool TelemetryEnabled();

/// Closes the sink (no-op OK when never started).
Status StopTelemetry();

/// Appends to the global sink; no-op OK when telemetry is inactive. The
/// current run label (if any) is stamped into the record's "run" field.
Status AppendTelemetry(const EpochRecord& record);

/// Labels subsequent records with a run identity (e.g.
/// "CoauthorCS/OpenIMA/seed0") so multi-run processes — the eval harness,
/// the table benches — produce distinguishable series. Empty clears.
void SetTelemetryRunLabel(const std::string& label);
std::string TelemetryRunLabel();

/// Reads OPENIMA_TELEMETRY; when set and non-empty, starts telemetry to
/// that path (the sink flushes per record, so no atexit hook is needed).
/// Safe to call repeatedly.
void InitTelemetryFromEnv();

/// Counts one finished epoch in the windowed "train.epochs" counter. Every
/// trainer calls it once per epoch after its optimizer step (OpenIMA from
/// its epoch heartbeat, the baselines from FullGraphBaseline::Train), so
/// the counter's window and timing are decided here. Independent of the
/// sink.
void CountEpoch();

#else  // !OPENIMA_OBS_ENABLED

inline Status StartTelemetry(const std::string&) {
  return Status::FailedPrecondition(
      "observability compiled out (OPENIMA_OBS=OFF)");
}
inline constexpr bool TelemetryEnabled() { return false; }
inline Status StopTelemetry() { return Status::OK(); }
inline Status AppendTelemetry(const EpochRecord&) { return Status::OK(); }
inline void SetTelemetryRunLabel(const std::string&) {}
inline std::string TelemetryRunLabel() { return std::string(); }
inline void InitTelemetryFromEnv() {}
inline void CountEpoch() {}

#endif  // OPENIMA_OBS_ENABLED

/// Sequential sum-of-squares accumulator for gradient norms. Accumulates in
/// double in call order, so results are bit-identical for a fixed sequence
/// of Add calls (trainers iterate parameters in registration order).
class GradNormAccumulator {
 public:
  /// Accumulates one tensor; records its own L2 norm in per_param().
  void Add(const float* data, int64_t n);

  double global() const;  ///< L2 norm over everything added
  const std::vector<double>& per_param() const { return per_param_; }

 private:
  double sum_squares_ = 0.0;
  std::vector<double> per_param_;
};

}  // namespace openima::obs

#endif  // OPENIMA_OBS_TELEMETRY_H_

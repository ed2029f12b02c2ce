#ifndef OPENIMA_PERFBENCH_TRACE_H_
#define OPENIMA_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/autograd/tape.h"
#include "src/la/pool.h"
#include "src/util/status.h"

namespace perfbench {

/// One timed call into a program module, recorded by the benchmark around
/// a public function. Spans nest: `parent` is the index of the enclosing
/// span (-1 for a root). `pool_mib` is the MiB handed out by the
/// harness-bound la::Pool while the span ran; `tape_nodes` the autograd
/// nodes drawn from the harness-bound tape.
struct Span {
  std::string name;
  int parent = -1;
  double start_ms = 0.0;
  double end_ms = 0.0;
  double pool_mib = 0.0;
  int64_t tape_nodes = 0;

  double ms() const { return end_ms - start_ms; }
};

/// In-memory span recorder. Spans stay in memory until the run ends;
/// nothing is written while timing. A disabled tracer records nothing, so
/// the same replay code runs traced and untraced (the difference is the
/// tracing overhead).
class Tracer {
 public:
  Tracer(openima::la::Pool* pool, openima::autograd::Tape* tape);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// RAII span: opens on construction, closes on destruction. A null or
  /// disabled tracer makes it a no-op.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
    int64_t pool_bytes_before_ = 0;
    int64_t tape_nodes_before_ = 0;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Per-call durations (ms) of every span with this name.
  std::vector<double> Durations(const std::string& name) const;

  /// Per-call pooled MiB of every span with this name.
  std::vector<double> PoolMib(const std::string& name) const;

  /// Per-call tape node counts of every span with this name.
  std::vector<double> TapeNodes(const std::string& name) const;

  /// Duration minus the time covered by the span's direct children.
  double SelfMs(int index) const;

  /// Structural check: every parent exists and encloses its child, and no
  /// span's children add up to more than the span itself.
  openima::Status SelfCheck() const;

  /// Per-name table (calls, total, self, mean, MiB) as printable lines.
  std::vector<std::string> Table() const;

  /// Writes every span as a JSON array of objects.
  openima::Status WriteJson(const std::string& path) const;

 private:
  double NowMs() const;

  openima::la::Pool* pool_;
  openima::autograd::Tape* tape_;
  bool enabled_ = true;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open span indices
};

}  // namespace perfbench

#endif  // OPENIMA_PERFBENCH_TRACE_H_

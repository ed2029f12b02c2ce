#include "perfbench/trace.h"

#include <cstdio>
#include <map>

#include "src/util/string_util.h"

namespace perfbench {

using openima::Status;
using openima::StrFormat;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

}  // namespace

Tracer::Tracer(openima::la::Pool* pool, openima::autograd::Tape* tape)
    : pool_(pool), tape_(tape), origin_(std::chrono::steady_clock::now()) {}

double Tracer::NowMs() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ == nullptr || !tracer_->enabled_) return;
  Span span;
  span.name = name;
  span.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  index_ = static_cast<int>(tracer_->spans_.size());
  tracer_->spans_.push_back(std::move(span));
  tracer_->open_.push_back(index_);
  pool_bytes_before_ = tracer_->pool_->stats().bytes_acquired;
  tape_nodes_before_ = tracer_->tape_->stats().nodes;
  // Read the clock last so the bookkeeping above stays outside the span.
  tracer_->spans_[static_cast<size_t>(index_)].start_ms = tracer_->NowMs();
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  const double end = tracer_->NowMs();
  Span& span = tracer_->spans_[static_cast<size_t>(index_)];
  span.end_ms = end;
  span.pool_mib = static_cast<double>(tracer_->pool_->stats().bytes_acquired -
                                      pool_bytes_before_) /
                  kMiB;
  span.tape_nodes = tracer_->tape_->stats().nodes - tape_nodes_before_;
  tracer_->open_.pop_back();
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.ms());
  }
  return out;
}

std::vector<double> Tracer::PoolMib(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.pool_mib);
  }
  return out;
}

std::vector<double> Tracer::TapeNodes(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(static_cast<double>(s.tape_nodes));
  }
  return out;
}

double Tracer::SelfMs(int index) const {
  double children = 0.0;
  for (const Span& s : spans_) {
    if (s.parent == index) children += s.ms();
  }
  return spans_[static_cast<size_t>(index)].ms() - children;
}

Status Tracer::SelfCheck() const {
  if (!open_.empty()) {
    return Status::Internal(
        StrFormat("%zu spans were never closed", open_.size()));
  }
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ms < s.start_ms) {
      return Status::Internal("span " + s.name + " ends before it starts");
    }
    if (s.parent < 0) continue;
    if (static_cast<size_t>(s.parent) >= i) {
      return Status::Internal("span " + s.name + " has no recorded parent");
    }
    const Span& p = spans_[static_cast<size_t>(s.parent)];
    if (s.start_ms < p.start_ms || s.end_ms > p.end_ms) {
      return Status::Internal("span " + s.name + " escapes its parent " +
                              p.name);
    }
    child_ms[static_cast<size_t>(s.parent)] += s.ms();
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (child_ms[i] > spans_[i].ms()) {
      return Status::Internal(StrFormat(
          "children of span %s last %.6f ms, longer than the span's %.6f ms",
          spans_[i].name.c_str(), child_ms[i], spans_[i].ms()));
    }
  }
  return Status::OK();
}

std::vector<std::string> Tracer::Table() const {
  struct Row {
    int calls = 0;
    double total = 0.0;
    double self = 0.0;
    double mib = 0.0;
  };
  std::map<std::string, Row> rows;
  for (size_t i = 0; i < spans_.size(); ++i) {
    Row& r = rows[spans_[i].name];
    ++r.calls;
    r.total += spans_[i].ms();
    r.self += SelfMs(static_cast<int>(i));
    r.mib += spans_[i].pool_mib;
  }
  std::vector<std::string> out;
  out.push_back(StrFormat("%-28s %6s %11s %11s %10s %9s", "span", "calls",
                          "total_ms", "self_ms", "mean_ms", "pool_mib"));
  for (const auto& [name, r] : rows) {
    out.push_back(StrFormat("%-28s %6d %11.3f %11.3f %10.4f %9.2f",
                            name.c_str(), r.calls, r.total, r.self,
                            r.total / r.calls, r.mib));
  }
  return out;
}

Status Tracer::WriteJson(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::Internal("cannot write " + path);
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                 "\"start_ms\": %.6f, \"end_ms\": %.6f, \"self_ms\": %.6f, "
                 "\"pool_mib\": %.6f, \"tape_nodes\": %lld}%s\n",
                 i, s.name.c_str(), s.parent, s.start_ms, s.end_ms,
                 SelfMs(static_cast<int>(i)), s.pool_mib,
                 static_cast<long long>(s.tape_nodes),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0 ? Status::OK()
                             : Status::Internal("cannot close " + path);
}

}  // namespace perfbench

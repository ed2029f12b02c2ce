#include "src/obs/run_diff.h"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

#include "src/obs/telemetry.h"

namespace openima::obs {

namespace {

/// Glob match with '*' (any run of characters) for one path component.
bool GlobMatch(const std::string& pattern, const std::string& text) {
  size_t p = 0, t = 0, star = std::string::npos, mark = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == text[t] || pattern[p] == '?')) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      mark = t;
    } else if (star != std::string::npos) {
      p = star + 1;
      t = ++mark;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

std::vector<std::string> SplitPath(const std::string& path) {
  std::vector<std::string> parts;
  std::string part;
  std::istringstream in(path);
  while (std::getline(in, part, '/')) parts.push_back(part);
  return parts;
}

std::string FormatLeaf(const json::Value& v) {
  return v.Dump(/*indent=*/0);
}

const char* TypeName(json::Value::Type type) {
  switch (type) {
    case json::Value::Type::kNull:
      return "null";
    case json::Value::Type::kBool:
      return "bool";
    case json::Value::Type::kInt:
      return "int";
    case json::Value::Type::kDouble:
      return "double";
    case json::Value::Type::kString:
      return "string";
    case json::Value::Type::kArray:
      return "array";
    case json::Value::Type::kObject:
      return "object";
  }
  return "?";
}

class Differ {
 public:
  explicit Differ(const DiffOptions& options) : options_(options) {}

  DiffResult Take() { return std::move(result_); }

  void Diff(const json::Value& lhs, const json::Value& rhs,
            const std::string& path) {
    const DiffRule* rule = MatchRule(path);
    if (rule != nullptr && rule->kind == RuleKind::kIgnore) return;

    // Numbers compare as numbers (an int 5 equals a double 5.0 under any
    // tolerance rule; without one, mixed int/double still compares exactly
    // on the double value).
    if (lhs.is_number() && rhs.is_number()) {
      ++result_.values_compared;
      const double a = lhs.AsDouble();
      const double b = rhs.AsDouble();
      if (!NumbersMatch(a, b, rule)) {
        std::ostringstream detail;
        detail << FormatLeaf(lhs) << " vs " << FormatLeaf(rhs);
        if (rule != nullptr) {
          detail << " (|delta| " << std::abs(a - b) << " > "
                 << (rule->kind == RuleKind::kAbs ? "abs " : "rel ")
                 << rule->tolerance << ")";
        }
        Report(path, detail.str());
      }
      return;
    }

    if (lhs.type() != rhs.type()) {
      Report(path, std::string("type ") + TypeName(lhs.type()) + " vs " +
                       TypeName(rhs.type()));
      return;
    }

    switch (lhs.type()) {
      case json::Value::Type::kObject:
        DiffObjects(lhs, rhs, path);
        return;
      case json::Value::Type::kArray:
        DiffArrays(lhs, rhs, path);
        return;
      default:
        ++result_.values_compared;
        if (lhs != rhs) {
          Report(path, FormatLeaf(lhs) + " vs " + FormatLeaf(rhs));
        }
        return;
    }
  }

 private:
  const DiffRule* MatchRule(const std::string& path) const {
    for (const DiffRule& rule : options_.rules) {
      if (PathMatches(rule.pattern, path)) return &rule;
    }
    return nullptr;
  }

  static bool NumbersMatch(double a, double b, const DiffRule* rule) {
    if (a == b) return true;
    if (std::isnan(a) && std::isnan(b)) return true;
    if (rule == nullptr) return false;
    const double delta = std::abs(a - b);
    if (!std::isfinite(delta)) return false;
    if (rule->kind == RuleKind::kAbs) return delta <= rule->tolerance;
    return delta <= rule->tolerance * std::max(std::abs(a), std::abs(b));
  }

  void DiffObjects(const json::Value& lhs, const json::Value& rhs,
                   const std::string& path) {
    for (const auto& [key, value] : lhs.items()) {
      const std::string child = path.empty() ? key : path + "/" + key;
      if (const json::Value* other = rhs.Find(key)) {
        Diff(value, *other, child);
      } else if (!IsIgnored(child)) {
        Report(child, "missing on right");
      }
    }
    for (const auto& [key, value] : rhs.items()) {
      (void)value;
      if (lhs.Has(key)) continue;
      const std::string child = path.empty() ? key : path + "/" + key;
      if (!IsIgnored(child)) Report(child, "missing on left");
    }
  }

  void DiffArrays(const json::Value& lhs, const json::Value& rhs,
                  const std::string& path) {
    if (lhs.size() != rhs.size()) {
      std::ostringstream detail;
      detail << "length " << lhs.size() << " vs " << rhs.size();
      Report(path, detail.str());
    }
    const size_t n = std::min(lhs.size(), rhs.size());
    for (size_t i = 0; i < n; ++i) {
      Diff(lhs.at(i), rhs.at(i), path + "/" + std::to_string(i));
    }
  }

  bool IsIgnored(const std::string& path) const {
    const DiffRule* rule = MatchRule(path);
    return rule != nullptr && rule->kind == RuleKind::kIgnore;
  }

  void Report(const std::string& path, const std::string& detail) {
    ++result_.total_mismatches;
    if (static_cast<int>(result_.mismatches.size()) < options_.max_reported) {
      result_.mismatches.push_back(DiffMismatch{path, detail});
    }
  }

  const DiffOptions& options_;
  DiffResult result_;
};

StatusOr<std::string> ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return Status::IOError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

bool LooksLikeTelemetryRecord(const json::Value& v) {
  return v.is_object() && v.Has("trainer") && v.Has("epoch") && v.Has("loss");
}

}  // namespace

bool PathMatches(const std::string& pattern, const std::string& path) {
  const std::vector<std::string> pat = SplitPath(pattern);
  const std::vector<std::string> parts = SplitPath(path);
  size_t i = 0;
  for (; i < pat.size(); ++i) {
    if (pat[i] == "**") return true;  // trailing ** matches any remainder
    if (i >= parts.size()) return false;
    if (!GlobMatch(pat[i], parts[i])) return false;
  }
  return i == parts.size();
}

DiffResult DiffJson(const json::Value& lhs, const json::Value& rhs,
                    const DiffOptions& options) {
  Differ differ(options);
  differ.Diff(lhs, rhs, "");
  return differ.Take();
}

StatusOr<std::vector<DiffRule>> LoadToleranceFile(const std::string& path) {
  auto text = ReadWholeFile(path);
  if (!text.ok()) return text.status();
  auto parsed = json::Value::Parse(*text);
  if (!parsed.ok()) {
    return Status::InvalidArgument(path + ": " + parsed.status().message());
  }
  const json::Value& doc = *parsed;
  const json::Value* rules = doc.Find("rules");
  if (rules == nullptr || !rules->is_array()) {
    return Status::InvalidArgument(path +
                                   ": tolerance file needs a \"rules\" array");
  }
  std::vector<DiffRule> out;
  for (size_t i = 0; i < rules->size(); ++i) {
    const json::Value& entry = rules->at(i);
    std::ostringstream where;
    where << path << ": rules[" << i << "]";
    if (!entry.is_object() || !entry.Has("path") ||
        !entry.at("path").is_string()) {
      return Status::InvalidArgument(where.str() +
                                     " needs a string \"path\"");
    }
    DiffRule rule;
    rule.pattern = entry.at("path").AsString();
    const json::Value* abs = entry.Find("abs");
    const json::Value* rel = entry.Find("rel");
    const json::Value* ignore = entry.Find("ignore");
    const int specified =
        (abs != nullptr) + (rel != nullptr) + (ignore != nullptr);
    if (specified != 1) {
      return Status::InvalidArgument(
          where.str() + " needs exactly one of \"abs\", \"rel\", \"ignore\"");
    }
    if (ignore != nullptr) {
      if (!ignore->is_bool() || !ignore->AsBool()) {
        return Status::InvalidArgument(where.str() + ": \"ignore\" must be true");
      }
      rule.kind = RuleKind::kIgnore;
    } else if (abs != nullptr) {
      if (!abs->is_number() || abs->AsDouble() < 0.0) {
        return Status::InvalidArgument(where.str() +
                                       ": \"abs\" must be a number >= 0");
      }
      rule.kind = RuleKind::kAbs;
      rule.tolerance = abs->AsDouble();
    } else {
      if (!rel->is_number() || rel->AsDouble() < 0.0) {
        return Status::InvalidArgument(where.str() +
                                       ": \"rel\" must be a number >= 0");
      }
      rule.kind = RuleKind::kRel;
      rule.tolerance = rel->AsDouble();
    }
    out.push_back(std::move(rule));
  }
  return out;
}

const char* ArtifactTypeName(ArtifactType type) {
  switch (type) {
    case ArtifactType::kUnknown:
      return "unknown";
    case ArtifactType::kTelemetryJsonl:
      return "telemetry-jsonl";
    case ArtifactType::kRunReport:
      return "run-report";
    case ArtifactType::kBenchTrain:
      return "bench-train";
    case ArtifactType::kMetricsSnapshot:
      return "metrics-snapshot";
  }
  return "unknown";
}

StatusOr<json::Value> LoadArtifact(const std::string& path,
                                   ArtifactType* type_out) {
  ArtifactType type = ArtifactType::kUnknown;
  auto text = ReadWholeFile(path);
  if (!text.ok()) return text.status();

  // A whole-file parse succeeds for single-document artifacts (and for a
  // one-record telemetry log, which we still treat as JSONL below).
  auto parsed = json::Value::Parse(*text);
  if (parsed.ok() && !LooksLikeTelemetryRecord(*parsed)) {
    const json::Value& doc = *parsed;
    if (const json::Value* schema = doc.Find("schema");
        schema != nullptr && schema->is_string() &&
        schema->AsString() == "openima-bench-train") {
      type = ArtifactType::kBenchTrain;
    } else if (schema != nullptr && schema->is_string() &&
               schema->AsString() == "openima-metrics-snapshot") {
      type = ArtifactType::kMetricsSnapshot;
    } else if (doc.is_object() && doc.Has("run_name")) {
      type = ArtifactType::kRunReport;
    }
    if (type != ArtifactType::kUnknown) {
      if (type_out != nullptr) *type_out = type;
      return std::move(*parsed);
    }
  }

  // Otherwise try JSON-Lines: a telemetry log becomes {"records": [...]}.
  auto records = ReadJsonl(path);
  if (records.ok() && !records->empty()) {
    bool all_telemetry = true;
    json::Value arr = json::Value::Array();
    for (json::Value& rec : *records) {
      all_telemetry = all_telemetry && LooksLikeTelemetryRecord(rec);
      arr.Append(std::move(rec));
    }
    if (all_telemetry) {
      json::Value doc = json::Value::Object();
      doc.Set("records", std::move(arr));
      if (type_out != nullptr) *type_out = ArtifactType::kTelemetryJsonl;
      return doc;
    }
  }

  if (!parsed.ok()) return parsed.status();
  return Status::InvalidArgument(path + ": unrecognized artifact type");
}

std::vector<DiffRule> DefaultRulesFor(ArtifactType type) {
  std::vector<DiffRule> rules;
  auto ignore = [&rules](const char* pattern) {
    rules.push_back(DiffRule{pattern, RuleKind::kIgnore, 0.0});
  };
  switch (type) {
    case ArtifactType::kRunReport:
      // Host/build identity and wall-clock phase timings are volatile by
      // nature; everything else in a report is computation-derived.
      ignore("run/**");
      ignore("phases/**");
      break;
    case ArtifactType::kBenchTrain:
      ignore("run/**");
      ignore("runs/*/*_ms");  // wall-clock timings
      break;
    case ArtifactType::kMetricsSnapshot:
      // Counters/gauges under the logical clock are computation-derived and
      // compare exactly; export cadence (sequence) and everything derived
      // from wall-clock durations — the "time/..." histograms and windowed
      // latency stats — are volatile.
      ignore("sequence");
      ignore("tick");
      ignore("histograms/**");
      ignore("windows/histograms/**");
      break;
    case ArtifactType::kTelemetryJsonl:
    case ArtifactType::kUnknown:
      break;  // telemetry is fully deterministic: exact compare
  }
  return rules;
}

StatusOr<DiffResult> DiffArtifacts(const std::string& lhs_path,
                                   const std::string& rhs_path,
                                   const DiffOptions& options) {
  ArtifactType lhs_type = ArtifactType::kUnknown;
  ArtifactType rhs_type = ArtifactType::kUnknown;
  auto lhs = LoadArtifact(lhs_path, &lhs_type);
  if (!lhs.ok()) return lhs.status();
  auto rhs = LoadArtifact(rhs_path, &rhs_type);
  if (!rhs.ok()) return rhs.status();
  if (lhs_type != rhs_type) {
    return Status::InvalidArgument(
        std::string("artifact types differ: ") + ArtifactTypeName(lhs_type) +
        " (" + lhs_path + ") vs " + ArtifactTypeName(rhs_type) + " (" +
        rhs_path + ")");
  }
  DiffOptions merged = options;
  for (DiffRule& rule : DefaultRulesFor(lhs_type)) {
    merged.rules.push_back(std::move(rule));
  }
  return DiffJson(*lhs, *rhs, merged);
}

Status ValidateArtifact(const std::string& path) {
  ArtifactType type = ArtifactType::kUnknown;
  auto loaded = LoadArtifact(path, &type);
  if (!loaded.ok()) return loaded.status();
  const json::Value& doc = *loaded;
  switch (type) {
    case ArtifactType::kTelemetryJsonl: {
      const json::Value& records = doc.at("records");
      for (size_t i = 0; i < records.size(); ++i) {
        auto rec = EpochRecord::FromJson(records.at(i));
        if (!rec.ok()) {
          std::ostringstream msg;
          msg << path << ": record " << i << ": " << rec.status().message();
          return Status::InvalidArgument(msg.str());
        }
      }
      return Status::OK();
    }
    case ArtifactType::kBenchTrain: {
      const json::Value* runs = doc.Find("runs");
      if (runs == nullptr || !runs->is_array() || runs->size() == 0) {
        return Status::InvalidArgument(
            path + ": bench-train document needs a non-empty \"runs\" array");
      }
      for (size_t i = 0; i < runs->size(); ++i) {
        const json::Value& run = runs->at(i);
        if (!run.is_object() || !run.Has("name") ||
            !run.at("name").is_string() || !run.Has("final") ||
            !run.at("final").is_object()) {
          std::ostringstream msg;
          msg << path << ": runs[" << i
              << "] needs a string \"name\" and object \"final\"";
          return Status::InvalidArgument(msg.str());
        }
      }
      return Status::OK();
    }
    case ArtifactType::kMetricsSnapshot: {
      for (const char* key : {"counters", "gauges", "histograms", "windows"}) {
        const json::Value* section = doc.Find(key);
        if (section == nullptr || !section->is_object()) {
          return Status::InvalidArgument(
              path + ": metrics snapshot needs an object \"" + key + "\"");
        }
      }
      if (!doc.Has("sequence") || !doc.at("sequence").is_int() ||
          !doc.Has("tick") || !doc.at("tick").is_int()) {
        return Status::InvalidArgument(
            path + ": metrics snapshot needs integer \"sequence\"/\"tick\"");
      }
      const json::Value& windows = doc.at("windows");
      if (windows.Find("counters") == nullptr ||
          windows.Find("histograms") == nullptr) {
        return Status::InvalidArgument(
            path +
            ": metrics snapshot \"windows\" needs \"counters\"/\"histograms\"");
      }
      return Status::OK();
    }
    case ArtifactType::kRunReport:
      if (!doc.at("run_name").is_string()) {
        return Status::InvalidArgument(path +
                                       ": \"run_name\" must be a string");
      }
      return Status::OK();
    case ArtifactType::kUnknown:
      break;
  }
  return Status::InvalidArgument(path + ": unrecognized artifact type");
}

}  // namespace openima::obs

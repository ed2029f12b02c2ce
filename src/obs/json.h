#ifndef OPENIMA_OBS_JSON_H_
#define OPENIMA_OBS_JSON_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/util/status.h"

namespace openima::obs::json {

/// Minimal JSON document tree used by the observability layer: RunReport
/// serialization, the chrome-trace writer, and the round-trip checks in
/// quickstart --obs-smoke / tests/obs_test.cc. Objects preserve insertion
/// order (reports read top-to-bottom), integers survive a Dump/Parse
/// round-trip exactly, and doubles are emitted with enough digits
/// (%.17g) to reparse bit-identically.
class Value {
 public:
  enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  Value() : type_(Type::kNull) {}
  static Value Null() { return Value(); }
  static Value Bool(bool b);
  static Value Int(int64_t i);
  static Value Double(double d);
  static Value Str(std::string s);
  static Value Array();
  static Value Object();

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_int() const { return type_ == Type::kInt; }
  bool is_double() const { return type_ == Type::kDouble; }
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; CHECK-fail on type mismatch (AsDouble accepts ints).
  bool AsBool() const;
  int64_t AsInt() const;
  double AsDouble() const;
  const std::string& AsString() const;

  /// Array access.
  void Append(Value v);
  size_t size() const;
  const Value& at(size_t i) const;

  /// Object access. Set overwrites an existing key in place (order kept).
  void Set(const std::string& key, Value v);
  bool Has(const std::string& key) const;
  /// CHECK-fails when the key is absent.
  const Value& at(const std::string& key) const;
  /// nullptr when absent.
  const Value* Find(const std::string& key) const;
  const std::vector<std::pair<std::string, Value>>& items() const;

  /// Structural equality (exact for bool/int/string, bit-exact doubles).
  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }

  /// Serializes; indent <= 0 emits the compact single-line form.
  std::string Dump(int indent = 2) const;

  /// Parses a complete JSON document (trailing garbage is an error).
  static StatusOr<Value> Parse(const std::string& text);

 private:
  void DumpTo(std::string* out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<Value> array_;
  std::vector<std::pair<std::string, Value>> object_;
};

/// JSON string escaping (quotes not included).
std::string Escape(const std::string& s);

}  // namespace openima::obs::json

namespace openima::obs {

/// Writes `text` to the open stream `f` and flushes it. A short write or a
/// failed flush (a full disk surfaces there) is an IOError naming `path`.
Status WriteAndFlush(std::FILE* f, const std::string& text,
                     const std::string& path);

/// Closes `f`; IOError naming `path` when the close fails.
Status CloseFile(std::FILE* f, const std::string& path);

/// Writes `text` as the whole content of `path`, with both checks above —
/// the one write path of the report, trace, snapshot and telemetry writers.
Status WriteTextFile(const std::string& path, const std::string& text);

}  // namespace openima::obs

#endif  // OPENIMA_OBS_JSON_H_

#include "src/obs/json.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "src/util/logging.h"
#include "src/util/string_util.h"

namespace openima::obs::json {

Value Value::Bool(bool b) {
  Value v;
  v.type_ = Type::kBool;
  v.bool_ = b;
  return v;
}

Value Value::Int(int64_t i) {
  Value v;
  v.type_ = Type::kInt;
  v.int_ = i;
  return v;
}

Value Value::Double(double d) {
  Value v;
  v.type_ = Type::kDouble;
  v.double_ = d;
  return v;
}

Value Value::Str(std::string s) {
  Value v;
  v.type_ = Type::kString;
  v.string_ = std::move(s);
  return v;
}

Value Value::Array() {
  Value v;
  v.type_ = Type::kArray;
  return v;
}

Value Value::Object() {
  Value v;
  v.type_ = Type::kObject;
  return v;
}

bool Value::AsBool() const {
  OPENIMA_CHECK(is_bool());
  return bool_;
}

int64_t Value::AsInt() const {
  OPENIMA_CHECK(is_int());
  return int_;
}

double Value::AsDouble() const {
  OPENIMA_CHECK(is_number());
  return is_int() ? static_cast<double>(int_) : double_;
}

const std::string& Value::AsString() const {
  OPENIMA_CHECK(is_string());
  return string_;
}

void Value::Append(Value v) {
  OPENIMA_CHECK(is_array());
  array_.push_back(std::move(v));
}

size_t Value::size() const {
  if (is_array()) return array_.size();
  if (is_object()) return object_.size();
  return 0;
}

const Value& Value::at(size_t i) const {
  OPENIMA_CHECK(is_array());
  OPENIMA_CHECK_LT(i, array_.size());
  return array_[i];
}

void Value::Set(const std::string& key, Value v) {
  OPENIMA_CHECK(is_object());
  for (auto& [k, existing] : object_) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  object_.emplace_back(key, std::move(v));
}

bool Value::Has(const std::string& key) const { return Find(key) != nullptr; }

const Value& Value::at(const std::string& key) const {
  const Value* v = Find(key);
  OPENIMA_CHECK(v != nullptr) << "missing JSON key: " << key;
  return *v;
}

const Value* Value::Find(const std::string& key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const std::vector<std::pair<std::string, Value>>& Value::items() const {
  OPENIMA_CHECK(is_object());
  return object_;
}

bool Value::operator==(const Value& other) const {
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::kNull:
      return true;
    case Type::kBool:
      return bool_ == other.bool_;
    case Type::kInt:
      return int_ == other.int_;
    case Type::kDouble:
      return double_ == other.double_ ||
             (std::isnan(double_) && std::isnan(other.double_));
    case Type::kString:
      return string_ == other.string_;
    case Type::kArray:
      return array_ == other.array_;
    case Type::kObject:
      return object_ == other.object_;
  }
  return false;
}

std::string Escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

std::string FormatDouble(double d) {
  // NaN/Inf are not representable in JSON; emit null (chrome://tracing and
  // every parser we round-trip through treat it as missing).
  if (!std::isfinite(d)) return "null";
  std::string s = StrFormat("%.17g", d);
  // Ensure the token reparses as a double, not an integer.
  if (s.find_first_of(".eE") == std::string::npos) s += ".0";
  return s;
}

}  // namespace

void Value::DumpTo(std::string* out, int indent, int depth) const {
  const bool pretty = indent > 0;
  const std::string pad = pretty ? std::string(
      static_cast<size_t>(indent) * static_cast<size_t>(depth + 1), ' ')
      : std::string();
  const std::string close_pad = pretty ? std::string(
      static_cast<size_t>(indent) * static_cast<size_t>(depth), ' ')
      : std::string();
  const char* nl = pretty ? "\n" : "";
  switch (type_) {
    case Type::kNull:
      *out += "null";
      return;
    case Type::kBool:
      *out += bool_ ? "true" : "false";
      return;
    case Type::kInt:
      *out += StrFormat("%lld", static_cast<long long>(int_));
      return;
    case Type::kDouble:
      *out += FormatDouble(double_);
      return;
    case Type::kString:
      *out += '"';
      *out += Escape(string_);
      *out += '"';
      return;
    case Type::kArray: {
      if (array_.empty()) {
        *out += "[]";
        return;
      }
      *out += '[';
      *out += nl;
      for (size_t i = 0; i < array_.size(); ++i) {
        *out += pad;
        array_[i].DumpTo(out, indent, depth + 1);
        if (i + 1 < array_.size()) *out += ',';
        *out += nl;
      }
      *out += close_pad;
      *out += ']';
      return;
    }
    case Type::kObject: {
      if (object_.empty()) {
        *out += "{}";
        return;
      }
      *out += '{';
      *out += nl;
      for (size_t i = 0; i < object_.size(); ++i) {
        *out += pad;
        *out += '"';
        *out += Escape(object_[i].first);
        *out += pretty ? "\": " : "\":";
        object_[i].second.DumpTo(out, indent, depth + 1);
        if (i + 1 < object_.size()) *out += ',';
        *out += nl;
      }
      *out += close_pad;
      *out += '}';
      return;
    }
  }
}

std::string Value::Dump(int indent) const {
  std::string out;
  DumpTo(&out, indent, 0);
  return out;
}

namespace {

/// Recursive-descent parser over the JSON subset the layer emits (which is
/// all of JSON minus \uXXXX surrogate pairs — escaped control characters
/// decode to their code unit).
class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  StatusOr<Value> ParseDocument() {
    auto v = ParseValue();
    OPENIMA_RETURN_IF_ERROR(v.status());
    SkipWs();
    if (pos_ != s_.size()) {
      return Status::InvalidArgument(
          StrFormat("trailing characters at offset %zu", pos_));
    }
    return v;
  }

 private:
  void SkipWs() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status Err(const std::string& what) const {
    return Status::InvalidArgument(
        StrFormat("JSON parse error at offset %zu: %s", pos_, what.c_str()));
  }

  StatusOr<Value> ParseValue() {
    SkipWs();
    if (pos_ >= s_.size()) return Err("unexpected end of input");
    const char c = s_[pos_];
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') {
      auto str = ParseString();
      OPENIMA_RETURN_IF_ERROR(str.status());
      return Value::Str(std::move(*str));
    }
    if (s_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return Value::Null();
    }
    if (s_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      return Value::Bool(true);
    }
    if (s_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      return Value::Bool(false);
    }
    return ParseNumber();
  }

  StatusOr<Value> ParseNumber() {
    const size_t start = pos_;
    if (Consume('-')) {}
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Err("expected a value");
    const std::string token = s_.substr(start, pos_ - start);
    if (token.find_first_of(".eE") == std::string::npos) {
      errno = 0;
      char* end = nullptr;
      const long long i = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end == token.c_str() + token.size()) {
        return Value::Int(i);
      }
    }
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      return Err("malformed number '" + token + "'");
    }
    return Value::Double(d);
  }

  StatusOr<std::string> ParseString() {
    if (!Consume('"')) return Err("expected '\"'");
    std::string out;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) break;
      const char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return Err("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return Err("bad \\u escape");
          }
          // The writer only escapes control characters (< 0x20); decode the
          // single code unit as one byte.
          out += static_cast<char>(code & 0xff);
          break;
        }
        default:
          return Err(StrFormat("unknown escape '\\%c'", e));
      }
    }
    return Err("unterminated string");
  }

  StatusOr<Value> ParseArray() {
    if (!Consume('[')) return Err("expected '['");
    Value arr = Value::Array();
    SkipWs();
    if (Consume(']')) return arr;
    while (true) {
      auto v = ParseValue();
      OPENIMA_RETURN_IF_ERROR(v.status());
      arr.Append(std::move(*v));
      SkipWs();
      if (Consume(']')) return arr;
      if (!Consume(',')) return Err("expected ',' or ']'");
    }
  }

  StatusOr<Value> ParseObject() {
    if (!Consume('{')) return Err("expected '{'");
    Value obj = Value::Object();
    SkipWs();
    if (Consume('}')) return obj;
    while (true) {
      SkipWs();
      auto key = ParseString();
      OPENIMA_RETURN_IF_ERROR(key.status());
      SkipWs();
      if (!Consume(':')) return Err("expected ':'");
      auto v = ParseValue();
      OPENIMA_RETURN_IF_ERROR(v.status());
      obj.Set(*key, std::move(*v));
      SkipWs();
      if (Consume('}')) return obj;
      if (!Consume(',')) return Err("expected ',' or '}'");
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
};

}  // namespace

StatusOr<Value> Value::Parse(const std::string& text) {
  return Parser(text).ParseDocument();
}

}  // namespace openima::obs::json

namespace openima::obs {

Status WriteAndFlush(std::FILE* f, const std::string& text,
                     const std::string& path) {
  const size_t written = std::fwrite(text.data(), 1, text.size(), f);
  if (std::fflush(f) != 0 || written != text.size()) {
    return Status::IOError("write to " + path + " failed: " +
                           std::strerror(errno));
  }
  return Status::OK();
}

Status CloseFile(std::FILE* f, const std::string& path) {
  if (std::fclose(f) != 0) {
    return Status::IOError("cannot close " + path + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}

Status WriteTextFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IOError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  const Status written = WriteAndFlush(f, text, path);
  const Status closed = CloseFile(f, path);
  return written.ok() ? closed : written;
}

}  // namespace openima::obs

#ifndef OPENIMA_UTIL_FLAGS_H_
#define OPENIMA_UTIL_FLAGS_H_

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

namespace openima {

/// Minimal `--key=value` command-line parser for the bench and example
/// binaries. Unrecognized positional arguments are rejected.
class Flags {
 public:
  /// Parses argv; aborts with a usage message on malformed input.
  Flags(int argc, char** argv);

  /// Typed getters with defaults. A flag given without "=value" parses as
  /// boolean true. Each getter exits 2 with a usage message when the whole
  /// value is not of its type: an int in range (GetInt), comma-separated
  /// ints in range with no empty entry (GetIntList), a number, "inf"
  /// included (GetDouble), or one of true/false, 1/0, yes/no, on/off
  /// (GetBool).
  std::string GetString(const std::string& key,
                        const std::string& default_value) const;
  int GetInt(const std::string& key, int default_value) const;
  std::vector<int> GetIntList(const std::string& key,
                              const std::vector<int>& default_value) const;
  double GetDouble(const std::string& key, double default_value) const;
  bool GetBool(const std::string& key, bool default_value) const;

  bool Has(const std::string& key) const { return values_.count(key) > 0; }

  const std::string& program_name() const { return program_name_; }

 private:
  std::string program_name_;
  std::map<std::string, std::string> values_;
};

/// Reads the numeric environment knob `name` strictly. Unset or empty
/// returns false and leaves `*value` alone. Otherwise the whole string must
/// parse as a number in [lo, hi] (a whole number for integral T); a value
/// that does not gets a stderr note naming the variable, and `*value` keeps
/// its default. Every numeric OPENIMA_* knob is read through here.
template <typename T>
bool ReadEnvKnob(const char* name, T lo, T hi, T* value) {
  const char* text = std::getenv(name);
  if (text == nullptr || text[0] == '\0') return false;
  char* end = nullptr;
  const double parsed = std::strtod(text, &end);
  const bool whole = std::is_floating_point_v<T> || std::floor(parsed) == parsed;
  if (end == text || *end != '\0' || !whole ||
      !(parsed >= static_cast<double>(lo) && parsed <= static_cast<double>(hi))) {
    std::fprintf(stderr, "%s: invalid value '%s' (ignored)\n", name, text);
    return false;
  }
  *value = static_cast<T>(parsed);
  return true;
}

}  // namespace openima

#endif  // OPENIMA_UTIL_FLAGS_H_

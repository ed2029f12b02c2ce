#ifndef OPENIMA_UTIL_FLAGS_H_
#define OPENIMA_UTIL_FLAGS_H_

#include <map>
#include <string>

namespace openima {

/// Minimal `--key=value` command-line parser for the bench and example
/// binaries. Unrecognized positional arguments are rejected.
class Flags {
 public:
  /// Parses argv; aborts with a usage message on malformed input.
  Flags(int argc, char** argv);

  /// Typed getters with defaults. A flag given without "=value" parses as
  /// boolean true. GetInt and GetDouble exit 2 with a usage message when
  /// the whole value is not an int (in range) or a number ("inf" is one).
  std::string GetString(const std::string& key,
                        const std::string& default_value) const;
  int GetInt(const std::string& key, int default_value) const;
  double GetDouble(const std::string& key, double default_value) const;
  bool GetBool(const std::string& key, bool default_value) const;

  bool Has(const std::string& key) const { return values_.count(key) > 0; }

  const std::string& program_name() const { return program_name_; }

 private:
  std::string program_name_;
  std::map<std::string, std::string> values_;
};

}  // namespace openima

#endif  // OPENIMA_UTIL_FLAGS_H_

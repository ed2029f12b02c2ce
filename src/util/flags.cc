#include "src/util/flags.h"

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/util/logging.h"

namespace openima {

Flags::Flags(int argc, char** argv) {
  program_name_ = argc > 0 ? argv[0] : "";
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--", 2) != 0) {
      std::fprintf(stderr, "Unrecognized argument '%s' (flags are --key=value)\n",
                   arg);
      std::exit(2);
    }
    std::string body = arg + 2;
    auto eq = body.find('=');
    if (eq == std::string::npos) {
      values_[body] = "true";
    } else {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
    }
  }
}

std::string Flags::GetString(const std::string& key,
                             const std::string& default_value) const {
  auto it = values_.find(key);
  return it == values_.end() ? default_value : it->second;
}

namespace {

// A value that does not parse whole is a usage error, like a malformed
// argument: exit 2 rather than run with a silent 0.
[[noreturn]] void ExitBadValue(const std::string& key, const char* expected,
                               const std::string& text) {
  std::fprintf(stderr, "flag --%s: expected %s, got \"%s\"\n", key.c_str(),
               expected, text.c_str());
  std::exit(2);
}

}  // namespace

int Flags::GetInt(const std::string& key, int default_value) const {
  auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  const char* text = it->second.c_str();
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || value < INT_MIN ||
      value > INT_MAX) {
    ExitBadValue(key, "an integer", it->second);
  }
  return static_cast<int>(value);
}

double Flags::GetDouble(const std::string& key, double default_value) const {
  auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  const char* text = it->second.c_str();
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0') ExitBadValue(key, "a number", it->second);
  return value;
}

bool Flags::GetBool(const std::string& key, bool default_value) const {
  auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  const std::string& v = it->second;
  return v == "true" || v == "1" || v == "yes" || v == "on";
}

}  // namespace openima

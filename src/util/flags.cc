#include "src/util/flags.h"

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/util/logging.h"
#include "src/util/string_util.h"

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

// Parses the whole of `text` as an int in range.
bool ParseInt(const std::string& text, int* value) {
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE ||
      parsed < INT_MIN || parsed > INT_MAX) {
    return false;
  }
  *value = static_cast<int>(parsed);
  return true;
}

}  // namespace

int Flags::GetInt(const std::string& key, int default_value) const {
  auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  int value = 0;
  if (!ParseInt(it->second, &value)) {
    ExitBadValue(key, "an integer", it->second);
  }
  return value;
}

std::vector<int> Flags::GetIntList(
    const std::string& key, const std::vector<int>& default_value) const {
  auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  const char* expected = "a comma-separated list of integers";
  // Split yields no entry for "" and an empty one for a trailing comma.
  if (it->second.empty()) ExitBadValue(key, expected, it->second);
  std::vector<int> values;
  for (const std::string& entry : Split(it->second, ',')) {
    int value = 0;
    if (!ParseInt(entry, &value)) ExitBadValue(key, expected, it->second);
    values.push_back(value);
  }
  return values;
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
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  ExitBadValue(key, "a boolean (true/false, 1/0, yes/no, on/off)", v);
}

}  // namespace openima

#ifndef OPENIMA_OBS_OBS_CONFIG_H_
#define OPENIMA_OBS_OBS_CONFIG_H_

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <type_traits>

/// Compile-time gate for the observability layer. The CMake option
/// `OPENIMA_OBS` (ON by default) defines OPENIMA_OBS_ENABLED globally;
/// configuring with -DOPENIMA_OBS=OFF sets it to 0, which compiles every
/// OPENIMA_OBS_* macro call site to nothing and every obs class method to
/// an inline no-op — the instrumented binaries carry zero overhead
/// (proven against BM_TrainEpoch; see DESIGN.md §2.4). RunReport and the
/// JSON module stay available in both modes: report assembly runs once at
/// the end of a run, never on a hot path.
#ifndef OPENIMA_OBS_ENABLED
#define OPENIMA_OBS_ENABLED 1
#endif

namespace openima::obs {

/// True when the observability layer is compiled in (OPENIMA_OBS=ON).
inline constexpr bool kCompiledIn = OPENIMA_OBS_ENABLED != 0;

/// Reads the numeric environment knob `name` strictly. Unset or empty
/// returns false and leaves `*value` alone. Otherwise the whole string must
/// parse as a number in [lo, hi] (a whole number for integral T); a value
/// that does not gets a stderr note naming the variable, and `*value` keeps
/// its default. Every OPENIMA_* numeric obs knob is read through here.
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

}  // namespace openima::obs

#endif  // OPENIMA_OBS_OBS_CONFIG_H_

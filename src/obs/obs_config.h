#ifndef OPENIMA_OBS_OBS_CONFIG_H_
#define OPENIMA_OBS_OBS_CONFIG_H_

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

}  // namespace openima::obs

#endif  // OPENIMA_OBS_OBS_CONFIG_H_

#!/bin/bash
# Regenerates bench_output.txt: every table/figure bench at the default
# single-core-budget settings (1 split seed; pass flags for more fidelity).
# Ordered so the paper's main results come first.
cd "$(dirname "$0")"

# Benchmarks run from anything but a Release build are lies — refuse to
# run (a Debug build's tables would silently replace real numbers with
# noise).
build_type=$(grep -E '^CMAKE_BUILD_TYPE:' build/CMakeCache.txt 2>/dev/null \
             | cut -d= -f2)
if [ "$build_type" != "Release" ]; then
  echo "refusing to benchmark: build/ is '${build_type:-missing}', not" \
       "Release" >&2
  echo "  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release && " \
       "cmake --build build -j" >&2
  exit 1
fi

# A sanitizer flag left in the build cache poisons the numbers just as badly
# (~5x slowdowns that look like kernel regressions). Refuse that too.
sanitize=$(grep -E '^OPENIMA_SANITIZE:' build/CMakeCache.txt 2>/dev/null \
           | cut -d= -f2)
if [ -n "$sanitize" ] && [ "$sanitize" != "OFF" ]; then
  echo "refusing to benchmark: build/ has OPENIMA_SANITIZE=$sanitize baked" \
       "in — sanitized perf numbers are ~5x off" >&2
  echo "  cmake -B build -S . -DOPENIMA_SANITIZE= && cmake --build build -j" >&2
  exit 1
fi

# Leaked trace/telemetry envs: every bench binary would append JSONL into
# the SAME file the env names, corrupting whatever artifact it points at —
# and if the path lies outside build/, the stray file lands in the worktree
# (or anywhere at all) where it can get committed. Allow build/-internal
# paths (throwaway debugging), refuse everything else.
for var in OPENIMA_TRACE OPENIMA_TELEMETRY; do
  val=$(eval "echo \"\$$var\"")
  if [ -n "$val" ]; then
    case "$val" in
      build/*|"$PWD"/build/*) ;;  # scratch inside the build tree is fine
      *)
        echo "refusing to benchmark: $var=$val points outside build/ —" \
             "every bench would append into that file, corrupting it and" \
             "stranding an uncommittable artifact. Unset $var or point it" \
             "under build/." >&2
        exit 1
        ;;
    esac
  fi
done

for b in bench_theorem1 bench_fig1b bench_table3 bench_table5 bench_fig2 \
         bench_table4 bench_table6 bench_table7 bench_ablation bench_micro; do
  echo "===== $b ====="
  ./build/bench/$b
  echo
done

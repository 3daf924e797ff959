#!/usr/bin/env bash
# The repository benchmark's single command. Builds bench_perf (Release)
# into build-perf/ at the repository root, then runs it from there.
#
#   bench/perf/run.sh --workload <name> [--seed N] [--seconds S] [--trace 0|1]
#       one workload in one process; the last stdout line is its JSON result
#   bench/perf/run.sh [--seed N] [--seconds S] [--trace 0|1]
#       every workload, each in its own process
#
# Exits non-zero when the build fails or any correctness check fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-perf"
workloads=(ladder cutgap failures adversary serve)

mkdir -p "$build"
{
  # Serialize concurrent builds into the same tree.
  if command -v flock >/dev/null 2>&1; then flock 9; fi
  if [[ ! -f "$build/CMakeCache.txt" ]]; then
    if ! cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release \
        >"$build/configure.log" 2>&1; then
      tail -n 30 "$build/configure.log" >&2
      rm -f "$build/CMakeCache.txt"
      echo "run.sh: configure failed (see $build/configure.log)" >&2
      exit 1
    fi
  fi
  if ! cmake --build "$build" -j"$(nproc)" >"$build/build.log" 2>&1; then
    tail -n 30 "$build/build.log" >&2
    echo "run.sh: build failed (see $build/build.log)" >&2
    exit 1
  fi
} 9>"$build/.lock"

commit=unknown
if [[ -d "$root/.git" ]] && command -v git >/dev/null 2>&1; then
  commit="$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
fi

bench=("$build/bench_perf" --work-dir "$build/work" --commit "$commit")

for arg in "$@"; do
  if [[ "$arg" == "--workload" ]]; then
    exec "${bench[@]}" "$@"
  fi
done

status=0
for w in "${workloads[@]}"; do
  "${bench[@]}" --workload "$w" "$@" || status=1
done
exit "$status"

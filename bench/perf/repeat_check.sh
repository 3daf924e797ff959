#!/usr/bin/env bash
# Run-to-run agreement of the benchmark: two alternating sets of N runs per
# workload (run i of set A, then run i of set B, both with seed i). Prints
# each set's median and quartiles per metric x workload, and flags
#   - an end-to-end metric whose two medians differ by more than its bound
#     in BENCHMARK.json,
#   - a CSV hash that differs between the two runs of one seed,
#   - a run that failed a correctness check.
# Exits 1 when anything is flagged.
#
#   bench/perf/repeat_check.sh N [seconds] [workload ...]
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
n="${1:?usage: repeat_check.sh N [seconds] [workload ...]}"
seconds="${2:-10}"
shift $(($# < 2 ? $# : 2))
workloads=("$@")
if [[ ${#workloads[@]} -eq 0 ]]; then
  workloads=(ladder cutgap failures adversary serve)
fi

out="$root/build-perf/repeat"
rm -rf "$out"
mkdir -p "$out"
for w in "${workloads[@]}"; do
  for ((i = 1; i <= n; i++)); do
    for set in A B; do
      bash "$here/run.sh" --workload "$w" --seed "$i" --seconds "$seconds" \
        --trace 0 >"$out/$w.$set.$i.out" 2>"$out/$w.$set.$i.err" || true
    done
  done
done

python3 - "$root/BENCHMARK.json" "$out" "$n" "${workloads[@]}" <<'EOF'
import json
import statistics
import sys

bench, out, n, workloads = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4:]
bounds = {m["name"]: m["bound"] for m in json.load(open(bench))["end_to_end"]}
flags = []


def load(w, s, i):
    lines = open(f"{out}/{w}.{s}.{i}.out").read().splitlines()
    hashes = sorted(l for l in lines if l.startswith("# csv_hash"))
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "metrics": {}}
    return result, hashes


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


for w in workloads:
    values = {"A": {}, "B": {}}
    for i in range(1, n + 1):
        runs = {s: load(w, s, i) for s in "AB"}
        for s, (result, _) in runs.items():
            if not result["correct"]:
                flags.append(f"{w} set {s} seed {i}: run failed")
            for name, m in result["metrics"].items():
                values[s].setdefault(name, []).append(m["value"])
        if runs["A"][1] != runs["B"][1]:
            flags.append(f"{w} seed {i}: CSV hashes differ between sets")
    print(f"== {w}")
    for name in values["A"]:
        a = quartiles(values["A"][name])
        b = quartiles(values["B"].get(name, [float("nan")]))
        line = (f"  {name:14s} A {a[1]:.6g} [{a[0]:.6g}, {a[2]:.6g}]"
                f"  B {b[1]:.6g} [{b[0]:.6g}, {b[2]:.6g}]")
        if name in bounds and a[1] > 0:
            diff = abs(b[1] - a[1]) / a[1]
            line += f"  diff {diff:.3f} (bound {bounds[name]})"
            if diff > bounds[name]:
                line += "  FLAG"
                flags.append(f"{w} {name}: medians differ by {diff:.3f}")
        print(line)
for f in flags:
    print("FLAG", f)
sys.exit(1 if flags else 0)
EOF

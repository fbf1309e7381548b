#!/usr/bin/env bash
# Does the benchmark agree with itself?
#
#   benchmark/repeat.sh                 two sweeps of all workloads on one seed, the
#                                       second in reverse order; every end-to-end
#                                       metric of sweep 2 must be within its bound of
#                                       sweep 1, and count metrics must match exactly
#   benchmark/repeat.sh spread [runs]   `runs` (default 10) seeds per workload; the
#                                       interquartile range of each end-to-end metric
#                                       as a share of its median must stay under a
#                                       third of the metric's bound (setup_s exempt)
#
# Runs the command, workloads, bounds and run length that BENCHMARK.json names.
set -euo pipefail
cd "$(dirname "$0")/.."
exec python3 - "$@" <<'PY'
import json, statistics, subprocess, sys

spec = json.load(open("BENCHMARK.json"))
workloads = [w["name"] for w in spec["workloads"]]
metrics = {m["name"]: m for m in spec["end_to_end"]}
# Counts made by the program: identical inputs must give identical values.
EXACT = {"backing_writes_per_krecord"}


def run(workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True,
                         stdin=subprocess.DEVNULL).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: wrong results: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def worse_by(name, first, second):
    """Share of `first` by which `second` is worse (negative: better)."""
    change = (second - first) / first
    return change if metrics[name]["better"] == "lower" else -change


def repeat(seed=42):
    sweeps = [{w: run(w, seed) for w in order} for order in (workloads, workloads[::-1])]
    failed = False
    for w in workloads:
        for name, m in metrics.items():
            a, b = sweeps[0][w][name], sweeps[1][w][name]
            if name in EXACT:
                ok, note = a == b, "must match exactly"
            else:
                ok, note = abs(worse_by(name, a, b)) <= m["bound"], f"bound {m['bound']:.0%}"
            failed |= not ok
            print(f"{'ok  ' if ok else 'FAIL'} {w:<18} {name:<28} {a:>16.4f} {b:>16.4f} "
                  f"{worse_by(name, a, b):>+8.2%}  ({note})")
    sys.exit(1 if failed else 0)


def spread(runs=10):
    failed = False
    for w in workloads:
        values = [run(w, seed) for seed in range(1, runs + 1)]
        for name, m in metrics.items():
            xs = [v[name] for v in values]
            q1, _, q3 = statistics.quantiles(xs, n=4)
            share = (q3 - q1) / statistics.median(xs)
            ok = name == "setup_s" or share <= m["bound"] / 3
            failed |= not ok
            print(f"{'ok  ' if ok else 'WIDE'} {w:<18} {name:<28} median {statistics.median(xs):>16.4f} "
                  f"iqr/median {share:>7.2%}  (a third of the bound: {m['bound'] / 3:.2%})", flush=True)
    sys.exit(1 if failed else 0)


if sys.argv[1:2] == ["spread"]:
    spread(*map(int, sys.argv[2:3]))
else:
    repeat()
PY

#!/usr/bin/env bash
# A/B a working tree against a parent revision on one benchmark workload, or
# on every workload BENCHMARK.json names (`all`) — the recipe in
# benchmark/README.md ("A/B recipe for later issues"), run the same way
# every time:
#
#   1. `git clone` the parent revision into $AB_SCRATCH (default /root/scratch/ab);
#   2. build each side once, each with its own CARGO_TARGET_DIR, and copy the
#      two `perfq-benchmark` executables;
#   3. run `pairs` pairs of (parent, change), alternating which side goes
#      first, every run with identical arguments from a scratch cwd;
#   4. per end-to-end metric print each side's median and quartiles, the
#      change in the median, the pairs the change won (ties count for
#      neither) and the verdict of choosing-metrics §8: "gain" only at ≥ 9/10
#      of the pairs AND medians apart by more than the parent's own quartile
#      distance; "WORSE" when the change's median is worse than the parent's
#      by more than the metric's bound; "unresolved" when either side's
#      quartile distance is wider than the bound (unless every run of the
#      change beats every run of the parent); otherwise "no worse". Counts
#      the program makes must repeat exactly: "identical" or "MOVED".
#      Beside the verdict: the median of the per-pair ratios (change /
#      parent) and its 95 % percentile-bootstrap interval over the pairs
#      (10 000 resamples, fixed RNG seed, so a rerun prints the same
#      interval); the verdict rules do not read it.
#      Every run made is listed underneath.
#   5. with `all`: steps 3-4 for each workload in turn (both sides built
#      once), then one summary line per workload naming every WORSE / MOVED
#      verdict; the exit status is 1 when there is one.
#
# Workloads, metrics, bounds and run length come from BENCHMARK.json; nothing
# under benchmark/ is written. AB_TRACE=1 adds one `--trace 1` run per side
# and prints the per-layer metrics side by side (where did the saving go).
# Do not build or test anything else while it runs: the box has two cores.
#
# Usage: scripts/ab.sh <parent-rev> <workload|all> [pairs=10] [seed=42]
set -euo pipefail
cd "$(dirname "$0")/.."

[ $# -ge 2 ] || { sed -n '2,/^# Usage/p' "$0" | sed 's/^# \{0,1\}//' >&2; exit 2; }
REV="$(git rev-parse --verify --short "$1^{commit}")"
WORKLOAD="$2"
PAIRS="${3:-10}"
SEED="${4:-42}"
SCRATCH="${AB_SCRATCH:-/root/scratch/ab}"
BUILD=(cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)

mkdir -p "$SCRATCH/bin" "$SCRATCH/cwd"
if [ ! -d "$SCRATCH/src-$REV" ]; then
    git clone --quiet . "$SCRATCH/src-$REV"
    git -C "$SCRATCH/src-$REV" checkout --quiet --detach "$REV"
fi
(cd "$SCRATCH/src-$REV" && CARGO_TARGET_DIR="$SCRATCH/target-$REV" "${BUILD[@]}")
CARGO_TARGET_DIR="$SCRATCH/target-change" "${BUILD[@]}"
cp "$SCRATCH/target-$REV/release/perfq-benchmark" "$SCRATCH/bin/parent"
cp "$SCRATCH/target-change/release/perfq-benchmark" "$SCRATCH/bin/change"

exec python3 - "$SCRATCH" "$REV" "$WORKLOAD" "$PAIRS" "$SEED" "${AB_TRACE:-0}" <<'PY'
import json, math, random, statistics, subprocess, sys

scratch, rev, target, pairs, seed, trace = sys.argv[1:7]
pairs = int(pairs)
spec = json.load(open("BENCHMARK.json"))
workloads = [w["name"] for w in spec["workloads"]]
if target != "all" and target not in workloads:
    sys.exit(f"unknown workload {target}: BENCHMARK.json names " + ", ".join(workloads))
metrics = spec["end_to_end"]
# Counts made by the program: identical inputs must give identical values.
EXACT = {"backing_writes_per_krecord"}
SIDES = ("parent", "change")


def run(side, workload, traced):
    cmd = [f"{scratch}/bin/{side}", "--workload", workload, "--seed", seed,
           "--seconds", str(spec["run_seconds"]), "--trace", "1" if traced else "0"]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True, cwd=f"{scratch}/cwd",
                         stdin=subprocess.DEVNULL).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{side}: wrong results on {workload}: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def ratio_interval(a, b, resamples=10_000, seed=2016):
    """Median of the per-pair ratios b/a and its 95 % percentile-bootstrap
    interval: resample the pairs with replacement, take each resample's
    median ratio, and read the 2.5th and 97.5th percentiles."""
    ratios = [y / x for x, y in zip(a, b) if x]
    if not ratios:
        return float("nan"), float("nan"), float("nan")
    rng = random.Random(seed)
    medians = sorted(statistics.median(rng.choices(ratios, k=len(ratios)))
                     for _ in range(resamples))
    lo, hi = medians[int(0.025 * resamples)], medians[int(0.975 * resamples) - 1]
    return statistics.median(ratios), lo, hi


def ab(workload):
    """Run and print one workload's A/B; return its WORSE / MOVED verdicts."""
    runs = {side: [] for side in SIDES}
    for i in range(pairs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            runs[side].append(run(side, workload, False))
        print(f"pair {i + 1}/{pairs} done", file=sys.stderr, flush=True)

    print(f"{workload}, seed {seed}: {pairs} alternating pairs of {spec['run_seconds']} s runs, "
          f"parent {rev} vs the working tree")
    print(f"{'metric':<36} {'parent median [q1, q3]':<40} {'change median [q1, q3]':<40} "
          f"{'change':>8} {'pairs':>6}  {'pair ratio [95% CI]':<25} verdict")
    flagged = []
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        a, b = ([r[name] for r in runs[side]] for side in SIDES)
        (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
        better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
        wins = sum(better(y, x) for x, y in zip(a, b))
        worse_by = ((bm - am) if lower else (am - bm)) / am if am else 0.0
        if name in EXACT:
            verdict = "identical" if a == b and len(set(a)) == 1 else "MOVED"
        elif wins >= math.ceil(0.9 * pairs) and better(bm, am) and abs(bm - am) > a3 - a1:
            verdict = "gain"
        elif worse_by > m["bound"]:
            verdict = f"WORSE (bound {m['bound']:.0%})"
        elif (max((a3 - a1) / am, (b3 - b1) / bm) > m["bound"]
              and not all(better(y, x) for x in a for y in b)):
            verdict = f"unresolved (spread over the {m['bound']:.0%} bound)"
        else:
            verdict = "no worse"
        if verdict.startswith(("WORSE", "MOVED")):
            flagged.append(f"{name} {verdict}")
        rm, rlo, rhi = ratio_interval(a, b)
        print(f"{name + ' (' + m['unit'] + ')':<36} "
              f"{f'{am:.6g} [{a1:.6g}, {a3:.6g}]':<40} {f'{bm:.6g} [{b1:.6g}, {b3:.6g}]':<40} "
              f"{(bm - am) / am if am else 0.0:>+8.1%} {f'{wins}/{pairs}':>6}  "
              f"{f'{rm:.3f} [{rlo:.3f}, {rhi:.3f}]':<25} {verdict}")

    print("\nevery run, in pair order (parent / change):")
    for m in metrics:
        cells = "  ".join(f"{x[m['name']]:.6g}/{y[m['name']]:.6g}" for x, y in zip(*runs.values()))
        print(f"  {m['name']:<28} {cells}")

    if trace == "1":
        traced = {side: run(side, workload, True) for side in SIDES}
        print(f"\nper-layer, one --trace 1 run per side:\n  {'metric':<34} {'parent':>16} {'change':>16}")
        for m in spec["per_layer"]:
            x, y = (traced[side].get(m["name"], 0.0) for side in SIDES)
            if x or y:
                print(f"  {m['name'] + ' (' + m['unit'] + ')':<34} {x:>16.6g} {y:>16.6g}")
    return flagged


if target != "all":
    ab(target)
    sys.exit(0)

flagged = {}
for workload in workloads:
    flagged[workload] = ab(workload)
    print(flush=True)
print(f"summary, seed {seed}, {pairs} pairs per workload:")
for workload, bad in flagged.items():
    print(f"  {workload:<20} {'; '.join(bad) if bad else 'no WORSE or MOVED verdict'}")
sys.exit(1 if any(flagged.values()) else 0)
PY

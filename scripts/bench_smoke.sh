#!/usr/bin/env bash
# Throughput regression smoke: first re-prove the engines equivalent (a fast
# benchmark that computes the wrong answer is worthless), then run the
# pipeline benchmark in fixed-iteration mode and compare records/sec against
# the committed baseline (BENCH_pipeline.json: the conservative "guard"
# block, or "after" when no guard exists). Fails when any benchmark
# regresses more than the allowed fraction (default 10%, override with
# BENCH_SMOKE_TOLERANCE=0.15 etc.).
#
# Every number is a *median of N fixed iterations* reported PASTRAMI-style
# as its p5/p50/p95 throughput percentiles (near-best / median / near-worst
# tail); floors and ratios are judged on the median only. The bench box has
# noise phases worth +/-15-20%; when a measurement's interquartile spread
# (p25..p75, still the noise yardstick — the p5/p95 tails are too volatile
# to gate on) exceeds 10% of the median the median itself is suspect, so a
# failed floor or ratio on that measurement is reported as SUSPECT instead
# of failing the run outright —
# the suspect groups are then re-sampled ONCE at 3x the iterations and the
# verdict re-checked strictly: a miss that survives the re-sample is a real
# regression and FAILs; one that evaporates was a noise phase. A clean pass
# is still printed with its quartiles so a lucky median can be spotted.
#
# Usage: scripts/bench_smoke.sh
set -euo pipefail

cd "$(dirname "$0")/.."

TOLERANCE="${BENCH_SMOKE_TOLERANCE:-0.10}"
OUT="$(mktemp /tmp/perfq_bench_smoke.XXXXXX.json)"
OUT2="$(mktemp /tmp/perfq_bench_smoke2.XXXXXX.json)"
CHECK="$(mktemp /tmp/perfq_bench_check.XXXXXX.py)"
SUSPECTS="$(mktemp /tmp/perfq_bench_suspects.XXXXXX)"
RES_DIR="$(mktemp -d /tmp/perfq_bench_resample.XXXXXX)"
trap 'rm -rf "$OUT" "$OUT2" "$CHECK" "$SUSPECTS" "$RES_DIR"' EXIT

echo "== equivalence gate: engines + store layout vs references =="
# A fast benchmark that computes the wrong answer is worthless: re-prove the
# engine equal to the oracle's residency prediction under eviction, the
# batched/sharded/multi-query engines equivalent to single-stream, the
# incremental read path exact and non-perturbing, the SoA store
# byte-identical to the reference layout, the area planner within budget,
# the steady-state path allocation-free, and the durable tier
# crash-equivalent (recovered state ≡ a never-crashed durable run at every
# I/O boundary, WAL corruption cut at frame granularity) before timing
# anything. --no-fail-fast: one red target must not hide the ones ordered
# after it.
cargo test --release -q --no-fail-fast \
    --test oracle_residency \
    --test batch_equivalence \
    --test shard_equivalence \
    --test shard_property \
    --test store_differential \
    --test multi_query_equivalence \
    --test query_lifecycle \
    --test store_migration \
    --test poll_equivalence \
    --test area_plan \
    --test area_sweep \
    --test alloc_discipline \
    --test spsc_stress \
    --test durability_crash \
    --test durability_property
# The cross-query sharing gates and the shard-spec and plane pins are
# `perfq-core` unit tests (`multi.rs`, `sharded.rs`), not `tests/` targets.
cargo test --release -q -p perfq-core --lib
# `benchmark/` sits outside the workspace, so tier-1 never compiles it
# although engine changes touch APIs it calls: build it against this tree
# and run its own correctness tests (≈ 20 s warm).
cargo test --release --offline -q --manifest-path benchmark/Cargo.toml

echo "== doc gate: cargo doc --no-deps must be warning-free =="
# Docs are a deliverable (ARCHITECTURE.md + the crate rustdocs form the
# paper-to-code map); broken intra-doc links or missing docs on public
# items fail CI here instead of rotting silently.
RUSTDOCFLAGS="--deny warnings" cargo doc --no-deps --workspace -q

echo "== building release benches =="
cargo build --release -p perfq-bench --benches

echo "== running pipeline smoke (median of 7 iterations per bench) =="
# No filter: the guard block covers query_runtime*, end_to_end*, network_run
# and fig5_sweep, so every guarded group must actually run.
PERFQ_BENCH_SMOKE=7 PERFQ_BENCH_JSON="$OUT" \
    cargo bench -p perfq-bench --bench pipeline

echo "== re-sampling ratio-guarded groups (median of 21 iterations) =="
# The vectorized-over-record ratio guards sit near 1.0x by design on the
# fold-dominated Fig. 2 queries (both paths run the identical fold; the
# batched win is in materialize+filter, a small slice of the per-record
# cost), so 7 samples per side leave that ratio a coin flip inside a noise
# phase. Re-measure just the query_runtime* groups with 3x the samples;
# the merged rows override the smoke run's for guards and floors alike.
PERFQ_BENCH_SMOKE=21 PERFQ_BENCH_JSON="$OUT2" \
    cargo bench -p perfq-bench --bench pipeline -- query_runtime

# The checker runs twice — once over the smoke data (SUSPECT verdicts
# allowed, suspect group names written to a file), and, when the first
# pass flagged anything, once more in strict mode over the merged
# re-sampled data (a miss that survives the re-roll hard-FAILs).
cat > "$CHECK" <<'EOF'
import json
import sys

tolerance = float(sys.argv[1])
suspects_path = sys.argv[2]
strict = sys.argv[3] == "strict"
with open("BENCH_pipeline.json") as f:
    doc = json.load(f)
    baseline = doc.get("guard", doc["after"])
rows = {}
for path in sys.argv[4:]:
    with open(path) as f:
        rows.update({r["bench"]: r for r in json.load(f)})
rows = list(rows.values())
current = {r["bench"]: r["elems_per_sec"] for r in rows}

# Interquartile spread of each measurement, as a fraction of its median.
# Above this width the median itself is suspect: a verdict built on it is
# annotated, and a FAILED verdict is demoted to SUSPECT pending the
# re-sample pass (the box's noise phases produce 30%+ spreads that would
# otherwise fail healthy code). In strict mode — the re-sample pass itself
# — a miss fails regardless of spread: it already had its second chance.
NOISY = 0.10
spread = {
    r["bench"]: (r["p75_ns"] - r["p25_ns"]) / r["ns_per_iter"]
    for r in rows
    if r.get("p75_ns") and r["ns_per_iter"] > 0
}
# PASTRAMI-style throughput percentiles: p5 throughput comes from the p95
# (slow-tail) latency and vice versa. Display only — floors judge the
# median.
percentiles = {
    r["bench"]: (
        r["elems_per_sec"] * r["ns_per_iter"] / r["p95_ns"],
        r["elems_per_sec"],
        r["elems_per_sec"] * r["ns_per_iter"] / r["p5_ns"],
    )
    for r in rows
    if r.get("p95_ns") and r.get("p5_ns") and r["ns_per_iter"] > 0
}

failed = False
suspects = []


def M(v):
    return f"{v / 1e6:.2f}"


print(f"\n{'benchmark':<52} {'baseline':>9} {'p5':>7} {'p50':>7} {'p95':>7} {'ratio':>7}   (Melems/s)")
for bench, want in sorted(baseline.items()):
    got = current.get(bench)
    if got is None:
        print(f"{bench:<52} {M(want):>9} {'MISSING':>23}")
        failed = True
        continue
    ratio = got / want
    iqr = spread.get(bench, 0.0)
    p5, p50, p95 = percentiles.get(bench, (got, got, got))
    noisy = iqr > NOISY
    flag = ""
    if ratio < 1.0 - tolerance:
        # A wide-IQR median is as likely a noise phase as a regression:
        # queue the group for one higher-iteration re-roll instead of
        # failing on it. Strict mode IS that re-roll, so there it fails.
        if noisy and not strict:
            flag = "  << SUSPECT (noisy)"
            suspects.append(bench.split("/")[0])
        else:
            flag = "  << REGRESSION"
            failed = True
    elif noisy:
        flag = "  (NOISY)"
    print(
        f"{bench:<52} {M(want):>9} {M(p5):>7} {M(p50):>7} {M(p95):>7} {ratio:>6.2f}x{flag}"
    )


def guard_ratio(num, den, floor):
    a, b = current.get(num), current.get(den)
    if a is None or b is None:
        missing = " and ".join(n for n, v in ((num, a), (den, b)) if v is None)
        print(f"ratio {num} / {den}: MISSING ({missing})")
        return False
    ratio = a / b
    # Same tolerance semantics as the absolute floors above: the committed
    # floor states the expected relationship, the tolerance absorbs the
    # box's phase noise. Matters most for the vectorized-over-record
    # guards, whose floor of 1.0 sits on top of the measured distribution
    # (fold-dominated queries run the identical fold on both paths).
    ok = ratio >= floor * (1.0 - tolerance)
    noisy = max(spread.get(num, 0.0), spread.get(den, 0.0)) > NOISY
    if ok:
        flag = "  (NOISY)" if noisy else ""
    elif noisy and not strict:
        # Either side of the ratio being a wide-IQR median makes the ratio
        # itself suspect — re-sample both sides' groups and re-judge
        # strictly (same rule as the floors).
        flag, ok = "  << SUSPECT (noisy)", True
        suspects.extend([num.split("/")[0], den.split("/")[0]])
    else:
        flag = "  << REGRESSION"
    print(f"ratio {num} / {den}: {ratio:.2f}x (floor {floor:.2f}x){flag}")
    return ok


# Relative wins must hold as RATIOS within this run (same machine-noise
# phase for both sides), not just via absolute floors. Keys are
# "<numerator bench> over <denominator bench>" with full group names —
# this covers the PR 4 shared-ingest ratio, the PR 5 cross-query
# execution-sharing ratios (shared vs sequential AND shared vs ingest-only),
# the PR 6 vectorized-over-record floors (batched must never lose to
# record-at-a-time on any Fig. 2 query; those sides come from the 21-sample
# re-measure above), the PR 9 polled-over-never-polled floor, and the PR 10
# wal_on-over-wal_off floor (the durability tax may not silently grow).
ratio_guards = doc.get("ratio_guards", {})
if ratio_guards:
    print()
for key, floor in ratio_guards.items():
    num, den = key.split(" over ")
    if not guard_ratio(num, den, floor):
        failed = True

with open(suspects_path, "w") as f:
    f.write("".join(f"{g}\n" for g in sorted(set(suspects))))

if failed:
    verdict = ("the re-sampled measurement still misses it" if strict
               else "see the flagged lines above")
    print(f"\nFAIL: a throughput floor (tolerance {tolerance:.0%}) or ratio guard "
          f"failed against BENCH_pipeline.json — {verdict}")
    sys.exit(1)
if suspects:
    print(f"\nSUSPECT: {len(set(suspects))} noisy group(s) missed a floor or "
          "ratio — re-sampling before judging")
    sys.exit(0)
print(f"\nOK: all benchmarks within {tolerance:.0%} of the committed baseline")
EOF

python3 "$CHECK" "$TOLERANCE" "$SUSPECTS" first "$OUT" "$OUT2"

if [ -s "$SUSPECTS" ]; then
    echo
    echo "== re-sampling SUSPECT groups (median of 21 iterations) =="
    # One re-roll, three times the samples: a noise phase evaporates, a
    # real regression reproduces and now hard-FAILs (strict mode).
    RESAMPLED=()
    i=0
    while IFS= read -r group; do
        i=$((i + 1))
        OUT3="$RES_DIR/$i.json"
        RESAMPLED+=("$OUT3")
        PERFQ_BENCH_SMOKE=21 PERFQ_BENCH_JSON="$OUT3" \
            cargo bench -p perfq-bench --bench pipeline -- "$group"
    done < "$SUSPECTS"
    python3 "$CHECK" "$TOLERANCE" /dev/null strict "$OUT" "$OUT2" "${RESAMPLED[@]}"
fi

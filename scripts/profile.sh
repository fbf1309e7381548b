#!/usr/bin/env bash
# Clock-profile one benchmark workload and print where its CPU time goes.
#
# Builds the release `perfq-benchmark` binary (benchmark/, the same build
# BENCHMARK.json runs), records one run of it under gprofng's clock
# profiler (`gprofng collect app -p on`, a sample every ~10 ms of CPU), then
# prints the top functions twice: by exclusive time (the function's own
# instructions — where to cut) and by inclusive time (with its callees —
# which layer the time belongs to). The profile covers the whole process:
# trace generation, the exact oracle and the timed passes alike, so read
# the engine's share under `Runtime::try_process_batch` in the inclusive
# list. `perf` is not needed; gprofng ships with binutils.
#
# The experiment directory is kept (its path is printed last) for further
# `gprofng display text` queries, e.g. `-callers-callees` or `-source <fn>`.
#
# Usage: scripts/profile.sh <workload> [seconds=10] [seed=42] [top=25]
set -euo pipefail
cd "$(dirname "$0")/.."

[ $# -ge 1 ] || { sed -n '2,/^# Usage/p' "$0" | sed 's/^# \{0,1\}//' >&2; exit 2; }
WORKLOAD="$1"
RUN_SECONDS="${2:-10}"
SEED="${3:-42}"
TOP="${4:-25}"
command -v gprofng >/dev/null || { echo "gprofng not found (binutils)" >&2; exit 1; }

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
BIN="$PWD/benchmark/target/release/perfq-benchmark"
OUT="$(mktemp -d -t perfq-profile.XXXXXX)"

(cd "$OUT" && gprofng collect app -p on -o run.er "$BIN" \
    --workload "$WORKLOAD" --seed "$SEED" --seconds "$RUN_SECONDS" --trace 0 \
    >stdout.txt 2>stderr.txt)
echo "$WORKLOAD, seed $SEED, $RUN_SECONDS s (benchmark output: $OUT/stdout.txt)"

for sort in e.totalcpu i.totalcpu; do
    echo
    gprofng display text -metrics e.%totalcpu:i.%totalcpu -sort "$sort" \
        -limit "$TOP" -functions "$OUT/run.er" \
        | grep -v '^Current \|^Print limit'
done
echo
echo "experiment: $OUT/run.er"

#!/usr/bin/env bash
# Clock-profile one benchmark workload and print where its CPU time goes.
#
# Builds the release `perfq-benchmark` binary from benchmark/ — the same
# source and profile BENCHMARK.json runs, plus line tables
# (CARGO_PROFILE_RELEASE_DEBUG=line-tables-only) in a target directory of its
# own (target/profile), so the benchmark's own build is left as it is.
# Records one run of it under gprofng's clock profiler (`gprofng collect app
# -p on`, a sample every ~10 ms of CPU), then prints three tables: the top
# functions by exclusive time (the function's own instructions — where to
# cut), by inclusive time (with its callees — which layer the time belongs
# to), and the top source lines by exclusive time (which lines of a hot
# function cost). gprofng's own `-lines` view leaves most Rust code "without
# line numbers", so the third table sums its `-pcs` view (exclusive time per
# instruction address) by the innermost source line `addr2line -i` gives for
# each address, naming the enclosing out-of-line function beside it. The
# profile covers the whole process: trace generation,
# the exact oracle and the timed passes alike, so read the engine's share
# under `Runtime::try_process_batch` in the inclusive list. `perf` is not
# needed; gprofng ships with binutils.
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

export CARGO_TARGET_DIR="$PWD/target/profile"
CARGO_PROFILE_RELEASE_DEBUG=line-tables-only \
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
BIN="$CARGO_TARGET_DIR/release/perfq-benchmark"
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
echo "Source lines sorted by exclusive total CPU time (% of <Total>)"
# The binary's load-object index is its position in the `-objects` list; a
# PC row reads "<excl. s> <excl. %> <index>:<file offset> <function + off>".
OBJ="$(gprofng display text -objects "$OUT/run.er" | grep -n "^ <perfq-benchmark>" | cut -d: -f1)"
gprofng display text -metrics e.%totalcpu:address -sort e.totalcpu -limit 0 \
    -pcs "$OUT/run.er" 2>&1 | python3 -c '
import collections, re, subprocess, sys
binary, obj, top, root = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4] + "/"
# File offset -> virtual address, through the LOAD segments.
segs = [(int(m[0], 16), int(m[1], 16), int(m[2], 16)) for m in re.findall(
    r"LOAD\s+(0x[0-9a-f]+)\s+(0x[0-9a-f]+)\s+0x[0-9a-f]+\s+(0x[0-9a-f]+)",
    subprocess.run(["readelf", "-lW", binary], capture_output=True, text=True).stdout)]
pct = collections.Counter()
for line in sys.stdin:
    f = line.split()
    if len(f) > 2 and f[2].startswith(obj + ":0x"):
        off = int(f[2].split(":")[1], 16)
        addr = next(v + off - o for o, v, n in segs if o <= off < o + n)
        pct[addr] += float(f[1])
addrs = sorted(pct)
out = subprocess.run(["addr2line", "-e", binary, "-f", "-C", "-i", "-a"] + [hex(a) for a in addrs],
                     capture_output=True, text=True).stdout.split("\n")
lines = collections.Counter()
i = 0
for a in addrs:
    i += 1  # the echoed address
    chain = []
    while i + 1 < len(out) and not out[i].startswith("0x"):
        chain.append((out[i], out[i + 1]))
        i += 2
    loc = re.sub(r"^/rustc/[0-9a-f]+/library/", "std/", chain[0][1].replace(root, ""))
    loc = re.sub(r" \(discriminator \d+\)$", "", loc)
    lines[(loc, chain[-1][0])] += pct[a]
for (loc, fn), p in lines.most_common(top):
    print(f"{p:6.2f}  {loc}  ({fn[:80]})")
' "$BIN" "$OBJ" "$TOP" "$PWD"
echo
echo "experiment: $OUT/run.er"

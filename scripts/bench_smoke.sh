#!/usr/bin/env bash
# CI smoke: first re-prove the engines equivalent (a fast path that computes
# the wrong answer is worthless), then require warning-free rustdoc, then run
# the same-run ratio guards. Absolute throughput is not judged here: the
# `benchmark/` instrument and its A/B recipe (BENCHMARK.json, scripts/ab.sh)
# own it.
#
# Usage: scripts/bench_smoke.sh
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== equivalence gate: every test of the workspace and of benchmark/ =="
# The engine equal to the oracle's residency prediction under eviction, the
# batched/sharded/multi-query engines equivalent to single-stream, the
# incremental read path exact and non-perturbing, the SoA store
# byte-identical to the reference layout, the area planner within budget,
# the steady-state path allocation-free, the durable tier crash-equivalent —
# every integration suite and every crate's unit tests (the workspace's
# default members), in release. --no-fail-fast: one red target must not
# hide the ones ordered after it.
cargo test --release -q --no-fail-fast
# `benchmark/` sits outside the workspace, so tier-1 never compiles it
# although engine changes touch APIs it calls: build it against this tree
# and run its own correctness tests (≈ 20 s warm).
cargo test --release --offline -q --manifest-path benchmark/Cargo.toml

echo "== doc gate: cargo doc --no-deps must be warning-free =="
# Docs are a deliverable (ARCHITECTURE.md + the crate rustdocs form the
# paper-to-code map); broken intra-doc links or missing docs on public
# items fail CI here instead of rotting silently.
RUSTDOCFLAGS="--deny warnings" cargo doc --no-deps --workspace -q

echo "== same-run ratio guards (interleaved pairs) =="
# Each guard times two in-tree paths in alternating pairs and holds their
# throughput ratio to a committed floor; see crates/bench/src/bin/ratios.rs.
cargo run --release -q -p perfq-bench --bin ratios

#!/usr/bin/env bash
# Lint gate: the workspace must be rustfmt-clean and clippy-clean (every
# target, every lint at its default level, warnings as errors), the benchmark
# package (`benchmark/`, not a workspace member, so neither check reaches it)
# must still build against the library's signatures, and rustdoc must be
# warning-free.
#
# Usage: scripts/lint.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all -- --check
cargo clippy --workspace --all-targets -- -D warnings
cargo check --offline --manifest-path benchmark/Cargo.toml --all-targets
# Docs are a deliverable (ARCHITECTURE.md + the crate rustdocs form the
# paper-to-code map); a broken intra-doc link or a missing doc on a public
# item fails here instead of rotting silently.
RUSTDOCFLAGS="--deny warnings" cargo doc --no-deps --workspace -q

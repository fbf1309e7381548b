#!/usr/bin/env bash
# Lint gate: the workspace must be rustfmt-clean and clippy-clean (every
# target, every lint at its default level, warnings as errors), and the
# benchmark package (`benchmark/`, not a workspace member, so neither check
# reaches it) must still build against the library's signatures.
#
# Usage: scripts/lint.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all -- --check
cargo clippy --workspace --all-targets -- -D warnings
cargo check --offline --manifest-path benchmark/Cargo.toml --all-targets

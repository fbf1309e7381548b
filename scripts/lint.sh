#!/usr/bin/env bash
# Lint gate: the workspace must be rustfmt-clean and clippy-clean (every
# target, every lint at its default level, warnings as errors).
# `benchmark/` is not a workspace member, so neither check reaches it.
#
# Usage: scripts/lint.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all -- --check
cargo clippy --workspace --all-targets -- -D warnings

#!/usr/bin/env bash
# Lint gate: the workspace must be rustfmt-clean. `benchmark/` is not a
# workspace member, so `--all` does not reach it.
#
# Usage: scripts/lint.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all -- --check

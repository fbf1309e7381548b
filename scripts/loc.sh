#!/usr/bin/env bash
# Non-test code lines, per crate and per file — the number ROADMAP and
# CHANGES.md quote. Definition: in every crates/<crate>/src/**/*.rs, the
# lines before the file's first top-level (column 0) `#[cfg(test)]` that are
# neither blank nor a `//` comment (`///` and `//!` docs count as comments).
#
# Usage: scripts/loc.sh [crate ...]      (default: every crate under crates/)
set -euo pipefail
cd "$(dirname "$0")/.."

[ $# -gt 0 ] || set -- $(ls crates)
for crate in "$@"; do
    crate="${crate#perfq-}"
    find "crates/$crate/src" -name '*.rs' | sort | xargs awk -v crate="perfq-$crate" '
        FNR == 1 { test = 0 }
        /^#\[cfg\(test\)\]/ { test = 1 }
        !test && !/^[[:space:]]*($|\/\/)/ { n[FILENAME]++; total++ }
        END {
            for (f in n) printf "%7d  %s\n", n[f], f | "sort -k2"
            close("sort -k2")
            printf "%7d  %s total\n", total, crate
        }'
done

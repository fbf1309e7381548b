#!/usr/bin/env bash
# List every `pub fn` that no non-test code references — the candidates for
# ROADMAP direction 8's rule (a public item has a non-test caller or an A/B
# win, or it goes).
#
# "Non-test" is loc.sh's cut: in every .rs file, the lines before the file's
# first top-level (column 0) `#[cfg(test)]` that are not a `//` comment (so
# `///` and `//!` doc links are not callers). The corpus is crates/*/src,
# src/, examples/ and benchmark/src; tests/ and the unit-test modules are
# left out. The match is by name: a function counts as called when its name
# appears as a word anywhere in the corpus outside its own `fn <name>`
# definitions. Two functions that share a name hide each other, so this is a
# lister for review, not a gate.
#
# Usage: scripts/uncalled.sh [crate ...]   (default: every crate under crates/)
# Output: one `crate  file:line  name` line per uncalled function.
set -euo pipefail
cd "$(dirname "$0")/.."

[ $# -gt 0 ] || set -- $(ls crates)
wanted=""
for crate in "$@"; do
    wanted="$wanted crates/${crate#perfq-}/src/"
done

find crates/*/src src examples benchmark/src -name '*.rs' | sort | xargs awk -v wanted="$wanted" '
    FNR == 1 {
        test = 0
        mine = 0
        n = split(wanted, dirs, " ")
        for (i = 1; i <= n; i++) if (index(FILENAME, dirs[i]) == 1) mine = 1
    }
    /^#\[cfg\(test\)\]/ { test = 1 }
    test || /^[[:space:]]*\/\// { next }
    {
        line = $0
        sub(/\/\/.*/, "", line)
        # Definitions: remember the public ones of the wanted crates, and
        # drop every `fn <name>` so a definition never counts as a use.
        while (match(line, /fn [A-Za-z_][A-Za-z0-9_]*/)) {
            name = substr(line, RSTART + 3, RLENGTH - 3)
            before = substr(line, 1, RSTART - 1)
            if (mine && before ~ /(^|[^A-Za-z0-9_])pub (const )?$/ && !(name in where)) {
                split(FILENAME, parts, "/")
                where[name] = parts[2] "  " FILENAME ":" FNR
            }
            line = before " " substr(line, RSTART + RLENGTH)
        }
        while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
            used[substr(line, RSTART, RLENGTH)]++
            line = substr(line, RSTART + RLENGTH)
        }
    }
    END {
        for (name in where) if (!(name in used)) printf "%s  %s\n", where[name], name
    }' | sort -t: -k1,1 -k2,2n

#!/usr/bin/env bash
# List every `pub fn` that no non-test code references — the candidates for
# ROADMAP direction 11's rule (a public item has a non-test caller or an A/B
# win, or it goes).
#
# "Non-test" is loc.sh's cut: in every .rs file, the lines before the file's
# first top-level (column 0) `#[cfg(test)]` that are not a `//` comment (so
# `///` and `//!` doc links are not callers). The corpus is crates/*/src,
# src/, examples/ and benchmark/src; tests/ and the unit-test modules are
# left out, and so are `use` declarations (a `pub use` re-export list names
# an item without calling it). The match is by name: a function counts as
# called when its name appears as a word anywhere in the corpus outside its
# own `fn <name>` definitions, `use` lists and string literals (one-line
# ones: `"integer too large"` does not call `large`). An uncalled name is printed at
# every public definition it has; a name with one caller hides all its
# namesakes, so this is a lister for review, not a gate.
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
        inuse = 0
        mine = 0
        n = split(wanted, dirs, " ")
        for (i = 1; i <= n; i++) if (index(FILENAME, dirs[i]) == 1) mine = 1
    }
    /^#\[cfg\(test\)\]/ { test = 1 }
    test || /^[[:space:]]*\/\// { next }
    # A `use` declaration, one line or a braced list over several.
    /^[[:space:]]*(pub(\([a-z]+\))? )?use / { inuse = 1 }
    inuse {
        if (index($0, ";")) inuse = 0
        next
    }
    {
        line = $0
        # String literals first (a word inside one is not a caller, and a
        # `//` inside one is not a comment), then the trailing comment.
        gsub(/"([^"\\]|\\.)*"/, "\"\"", line)
        sub(/\/\/.*/, "", line)
        # Definitions: remember the public ones of the wanted crates, and
        # drop every `fn <name>` so a definition never counts as a use.
        while (match(line, /fn [A-Za-z_][A-Za-z0-9_]*/)) {
            name = substr(line, RSTART + 3, RLENGTH - 3)
            before = substr(line, 1, RSTART - 1)
            if (mine && before ~ /(^|[^A-Za-z0-9_])pub (const )?$/) {
                split(FILENAME, parts, "/")
                where[name] = where[name] parts[2] "  " FILENAME ":" FNR "  " name "\n"
            }
            line = before " " substr(line, RSTART + RLENGTH)
        }
        while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
            used[substr(line, RSTART, RLENGTH)]++
            line = substr(line, RSTART + RLENGTH)
        }
    }
    END {
        for (name in where) if (!(name in used)) printf "%s", where[name]
    }' | sort -t: -k1,1 -k2,2n

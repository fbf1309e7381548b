#!/usr/bin/env bash
# Count the panic sites in the non-test code of the six library crates —
# the number ROADMAP and CHANGES.md quote. One clippy run over the crates'
# library targets (unit-test modules are not compiled) with the
# `unwrap_used`, `expect_used`, `panic` and `unreachable` lints raised to
# warnings; each site is counted once by its unique `file:line:col` (clippy
# also lints the path dependencies of each package, so a per-crate run
# would count a site more than once) and attributed by its crate path.
#
# This only reports: it changes no lint level of the lint gate, and a site
# is not an error. `assert!`, indexing and arithmetic panics are not counted.
#
# Usage: scripts/panics.sh [-v]     (-v: also list every site)
set -euo pipefail
cd "$(dirname "$0")/.."

crates=(packet lang kvstore switch trace core)
pkgs=()
for c in "${crates[@]}"; do pkgs+=(-p "perfq-$c"); done

sites=$(cargo clippy --offline --quiet --lib "${pkgs[@]}" --message-format=short -- \
    -W clippy::unwrap_used -W clippy::expect_used -W clippy::panic -W clippy::unreachable \
    2>&1 | grep -E '^crates/[a-z]+/src/.*: warning: (used `(unwrap|expect)\(\)`|`panic` should not be present|usage of the `unreachable!` macro)' \
    | cut -d: -f1-3 | sort -u -t: -k1,1 -k2,2n -k3,3n || true)

[ "${1:-}" = "-v" ] && [ -n "$sites" ] && printf '%s\n' "$sites"
total=0
for c in "${crates[@]}"; do
    n=$(printf '%s\n' "$sites" | grep -c "^crates/$c/src/" || true)
    printf '%5d  perfq-%s\n' "$n" "$c"
    total=$((total + n))
done
printf '%5d  total\n' "$total"

#!/usr/bin/env bash
# List every `pub fn` that no non-test code calls — the candidates for
# ROADMAP direction 12's rule (a public item has a non-test caller or an A/B
# win, or it goes).
#
# "Non-test" is loc.sh's cut: in every .rs file, the lines before the file's
# first top-level (column 0) `#[cfg(test)]` that are not a `//` comment (so
# `///` and `//!` doc links are not callers). The corpus is crates/*/src,
# src/, examples/ and benchmark/src; tests/ and the unit-test modules are
# left out, and so are `use` declarations (a `pub use` re-export list names
# an item without calling it). String and char literals and `//` comments
# are blanked first, so `"integer too large"` does not name `large`.
#
# The match is by name, and a name counts as used only where it is called
# (`name(`, `name::<`) or named by a path (`::name`, e.g. `Self::name` passed
# as a value). A field or a local of the same name (`self.routed[s]`) is not
# a use, and neither is a use inside the body of a `fn` of the same name, so
# a delegating accessor (`fn spec(&self) { self.router.spec() }`) does not
# keep itself or its namesake alive. A function passed bare by name
# (`.map(value_key)`) is not seen as called. An uncalled name is printed at
# every public definition it has; a name with one caller still hides all its
# namesakes, so this is a lister for review, not a gate.
#
# An associated function — a `pub fn` of an inherent `impl Type` block with
# no `self` parameter — can only be reached by a path, so it is matched by
# its path instead of its name: it counts as used only where `Type::name`
# appears, or `Self::name` inside an `impl` (inherent or trait) of `Type`,
# or `Alias::name` for a `type Alias = Type<..>;`. So `BackingStore::recover`
# is not kept alive by `SpillTier::recover`'s callers. Functions of trait
# impls are left out: a trait method is reached through the trait.
#
# Usage: scripts/uncalled.sh [crate ...]   (default: every crate under crates/)
# Output: one `crate  file:line  name` line per uncalled function, the name
# as `Type::name` for an associated function.
set -euo pipefail
cd "$(dirname "$0")/.."

[ $# -gt 0 ] || set -- $(ls crates)
wanted=""
for crate in "$@"; do
    wanted="$wanted crates/${crate#perfq-}/src/"
done

find crates/*/src src examples benchmark/src -name '*.rs' | sort | LC_ALL=C xargs awk -v wanted="$wanted" '
    # The line with string and char literals and the trailing comment
    # blanked. A string that spans lines carries over in `instr`.
    function clean(s,    out, i, n, c, rest) {
        out = ""
        n = length(s)
        i = 1
        while (i <= n) {
            c = substr(s, i, 1)
            if (instr) {
                if (c == "\\") i += 2
                else if (c == "\"") { instr = 0; out = out "\"\""; i++ }
                else i++
                continue
            }
            rest = substr(s, i)
            if (substr(rest, 1, 2) == "//") break
            if (c == "\"") { instr = 1; i++; continue }
            # A char literal such as a b-quoted paren in the lexer must not open
            # a paren, nor a quoted double quote a string.
            if (c == q && match(rest, charlit)) { out = out "\"\""; i += RLENGTH; continue }
            out = out c
            i++
        }
        return out
    }
    # Whether `name` is a `fn` whose body is open here.
    function inside(name,    k) {
        for (k = 1; k <= sp; k++) if (stack[k] == name) return 1
        return 0
    }
    BEGIN {
        q = sprintf("%c", 39)
        charlit = "^" q "(\\\\.[^" q "]*|[^\\\\" q "])" q
    }
    # The last segment of the first path in `s`, generic arguments dropped:
    # the type an `impl` header or a `type` alias names.
    function typename(s,    t) {
        while (gsub(/<[^<>]*>/, "", s)) {}
        if (!match(s, /[A-Za-z_][A-Za-z0-9_]*(::[A-Za-z_][A-Za-z0-9_]*)*/)) return ""
        t = substr(s, RSTART, RLENGTH)
        sub(/.*::/, "", t)
        return t
    }
    FNR == 1 {
        test = 0; inuse = 0; instr = 0
        depth = 0; paren = 0; sp = 0; pending = ""
        isp = 0; pimpl = ""; sig = 0
        mine = 0
        n = split(wanted, dirs, " ")
        for (i = 1; i <= n; i++) if (index(FILENAME, dirs[i]) == 1) mine = 1
    }
    /^#\[cfg\(test\)\]/ { test = 1 }
    test { next }
    !instr && /^[[:space:]]*\/\// { next }
    # A `use` declaration, one line or a braced list over several.
    !instr && /^[[:space:]]*(pub(\([a-z]+\))? )?use / { inuse = 1 }
    inuse {
        if (index($0, ";")) inuse = 0
        next
    }
    {
        line = clean($0)
        # `type Alias = Type<..>;`: a path through the alias names the type.
        if (match(line, /^[ \t]*(pub(\([a-z]+\))? )?type [A-Za-z_][A-Za-z0-9_]* *=/)) {
            h = substr(line, RSTART, RLENGTH)
            sub(/^.*type /, "", h); sub(/ *=$/, "", h)
            alias[h] = typename(substr(line, RSTART + RLENGTH))
        }
        # An `impl` header: its block opens at the next `{`.
        if (match(line, /^[ \t]*(unsafe[ \t]+)?impl[ \t<]/)) {
            h = substr(line, RSTART + RLENGTH - 1)
            sub(/\{.*/, "", h)
            while (gsub(/<[^<>]*>/, "", h)) {}
            ptrait = (h ~ / for /)
            if (ptrait) sub(/.* for /, "", h)
            pimpl = typename(h)
        }
        prev = ""; prev2 = ""
        while (match(line, /[A-Za-z_][A-Za-z0-9_]*|[{}()\[\];]/)) {
            tok = substr(line, RSTART, RLENGTH)
            gap = substr(line, 1, RSTART - 1)
            line = substr(line, RSTART + RLENGTH)
            if (tok == "fn" && match(line, /^[ \t]+[A-Za-z_][A-Za-z0-9_]*/)) {
                name = substr(line, RSTART, RLENGTH)
                sub(/^[ \t]+/, "", name)
                line = substr(line, RSTART + RLENGTH)
                if (mine && (prev == "pub" || (prev == "const" && prev2 == "pub"))) {
                    split(FILENAME, parts, "/")
                    def = parts[2] "  " FILENAME ":" FNR "  "
                    # Directly in an inherent impl: its first parameter tells
                    # a method from an associated function.
                    if (isp > 0 && idepth[isp] == depth && !itrait[isp]) {
                        sig = 1; signame = name; sigpath = istack[isp] "::" name
                    } else where[name] = where[name] def name "\n"
                }
                pending = name
                pparen = paren
                prev2 = prev; prev = name
                continue
            }
            if (sig == 1 && tok == "(") sig = 2
            else if (sig == 2 && tok == ")") {
                assoc[sigpath] = assoc[sigpath] def sigpath "\n"; sig = 0
            } else if (sig == 2 && tok !~ /^[(\[{}\];]$/ && tok != "mut" && gap !~ q "$") {
                if (tok == "self") where[signame] = where[signame] def signame "\n"
                else assoc[sigpath] = assoc[sigpath] def sigpath "\n"
                sig = 0
            }
            if (tok == "(" || tok == "[") paren++
            else if (tok == ")" || tok == "]") paren--
            else if (tok == "{") {
                depth++
                if (pending != "") { stack[++sp] = pending; sdepth[sp] = depth; pending = "" }
                if (pimpl != "") { istack[++isp] = pimpl; itrait[isp] = ptrait; idepth[isp] = depth; pimpl = "" }
            } else if (tok == "}") {
                if (sp > 0 && sdepth[sp] == depth) sp--
                if (isp > 0 && idepth[isp] == depth) isp--
                depth--
            } else if (tok == ";") {
                if (pending != "" && paren == pparen) pending = ""
            } else {
                if (gap == "::" && prev != "")
                    path[(prev == "Self" && isp > 0 ? istack[isp] : prev) "::" tok]++
                if ((line ~ /^(\(|::<)/ || gap ~ /::$/) && !inside(tok)) used[tok]++
            }
            prev2 = prev; prev = tok
        }
    }
    END {
        for (name in where) if (!(name in used)) printf "%s", where[name]
        for (p in path) {
            reached[p]++
            split(p, seg, "::")
            if (seg[1] in alias) reached[alias[seg[1]] "::" seg[2]]++
        }
        for (p in assoc) if (!(p in reached)) printf "%s", assoc[p]
    }' | sort -t: -k1,1 -k2,2n

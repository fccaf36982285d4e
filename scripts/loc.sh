#!/bin/sh
# Non-test lines per crate, counted the way ROADMAP.md counts them: the
# lines of every file under crates/*/src before its first `#[cfg(test)]`
# or `#![cfg(test)]` (the whole file when it has none; none of a test-only
# file). moodbench (crates/bench/src/bin/moodbench) is a package of its
# own and is left out. With a revision, the tree at that revision is
# counted, read through `git archive` (no checkout; the working tree is
# untouched).
#
#   scripts/loc.sh          # the working tree, from any directory
#   scripts/loc.sh HEAD^1   # the parent commit
set -eu
cd "$(dirname "$0")/.."
root=.
if [ $# -gt 0 ]; then
    root=$(mktemp -d)
    trap 'rm -rf "$root"' EXIT
    git archive "$1" crates | tar -x -C "$root"
fi
total=0
for src in "$root"/crates/*/src; do
    crate=$(basename "$(dirname "$src")")
    n=$(find "$src" -name '*.rs' -not -path '*/bin/moodbench/*' -print0 | xargs -0 awk '
        FNR == 1 { live = 1 }
        /^[[:space:]]*#!?\[cfg\(test\)\]/ { live = 0 }
        live { n++ }
        END { print n + 0 }')
    printf '%-10s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-10s %6d\n' total "$total"

#!/usr/bin/env bash
# Non-test lines of code per crate: in every `.rs` file under a crate's
# `src/`, the lines before the file's first `#[cfg(test)]` that are neither
# blank nor a `//` comment (`///` and `//!` docs included).
#
# Usage: scripts/loc.sh [crate ...]   (default: every crate under crates/,
#                                      then the root package's src/)
# Prints `<lines>  <crate>` per crate and the total; LOC budgets use it.

set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    find "$1" -name '*.rs' -print0 | sort -z | xargs -0 -r awk '
        FNR == 1 { in_test = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
        in_test { next }
        /^[[:space:]]*$/ { next }
        /^[[:space:]]*\/\// { next }
        { n++ }
        END { print n + 0 }
    '
}

if [ "$#" -gt 0 ]; then
    crates=("$@")
else
    crates=()
    for dir in crates/*/; do
        crates+=("$(basename "$dir")")
    done
    crates+=(.)
fi

total=0
for c in "${crates[@]}"; do
    if [ "$c" = . ]; then src=src; name=openmldb; else src="crates/$c/src"; name="$c"; fi
    [ -d "$src" ] || { echo "no such crate: $c" >&2; exit 1; }
    n=$(count "$src")
    total=$((total + n))
    printf '%7d  %s\n' "$n" "$name"
done
printf '%7d  total\n' "$total"

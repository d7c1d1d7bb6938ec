#!/usr/bin/env bash
# Non-test lines of code per crate: in every `.rs` file under a crate's
# `src/`, the lines that are neither blank nor a `//` comment (`///` and
# `//!` docs included), up to the file's first `#[cfg(test)]` that gates an
# inline `mod` (the attribute, then only attributes, comments or blank lines,
# then `mod name {`). A `#[cfg(test)]` on a `use`, a field or a `fn` does not
# end the count.
#
# Usage: scripts/loc.sh [crate ...]   (default: every crate under crates/,
#                                      then the root package's src/)
# Prints `<lines>  <crate>` per crate and the total; LOC budgets use it.

set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    find "$1" -name '*.rs' -print0 | sort -z | xargs -0 -r awk '
        function is_mod(line) {
            return line ~ /^[[:space:]]*(#\[cfg\(test\)\][[:space:]]*)?(pub(\([a-z]+\))?[[:space:]]+)?mod[[:space:]]+[A-Za-z_0-9]+[[:space:]]*\{/
        }
        FNR == 1 { n += held; in_test = 0; pending = 0; held = 0 }
        in_test { next }
        /^[[:space:]]*#\[cfg\(test\)\]/ {
            if (is_mod($0)) { in_test = 1; next }
            pending = 1; held = 1; next
        }
        pending && (/^[[:space:]]*$/ || /^[[:space:]]*\/\// || /^[[:space:]]*#\[/) {
            if ($0 !~ /^[[:space:]]*$/ && $0 !~ /^[[:space:]]*\/\//) held++
            next
        }
        pending {
            pending = 0
            if (is_mod($0)) { in_test = 1; held = 0; next }
            n += held; held = 0
        }
        /^[[:space:]]*$/ { next }
        /^[[:space:]]*\/\// { next }
        { n++ }
        END { print n + held }
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

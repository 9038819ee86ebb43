#!/bin/sh
# Counts non-test Rust: the lines of each source file above its first
# `#[cfg(test)]` (the whole file if it has none), over `crates/*/src` and
# `vendor/serde/src`. Prints one line per crate, then the total.
#
#   tools/loc.sh            # this checkout
#   tools/loc.sh DIR        # another checkout, e.g. a `git archive` of a parent
set -eu
cd "${1:-$(dirname "$0")/..}"
total=0
for src in crates/*/src vendor/serde/src; do
    n=$(find "$src" -name '*.rs' -exec awk '
        FNR == 1 { body = 1 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { body = 0 }
        body { n++ }
        END { print n + 0 }' {} + | awk '{ s += $1 } END { print s + 0 }')
    printf '%-18s %6d\n' "${src%/src}" "$n"
    total=$((total + n))
done
printf '%-18s %6d\n' total "$total"

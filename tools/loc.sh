#!/bin/sh
# Counts non-test Rust: the lines of each source file above its first
# `#[cfg(test)]` that opens a `mod` (the whole file if none does), over
# `crates/*/src` and `vendor/serde/src`. A `#[cfg(test)]` on anything else
# (a helper, a `thread_local!`, a statement) is counted like any other
# line. Prints one line per crate, then the total.
#
#   tools/loc.sh            # this checkout
#   tools/loc.sh DIR        # another checkout, e.g. a `git archive` of a parent
set -eu
cd "${1:-$(dirname "$0")/..}"
total=0
for src in crates/*/src vendor/serde/src; do
    n=$(find "$src" -name '*.rs' -exec awk '
        # `held` counts the lines of a `#[cfg(test)]` and of the attributes
        # after it, until the item they sit on shows whether it is a `mod`.
        FNR == 1 { n += held; held = 0; body = 1 }
        !body { next }
        held && /^[[:space:]]*#\[/ { held++; next }
        held && /^[[:space:]]*(pub(\([^)]*\))?[[:space:]]+)?mod[[:space:]]/ { body = 0; held = 0; next }
        held { n += held; held = 0 }
        /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*(pub(\([^)]*\))?[[:space:]]+)?mod[[:space:]]/ { body = 0; next }
        /^[[:space:]]*#\[cfg\(test\)\]/ { held = 1; next }
        { n++ }
        END { print n + held }' {} + | awk '{ s += $1 } END { print s + 0 }')
    printf '%-18s %6d\n' "${src%/src}" "$n"
    total=$((total + n))
done
printf '%-18s %6d\n' total "$total"

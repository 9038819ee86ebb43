#!/bin/sh
# Measures a change against its parent by the benchmark README's protocol
# ("How a later change states a claim"): alternating pairs of `measure`
# runs, parent first in odd pairs and the change first in even ones, one
# seed per pair (101, 102, ...).
#
#   tools/pairs.sh PARENT_BIN CHANGE_BIN WORKLOAD [PAIRS=10] [SECONDS=15] [METRIC]
#
# PARENT_BIN and CHANGE_BIN are `benchmark` binaries built from the two
# checkouts. Prints, per end-to-end metric of BENCHMARK.json, each side's
# median and quartiles, the pairs the change won, and the median change
# against the metric's bound; then whether each pair's digests agree.
# With METRIC it also applies the claim rule to that metric: the change
# wins at least nine pairs in ten and the medians differ by more than the
# parent's quartile distance. Exits 1 if a run reports `"correct":false`
# or a failed operation, 3 if a bound is exceeded or the named claim does
# not hold (and 2 on a usage error).
set -eu
if [ $# -lt 3 ] || [ $# -gt 6 ]; then
    echo "usage: $0 PARENT_BIN CHANGE_BIN WORKLOAD [PAIRS=10] [SECONDS=15] [METRIC]" >&2
    exit 2
fi
parent=$1 change=$2 workload=$3 pairs=${4:-10} seconds=${5:-15} metric=${6:-}
spec="$(cd "$(dirname "$0")/.." && pwd)/BENCHMARK.json"
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

i=1
while [ "$i" -le "$pairs" ]; do
    seed=$((100 + i))
    if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
        if [ "$side" = parent ]; then bin=$parent; else bin=$change; fi
        "$bin" measure --workload "$workload" --seed "$seed" --seconds "$seconds" \
            --trace 0 > "$out/$side.$i.log"
        printf 'pair %d seed %d %-6s %s\n' "$i" "$seed" "$side" \
            "$(tail -n 1 "$out/$side.$i.log" | cut -c1-60)" >&2
    done
    i=$((i + 1))
done

python3 - "$spec" "$out" "$pairs" "$workload" "$metric" <<'EOF'
import json
import statistics
import sys

spec_path, out, pairs, workload, claim = sys.argv[1:]
pairs = int(pairs)
bounds = {m["name"]: m for m in json.load(open(spec_path))["end_to_end"]}


def load(side, i):
    lines = open(f"{out}/{side}.{i}.log").read().splitlines()
    return json.loads(lines[0]), json.loads(lines[-1])


runs = {side: [load(side, i) for i in range(1, pairs + 1)] for side in ("parent", "change")}
correct = True
for side, rs in runs.items():
    for i, (_, last) in enumerate(rs, 1):
        if not last.get("correct", False) or last.get("failed", 0):
            print(f"{side} pair {i}: correct={last.get('correct')} failed={last.get('failed')}")
            correct = False


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], q[2]


print(f"{workload}: {pairs} pairs")
print(f"{'metric':<18} {'parent median [q1, q3]':>35} {'change median [q1, q3]':>35} "
      f"{'wins':>6} {'change':>8} {'bound':>6}")
ok = True
for name, m in bounds.items():
    p = [r[1]["metrics"][name]["value"] for r in runs["parent"]]
    c = [r[1]["metrics"][name]["value"] for r in runs["change"]]
    lower = m["better"] == "lower"
    wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
    pm, cm = statistics.median(p), statistics.median(c)
    (p1, p3), (c1, c3) = quartiles(p), quartiles(c)
    rel = (cm - pm) / pm if pm else 0.0
    if name == claim:
        holds = wins * 10 >= 9 * pairs and (pm - cm if lower else cm - pm) > p3 - p1
        verdict = f"  claim {'holds' if holds else 'fails'} (parent IQR {p3 - p1:.4g})"
        ok = ok and holds
    elif (rel if lower else -rel) > m["bound"]:
        verdict = "  OVER BOUND"
        ok = False
    else:
        verdict = ""
    print(f"{name:<18} {pm:>12.5g} [{p1:>9.5g}, {p3:>9.5g}] {cm:>12.5g} [{c1:>9.5g}, {c3:>9.5g}] "
          f"{wins:>3}/{pairs:<2} {rel:>+8.1%} {m['bound']:>6}{verdict}")
same = sum(a[0]["digest"] == b[0]["digest"] for a, b in zip(runs["parent"], runs["change"]))
print(f"digests equal in {same}/{pairs} pairs")
sys.exit(0 if ok and correct else 3 if correct else 1)
EOF

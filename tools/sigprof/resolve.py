#!/usr/bin/env python3
"""Resolve a sampler.c dump: `resolve.py DUMP [--symbol SUBSTRING]`.

Without --symbol, prints four tables of sample shares: by outermost symbol
(the function whose machine code was running), inclusive over the inline
chain (every function inlined at the sampled instruction counts once), by
leaf source line, and the callers of samples outside the executable. With
--symbol, prints `objdump -d -l` of every function whose demangled name
contains SUBSTRING, each instruction prefixed with its sample count.
Samples outside the executable get one row per mapping in the first three
tables; the fourth splits each such row by the function that holds the
caller word the sampler found on the stack (`?` when it found none).
"""
import argparse
import collections
import os
import re
import subprocess

TOP = 40  # rows per table


def load(dump):
    """-> (exe path, its load base, [(sample address, caller word or None)],
    [(lo, hi, path)])."""
    maps, samples, in_samples = [], [], False
    for line in open(dump):
        if line.startswith("--samples--"):
            in_samples = True
        elif in_samples:
            words = [int(w, 16) for w in line.split()]
            samples.append((words[0], words[1] if len(words) > 1 else None))
        else:
            f = line.split()
            lo, hi = (int(x, 16) for x in f[0].split("-"))
            maps.append((lo, hi, f[5] if len(f) > 5 else "[anon]"))
    exe = next(p for _, _, p in maps if p.startswith("/"))
    base = min(lo for lo, _, p in maps if p == exe)
    return exe, base, samples, maps


def chains(exe, vaddrs):
    """One batched addr2line: vaddr -> [(function, file:line)], leaf first."""
    out = subprocess.run(["addr2line", "-f", "-i", "-C", "-a", "-e", exe],
                         input="".join(f"{a:#x}\n" for a in vaddrs),
                         capture_output=True, text=True, check=True).stdout.splitlines()
    result, i = {}, 0
    while i < len(out):
        addr, i, frames = int(out[i], 16), i + 1, []
        while i < len(out) and not re.fullmatch(r"0x[0-9a-f]+", out[i]):
            where = re.sub(r" \(discriminator \d+\)", "", out[i + 1])
            frames.append((re.sub(r"::h[0-9a-f]{16}$", "", out[i]), where))
            i += 2
        result[addr] = frames
    return result


def mapping(maps, addr):
    """The `[name]` row of the mapping that holds `addr`."""
    where = next((p for lo, hi, p in maps if lo <= addr < hi), "[unmapped]")
    return f"[{os.path.basename(where)}]"


def table(title, counts, total):
    print(f"\n== {title} ==")
    for name, n in counts.most_common(TOP):
        print(f"{100 * n / total:6.2f}%  {n:7d}  {name}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dump")
    ap.add_argument("--symbol")
    args = ap.parse_args()
    exe, base, samples, maps = load(args.dump)
    hits = collections.Counter(a for a, _ in samples)
    in_exe = {a: a - base for a in hits if any(lo <= a < hi and p == exe for lo, hi, p in maps)}
    print(f"{len(samples)} samples, {sum(hits[a] for a in in_exe)} in {exe}")

    if args.symbol:
        by_vaddr = collections.Counter({v: hits[a] for a, v in in_exe.items()})
        syms = subprocess.run(["objdump", "-t", "-C", exe], capture_output=True, text=True,
                              check=True).stdout.splitlines()
        for line in syms:
            m = re.match(r"([0-9a-f]+) .{7} \.text\s+([0-9a-f]+)\s+(.*)", line)
            if not m or args.symbol not in m.group(3) or int(m.group(2), 16) == 0:
                continue
            lo, size = int(m.group(1), 16), int(m.group(2), 16)
            n = sum(c for v, c in by_vaddr.items() if lo <= v < lo + size)
            print(f"\n== {m.group(3)}: {n} samples ==")
            dis = subprocess.run(["objdump", "-d", "-l", "-C", "--no-show-raw-insn",
                                  f"--start-address={lo:#x}", f"--stop-address={lo + size:#x}", exe],
                                 capture_output=True, text=True, check=True).stdout.splitlines()
            for d in dis[6:]:  # past objdump's file/section preamble
                insn = re.match(r"\s*([0-9a-f]+):\t", d)
                count = by_vaddr.get(int(insn.group(1), 16), 0) if insn else 0
                print(f"{count or '':>7} {d}")
        return

    outside = collections.Counter((a, c) for a, c in samples if a not in in_exe)
    # A caller word is a return address: the call before it is at word - 1.
    calls = {c - base - 1 for _, c in outside if c is not None}
    resolved = chains(exe, sorted(set(in_exe.values()) | calls))
    outer, inclusive, leaf, callers = (collections.Counter() for _ in range(4))
    for addr, n in hits.items():
        if addr in in_exe:
            frames = resolved[in_exe[addr]]
            outer[frames[-1][0]] += n
            leaf[f"{frames[0][1]}  ({frames[0][0]})"] += n
            for fn in {fn for fn, _ in frames}:
                inclusive[fn] += n
        else:
            for t in (outer, inclusive, leaf):
                t[mapping(maps, addr)] += n
    for (addr, caller), n in outside.items():
        who = resolved[caller - base - 1][-1][0] if caller is not None else "?"
        callers[f"{mapping(maps, addr)} <- {who}"] += n
    table("outermost symbol", outer, len(samples))
    table("inclusive over the inline chain", inclusive, len(samples))
    table("leaf source line", leaf, len(samples))
    table("callers of samples outside the executable", callers, len(samples))


if __name__ == "__main__":
    main()

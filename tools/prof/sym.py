#!/usr/bin/env python3
"""Symbolise sampler.so output: sym.py <samples> <binary> func|line [top]

`func` aggregates by the outermost (non-inlined) function holding each
sample, `line` by the innermost inlined file:line. Needs addr2line."""
import collections
import subprocess
import sys


def main():
    samples, binary, mode = sys.argv[1:4]
    top = int(sys.argv[4]) if len(sys.argv) > 4 else 30
    with open(samples) as f:
        base = int(f.readline().split("-")[0], 16)
        addrs = [int(line, 16) - base for line in f]
    # -a heads each address's inline chain (function / file:line pairs,
    # innermost first) with the address itself. Samples outside the binary
    # (libc, vdso) resolve to "??".
    unique = sorted({a for a in addrs if a >= 0})
    out = subprocess.run(
        ["addr2line", "-a", "-f", "-i", "-C", "-e", binary],
        input="\n".join(hex(a) for a in unique),
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    names, chain, at = {}, [], None
    for line in out + ["0x0"]:
        if line.startswith("0x"):
            if chain:
                names[at] = chain[-2] if mode == "func" else chain[1]
            at, chain = int(line, 16), []
        else:
            chain.append(line)
    hits = collections.Counter(names.get(a, "??") for a in addrs)
    print(f"{len(addrs)} samples")
    for name, n in hits.most_common(top):
        print(f"{100 * n / len(addrs):6.2f}%  {n:7d}  {name}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Symbolise the LD_PRELOAD tools' output. Needs addr2line.

    sym.py <samples> <binary> func|line [top]     sampler.so output
    sym.py <samples> <binary> incl [top]          sampler.so SAMPLER_STACK=1 output
    sym.py <samples> <binary> asm <function> [min%]
    sym.py <mallocs> <binary> allocs <ops> [top]  mallocs.so output
    sym.py <livemem> <binary> live [top]          livemem.so output

`func` aggregates by the outermost (non-inlined) function holding each
sample, `line` by the innermost inlined file:line. `incl` prints each
function's inclusive share: the samples whose stack (every frame of the
frame-pointer walk, inlined frames included) holds it at least once, and
beside it its self share (the samples whose innermost frame it is).
`allocs` prints
allocations per operation (`ops` = how many operations the run performed,
e.g. reps x object faults per rep) by the three innermost frames of each
call stack that are this repository's own code; `live` prints the bytes
and blocks held there (at the peak, or at `LIVEMEM_AT`), by the same
frames. `asm` disassembles every
symbol whose demangled name contains `function` (needs nm and objdump), each
instruction prefixed with its share of all samples — what is live across a
loop's dispatch shows as loads and read-modify-writes of stack slots there;
symbols holding less than `min%` (default 0.5) of the samples are skipped."""
import collections
import re
import subprocess
import sys


def symbolise(binary, addrs):
    """{addr: [(function, file:line), ...]}, innermost inlined frame first.

    -a heads each address's inline chain with the address itself. Addresses
    outside the binary (libc, vdso) resolve to "??"."""
    out = subprocess.run(
        ["addr2line", "-a", "-f", "-i", "-C", "-e", binary],
        input="\n".join(hex(a) for a in sorted(addrs)),
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    chains, lines, at = {}, [], None
    for line in out + ["0x0"]:
        if line.startswith("0x"):
            if lines:
                chains[at] = list(zip(lines[0::2], lines[1::2]))
            at, lines = int(line, 16), []
        else:
            lines.append(line)
    return chains


def stacks(path):
    """Each sample's addresses, relative to the load base: the interrupted
    instruction, then (stack mode) each return address less one, so that it
    names the call instruction."""
    with open(path) as f:
        base = int(f.readline().split("-")[0], 16)
        for line in f:
            ip, *rets = (int(word, 16) - base for word in line.split())
            yield [ip] + [r - 1 for r in rets]


def samples(path, binary, mode, top):
    addrs = [stack[0] for stack in stacks(path)]
    chains = symbolise(binary, {a for a in addrs if a >= 0})
    pick = (lambda c: c[-1][0]) if mode == "func" else (lambda c: c[0][1])
    hits = collections.Counter(pick(chains[a]) if a in chains else "??" for a in addrs)
    print(f"{len(addrs)} samples")
    for name, n in hits.most_common(top):
        print(f"{100 * n / len(addrs):6.2f}%  {n:7d}  {name}")


def inclusive(path, binary, top):
    all_stacks = list(stacks(path))
    chains = symbolise(binary, {a for stack in all_stacks for a in stack if a >= 0})
    incl, own = collections.Counter(), collections.Counter()
    for stack in all_stacks:
        frames = [fn for a in stack for fn, _ in chains.get(a, [("??", "")])]
        own[frames[0]] += 1
        incl.update(set(frames) - {"??"})
    n = len(all_stacks)
    print(f"{n} samples, {100 * own['??'] / n:.2f}% of them outside the binary; "
          "inclusive and self shares")
    for name, hits in incl.most_common(top):
        print(f"{100 * hits / n:6.2f}%  {100 * own[name] / n:6.2f}%  {name}")


def asm(path, binary, function, least):
    hits = collections.Counter(stack[0] for stack in stacks(path))
    total = sum(hits.values())
    nm = subprocess.run(["nm", "-C", "-S", binary], capture_output=True, text=True, check=True)
    for sym in nm.stdout.splitlines():
        m = re.match(r"([0-9a-f]+) ([0-9a-f]+) [tTwW] (.*)", sym)
        if not m or function not in m.group(3):
            continue
        start, size = int(m.group(1), 16), int(m.group(2), 16)
        inside = sum(n for a, n in hits.items() if start <= a < start + size)
        if 100 * inside < least * total:
            continue
        print(f"{100 * inside / total:6.2f}%  {m.group(3)}")
        dis = subprocess.run(
            ["objdump", "-d", "--no-show-raw-insn", f"--start-address={start}",
             f"--stop-address={start + size}", binary],
            capture_output=True, text=True, check=True,
        ).stdout.splitlines()
        for line in dis:
            at = re.match(r"\s*([0-9a-f]+):\t", line)
            if at:
                n = hits.get(int(at.group(1), 16), 0)
                print(f"{100 * n / total:6.2f}% {line}" if n else f"        {line}")


def in_repo(frame):
    where = frame[1]
    return not (where.startswith(("??", "/rustc/")) or "/.cargo/" in where)


def call_sites(path, binary):
    """`(a, b, site)` per line of a mallocs.so or livemem.so file, `site`
    named by the three innermost frames of its stack that are this
    repository's own code; `#` lines are printed."""
    sites = []
    with open(path) as f:
        base = int(f.readline().split("-")[0], 16)
        for line in f:
            if line.startswith("#"):
                print(line.rstrip())
                continue
            a, b, *stack = line.split()
            # A return address names the instruction after the call.
            stack = [int(addr, 16) - base - 1 for addr in stack]
            sites.append((int(a), int(b), stack))
    chains = symbolise(binary, {a for _, _, stack in sites for a in stack if a >= 0})
    for a, b, stack in sites:
        frames = [fr for addr in stack for fr in chains.get(addr, []) if in_repo(fr)]
        name = " < ".join(f"{fn} ({where.rsplit('/', 1)[-1]})" for fn, where in frames[:3])
        yield a, b, name or "??"


def allocs(path, binary, ops, top):
    calls, sizes = collections.Counter(), collections.Counter()
    for count, size, name in call_sites(path, binary):
        calls[name] += count
        sizes[name] += size
    total = sum(calls.values())
    print(f"{total} allocations, {total / ops:.2f} per operation")
    for name, n in calls.most_common(top):
        print(f"{n / ops:8.2f}/op  {sizes[name] / n:8.0f} B  {name}")


def live(path, binary, top):
    held, blocks = collections.Counter(), collections.Counter()
    for size, count, name in call_sites(path, binary):
        held[name] += size
        blocks[name] += count
    total = sum(held.values())
    print(f"{total / 2**20:.2f} MiB live in {sum(blocks.values())} blocks")
    for name, n in held.most_common(top):
        print(f"{n / 2**20:8.3f} MiB  {blocks[name]:8d}  {name}")


def main():
    path, binary, mode = sys.argv[1:4]
    rest = sys.argv[4:]
    if mode == "live":
        live(path, binary, int(rest[0]) if rest else 30)
    elif mode == "allocs":
        allocs(path, binary, float(rest[0]), int(rest[1]) if len(rest) > 1 else 30)
    elif mode == "incl":
        inclusive(path, binary, int(rest[0]) if rest else 30)
    elif mode == "asm":
        asm(path, binary, rest[0], float(rest[1]) if len(rest) > 1 else 0.5)
    else:
        samples(path, binary, mode, int(rest[0]) if rest else 30)


if __name__ == "__main__":
    main()

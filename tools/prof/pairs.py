#!/usr/bin/env python3
"""Run the repo benchmark in parent/change pairs and append one row per
metric to BENCH_pairs.json.

    python3 tools/prof/pairs.py PARENT CHANGE --workload W --seconds S --pairs N
        [--seed 42] [--metric wall_s ...] [--env NAME=VALUE ...]
        [--sequential] [--scratch DIR] [--out BENCH_pairs.json]

PARENT and CHANGE are git revisions of this repository. Each is exported
with `git archive` into a scratch directory (never a worktree of this
checkout) and its `examples/benchmark` binary built there, once per
revision. A pair runs both binaries with the same workload, seed and
length:

* pinned (the default): both at once, each `taskset`-pinned to one of the
  first two cores, the cores swapped every pair, so both sides see the
  same minute of a shared machine (tools/prof/README.md);
* `--sequential`: one after the other, unpinned, alternating which goes
  first: for `fleet-parallel`, whose two threads a pinned run would time
  fighting over one core.

Every pair must be correct on both sides and report every `sim_*` value
identically (the change must not move virtual time); the run stops at
the first pair that does not. Each `--metric` (default `wall_s`) then
becomes one row: both revisions, the workload, seed, seconds, pairs and
environment, every pair's two values, the pairs the change won (strictly
better), the median of the per-pair change/parent ratios, the parent's
interquartile range, min / p10 / median per side, and lesson (i)'s
verdict: `signal` when there are at least 10 pairs, the change won at
least 9 in 10 of them, and its median is better than the parent's by
more than the parent's IQR; `noise` otherwise. `tests/bench_pairs.rs`
recomputes every row's numbers and verdict from its pairs.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

ROOT = subprocess.run(
    ["git", "rev-parse", "--show-toplevel"],
    cwd=os.path.dirname(os.path.abspath(__file__)),
    capture_output=True, text=True, check=True,
).stdout.strip()


def quantile(values, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def stats(values):
    return {
        "min": min(values),
        "p10": quantile(values, 0.10),
        "median": quantile(values, 0.50),
    }


def verdict(pairs, won, parent_median, change_median, parent_iqr):
    """Lesson (i): at least 10 pairs, the change better in at least 9 of
    10, and a median gap larger than the parent's IQR."""
    gap = parent_median - change_median
    if pairs >= 10 and 10 * won >= 9 * pairs and gap > parent_iqr:
        return "signal"
    return "noise"


def row_numbers(runs):
    """Everything a row derives from its pairs `[[parent, change], ...]`.
    Lower is better: it is for every end-to-end metric of BENCHMARK.json."""
    parent = [p for p, _ in runs]
    change = [c for _, c in runs]
    won = sum(1 for p, c in runs if c < p)
    ratios = [c / p for p, c in runs]
    iqr = quantile(parent, 0.75) - quantile(parent, 0.25)
    return {
        "change_won": won,
        "median_ratio": quantile(ratios, 0.50),
        "parent_iqr": iqr,
        "parent_stats": stats(parent),
        "change_stats": stats(change),
        "verdict": verdict(len(runs), won, quantile(parent, 0.5), quantile(change, 0.5), iqr),
    }


def git(*args):
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def build(rev, scratch):
    """The benchmark binary of revision `rev`, built once into `scratch`."""
    src = os.path.join(scratch, "src-" + rev[:12])
    binary = os.path.join(scratch, "benchmark-" + rev[:12])
    if os.path.exists(binary):
        return binary
    os.makedirs(src, exist_ok=True)
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", src], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        sys.exit(f"git archive {rev} failed")
    target = os.path.join(scratch, "target-" + rev[:12])
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(src, "examples/benchmark/Cargo.toml"),
         "--target-dir", target],
        check=True,
    )
    os.replace(os.path.join(target, "release", "benchmark"), binary)
    return binary


def command(binary, args, core):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    return cmd if core is None else ["taskset", "-c", str(core), *cmd]


def result(proc, side):
    out, _ = proc.communicate()
    if proc.returncode != 0:
        sys.exit(f"{side} exited {proc.returncode}")
    line = json.loads(out.strip().splitlines()[-1])
    if not line["correct"] or line["failed"]:
        sys.exit(f"{side} was not correct: {line}")
    return {k: v["value"] for k, v in line["metrics"].items()}


def run_pair(i, binaries, args, env):
    spawn = lambda side, core: subprocess.Popen(
        command(binaries[side], args, core), stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True, env=env)
    if args.sequential:
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        got = {side: result(spawn(side, None), side) for side in order}
    else:
        cores = {"parent": i % 2, "change": 1 - i % 2}
        procs = {side: spawn(side, cores[side]) for side in ("parent", "change")}
        got = {side: result(proc, side) for side, proc in procs.items()}
    sims = {side: {k: v for k, v in m.items() if k.startswith("sim_")} for side, m in got.items()}
    if sims["parent"] != sims["change"]:
        sys.exit(f"pair {i}: sim_* values differ: {sims}")
    return got


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--metric", action="append")
    ap.add_argument("--env", action="append", default=[], help="NAME=VALUE for both sides")
    ap.add_argument("--sequential", action="store_true")
    ap.add_argument("--scratch", default=os.path.join(tempfile.gettempdir(), "sod-pairs"))
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_pairs.json"))
    args = ap.parse_args()
    metrics = args.metric or ["wall_s"]
    if args.seconds == int(args.seconds):
        args.seconds = int(args.seconds)

    revs = {"parent": git("rev-parse", args.parent + "^{commit}"),
            "change": git("rev-parse", args.change + "^{commit}")}
    os.makedirs(args.scratch, exist_ok=True)
    binaries = {side: build(rev, args.scratch) for side, rev in revs.items()}
    extra = dict(e.split("=", 1) for e in args.env)
    env = {**os.environ, **extra}

    runs = {m: [] for m in metrics}
    for i in range(args.pairs):
        got = run_pair(i, binaries, args, env)
        for m in metrics:
            runs[m].append([got["parent"][m], got["change"][m]])
        print(f"pair {i + 1}/{args.pairs}: "
              + ", ".join(f"{m} {runs[m][-1][0]:.4g} -> {runs[m][-1][1]:.4g}" for m in metrics),
              file=sys.stderr)

    rows = []
    if os.path.exists(args.out):
        with open(args.out) as f:
            rows = json.load(f)
    for m in metrics:
        row = {
            "parent": revs["parent"],
            "change": revs["change"],
            "workload": args.workload,
            "metric": m,
            "seed": args.seed,
            "seconds": args.seconds,
            "pairs": args.pairs,
            "mode": "sequential" if args.sequential else "pinned",
            "env": extra,
            "runs": runs[m],
            **row_numbers(runs[m]),
        }
        rows.append(row)
        print(json.dumps({k: v for k, v in row.items() if k != "runs"}))
    with open(args.out, "w") as f:
        f.write("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n")


if __name__ == "__main__":
    main()

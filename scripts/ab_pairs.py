#!/usr/bin/env python3
"""Paired A/B runs of one benchmark workload on two git refs.

    python3 scripts/ab_pairs.py BASE CAND --workload W --pairs N --seconds S --seed0 K

Both refs are exported with ``git archive`` into a temporary directory, and
each export runs its own ``perfbench/run.py``.  Pair i runs both sides on
seed K + i, one after the other, alternating which side runs first, so both
see the same stretch of the machine's speed.  For every end-to-end metric
``BENCHMARK.json`` lists, the report gives each side's median and quartiles
over the pairs, the number of pairs the candidate wins (strictly better,
in the metric's direction) and the median of the per-pair ratios
candidate / base.  The last line of standard output is one JSON object with
the same figures and every pair's two values.  The exit status is 1 if a
run does not finish or reports ``"correct": false``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def export(ref: str, dest: str) -> None:
    """Write the tree of ``ref`` into ``dest``."""
    tar = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", ref],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest)


def run_side(tree: str, workload: str, seed: int, seconds: float) -> Optional[dict]:
    """One benchmark run in ``tree``; its final JSON line, or None."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def quartiles(values: List[float]) -> List[float]:
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(better: str, base: List[float], cand: List[float]) -> dict:
    ratios = [c / b for b, c in zip(base, cand) if b != 0]
    sign = 1.0 if better == "higher" else -1.0
    return {
        "better": better,
        "base": quartiles(base),
        "cand": quartiles(cand),
        "pairs": [[b, c] for b, c in zip(base, cand)],
        "wins": sum(1 for b, c in zip(base, cand) if sign * (c - b) > 0),
        "median_ratio": statistics.median(ratios) if ratios else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("cand")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed0", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")

    with tempfile.TemporaryDirectory(prefix="ab_pairs-") as tmp:
        trees = {side: os.path.join(tmp, side) for side in ("base", "cand")}
        export(args.base, trees["base"])
        export(args.cand, trees["cand"])
        with open(os.path.join(trees["cand"], "BENCHMARK.json")) as fh:
            declared = json.load(fh)["end_to_end"]

        outs: Dict[str, List[dict]] = {"base": [], "cand": []}
        ok = True
        for i in range(args.pairs):
            seed = args.seed0 + i
            order = ("base", "cand") if i % 2 == 0 else ("cand", "base")
            for side in order:
                out = run_side(trees[side], args.workload, seed, args.seconds)
                if out is None or out.get("correct") is not True:
                    ok = False
                    print(f"pair {i} seed {seed} {side}: "
                          f"{'no result' if out is None else 'not correct'}")
                outs[side].append(out or {})
            print(f"pair {i} seed {seed} ({order[0]} first): done", flush=True)

    if not ok:
        print(json.dumps({"workload": args.workload, "correct": False}))
        return 1

    metrics = {}
    for entry in declared:
        name = entry["name"]
        base = [o["metrics"][name]["value"] for o in outs["base"] if name in o["metrics"]]
        cand = [o["metrics"][name]["value"] for o in outs["cand"] if name in o["metrics"]]
        if len(base) == len(cand) == args.pairs:
            metrics[name] = summarize(entry["better"], base, cand)

    print(f"{args.workload}: {args.base} -> {args.cand}, {args.pairs} pairs, "
          f"{args.seconds:g} s, seeds {args.seed0}..{args.seed0 + args.pairs - 1}")
    print(f"  {'metric':20s} {'base median [q1, q3]':>34s} {'cand median [q1, q3]':>34s}"
          f" {'wins':>6s} {'ratio':>8s}")
    for name, m in metrics.items():
        b, c = m["base"], m["cand"]
        ratio = "-" if m["median_ratio"] is None else f"{m['median_ratio']:.4f}"
        print(f"  {name:20s} {b[1]:12.6g} [{b[0]:.6g}, {b[2]:.6g}]"
              f" {c[1]:12.6g} [{c[0]:.6g}, {c[2]:.6g}]"
              f" {m['wins']:3d}/{args.pairs:<2d} {ratio:>8s}")
    for side in ("base", "cand"):
        print(f"  {side}: attempted {[o['attempted'] for o in outs[side]]}, "
              f"failed {[o['failed'] for o in outs[side]]}")
    print(json.dumps({
        "workload": args.workload,
        "base": args.base,
        "cand": args.cand,
        "pairs": args.pairs,
        "seconds": args.seconds,
        "seed0": args.seed0,
        "correct": True,
        "attempted": {side: [o["attempted"] for o in outs[side]] for side in outs},
        "failed": {side: [o["failed"] for o in outs[side]] for side in outs},
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

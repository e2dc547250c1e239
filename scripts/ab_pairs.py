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
candidate / base, with a percentile-bootstrap 95% interval for that median
(pairs resampled with replacement, seeded, so the interval is the same for
the same runs).

Timed runs compare speed, and a faster side fits more rounds into its
seconds, so round-dependent results such as ``realized_cost_usd`` differ
even when both sides compute the same thing.  Each pair therefore also
runs both sides at ``--seconds 0`` (one round; the timed runs themselves
when ``--seconds`` is 0) and checks that ``correct``, ``attempted``,
``failed`` and ``realized_cost_usd`` agree exactly.

The last line of standard output is one JSON object with the same
figures, every pair's two values and the equal-rounds check
(``equal_rounds.agree`` is true when every pair agrees).  The exit status
is 1 if a run does not finish or reports ``"correct": false``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
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


BOOTSTRAP_RESAMPLES = 10_000
BOOTSTRAP_SEED = 0


def bootstrap_median_ci(ratios: List[float]) -> List[float]:
    """Percentile-bootstrap 95% interval for the median of ``ratios``: the
    2.5th and 97.5th percentiles (nearest rank) of the medians of
    :data:`BOOTSTRAP_RESAMPLES` resamples drawn with replacement."""
    rng = random.Random(BOOTSTRAP_SEED)
    n = len(ratios)
    medians = sorted(
        statistics.median(rng.choices(ratios, k=n)) for _ in range(BOOTSTRAP_RESAMPLES)
    )
    return [medians[int(0.025 * BOOTSTRAP_RESAMPLES)],
            medians[int(0.975 * BOOTSTRAP_RESAMPLES) - 1]]


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
        "median_ratio_ci95": bootstrap_median_ci(ratios) if ratios else None,
    }


def round_outcome(out: dict) -> dict:
    """The fields of one run that must agree between the two sides when
    both run the same rounds."""
    return {
        "correct": out.get("correct"),
        "attempted": out.get("attempted"),
        "failed": out.get("failed"),
        "realized_cost_usd": out.get("metrics", {}).get("realized_cost_usd", {}).get("value"),
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
        equal_rounds: List[dict] = []
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
            if args.seconds == 0:
                rounds = {side: outs[side][-1] for side in order}
            else:
                rounds = {side: run_side(trees[side], args.workload, seed, 0) or {}
                          for side in order}
            outcome = {side: round_outcome(rounds[side]) for side in ("base", "cand")}
            agree = outcome["base"] == outcome["cand"]
            equal_rounds.append({"seed": seed, "agree": agree, **outcome})
            print(f"pair {i} seed {seed} ({order[0]} first): done"
                  f"{'' if agree else ', equal rounds disagree'}", flush=True)

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
    agreeing = sum(1 for e in equal_rounds if e["agree"])
    print(f"  equal rounds (--seconds 0): correct, attempted, failed and "
          f"realized_cost_usd agree in {agreeing}/{args.pairs} pairs")
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
        "equal_rounds": {"agree": agreeing == args.pairs, "pairs": equal_rounds},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

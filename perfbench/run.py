"""Benchmark command for bebcharge.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` next to this directory, never from an installed copy.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
runs each round untraced and then traced, wrapping every layer's public
functions, and reports per-layer metrics, the tracing overhead, and writes
its spans to ``.perfbench_out/``.  The last line
of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def import_package() -> None:
    """Put the checkout's ``src`` first on the path, or stop."""
    init = os.path.join(SRC, "bebcharge", "__init__.py")
    if not os.path.isfile(init):
        sys.stderr.write(f"perfbench: no package source at {init}\n")
        sys.exit(2)
    sys.path[:0] = [SRC, HERE]
    import bebcharge

    if os.path.abspath(bebcharge.__file__) != init:
        sys.stderr.write(f"perfbench: imported {bebcharge.__file__}, expected {init}\n")
        sys.exit(2)


def quantile(values: List[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def end_to_end(result, rss_mb: float, window_mean: bool) -> Dict[str, tuple]:
    timed = result.timed_s
    middle = statistics.fmean if window_mean else statistics.median
    return {
        "setup_s": (statistics.median(result.setup_s), "s"),
        "plan_s": (statistics.median(result.plan_s), "s"),
        "window_p50_ms": (1e3 * middle(result.window_s), "ms"),
        "window_p90_ms": (1e3 * quantile(result.window_s, 0.9), "ms"),
        "day_s": (timed / result.attempted, "s"),
        "realized_cost_usd": (statistics.fmean(result.costs), "USD"),
        "runs_per_s": (result.attempted / timed, "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(tracer, result, overhead_pct: float) -> Dict[str, tuple]:
    T = "timed"
    ops = max(1, result.attempted)

    def ms(*names: str) -> float:
        return tracer.ms(T, *names) / ops

    def calls(*names: str) -> float:
        return tracer.n(T, *names) / ops

    def count(key: str, per: float = ops) -> float:
        return tracer.counts.get((T, key), 0.0) / max(1.0, per)

    models = tracer.counts.get((T, "milp.solved_models"), 0.0)
    lp_calls = tracer.n(T, "lp.linprog")
    out = {
        "solver.nodes": (count("solver.nodes"), "count"),
        "solver.lp_calls": (calls("lp.linprog"), "count"),
        "solver.lp_ms": (ms("lp.linprog"), "ms"),
        "solver.lp_ms_per_call": (tracer.ms(T, "lp.linprog") / max(1, lp_calls), "ms"),
        "solver.bnb_ms": (ms("solver.branch_and_bound"), "ms"),
        "solver.bnb_self_ms": (
            1e3 * tracer.self_s.get((T, "solver.branch_and_bound"), 0.0) / ops, "ms"),
        "solver.validate_ms": (ms("solver.validate_solution"), "ms"),
        "solver.no_incumbent": (count("solver.no_incumbent"), "count"),
        "solver.warm_start_ms": (ms("solver.build_warm_start"), "ms"),
        "solver.warm_start_accepted": (
            count("solver.warm_start_accepted", tracer.n(T, "solver.build_warm_start")), "share"),
        "milp.build_ms": (ms("milp.build_static_model", "milp.add_terminal_cost",
                             "milp.lock_charged_visits"), "ms"),
        "milp.extract_ms": (ms("milp.extract_plan"), "ms"),
        "milp.cols": (count("milp.cols", models), "count"),
        "milp.rows": (count("milp.rows", models), "count"),
        "milp.int_cols": (count("milp.int_cols", models), "count"),
        "graph.build_ms": (ms("graph.build_action_graph"), "ms"),
        "graph.edges": (count("graph.edges", tracer.counts.get((T, "graph.built"), 0.0)), "count"),
        "graph.preference_ms": (ms("graph.close_edges", "graph.apply_plan_preference"), "ms"),
        "scenario.discretize_calls": (calls("scenario.discretize"), "count"),
        "scenario.discretize_ms": (ms("scenario.discretize"), "ms"),
        "scenario.generate_ms": (
            tracer.ms("setup", "scenario.generate_random_scenario") / len(result.setup_s), "ms"),
        "receding_horizon.windows": (calls("receding_horizon.plan_horizon"), "count"),
        "receding_horizon.plan_horizon_ms": (ms("receding_horizon.plan_horizon"), "ms"),
        "receding_horizon.execute_ms": (ms("receding_horizon.execute_first_step"), "ms"),
        "receding_horizon.fallbacks": (count("receding_horizon.fallbacks"), "count"),
        "simulation.runs": (calls("simulation.simulate_run"), "count"),
        "simulation.advance_calls": (calls("simulation.TruthEnvironment.advance"), "count"),
        "simulation.advance_ms": (ms("simulation.TruthEnvironment.advance"), "ms"),
        "simulation.noise_ms": (ms("simulation.sample_run_noise",
                                   "simulation.perturb_arrivals"), "ms"),
        "simulation.billing_ms": (ms("simulation.billing_oracle"), "ms"),
        "charge_model.simulate_exact_calls": (calls("charge_model.simulate_exact"), "count"),
        "charge_model.simulate_exact_ms": (ms("charge_model.simulate_exact"), "ms"),
    }
    from spans import LAYERS

    for layer in LAYERS:
        out[f"{layer}.self_ms"] = (tracer.layer_self_ms(T, layer) / ops, "ms")
    out["trace.overhead_pct"] = (overhead_pct, "%")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("desk_plan", "fleet_plan", "closed_loop", "replay_mc"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # one thread for numpy's and scipy's BLAS: the benchmark measures one
    # process on a machine of few cores, and idle BLAS threads that spin
    # compete with it for them
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    import_package()
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    result = workloads.Result()
    probes = spans.Probes()
    probe_patcher = spans.Patcher(extra_modules=("workloads",))
    probes.install(probe_patcher)
    tracer = trace_patcher = None
    if args.trace:
        tracer = spans.Tracer()
        trace_patcher = spans.Patcher(extra_modules=("workloads",))
        spans.install_tracer(tracer, trace_patcher)
        probes.tracer = tracer

    def set_up() -> None:
        if tracer is not None:
            tracer.phase = "setup"
        clock = workloads.Clock()
        clock.time(workload.setup, args.seed)
        result.setup_s.append(clock.total)
        if hasattr(workload, "reference_s"):
            result.plan_s.append(workload.reference_s)

    # Set-ups are spread over the run (before the rounds, between them where
    # the workload asks for it, and after them), because the machine's speed
    # drifts over seconds: set-ups taken all at once would time one moment.
    for _ in range(workload.setups):
        set_up()

    clock = workloads.Clock()
    untraced = workloads.Clock()
    records = []
    r = 0
    while clock.total < args.seconds or r == 0:
        if args.trace:
            # the same round untraced first: the base of the tracing overhead
            trace_patcher.restore()
            probes.tracer = None
            workload.round(r, untraced, probes, workloads.Result())
            probes.take_windows()
            probes.take_runs()
            spans.install_tracer(tracer, trace_patcher)
            probes.tracer = tracer
            tracer.phase = "timed"
        before = clock.total
        records.extend(workload.round(r, clock, probes, result))
        result.round_s.append(clock.total - before)
        r += 1
        if workload.setup_between_rounds and clock.total < args.seconds:
            set_up()
    for _ in range(workload.setups):
        set_up()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        trace_patcher.restore()
        overhead_pct = 100.0 * (clock.total / untraced.total - 1.0)
        tracer.write_spans(os.path.join(
            ROOT, ".perfbench_out", f"spans-{args.workload}-seed{args.seed}.jsonl"))
    workload.check(records, result)
    probe_patcher.restore()

    if args.trace:
        metrics = per_layer(tracer, result, overhead_pct)
    else:
        metrics = end_to_end(result, rss_mb, workload.window_mean)
    print(f"workload {args.workload} seed {args.seed}: {r} rounds, "
          f"{result.attempted} operations attempted, {result.failed} failed, "
          f"{result.timed_s:.3f} s timed")
    for note in result.notes:
        print(f"  {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6f} {unit}")
    for fault in result.faults[:50]:
        sys.stderr.write(f"perfbench: check failed: {fault}\n")
    correct = not result.faults
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Four subcommands wire the pipeline end to end: ``gen`` draws a random
scenario file, ``plan`` solves the static day MILP and writes the schedule,
``simulate`` runs one closed-loop day under a chosen strategy, and ``mc``
runs seeded Monte-Carlo ensembles (optionally chained over multiple days)
and writes comparison reports.

Every command is a pure function of its flags: all randomness flows from an
explicit ``--seed``, outputs carry no timestamps, and re-running with the
same flags reproduces every artifact byte for byte.

Exit codes: 0 success, 2 usage error, 3 model infeasible, 4 solver hit its
search limit without finding any feasible schedule.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .graph import build_action_graph
from .milp import (
    ChargePlan,
    MilpModel,
    ModelOptions,
    build_static_model,
    export_lp,
    extract_plan,
    save_plan_csv,
    save_plan_summary,
)
from .receding_horizon import HorizonConfig
from .scenario import (
    GeneratorBounds,
    Scenario,
    discretize,
    format_hhmm,
    generate_random_scenario,
    load_scenario,
    save_scenario,
)
from .simulation import (
    MCReport,
    NoiseParams,
    monte_carlo,
    multi_day,
    save_report_json,
    save_run_trajectory_csv,
    save_trace_csv,
    simulate_run,
)
from .solver import SolveLimits, branch_and_bound

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_LIMIT = 4

STRATEGIES = ("qin", "open-loop", "hierarchical")


def _strategy_key(name: str) -> str:
    return name.replace("-", "_")


@dataclass(frozen=True)
class RunConfig:
    """Validated invocation: one subcommand plus everything it may touch."""

    subcommand: str
    scenario_path: Optional[str]
    out_dir: Optional[str]
    seed: int
    delta_min: float
    limits: SolveLimits
    horizon: HorizonConfig
    zero_noise: bool = False


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bebcharge",
        description="Charge scheduling for battery-electric bus fleets.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    gen = sub.add_parser("gen", help="generate a random scenario file")
    gen.add_argument("--out", required=True, help="scenario file to write")
    gen.add_argument("--buses", type=int, default=4)
    gen.add_argument("--seed", type=int, default=0)

    def add_solve_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--delta", type=float, default=5.0,
                       help="planning step size in minutes (default 5)")
        p.add_argument("--max-nodes", type=int, default=200_000)
        p.add_argument("--mip-gap", type=float, default=1e-4)

    plan = sub.add_parser("plan", help="solve the static day schedule")
    plan.add_argument("--scenario", required=True)
    plan.add_argument("--out-dir", required=True)
    add_solve_flags(plan)
    plan.add_argument("--fixed-rate", action="store_true",
                      help="force full-rate charging whenever plugged in")
    plan.add_argument("--export-lp", action="store_true",
                      help="also write the model in LP format")
    plan.add_argument("--solver-log", metavar="PATH",
                      help="write one CSV line per incumbent improvement "
                           "(time_s,nodes,incumbent,bound,gap)")

    def add_sim_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scenario", required=True)
        p.add_argument("--out-dir", required=True)
        p.add_argument("--seed", type=int, default=0)
        add_solve_flags(p)
        p.add_argument("--zero-noise", action="store_true",
                       help="disable every disturbance (nominal truth)")
        p.add_argument("--horizon-minutes", type=float, default=60.0)
        p.add_argument("--delta-rh", type=float, default=3.0,
                       help="inner-loop step size in minutes (default 3)")

    simulate = sub.add_parser("simulate", help="run one closed-loop day")
    add_sim_flags(simulate)
    simulate.add_argument("--strategy", choices=STRATEGIES, required=True)

    mc = sub.add_parser("mc", help="seeded Monte-Carlo study")
    add_sim_flags(mc)
    mc.add_argument("--strategy", choices=STRATEGIES + ("all",), required=True)
    mc.add_argument("--runs", type=int, default=30)
    mc.add_argument("--jobs", type=int, default=1,
                    help="parallel workers; results merge in seed order")
    mc.add_argument("--days", type=int, default=0,
                    help="chain N days, carrying mean final charge forward")
    return parser


def _validate(parser: argparse.ArgumentParser, args: argparse.Namespace) -> RunConfig:
    scenario_path = getattr(args, "scenario", None)
    if scenario_path is not None and not os.path.isfile(scenario_path):
        parser.error(f"scenario file not found: {scenario_path}")
    out_dir = getattr(args, "out_dir", None)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        if not os.access(out_dir, os.W_OK):
            parser.error(f"output directory not writable: {out_dir}")
    if getattr(args, "buses", 1) <= 0:
        parser.error("--buses must be positive")
    if getattr(args, "runs", 1) <= 0:
        parser.error("--runs must be positive")
    if getattr(args, "jobs", 1) <= 0:
        parser.error("--jobs must be positive")
    if getattr(args, "days", 0) < 0:
        parser.error("--days must be non-negative")
    if getattr(args, "delta", 5.0) <= 0:
        parser.error("--delta must be positive")
    limits = SolveLimits(
        max_nodes=getattr(args, "max_nodes", 200_000),
        mip_gap=getattr(args, "mip_gap", 1e-4),
    )
    horizon = HorizonConfig(
        horizon_minutes=getattr(args, "horizon_minutes", 60.0),
        delta_rh_minutes=getattr(args, "delta_rh", 3.0),
    )
    return RunConfig(
        subcommand=args.subcommand,
        scenario_path=scenario_path,
        out_dir=out_dir,
        seed=getattr(args, "seed", 0),
        delta_min=getattr(args, "delta", 5.0),
        limits=limits,
        horizon=horizon,
        zero_noise=getattr(args, "zero_noise", False),
    )


# ---------------------------------------------------------------------------
# plan solving shared by plan / simulate / mc


def _solve_day(
    scenario: Scenario,
    cfg: RunConfig,
    fixed_rate: bool = False,
    improvement_log: Optional[List[str]] = None,
) -> Tuple[Optional[ChargePlan], MilpModel, str, int]:
    """Solve the static day model; returns (plan, model, status, exit_code)."""
    instance = discretize(scenario, cfg.delta_min)
    graph = build_action_graph(instance)
    model = build_static_model(graph, ModelOptions(fixed_rate=fixed_rate))
    on_improvement = improvement_log.append if improvement_log is not None else None
    solution = branch_and_bound(model, cfg.limits, on_improvement=on_improvement)
    if solution.status in ("infeasible", "unbounded"):
        return None, model, solution.status, EXIT_INFEASIBLE
    if not solution.has_solution:
        return None, model, solution.status, EXIT_LIMIT
    plan = extract_plan(model, solution.assignment, status=solution.status)
    return plan, model, solution.status, EXIT_OK


def _plan_diagnostics(scenario: Scenario, status: str) -> str:
    lines = [f"day model {status}: no schedule exists within the SOC bands"]
    for bus in scenario.buses:
        need = (bus.final_soc - bus.initial_soc) * bus.capacity_kwh
        drive = sum(
            b.route_power_kw * (b.end_min - b.start_min) / 60.0
            for b in bus.schedule
            if b.route_power_kw
        )
        lines.append(
            f"  {bus.id}: needs {need + drive:.1f} kWh "
            f"(terminal shift {need:+.1f}, driving {drive:.1f})"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args: argparse.Namespace, cfg: RunConfig) -> int:
    scenario = generate_random_scenario(
        cfg.seed, GeneratorBounds(n_buses=args.buses)
    )
    save_scenario(scenario, args.out)
    print(
        f"{len(scenario.buses)} buses, {len(scenario.charger_types)} charger "
        f"types, day {format_hhmm(scenario.day_start_min)}-"
        f"{format_hhmm(scenario.day_end_min)} -> {args.out}"
    )
    return EXIT_OK


def cmd_plan(args: argparse.Namespace, cfg: RunConfig) -> int:
    scenario = load_scenario(cfg.scenario_path)
    improvements: Optional[List[str]] = [] if args.solver_log else None
    plan, model, status, code = _solve_day(
        scenario, cfg, fixed_rate=args.fixed_rate, improvement_log=improvements
    )
    if improvements is not None:
        with open(args.solver_log, "w", encoding="utf-8") as fh:
            fh.write("time_s,nodes,incumbent,bound,gap\n")
            fh.writelines(line + "\n" for line in improvements)
    if args.export_lp:
        export_lp(model, os.path.join(cfg.out_dir, "model.lp"))
        print(f"LP written: {os.path.join(cfg.out_dir, 'model.lp')}")
    if plan is None:
        print(_plan_diagnostics(scenario, status), file=sys.stderr)
        return code
    save_plan_csv(plan, os.path.join(cfg.out_dir, "plan.csv"))
    save_plan_summary(plan, os.path.join(cfg.out_dir, "plan_summary.json"))
    bd = plan.cost_breakdown
    print(f"status {status}, objective {plan.objective_value:.6f}")
    print(
        f"consumption {bd['consumption']:.6f}, demand {bd['demand_base']:.6f}"
        f" + tou {bd['demand_tou']:.6f}, intervals {len(plan.intervals)}"
    )
    return EXIT_OK


def _noise(cfg: RunConfig) -> NoiseParams:
    return NoiseParams.zero() if cfg.zero_noise else NoiseParams()


def _reference_for(
    scenario: Scenario, strategy: str, cfg: RunConfig
) -> Tuple[Optional[ChargePlan], int]:
    """Day plan for strategies that need one; Qin plans nothing."""
    if strategy == "qin":
        return None, EXIT_OK
    plan, _, status, code = _solve_day(scenario, cfg)
    if plan is None:
        print(_plan_diagnostics(scenario, status), file=sys.stderr)
    return plan, code


def cmd_simulate(args: argparse.Namespace, cfg: RunConfig) -> int:
    scenario = load_scenario(cfg.scenario_path)
    strategy = _strategy_key(args.strategy)
    reference, code = _reference_for(scenario, strategy, cfg)
    if code != EXIT_OK:
        return code
    run = simulate_run(
        scenario,
        strategy,
        cfg.seed,
        params=_noise(cfg),
        reference=reference,
        horizon=cfg.horizon,
    )
    save_run_trajectory_csv(run, os.path.join(cfg.out_dir, "trajectory.csv"))
    summary = {
        "strategy": strategy,
        "seed": cfg.seed,
        "zero_noise": cfg.zero_noise,
        "cost_breakdown": {
            k: run.cost_breakdown[k] for k in sorted(run.cost_breakdown)
        },
        "total_cost": run.total_cost,
        "violation_count": run.violation_count,
        "worst_violation_kwh": run.worst_violation_kwh,
        "terminal_soc_kwh": {
            b: run.terminal_soc_kwh[b] for b in run.bus_ids
        },
        "failed": run.failed,
    }
    if reference is not None:
        summary["reference_cost"] = reference.total_cost
    path = os.path.join(cfg.out_dir, "run_summary.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    print(
        f"{strategy}: cost {run.total_cost:.6f}, violations "
        f"{run.violation_count}, failed {run.failed}"
    )
    return EXIT_OK


def _save_runs_csv(report: MCReport, path: str) -> None:
    terminal = np.asarray(report.terminal_soc_kwh)
    with open(path, "w", encoding="utf-8") as fh:
        cols = ["run", "cost", "violation_count"]
        cols += [f"terminal_{b}" for b in report.bus_ids]
        fh.write(",".join(cols) + "\n")
        for i in range(report.n_runs):
            row = [
                str(i),
                f"{report.run_costs[i]:.6f}",
                str(report.violation_counts[i]),
            ]
            row += [f"{terminal[i, j]:.6f}" for j in range(terminal.shape[1])]
            fh.write(",".join(row) + "\n")


def _mc_one_strategy(
    scenario: Scenario,
    strategy: str,
    args: argparse.Namespace,
    cfg: RunConfig,
    reference: Optional[ChargePlan],
) -> MCReport:
    report = monte_carlo(
        scenario,
        strategy,
        args.runs,
        cfg.seed,
        params=_noise(cfg),
        reference=reference,
        horizon=cfg.horizon,
        jobs=args.jobs,
    )
    out = os.path.join(cfg.out_dir, strategy)
    os.makedirs(out, exist_ok=True)
    save_report_json(report, os.path.join(out, "summary.json"))
    save_trace_csv(report, os.path.join(out, "trace.csv"))
    _save_runs_csv(report, os.path.join(out, "runs.csv"))
    return report


def _mc_multi_day(
    scenario: Scenario,
    strategy: str,
    args: argparse.Namespace,
    cfg: RunConfig,
) -> int:
    chain = multi_day(
        scenario,
        strategy,
        n_days=args.days,
        runs_per_day=args.runs,
        base_seed=cfg.seed,
        params=_noise(cfg),
        horizon=cfg.horizon,
        plan_delta_min=cfg.delta_min,
        limits=cfg.limits,
    )
    out = os.path.join(cfg.out_dir, strategy)
    os.makedirs(out, exist_ok=True)
    days_doc = []
    with open(os.path.join(out, "days.csv"), "w", encoding="utf-8") as fh:
        fh.write("day,plan_cost,mean_cost,violation_rate,failed\n")
        for d in chain.days:
            mean_cost = d.report.mean_cost if d.report else float("nan")
            rate = d.report.violation_rate if d.report else float("nan")
            plan_cost = d.plan_cost if d.plan_cost is not None else float("nan")
            fh.write(
                f"{d.day},{plan_cost:.6f},{mean_cost:.6f},{rate:.6f},"
                f"{int(d.failed)}\n"
            )
            days_doc.append(
                {
                    "day": d.day,
                    "initial_soc_frac": {
                        b: d.initial_soc_frac[b] for b in sorted(d.initial_soc_frac)
                    },
                    "plan_cost": d.plan_cost,
                    "mean_cost": d.report.mean_cost if d.report else None,
                    "violation_rate": d.report.violation_rate if d.report else None,
                    "failed": d.failed,
                }
            )
    with open(os.path.join(out, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(
            {
                "strategy": strategy,
                "n_days": args.days,
                "runs_per_day": args.runs,
                "completed_days": chain.completed_days,
                "days": days_doc,
            },
            fh,
            indent=2,
        )
        fh.write("\n")
    print(
        f"{strategy}: {chain.completed_days}/{args.days} days completed "
        f"-> {out}"
    )
    return EXIT_OK if chain.completed_days == args.days else EXIT_INFEASIBLE


def cmd_mc(args: argparse.Namespace, cfg: RunConfig) -> int:
    scenario = load_scenario(cfg.scenario_path)
    strategies = (
        [_strategy_key(s) for s in STRATEGIES]
        if args.strategy == "all"
        else [_strategy_key(args.strategy)]
    )
    if args.days > 0:
        worst = EXIT_OK
        for strategy in strategies:
            worst = max(worst, _mc_multi_day(scenario, strategy, args, cfg))
        return worst

    needs_plan = any(s != "qin" for s in strategies)
    reference = None
    if needs_plan:
        reference, code = _reference_for(scenario, "hierarchical", cfg)
        if code != EXIT_OK:
            return code

    reports = []
    for strategy in strategies:
        ref = reference if strategy != "qin" else None
        reports.append(_mc_one_strategy(scenario, strategy, args, cfg, ref))

    header = (
        f"{'strategy':<14}{'mean_cost':>12}{'viol_rate':>11}"
        f"{'sigma3_term':>13}{'failed':>8}"
    )
    print(header)
    for rep in reports:
        print(
            f"{rep.strategy:<14}{rep.mean_cost:>12.4f}{rep.violation_rate:>11.4f}"
            f"{rep.sigma3_terminal_kwh:>13.4f}{rep.failed_runs:>8d}"
        )
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    cfg = _validate(parser, args)
    handlers = {
        "gen": cmd_gen,
        "plan": cmd_plan,
        "simulate": cmd_simulate,
        "mc": cmd_mc,
    }
    return handlers[cfg.subcommand](args, cfg)


if __name__ == "__main__":
    sys.exit(main())

"""The four workloads: inputs drawn from the seed, the timed operations, and
the checks their outputs must pass.

Every workload runs in one process with ``jobs=1``.  ``setup`` prepares the
inputs; ``round(r)`` performs round ``r``'s operations, timing only the calls
into the package; ``check`` runs after the timed loop.  ``setups`` set-ups run
before the rounds and as many after them, plus one after each round where
``setup_between_rounds`` is set.  ``window_s`` holds the latencies behind
``window_p50_ms`` and ``window_p90_ms``; the first is their median, or their
mean where ``window_mean`` is set.  A round always holds the same operations,
so the share of failed operations does not depend on how many rounds fit in
a run.  See README.md for the make-up of each workload.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List

import numpy as np

from bebcharge.benchmarks import four_bus_day
from bebcharge.graph import build_action_graph
from bebcharge.milp import build_static_model, extract_plan
from bebcharge.scenario import (
    GeneratorBounds,
    discretize,
    generate_random_scenario,
)
from bebcharge.simulation import (
    TRUTH_DELTA_MIN,
    NoiseParams,
    monte_carlo,
    nominal_plan,
    simulate_run,
)
from bebcharge.solver import SolveLimits, branch_and_bound, solve_lp

import oracle

PLAN_DELTA_MIN = 5.0

# desk_plan: variants of the bundled four-bus day, solved to a zero gap
DESK_POWER_SPREAD = 0.05  # per-bus route power scale drawn from 1 +- this
DESK_LEVEL_RANGE = (0.64, 0.66)  # per-bus starting level, share of capacity

# fleet_plan: generated full days under a fixed node budget
FLEET_NODE_BUDGET = 10
FLEET_FIXED_4BUS_SEEDS = (0, 1, 2, 3)
FLEET_2BUS_POOL = range(64)  # generator seeds the 2-bus days are drawn from
FLEET_ORACLE_GAP = 1e-4
FLEET_4BUS_ORACLE_GAP = 1e-2
FLEET_4BUS_ORACLE_SECONDS = 1.0
FLEET_FAULT = (
    "bebcharge.solver._lp_guided_incumbent returns no incumbent on generated "
    "4-bus days, so branch_and_bound ends 'unknown' without a schedule "
    "although HiGHS finds one"
)

# closed_loop: noise seed of the disturbed day that recurs in every round
CLOSED_LOOP_FIXED_NOISE_SEED = 2024

# replay_mc: Monte-Carlo ensemble sizes per round.  Unequal, so that the
# median and 90th-percentile run latencies fall inside the open-loop runs
# rather than on an edge between the kinds of run.
REPLAY_QIN_RUNS = 4
REPLAY_OPEN_LOOP_RUNS = 12
REPLAY_GEN_RUNS = 1
REPLAY_GEN_DAYS = 8


@dataclass
class Result:
    """What one run measured.  ``faults`` lists every failed check;
    ``notes`` explains failed operations."""

    attempted: int = 0
    failed: int = 0
    setup_s: List[float] = field(default_factory=list)
    plan_s: List[float] = field(default_factory=list)
    window_s: List[float] = field(default_factory=list)
    round_s: List[float] = field(default_factory=list)
    costs: List[float] = field(default_factory=list)
    faults: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def timed_s(self) -> float:
        return sum(self.round_s)


class Clock:
    """Sums the time of timed calls only."""

    def __init__(self) -> None:
        self.total = 0.0

    def time(self, fn: Callable, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        dt = time.perf_counter() - t0
        self.total += dt
        return out, dt


def warm_up() -> None:
    """First LP solve of the process, so HiGHS is loaded before timing."""
    inst = discretize(four_bus_day(), PLAN_DELTA_MIN)
    solve_lp(build_static_model(build_action_graph(inst)))


# ---------------------------------------------------------------------------
# inputs and operations


def desk_day(rng: np.random.Generator):
    """The bundled four-bus day with each bus's route power and starting
    level redrawn.  Visit times stay put: moving even one visit by one grid
    step swings a plan between about 20 and 650 LP solves (README.md)."""
    base = four_bus_day()
    buses = []
    for bus in base.buses:
        scale = float(rng.uniform(1.0 - DESK_POWER_SPREAD, 1.0 + DESK_POWER_SPREAD))
        schedule = tuple(
            dataclasses.replace(block, route_power_kw=block.route_power_kw * scale)
            if block.kind == "on_route" else block
            for block in bus.schedule)
        buses.append(dataclasses.replace(
            bus, schedule=schedule, initial_soc=float(rng.uniform(*DESK_LEVEL_RANGE))))
    day = dataclasses.replace(base, buses=tuple(buses))
    day.validate()
    return day


def plan_day(scenario, limits: SolveLimits):
    """One day-ahead plan, from scenario to extracted plan or final status."""
    inst = discretize(scenario, PLAN_DELTA_MIN)
    model = build_static_model(build_action_graph(inst))
    sol = branch_and_bound(model, limits)
    plan = extract_plan(model, sol.assignment, status=sol.status) if sol.has_solution else None
    return sol, plan


def day_model(scenario):
    """The day model again, built outside the timed region for the checks."""
    return build_static_model(build_action_graph(discretize(scenario, PLAN_DELTA_MIN)))


# ---------------------------------------------------------------------------
# shared checks


def check_plan(result: Result, tag: str, scenario, model, sol, plan) -> None:
    """Row residuals, objective, physical bounds and re-billing of a plan."""
    res = oracle.residuals(model, sol.assignment)
    if max(res["row"], res["bound"], res["integrality"]) > oracle.FEAS_TOL:
        result.faults.append(f"{tag}: assignment violates the model {res}")
    if not oracle.close(res["objective"], sol.objective):
        result.faults.append(f"{tag}: objective {sol.objective!r} != c.x {res['objective']!r}")
    result.faults.extend(f"{tag}: {f}" for f in oracle.plan_faults(scenario, plan))
    result.faults.extend(f"{tag}: {f}" for f in oracle.plan_bill_faults(scenario, plan))


def check_run(result: Result, tag: str, scenario, run) -> None:
    result.faults.extend(f"{tag}: {f}" for f in oracle.run_faults(scenario, run))
    result.faults.extend(
        f"{tag}: {f}" for f in oracle.run_bill_faults(scenario, run, TRUTH_DELTA_MIN))


def check_reference(result: Result, day, sol, plan) -> None:
    """The day-ahead reference plan, solved at the default 1e-4 gap."""
    model = day_model(day)
    ref = oracle.mip_oracle(model, mip_rel_gap=0.0)
    if plan is None or ref.status != "optimal":
        result.faults.append(f"reference plan: program {sol.status}, HiGHS {ref.status}")
        return
    scale = max(1.0, abs(ref.primal))
    lo = ref.primal - oracle.REL_TOL * scale
    hi = ref.primal + (SolveLimits().mip_gap + oracle.REL_TOL) * scale
    if not lo <= sol.objective <= hi:
        result.faults.append(
            f"reference plan objective {sol.objective!r}, HiGHS optimum {ref.primal!r}")
    check_plan(result, "reference plan", day, model, sol, plan)


# ---------------------------------------------------------------------------
# workloads


class DeskPlan:
    """Desk-scale day plans at zero gap.  A round plans one variant drawn
    from the seed, then the bundled day itself, which is the same in every
    round and halves the seed's sway on the timings."""

    setups = 4
    setup_between_rounds = True
    window_mean = False
    limits = SolveLimits(mip_gap=0.0)

    def setup(self, seed: int) -> None:
        warm_up()
        self.seed = seed

    def round(self, r: int, clock: Clock, hooks, result: Result) -> list:
        records = []
        for day in (desk_day(np.random.default_rng([self.seed, 1, r])), four_bus_day()):
            hooks.begin_op(result.attempted)
            (sol, plan), dt = clock.time(plan_day, day, self.limits)
            hooks.end_op()
            result.attempted += 1
            result.plan_s.append(dt)
            result.window_s.append(dt)
            records.append((day, sol, plan))
        return records

    def check(self, records: list, result: Result) -> None:
        for i, (day, sol, plan) in enumerate(records):
            tag = f"desk day {i}"
            model = day_model(day)
            ref = oracle.mip_oracle(model, mip_rel_gap=0.0)
            if sol.status == "infeasible":
                if ref.status != "infeasible":
                    result.faults.append(f"{tag}: program says infeasible, HiGHS {ref.status}")
                continue
            if sol.status != "optimal" or plan is None:
                result.faults.append(f"{tag}: status {sol.status} at zero gap")
                continue
            if ref.status != "optimal" or not oracle.close(sol.objective, ref.primal):
                result.faults.append(
                    f"{tag}: objective {sol.objective!r}, HiGHS {ref.status} {ref.primal!r}")
            check_plan(result, tag, day, model, sol, plan)
            result.costs.append(plan.total_cost)


class FleetPlan:
    """Generated full days under a node budget.  A round plans two 2-bus
    days drawn by the seed from a pool of generator seeds, then one of the
    fixed 4-bus days, in turn."""

    setups = 4
    setup_between_rounds = True
    window_mean = False
    limits = SolveLimits(max_nodes=FLEET_NODE_BUDGET)

    def setup(self, seed: int) -> None:
        warm_up()
        self.rng_seed = [seed, 2]
        self.fixed = [generate_random_scenario(s, GeneratorBounds(n_buses=4))
                      for s in FLEET_FIXED_4BUS_SEEDS]
        self.pool = [generate_random_scenario(s, GeneratorBounds(n_buses=2))
                     for s in FLEET_2BUS_POOL]

    def round(self, r: int, clock: Clock, hooks, result: Result) -> list:
        slot = r % len(self.fixed)
        picks = np.random.default_rng(self.rng_seed + [r]).choice(len(self.pool), size=2)
        days = [(self.pool[int(i)], "2-bus", FLEET_2BUS_POOL[int(i)]) for i in picks]
        days.append((self.fixed[slot], "4-bus", FLEET_FIXED_4BUS_SEEDS[slot]))
        records = []
        for day, kind, gen_seed in days:
            hooks.begin_op(result.attempted)
            (sol, plan), dt = clock.time(plan_day, day, self.limits)
            hooks.end_op()
            result.attempted += 1
            result.plan_s.append(dt)
            result.window_s.append(dt)
            records.append((day, kind, gen_seed, sol, plan))
        return records

    def check(self, records: list, result: Result) -> None:
        fixed_refs: Dict[int, tuple] = {}
        for i, (day, kind, gen_seed, sol, plan) in enumerate(records):
            tag = f"fleet operation {i}, {kind} day of generator seed {gen_seed}"
            model = day_model(day)
            if kind == "4-bus":
                # the same few days recur every run; a short HiGHS run is
                # enough to find a schedule and a valid bound
                if gen_seed not in fixed_refs:
                    fixed_refs[gen_seed] = (
                        oracle.mip_oracle(model, mip_rel_gap=FLEET_4BUS_ORACLE_GAP,
                                          time_limit=FLEET_4BUS_ORACLE_SECONDS),
                        oracle.mip_oracle(model, relax=True))
                ref, relax = fixed_refs[gen_seed]
            else:
                ref = oracle.mip_oracle(model, mip_rel_gap=FLEET_ORACLE_GAP)
                relax = None
            if sol.has_solution:
                if ref.status == "infeasible":
                    result.faults.append(f"{tag}: schedule found, HiGHS says infeasible")
                if sol.objective < ref.dual_bound - oracle.REL_TOL * max(1.0, abs(ref.dual_bound)):
                    result.faults.append(
                        f"{tag}: objective {sol.objective!r} below HiGHS bound {ref.dual_bound!r}")
                if sol.bound > ref.primal + oracle.REL_TOL * max(1.0, abs(ref.primal)):
                    result.faults.append(
                        f"{tag}: bound {sol.bound!r} above HiGHS schedule {ref.primal!r}")
                check_plan(result, tag, day, model, sol, plan)
                result.costs.append(plan.total_cost)
                continue
            if ref.status == "infeasible":
                # no schedule exists: a proof of infeasibility, or running
                # out of nodes before one, are both right answers
                if sol.status not in ("infeasible", "unknown"):
                    result.faults.append(f"{tag}: status {sol.status} on an infeasible day")
                continue
            if sol.status == "infeasible":
                result.faults.append(f"{tag}: program says infeasible, HiGHS {ref.status}")
                continue
            result.failed += 1
            relax = relax or oracle.mip_oracle(model, relax=True)
            if not oracle.close(sol.bound, relax.primal):
                result.faults.append(
                    f"{tag}: reported bound {sol.bound!r}, LP relaxation {relax.primal!r}")
            if kind != "4-bus":
                result.faults.append(f"{tag}: ended {sol.status} without a schedule")
            found = (f"HiGHS found one at {ref.primal:.4f}" if ref.primal < math.inf
                     else "HiGHS found none within its time limit")
            note = f"{kind} day of generator seed {gen_seed}: no schedule ({sol.status}); {found}"
            if note not in result.notes:
                result.notes.append(note)
        if result.failed:
            result.notes.append(f"failed operations: {FLEET_FAULT}")


class ClosedLoop:
    """Hierarchical-controller days on the four-bus day.  A round runs a day
    under the default noise drawn from the seed, then two days that are the
    same in every round and damp the seed's sway on the timings: one under
    the default noise from a fixed seed, and the zero-noise day, which is
    also the method check (it must bill within 5% of the plan).  The
    day-ahead reference plan is solved in set-up."""

    setups = 2
    setup_between_rounds = False
    window_mean = False

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.day = four_bus_day()
        t0 = time.perf_counter()
        self.reference, self.ref_sol = nominal_plan(self.day, PLAN_DELTA_MIN)
        self.reference_s = time.perf_counter() - t0

    def round(self, r: int, clock: Clock, hooks, result: Result) -> list:
        records = []
        days = ((False, np.random.SeedSequence([self.seed, 3, r]), NoiseParams()),
                (False, CLOSED_LOOP_FIXED_NOISE_SEED, NoiseParams()),
                (True, 0, NoiseParams.zero()))
        for zero_noise, noise_seed, params in days:
            hooks.begin_op(result.attempted)
            run, _dt = clock.time(
                simulate_run, self.day, "hierarchical", noise_seed, params, self.reference)
            hooks.end_op()
            hooks.take_runs()
            result.attempted += 1
            result.window_s.extend(hooks.take_windows())
            records.append((zero_noise, run))
        return records

    def check(self, records: list, result: Result) -> None:
        day, reference = self.day, self.reference
        check_reference(result, day, self.ref_sol, reference)
        for i, (zero_noise, run) in enumerate(records):
            tag = f"{'zero-noise' if zero_noise else 'noisy'} hierarchical day {i}"
            if run.failed:
                result.failed += 1
                result.faults.append(f"{tag} failed")
            if zero_noise and abs(run.total_cost - reference.total_cost) \
                    > 0.05 * reference.total_cost:
                result.faults.append(
                    f"{tag} billed {run.total_cost!r}, plan {reference.total_cost!r}")
            check_run(result, tag, day, run)
            result.costs.append(run.total_cost)
        open_loop = simulate_run(day, "open_loop", 0, NoiseParams.zero(), reference)
        if not oracle.close(open_loop.total_cost, reference.total_cost):
            result.faults.append(f"zero-noise open loop billed {open_loop.total_cost!r}, "
                                 f"plan {reference.total_cost!r}")
        check_run(result, "zero-noise open loop", day, open_loop)


class ReplayMC:
    """Monte-Carlo ensembles with the solver out of the timed loop.  A round
    runs qin and open-loop ensembles on the four-bus day from one base seed,
    then a qin run on one of the generated full days."""

    setups = 2
    setup_between_rounds = False
    # Nearly every simulated day takes the same work, so the day latencies
    # form one narrow cluster per speed of the machine, which switches
    # between a fast and a slow speed for tens of seconds at a time.  Their
    # median follows whichever speed held for more than half of the run and
    # jumps by the whole gap between the two; their mean moves in proportion
    # to the share of the run spent at each speed.
    window_mean = True

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.day = four_bus_day()
        t0 = time.perf_counter()
        self.reference, self.ref_sol = nominal_plan(self.day, PLAN_DELTA_MIN)
        self.reference_s = time.perf_counter() - t0
        rng = np.random.default_rng([seed, 4])
        self.generated = [generate_random_scenario(int(s), GeneratorBounds(n_buses=4))
                          for s in rng.integers(0, 2**31 - 1, size=REPLAY_GEN_DAYS)]

    def round(self, r: int, clock: Clock, hooks, result: Result) -> list:
        base = np.random.SeedSequence([self.seed, 5, r])
        jobs = (
            (self.day, "qin", REPLAY_QIN_RUNS, None),
            (self.day, "open_loop", REPLAY_OPEN_LOOP_RUNS, self.reference),
            (self.generated[r % len(self.generated)], "qin", REPLAY_GEN_RUNS, None),
        )
        done = []
        for scenario, strategy, n_runs, ref in jobs:
            hooks.begin_op(result.attempted)
            report, _dt = clock.time(
                monte_carlo, scenario, strategy, n_runs, base, NoiseParams(), ref)
            hooks.end_op()
            runs, latencies = hooks.take_runs()
            result.attempted += n_runs
            result.window_s.extend(latencies)
            done.append((scenario, report, runs))
        # checked here, outside the timed calls, so no round's runs are kept
        for scenario, report, runs in done:
            tag = f"round {r} {report.strategy} {len(scenario.buses)}-bus"
            if len(runs) != report.n_runs or any(
                    not oracle.close(run.total_cost, cost)
                    for run, cost in zip(runs, report.run_costs)):
                result.faults.append(f"{tag}: report costs differ from its runs")
            for i, run in enumerate(runs):
                if run.failed:
                    result.failed += 1
                check_run(result, f"{tag} run {i}", scenario, run)
                result.costs.append(run.total_cost)
        # the first runs of both ensembles share their seeds
        qin = done[0][1].mean_cost
        open_loop = float(np.mean(done[1][1].run_costs[:REPLAY_QIN_RUNS]))
        if not qin > open_loop:
            result.faults.append(f"round {r}: qin mean {qin!r} <= open loop {open_loop!r}")
        return []

    def check(self, records: list, result: Result) -> None:
        check_reference(result, self.day, self.ref_sol, self.reference)


WORKLOADS: Dict[str, type] = {
    "desk_plan": DeskPlan,
    "fleet_plan": FleetPlan,
    "closed_loop": ClosedLoop,
    "replay_mc": ReplayMC,
}

"""Hierarchical receding-horizon charge control.

A slow day-ahead plan (any :class:`~bebcharge.milp.ChargePlan`) provides the
strategic shape of the day; a fast inner loop re-solves a short-horizon MILP
every few minutes from the *realized* state and executes only the first step
through the stochastic truth environment.  Each window reuses the day
planner's graph, model and branch and bound; consistency between iterations
comes from three mechanisms:

* **terminal attraction** - each horizon's final charge levels are pulled
  toward the reference plan's levels at that wall-clock time via a weighted
  1-norm penalty, so the short horizon inherits the reference's long-range
  intent without copying its decisions;
* **visit locking** - a visit that already received its one charge is closed
  for re-entry, while a source-side continuation edge lets an in-progress
  charge carry across the boundary (the charger stays attached);
* **plan preference** - edges consistent with the previous iteration's plan
  get a tiny objective bonus, so near-ties don't oscillate between solves.

Each window is built in one pass: the scenario is discretized from the
current time, the action graph is built from arrays, the plan preference
lowers the costs of the edges close to the previous plan, and the terminal
cost and the visit lock append their blocks to the window's model, whose
stored form is assembled once, when the search first reads it.

Demand-charge continuity across solves comes from feeding each model the
realized per-step meter energy just before its window (exactly the steps
its demand window reads), so sliding-window average power is billed
identically by the controller and by the offline tariff oracle.  If a
horizon is infeasible (noise pushed a bus below its buffered band), the
controller retries with soft minimum-level slacks at a heavy penalty; only
if that also fails is the run declared failed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from .graph import apply_plan_preference, build_action_graph, close_edges
from .milp import (
    ChargePlan,
    MilpModel,
    ModelOptions,
    _window_shape,
    add_terminal_cost,
    build_static_model,
    extract_plan,
    lock_charged_visits,
)
from .scenario import Scenario, discretize
from .simulation import TRUTH_DELTA_MIN, TruthEnvironment
from .solver import MilpSolution, SolveLimits, SolverError, branch_and_bound

# the soft minimum-level fallback prices each kWh of slack at this multiple
# of the terminal weight
SOFT_MIN_WEIGHT_FACTOR = 100.0


@dataclass(frozen=True)
class HorizonConfig:
    """Inner-loop geometry and weights.

    ``terminal_weight`` must make a kWh of terminal shortfall cost more than
    delivering that kWh ever could, or the inner loop will rationally abandon
    the reference: each horizon bills its local demand peak in full, and one
    kWh squeezed into a single demand window costs
    ``(c_base+c_tou) * 60/window`` dollars of demand charge.  The default is
    twice that worst-case marginal cost (plus the on-peak energy price), so
    tracking dominates but bounded deviations remain possible when physics
    does.  ``preference_bonus`` defaults to a thousandth of the smallest
    positive cost rate, keeping it strictly a tie-breaker.  The default
    limits solve to a zero gap: placement ties between equal-cost schedules
    are only a preference-bonus apart, so any nonzero gap tolerance would let
    the solver return an arbitrarily tie-broken schedule and re-break the tie
    differently every iteration (executing only the first step then turns
    systematic procrastination into unattainable terminals).  Limits are
    node-count based so closed-loop behavior is machine-independent.
    """

    horizon_minutes: float = 60.0
    delta_rh_minutes: float = 3.0
    terminal_weight: Optional[float] = None
    preference_bonus: Optional[float] = None
    limits: SolveLimits = SolveLimits(max_nodes=2000, mip_gap=0.0)

    def __post_init__(self) -> None:
        if self.delta_rh_minutes <= 0:
            raise ValueError("delta_rh_minutes must be positive")
        if self.horizon_minutes < self.delta_rh_minutes:
            raise ValueError("horizon must cover at least one step")

    def resolved_terminal_weight(self, scenario: Scenario) -> float:
        if self.terminal_weight is not None:
            return self.terminal_weight
        rates = scenario.rates
        demand_per_kwh = (
            rates.demand_base_per_kw + rates.demand_tou_per_kw
        ) * 60.0 / rates.demand_window_minutes
        return 2.0 * (demand_per_kwh + rates.consumption_onpeak_per_kwh)

    def resolved_preference_bonus(self, scenario: Scenario) -> float:
        if self.preference_bonus is not None:
            return self.preference_bonus
        rates = scenario.rates
        candidates = [
            rates.consumption_offpeak_per_kwh,
            rates.consumption_onpeak_per_kwh,
            rates.demand_base_per_kw,
            rates.demand_tou_per_kw,
            self.resolved_terminal_weight(scenario),
        ]
        positive = [c for c in candidates if c > 0]
        return 1e-3 * min(positive) if positive else 1e-6


@dataclass
class ExecutionState:
    """Mutable closed-loop state carried between horizon solves."""

    t_min: float
    soc_kwh: Dict[str, float]
    charged_visits: Set[str] = field(default_factory=set)
    attachments: Set[Tuple[str, str]] = field(default_factory=set)
    energy_history: Tuple[float, ...] = ()
    previous_plan: Optional[ChargePlan] = None


def interpolate_reference_soc(
    reference: ChargePlan, t_min: float
) -> Dict[str, float]:
    """Reference charge level per bus at an arbitrary wall-clock time,
    linearly interpolated between plan instants and clamped at the ends."""
    ts = reference.t0_min + reference.delta_min * np.arange(
        reference.n_steps + 1
    )
    return {
        bus: float(np.interp(t_min, ts, series))
        for bus, series in reference.soc.items()
    }


@dataclass(frozen=True)
class PlanOutcome:
    """One horizon solve: the extracted plan (None if even the soft-slack
    fallback failed), the raw solver result, the solved model, and the
    model's own demand-window power at the window's first instant."""

    plan: Optional[ChargePlan]
    solution: MilpSolution
    model: MilpModel
    used_fallback: bool
    window_kw0: float


def _build_horizon_model(
    scenario: Scenario,
    reference: ChargePlan,
    cfg: HorizonConfig,
    state: ExecutionState,
    soft_min: bool,
) -> MilpModel:
    t_end = min(state.t_min + cfg.horizon_minutes, scenario.day_end_min)
    instance = discretize(
        scenario, cfg.delta_rh_minutes, t0_min=int(round(state.t_min)),
        t_end_min=t_end,
    )
    graph = build_action_graph(instance, attachments=tuple(sorted(state.attachments)))
    if state.previous_plan is not None:
        close = close_edges(graph, state.previous_plan)
        graph = apply_plan_preference(
            graph, close, cfg.resolved_preference_bonus(scenario)
        )
    weight = cfg.resolved_terminal_weight(scenario)
    options = ModelOptions(
        enforce_final_soc=False,
        initial_soc_kwh=dict(state.soc_kwh),
        energy_history=state.energy_history,
        soft_min_soc=soft_min,
        soft_min_weight=SOFT_MIN_WEIGHT_FACTOR * weight if soft_min else 0.0,
    )
    model = build_static_model(graph, options)
    targets = interpolate_reference_soc(reference, t_end)
    model = add_terminal_cost(model, targets, weight)
    if state.charged_visits:
        model = lock_charged_visits(model, state.charged_visits)
    return model


def plan_horizon(
    scenario: Scenario,
    reference: ChargePlan,
    cfg: HorizonConfig,
    state: ExecutionState,
) -> PlanOutcome:
    """Solve one horizon window from the current closed-loop state.

    A hard-banded model is tried first; on infeasibility (or a node limit
    with no incumbent) the model is rebuilt with soft minimum-level slacks
    at ``SOFT_MIN_WEIGHT_FACTOR`` times the terminal weight.  A solver
    breakdown inside one window (an LP backend numerical failure) degrades to
    the same fallback path instead of aborting the day.  The previous plan
    reaches the solve only through the plan-preference edge costs; a
    fractional root gets its first incumbent from the search's own LP-guided
    heuristic, as day plans do.
    """

    def attempt(soft_min: bool) -> Tuple[MilpModel, MilpSolution]:
        model = _build_horizon_model(scenario, reference, cfg, state, soft_min)
        try:
            solution = branch_and_bound(model, cfg.limits)
        except SolverError:
            solution = MilpSolution(
                "unknown", math.inf, None, -math.inf, 0, math.inf
            )
        return model, solution

    model, solution = attempt(soft_min=False)
    used_fallback = False
    if not solution.has_solution:
        used_fallback = True
        model, solution = attempt(soft_min=True)
    if not solution.has_solution:
        return PlanOutcome(None, solution, model, used_fallback, math.nan)
    plan = extract_plan(model, solution.assignment, status=solution.status)
    window_kw0 = float(solution.assignment[model.p_of[0]])
    return PlanOutcome(plan, solution, model, used_fallback, window_kw0)


def execute_first_step(
    env: TruthEnvironment,
    plan: ChargePlan,
    cfg: HorizonConfig,
    state: ExecutionState,
) -> None:
    """Drive the truth environment through the plan's first step and fold the
    realized outcome back into the closed-loop state.

    Commanded power is the planned first-step gain spread uniformly over the
    step.  A visit counts as charged once its bus was commanded *and* actually
    engaged (present for part of the step); the pair stays attached across the
    boundary while the visit continues, so the next solve may seamlessly
    extend the charge but never re-enter a finished one.

    A plan interval that *starts* at step 1 also produces an attachment: its
    entering transition occupies step 0, i.e. the bus spends the executed step
    connecting to the charger.  Carrying that connection over lets the next
    horizon begin delivering energy at its own step 0 — without it no charge
    could ever start, since an unattached window can only reach a charging
    vertex from step 1 onwards and would re-defer the start forever.
    """
    delta_h = cfg.delta_rh_minutes / 60.0
    commands: Dict[str, Tuple[str, float]] = {}
    for bus_id, tid, k0, _k1 in plan.intervals:
        if k0 == 0:
            gain = plan.gains.get((bus_id, 0, tid), 0.0)
            commands[bus_id] = (tid, gain / delta_h)

    n_sub = int(round(cfg.delta_rh_minutes / TRUTH_DELTA_MIN))
    k_from = env.minute_index
    engaged: Set[str] = set()
    for _ in range(n_sub):
        realized = env.advance(commands)
        engaged.update(realized)
    k_to = env.minute_index

    boundary_min = env.t0_min + k_to * TRUTH_DELTA_MIN
    attachments: Set[Tuple[str, str]] = set()
    for bus_id, (tid, _power) in commands.items():
        if bus_id not in engaged:
            continue
        span = None
        for kk in range(k_from, k_to):
            span = env.visit_at(bus_id, kk) or span
        if span is None:
            continue
        state.charged_visits.add(span.id)
        if span.end_min > boundary_min + 1e-9:
            attachments.add((bus_id, tid))

    # Connection-only step: an interval starting at step 1 means the bus used
    # the executed step to plug in.  Attach the pair (no energy flowed, so the
    # visit is not marked charged) provided the visit is still open.
    for bus_id, tid, k0, _k1 in plan.intervals:
        if k0 != 1 or bus_id in commands:
            continue
        span = env.visit_at(bus_id, k_to) if k_to < env.n_steps else None
        if span is None or tid not in span.charger_type_ids:
            continue
        if span.end_min > boundary_min + 1e-9:
            attachments.add((bus_id, tid))

    state.attachments = attachments
    bin_kwh = float(env.meter_kwh[k_from:k_to].sum())
    # keep the steps a window model reads: m whole steps and a fractional one
    m, frac = _window_shape(env.scenario.rates.demand_window_minutes, cfg.delta_rh_minutes)
    history = state.energy_history + (bin_kwh,)
    state.energy_history = history[max(len(history) - m - (frac > 0.0), 0):]
    state.soc_kwh = dict(env.soc)
    state.t_min += cfg.delta_rh_minutes
    state.previous_plan = plan


@dataclass(frozen=True)
class HorizonLog:
    """One closed-loop iteration's diagnostics."""

    t_min: float
    objective: float
    window_kw0: float
    nodes: int
    used_fallback: bool
    n_intervals: int


@dataclass(frozen=True)
class RunDayOutcome:
    """Whole-day closed-loop result (billing happens in the caller)."""

    failed: bool
    logs: Tuple[HorizonLog, ...]
    charged_visits: Tuple[str, ...]
    fallback_count: int


def run_day(
    scenario: Scenario,
    reference: ChargePlan,
    cfg: HorizonConfig,
    env: TruthEnvironment,
) -> RunDayOutcome:
    """Run the controller over a whole day against a truth environment.

    The loop re-plans every ``delta_rh_minutes`` until the remaining day is
    shorter than one step.  If a horizon stays infeasible even with the soft
    fallback, the day is marked failed and execution stops there; whatever was
    metered up to that point remains in the environment for billing.
    """
    state = ExecutionState(
        t_min=float(scenario.day_start_min), soc_kwh=dict(env.soc)
    )
    logs: List[HorizonLog] = []
    fallbacks = 0
    while scenario.day_end_min - state.t_min >= cfg.delta_rh_minutes - 1e-9:
        outcome = plan_horizon(scenario, reference, cfg, state)
        if outcome.used_fallback:
            fallbacks += 1
        if outcome.plan is None:
            return RunDayOutcome(
                failed=True,
                logs=tuple(logs),
                charged_visits=tuple(sorted(state.charged_visits)),
                fallback_count=fallbacks,
            )
        logs.append(
            HorizonLog(
                t_min=state.t_min,
                objective=outcome.solution.objective,
                window_kw0=outcome.window_kw0,
                nodes=outcome.solution.nodes_explored,
                used_fallback=outcome.used_fallback,
                n_intervals=len(outcome.plan.intervals),
            )
        )
        execute_first_step(env, outcome.plan, cfg, state)
    return RunDayOutcome(
        failed=False,
        logs=tuple(logs),
        charged_visits=tuple(sorted(state.charged_visits)),
        fallback_count=fallbacks,
    )


def save_controller_log_csv(outcome: RunDayOutcome, path: str) -> None:
    """Per-iteration log: ``t_min,objective,window_kw,nodes,fallback,intervals``."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["t_min", "objective", "window_kw", "nodes", "fallback", "intervals"]
        )
        for log in outcome.logs:
            w.writerow(
                [
                    f"{log.t_min:.1f}",
                    f"{log.objective:.9f}",
                    f"{log.window_kw0:.9f}",
                    log.nodes,
                    int(log.used_fallback),
                    log.n_intervals,
                ]
            )

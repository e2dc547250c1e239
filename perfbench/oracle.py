"""Checks made apart from the program.

Nothing here calls the package's solver, residual report or tariff oracle.
The model is read only through its public row and column lists
(``MilpModel.variables`` / ``MilpModel.constraints``); plans and simulated
runs only through their published series.

* :func:`mip_oracle` rebuilds the model as one sparse matrix and solves it
  with HiGHS' own branch and cut (``scipy.optimize.milp``), an implementation
  separate from the package's branch and bound.
* :func:`residuals` measures every row, bound and integrality violation of an
  assignment with one sparse product.
* :func:`rebill` bills a meter series from cumulative sums, written without
  reference to the package's billing code.
* :func:`plan_faults` and :func:`run_faults` list physical-bound and
  charger-count breaches of a plan or a realized day.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, milp

REL_TOL = 1e-6
FEAS_TOL = 1e-6


@dataclass(frozen=True)
class MatrixForm:
    c: np.ndarray
    A: sp.csr_matrix
    row_lo: np.ndarray
    row_hi: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    integer: np.ndarray  # bool per column


def matrix_form(model) -> MatrixForm:
    """All rows as ``row_lo <= A x <= row_hi``, read from the model's lists."""
    rows: List[int] = []
    cols: List[int] = []
    vals: List[float] = []
    lo = np.empty(len(model.constraints))
    hi = np.empty(len(model.constraints))
    for r, con in enumerate(model.constraints):
        for i, coef in con.coeffs:
            rows.append(r)
            cols.append(i)
            vals.append(coef)
        lo[r] = con.rhs if con.sense in ("==", ">=") else -math.inf
        hi[r] = con.rhs if con.sense in ("==", "<=") else math.inf
    n = len(model.variables)
    A = sp.csr_matrix((vals, (rows, cols)), shape=(len(model.constraints), n))
    return MatrixForm(
        c=np.array([v.obj for v in model.variables], dtype=float),
        A=A,
        row_lo=lo,
        row_hi=hi,
        lb=np.array([v.lb for v in model.variables], dtype=float),
        ub=np.array([v.ub for v in model.variables], dtype=float),
        integer=np.array([v.is_integer for v in model.variables], dtype=bool),
    )


@dataclass(frozen=True)
class OracleResult:
    status: str  # optimal / feasible / infeasible / limit / error
    primal: float  # objective of the best schedule found, inf if none
    dual_bound: float  # proven lower bound on the optimum
    x: Optional[np.ndarray]


def mip_oracle(
    model,
    mip_rel_gap: float = 0.0,
    time_limit: Optional[float] = None,
    relax: bool = False,
) -> OracleResult:
    """Solve the model (or its LP relaxation) with HiGHS' MIP solver."""
    form = matrix_form(model)
    options: Dict[str, float] = {"mip_rel_gap": mip_rel_gap}
    if time_limit is not None:
        options["time_limit"] = time_limit
    res = milp(
        form.c,
        integrality=np.zeros(len(form.c)) if relax else form.integer.astype(int),
        bounds=Bounds(form.lb, form.ub),
        constraints=LinearConstraint(form.A, form.row_lo, form.row_hi),
        options=options,
    )
    x = None if res.x is None else np.asarray(res.x)
    primal = float(res.fun) if x is not None else math.inf
    dual = getattr(res, "mip_dual_bound", None)
    if relax or dual is None or not np.isfinite(dual):
        dual = primal if res.status == 0 else -math.inf
    if res.status == 0:
        return OracleResult("optimal", primal, float(dual), x)
    if res.status == 2:
        return OracleResult("infeasible", math.inf, math.inf, None)
    if res.status == 1:
        return OracleResult("feasible" if x is not None else "limit", primal, float(dual), x)
    return OracleResult("error", primal, -math.inf, x)


def residuals(model, x: np.ndarray) -> Dict[str, float]:
    """Worst row, bound and integrality violation of an assignment."""
    form = matrix_form(model)
    x = np.asarray(x, dtype=float)
    ax = form.A @ x
    row = np.maximum(form.row_lo - ax, ax - form.row_hi)
    bound = np.maximum(form.lb - x, x - form.ub)
    xi = x[form.integer]
    return {
        "row": float(max(0.0, row.max(initial=0.0))),
        "bound": float(max(0.0, bound.max(initial=0.0))),
        "integrality": float(np.abs(xi - np.round(xi)).max(initial=0.0)),
        "objective": float(form.c @ x),
    }


def assignment_ok(model, x: np.ndarray) -> bool:
    r = residuals(model, x)
    return r["row"] <= FEAS_TOL and r["bound"] <= FEAS_TOL and r["integrality"] <= FEAS_TOL


def rebill(
    step_energy: Sequence[float],
    delta_min: float,
    rates,
    t0_min: float,
    history: Sequence[float] = (),
) -> Dict[str, float]:
    """Bill a meter series: TOU energy plus the two demand charges.

    The demand window ending at instant k holds the last ``m`` whole steps
    and ``frac`` of the one before them; steps before the series read from
    ``history`` (most recent last) and are zero beyond it.
    """
    e = np.asarray(step_energy, dtype=float)
    n = e.size
    steps = rates.demand_window_minutes / delta_min
    m = int(steps + 1e-9)
    frac = steps - m
    if frac < 1e-9:
        frac = 0.0
    before = np.asarray(history, dtype=float)[-(m + 1):]
    before = np.concatenate([np.zeros(m + 1 - before.size), before])
    series = np.concatenate([before, e])
    prefix = np.concatenate([[0.0], np.cumsum(series)])
    end = (m + 1) + np.arange(n + 1)  # series index of each instant
    window_kwh = prefix[end] - prefix[end - m] + frac * series[end - m - 1]
    window_kw = window_kwh * 60.0 / rates.demand_window_minutes

    t = t0_min + delta_min * np.arange(n + 1)
    peak = np.zeros(n + 1, dtype=bool)
    for lo, hi in rates.peak_windows:
        peak |= (t >= lo) & (t < hi)
    price = np.where(peak[:-1], rates.consumption_onpeak_per_kwh,
                     rates.consumption_offpeak_per_kwh)
    consumption = float(price @ e)
    base = rates.demand_base_per_kw * float(window_kw.max())
    tou = rates.demand_tou_per_kw * float(window_kw[peak].max()) if peak.any() else 0.0
    return {"consumption": consumption, "demand_base": base, "demand_tou": tou,
            "total": consumption + base + tou}


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _unit_faults(scenario, engaged_by_type: Dict[str, np.ndarray]) -> List[str]:
    out = []
    for ct in scenario.charger_types:
        used = engaged_by_type.get(ct.id)
        if used is not None and used.size and used.max() > ct.count:
            out.append(f"{int(used.max())} units of {ct.id} engaged, {ct.count} installed")
    return out


def plan_faults(scenario, plan) -> List[str]:
    """Planned levels outside [min_soc, max_soc] * capacity, or more
    simultaneous charge intervals on a charger type than it has units."""
    out = []
    for bus in scenario.buses:
        s = np.asarray(plan.soc[bus.id])
        lo, hi = bus.min_soc * bus.capacity_kwh, bus.max_soc * bus.capacity_kwh
        if s.min() < lo - FEAS_TOL or s.max() > hi + FEAS_TOL:
            out.append(f"bus {bus.id} planned level {s.min():.3f}..{s.max():.3f} "
                       f"outside [{lo:.3f}, {hi:.3f}]")
    engaged = {ct.id: np.zeros(plan.n_steps, dtype=int) for ct in scenario.charger_types}
    for _bus, tid, k0, k1 in plan.intervals:
        engaged[tid][k0:k1] += 1
    return out + _unit_faults(scenario, engaged)


def run_faults(scenario, run) -> List[str]:
    """Realized levels outside [0, capacity], or more buses drawing from a
    charger type in one minute than it has units."""
    out = []
    for j, bus in enumerate(scenario.buses):
        s = run.soc_series[j]
        if s.min() < -FEAS_TOL or s.max() > bus.capacity_kwh + FEAS_TOL:
            out.append(f"bus {bus.id} realized level {s.min():.3f}..{s.max():.3f} "
                       f"outside [0, {bus.capacity_kwh}]")
    n = run.meter_kwh.size
    engaged = {ct.id: np.zeros(n, dtype=int) for ct in scenario.charger_types}
    for row in run.charge_type:
        for k, tid in enumerate(row):
            if tid is not None:
                engaged[tid][k] += 1
    return out + _unit_faults(scenario, engaged)


def run_bill_faults(scenario, run, delta_min: float) -> List[str]:
    bill = rebill(run.meter_kwh, delta_min, scenario.rates, run.t0_min)
    if not close(bill["total"], run.total_cost):
        return [f"run billed {run.total_cost!r}, re-bill {bill['total']!r}"]
    return []


def plan_bill_faults(scenario, plan) -> List[str]:
    bill = rebill(plan.step_energy, plan.delta_min, scenario.rates, plan.t0_min)
    if not close(bill["total"], plan.total_cost):
        return [f"plan billed {plan.total_cost!r}, re-bill {bill['total']!r}"]
    return []

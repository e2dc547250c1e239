"""Desk-scale MILP solver: certified LP relaxations plus branch and bound.

The LP backend is scipy's HiGHS.  ``solve_lp`` goes through ``linprog`` and
re-checks every relaxation reported optimal here (primal feasibility, dual
feasibility signs, stationarity, and strong duality from the returned
marginals) before its value is trusted as a bound.  Branch and bound loads
the model into one HiGHS LP per search and solves every node on it warm,
changing only the column bounds, so each node's dual simplex starts from the
basis the previous solve left.  Each node's answer has the status a fresh
``linprog`` call would give and an objective within 1e-9 relative of it, and
is trusted on HiGHS' status.  The search is written out in full: pseudocost
branching (per column and direction, the mean per-unit objective increase
its solved children showed; lowest-index tie breaks), best-first node
selection with depth-first plunging (children are solved on creation and
the better one is explored immediately), an LP-guided primal heuristic for a
first incumbent, and a relative-gap stopping rule.  All choices are
deterministic and every search starts from a freshly loaded LP and empty
pseudocosts, so repeated solves of the same model produce byte-identical
results.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linprog
from scipy.optimize._highspy import _core as _highs

from .graph import REST, SINK, SOURCE, stable_argsort
from .milp import MilpModel

__all__ = [
    "SolverError",
    "SolveLimits",
    "LpResult",
    "MilpSolution",
    "solve_lp",
    "branch_and_bound",
    "validate_solution",
    "build_warm_start",
]

_FEAS_TOL = 1e-7
_INT_TOL = 1e-6
_CERT_TOL = 1e-6


class SolverError(RuntimeError):
    """Raised for states that indicate a modelling bug, not a hard instance."""


@dataclass(frozen=True)
class SolveLimits:
    """Branch-and-bound stopping rules.

    ``max_nodes`` caps LP solves (the root counts as one); ``mip_gap`` is the
    relative incumbent/bound gap below which the search stops.
    """

    max_nodes: int = 200_000
    mip_gap: float = 1e-4


@dataclass(frozen=True)
class LpResult:
    status: str  # optimal / infeasible / unbounded / error
    objective: float
    x: Optional[np.ndarray]
    certified: bool
    certificate: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class MilpSolution:
    status: str  # optimal / feasible / infeasible / unknown / unbounded
    objective: float
    assignment: Optional[np.ndarray]
    bound: float
    nodes_explored: int
    gap: float

    @property
    def has_solution(self) -> bool:
        return self.assignment is not None


def _row_split(model: MilpModel):
    """The stored rows as linprog takes them: the one-sided rows with their
    signs and right-hand sides in ``<=`` form (a ``>=`` row negated), and the
    equality rows, each in model order."""
    lo, hi = model.row_lo, model.row_hi
    ineq = np.flatnonzero(lo != hi)
    sign = np.where(lo[ineq] == -math.inf, 1.0, -1.0)
    return ineq, sign, np.where(sign > 0, hi[ineq], -lo[ineq]), np.flatnonzero(lo == hi)


class _Matrices:
    """The model in linprog form: its stored rows split into equality rows and
    ``<=`` rows (``>=`` rows negated), each in model order.  ``solve_lp``
    hands these to ``linprog`` and certifies its answer against them."""

    def __init__(self, model: MilpModel):
        self.c = model.c
        ineq, sign, self.b_ub, eq = _row_split(model)
        self.A_eq = model.A[eq]
        self.b_eq = model.row_hi[eq]
        self.A_ub = model.A[ineq]
        self.A_ub.data *= np.repeat(sign, np.diff(self.A_ub.indptr))
        # canonical CSR (columns sorted within each row), so row products
        # sum in column order
        self.A_eq.sum_duplicates()
        self.A_ub.sum_duplicates()

    def solve(self, lb: np.ndarray, ub: np.ndarray):
        res = linprog(
            self.c,
            A_ub=self.A_ub,
            b_ub=self.b_ub,
            A_eq=self.A_eq,
            b_eq=self.b_eq,
            bounds=np.column_stack([lb, ub]),
            method="highs",
        )
        if res.status == 4:
            # numerical difficulties: retry on the dual simplex, which rebuilds
            # the basis from scratch and usually clears them (deterministic)
            res = linprog(
                self.c,
                A_ub=self.A_ub,
                b_ub=self.b_ub,
                A_eq=self.A_eq,
                b_eq=self.b_eq,
                bounds=np.column_stack([lb, ub]),
                method="highs-ds",
            )
        return res


# HiGHS model status -> linprog status, as linprog maps them
# (scipy.optimize._linprog_highs._highs_to_scipy_status_message); any other
# status is 4
_LP_STATUS = {
    _highs.HighsModelStatus.kOptimal: 0,
    _highs.HighsModelStatus.kTimeLimit: 1,
    _highs.HighsModelStatus.kIterationLimit: 1,
    _highs.HighsModelStatus.kInfeasible: 2,
    _highs.HighsModelStatus.kModelError: 2,
    _highs.HighsModelStatus.kUnbounded: 3,
}

# the options linprog(method="highs") sets; "highs-ds" adds solver="simplex"
_HIGHS_OPTIONS = {
    "presolve": "on",
    "highs_debug_level": 0,
    "log_to_console": False,
    "output_flag": False,
    "simplex_strategy": int(
        _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    ),
}

# linprog's post-solve feasibility tolerance (its default tol of 1e-9,
# widened as in scipy.optimize._linprog_util._check_result)
_CHECK_TOL = math.sqrt(1e-9) * 10


def _lp_status(model_status) -> int:
    return _LP_STATUS.get(model_status, 4)


def _permuted_csc(A, ineq: np.ndarray, sign: np.ndarray, eq: np.ndarray):
    """CSC ``(start, index, value)`` of the CSR ``A`` with rows ``ineq``
    scaled by ``sign`` and then rows ``eq``, as scipy gives it for
    ``A[rows]`` scaled, ``sum_duplicates`` and ``tocsc``: by column, then by
    permuted row.  No model row holds a column twice, so there is nothing
    to sum."""
    n_rows, n_cols = A.shape
    place = np.empty(n_rows, dtype=np.int64)
    place[ineq] = np.arange(len(ineq))
    place[eq] = np.arange(len(ineq), n_rows)
    row = place[np.repeat(np.arange(n_rows), A.indptr[1:] - A.indptr[:-1])]
    by_row = stable_argsort(row, n_rows)
    order = by_row[stable_argsort(A.indices[by_row], n_cols)]
    col, index = A.indices[order], row[order]
    if ((col[1:] == col[:-1]) & (index[1:] == index[:-1])).any():
        raise SolverError("a model row holds a column twice")
    start = np.zeros(n_cols + 1, dtype=np.int64)
    np.cumsum(np.bincount(col, minlength=n_cols), out=start[1:])
    return start, index, A.data[order] * np.concatenate((sign, np.ones(len(eq))))[index]


class _NodeLp:
    """One HiGHS LP for a whole branch-and-bound search.

    The model is loaded once; each node solve changes only the column bounds
    that differ from the previous solve's and keeps that solve's basis, so
    the dual simplex starts warm.  HiGHS sees the LP
    ``linprog(method="highs")`` builds from ``_Matrices`` (``A_ub`` stacked
    above ``A_eq`` in CSC form, rows ``(-inf, b_ub]`` and ``[b_eq, b_eq]``,
    the same options), here made from the model's stored rows by one row
    permutation, done with index arithmetic (two stable sorts of the
    entries, by new row and then by column), and the answer passes the same
    status map and feasibility check.  So ``solve`` gives the status a fresh
    ``linprog`` call gives and an objective within 1e-9 relative of its
    ``fun``, without re-cleaning and re-converting the matrices at every
    node.  Where the optimum is not unique, ``x`` may be another optimal
    vertex than ``linprog``'s; it always passes ``linprog``'s feasibility
    check.  The answer depends on the solves before it, so a search is
    reproducible because it makes the same solves in the same order on a
    freshly loaded LP.
    """

    def __init__(self, model: MilpModel, lb: np.ndarray, ub: np.ndarray):
        # one row permutation: the one-sided rows in <= form, then the
        # equality rows
        ineq, sign, b_ub, eq = _row_split(model)
        self.n_ub = len(ineq)
        start, index, value = _permuted_csc(model.A, ineq, sign, eq)
        n_rows, n_cols = model.A.shape
        b_eq = model.row_hi[eq]
        self.row_hi = np.concatenate((b_ub, b_eq))
        lp = _highs.HighsLp()
        lp.num_col_ = lp.a_matrix_.num_col_ = n_cols
        lp.num_row_ = lp.a_matrix_.num_row_ = n_rows
        lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
        # the binding copies a sequence element by element, faster from a
        # list than from a numpy array (about 4x for integers, 2x for floats)
        lp.a_matrix_.start_ = start.tolist()
        lp.a_matrix_.index_ = index.tolist()
        lp.a_matrix_.value_ = value.tolist()
        lp.col_cost_ = model.c.tolist()
        lp.row_lower_ = [-math.inf] * self.n_ub + b_eq.tolist()
        lp.row_upper_ = self.row_hi.tolist()
        self.lp = lp
        self.highs = self._load(lb, ub)
        # the column bounds HiGHS holds now
        self.lb, self.ub = lb.copy(), ub.copy()

    def _load(self, lb: np.ndarray, ub: np.ndarray, **options) -> "_highs._Highs":
        self.lp.col_lower_ = lb.tolist()
        self.lp.col_upper_ = ub.tolist()
        highs = _highs._Highs()
        for key, value in {**_HIGHS_OPTIONS, **options}.items():
            highs.setOptionValue(key, value)
        if highs.passModel(self.lp) == _highs.HighsStatus.kError:
            raise SolverError("HiGHS rejected the model")
        return highs

    def solve(
        self, lb: np.ndarray, ub: np.ndarray
    ) -> Tuple[int, float, Optional[np.ndarray]]:
        """linprog's ``(status, fun, x)`` under these column bounds, solved
        from the previous solve's basis; ``x`` is None unless the status is
        0 (optimal)."""
        changed = np.flatnonzero((lb != self.lb) | (ub != self.ub)).astype(np.int32)
        if len(changed):
            lo, hi = lb[changed], ub[changed]
            self.lb[changed], self.ub[changed] = lo, hi
            self.highs.changeColsBounds(len(changed), changed, lo, hi)
        out = self._run(self.highs, lb, ub)
        if out[0] == 4:
            # numerical difficulties: retry once on a fresh dual simplex, as
            # _Matrices.solve does
            out = self._run(self._load(lb, ub, solver="simplex"), lb, ub)
        return out

    def _run(self, highs, lb: np.ndarray, ub: np.ndarray):
        failed = highs.run() == _highs.HighsStatus.kError
        status = _lp_status(highs.getModelStatus())
        if failed or status != 0:
            return (4 if status == 0 else status), math.nan, None
        fun = highs.getObjectiveValue()
        solution = highs.getSolution()
        x = np.array(solution.col_value, dtype=float)
        slack = self.row_hi - np.array(solution.row_value, dtype=float)
        # linprog's check of the returned point: a NaN, or a bound or row
        # missed by more than its tolerance, turns optimal into status 4
        tol = _CHECK_TOL
        if (
            np.isnan(fun)
            or np.isnan(x).any()
            or np.isnan(slack).any()
            or np.any((x < lb - tol) | (x > ub + tol))
            or (slack[: self.n_ub] < -tol).any()
            or (np.abs(slack[self.n_ub :]) > tol).any()
        ):
            return 4, math.nan, None
        return 0, fun, x


def _certify(mats: _Matrices, res) -> Tuple[bool, Dict[str, float]]:
    """Re-check the optimality conditions HiGHS claims, from its own output."""
    x = res.x
    scale = 1.0 + float(np.abs(mats.c).max(initial=0.0))
    primal_eq = (
        float(np.abs(mats.A_eq @ x - mats.b_eq).max(initial=0.0))
        if mats.A_eq.shape[0]
        else 0.0
    )
    primal_ub = (
        float(np.maximum(mats.A_ub @ x - mats.b_ub, 0.0).max(initial=0.0))
        if mats.A_ub.shape[0]
        else 0.0
    )
    y_eq = np.asarray(res.eqlin.marginals) if mats.A_eq.shape[0] else np.zeros(0)
    y_ub = np.asarray(res.ineqlin.marginals) if mats.A_ub.shape[0] else np.zeros(0)
    lam_lo = np.asarray(res.lower.marginals)
    lam_hi = np.asarray(res.upper.marginals)
    # for a minimization, relaxing a <= row or an upper bound cannot raise the
    # optimum, and raising a lower bound cannot lower it
    dual_sign = max(
        float(np.maximum(y_ub, 0.0).max(initial=0.0)),
        float(np.maximum(lam_hi, 0.0).max(initial=0.0)),
        float(np.maximum(-lam_lo, 0.0).max(initial=0.0)),
    )
    stationarity = mats.c - mats.A_eq.T @ y_eq - mats.A_ub.T @ y_ub - lam_lo - lam_hi
    stat_res = float(np.abs(stationarity).max(initial=0.0))
    lb = x - res.lower.residual  # reconstruct the bound vectors
    ub = x + res.upper.residual
    # a multiplier on an infinite bound would make the dual objective useless
    stray = bool(
        np.any((lam_lo != 0.0) & ~np.isfinite(lb))
        or np.any((lam_hi != 0.0) & ~np.isfinite(ub))
    )
    lo_term = float(np.sum(np.where(np.isfinite(lb), lb, 0.0) * lam_lo))
    hi_term = float(np.sum(np.where(np.isfinite(ub), ub, 0.0) * lam_hi))
    dual_obj = float(mats.b_eq @ y_eq + mats.b_ub @ y_ub) + lo_term + hi_term
    duality_gap = (
        math.inf if stray else abs(dual_obj - res.fun) / (1.0 + abs(res.fun))
    )
    cert = {
        "primal_eq_residual": primal_eq,
        "primal_ub_residual": primal_ub,
        "dual_sign_violation": dual_sign,
        "stationarity_residual": stat_res,
        "duality_gap": duality_gap,
    }
    ok = (
        primal_eq <= _FEAS_TOL
        and primal_ub <= _FEAS_TOL
        and dual_sign <= _CERT_TOL
        and stat_res <= _CERT_TOL * scale
        and duality_gap <= _CERT_TOL
    )
    return ok, cert


def solve_lp(
    model: MilpModel,
    lb: Optional[np.ndarray] = None,
    ub: Optional[np.ndarray] = None,
) -> LpResult:
    """Solve the continuous relaxation, optionally under tightened bounds."""
    mats = _Matrices(model)
    lb = model.lb if lb is None else np.asarray(lb, dtype=float)
    ub = model.ub if ub is None else np.asarray(ub, dtype=float)
    res = mats.solve(lb, ub)
    if res.status == 2:
        return LpResult("infeasible", math.inf, None, False)
    if res.status == 3:
        return LpResult("unbounded", -math.inf, None, False)
    if res.status != 0:
        return LpResult("error", math.nan, None, False)
    ok, cert = _certify(mats, res)
    return LpResult("optimal", float(res.fun), np.asarray(res.x), ok, cert)


def validate_solution(model: MilpModel, x: np.ndarray, tol: float = 1e-6) -> Dict:
    """Residual report for an assignment: worst violation per constraint
    family plus bound and integrality violations.  ``ok`` summarizes."""
    x = np.asarray(x, dtype=float)
    lhs = model.A @ x
    viol = np.maximum(np.maximum(model.row_lo - lhs, lhs - model.row_hi), 0.0)
    family_worst = np.zeros(len(model.families))
    np.maximum.at(family_worst, model.row_family, viol)
    families = dict(zip(model.families, family_worst.tolist()))
    worst = float(viol.max(initial=0.0))
    bound_viol = float(
        max(
            np.maximum(model.lb - x, 0.0).max(initial=0.0),
            np.maximum(x - model.ub, 0.0).max(initial=0.0),
        )
    )
    int_idx = np.flatnonzero(model.integer)
    int_viol = float(np.abs(x[int_idx] - np.round(x[int_idx])).max(initial=0.0))
    return {
        "families": families,
        "max_constraint_violation": worst,
        "max_bound_violation": bound_viol,
        "max_integrality_violation": int_viol,
        "ok": worst <= tol and bound_viol <= tol and int_viol <= tol,
    }


def _is_integral(x: np.ndarray, int_idx: np.ndarray) -> bool:
    if not len(int_idx):
        return True
    return bool(np.abs(x[int_idx] - np.round(x[int_idx])).max() <= _INT_TOL)


class _Pseudocosts:
    """Per integer column and branching direction (0 down, 1 up): the sum
    and count of the per-unit objective increases that the column's solved
    children showed, and the same over all columns, in observation order."""

    def __init__(self, n_cols: int):
        self.sum = np.zeros((2, n_cols))
        self.count = np.zeros((2, n_cols), dtype=np.int64)
        self.total = [0.0, 0.0]
        self.n = [0, 0]

    def record(
        self, side: int, col: int, frac: float, parent: float, child: Optional[float]
    ) -> None:
        """One child of a branch on ``col`` at fractional part ``frac``: its
        objective increase over the parent's, per unit of the bound change
        (``frac`` down, ``1 - frac`` up).  An infeasible child (``child``
        None) shows no increase and is not counted."""
        if child is None:
            return
        unit_gain = max(child - parent, 0.0) / (frac if side == 0 else 1.0 - frac)
        self.sum[side, col] += unit_gain
        self.count[side, col] += 1
        self.total[side] += unit_gain
        self.n[side] += 1


def _branch_variable(
    x: np.ndarray, int_idx: np.ndarray, costs: _Pseudocosts
) -> Optional[int]:
    """Pseudocost branching: among the integer columns whose value is more
    than ``_INT_TOL`` from an integer, the one with the highest score
    ``max(down*f, 1e-6) * max(up*(1-f), 1e-6)``, where ``f`` is the
    fractional part and ``down``/``up`` the column's mean per-unit increase
    in that direction.  A direction a column has not been branched in yet
    takes the mean over all columns' observations in it (1.0 before any).
    Exact score ties go to the lowest column index; None when ``x`` is
    integral on ``int_idx``.
    """
    values = x[int_idx]
    frac = values - np.floor(values)
    fractional = np.minimum(frac, 1.0 - frac) > _INT_TOL
    if not fractional.any():
        return None
    cols, f = int_idx[fractional], frac[fractional]
    count = costs.count[:, cols]
    mean = [[t / n if n else 1.0] for t, n in zip(costs.total, costs.n)]
    unit = np.where(count > 0, costs.sum[:, cols] / np.maximum(count, 1), mean)
    score = np.maximum(unit[0] * f, 1e-6) * np.maximum(unit[1] * (1.0 - f), 1e-6)
    return int(cols[score == score.max()].min())


def _relative_gap(objective: float, bound: float) -> float:
    if objective == math.inf:
        return math.inf
    return max(0.0, objective - bound) / max(1.0, abs(objective))


def _lp_guided_incumbent(
    lp: _NodeLp,
    model: MilpModel,
    lb: np.ndarray,
    ub: np.ndarray,
    x_root: np.ndarray,
    int_idx: np.ndarray,
) -> Optional[np.ndarray]:
    """Flow-aware primal heuristic for an early incumbent.

    The root relaxation of these scheduling models is typically near-integral
    but massively degenerate (equal-cost placements of the same energy), so
    plain branching can wander thousands of nodes before its first leaf, and
    coordinate-wise rounding fights the flow equalities.  Instead, read the
    relaxation's *energy pattern*: per visit, keep the charger type carrying
    the most LP energy and the step range it uses (widened to the whole visit
    in a second attempt), trim whole intervals against unit counts, lift the
    survivors to an integral unit routing (``build_warm_start``), then freeze
    the integer block and re-optimize the continuous block under the true
    objective.  Every tie-break is deterministic.
    """
    gain_tol = 1e-7

    def lp_energy(bus_id, tid, k_start, k_end):
        steps = [
            k
            for k in range(k_start, k_end)
            if (bus_id, k, tid) in model.g_of
            and x_root[model.g_of[(bus_id, k, tid)]] > gain_tol
        ]
        total = sum(x_root[model.g_of[(bus_id, k, tid)]] for k in steps)
        return total, steps

    candidates = []  # (energy, bus, tid, k0, k1, visit span) per visit
    for group in model.graph.groups:
        v = group.visit
        best = None
        for tid in sorted(v.charger_type_ids):
            total, steps = lp_energy(v.bus_id, tid, v.k_start, v.k_end)
            if total > gain_tol and (best is None or total > best[0]):
                best = (total, tid, steps)
        if best is not None:
            total, tid, steps = best
            candidates.append(
                (total, v.bus_id, tid, min(steps), max(steps) + 1,
                 v.k_start, v.k_end)
            )

    counts = {sub.charger_type_id: sub.count for sub in model.graph.subgraphs}

    def trim_to_capacity(runs):
        kept = list(runs)
        while True:
            over = {}
            for idx, (en, bus, tid, k0, k1) in enumerate(kept):
                for k in range(k0, k1):
                    over.setdefault((tid, k), []).append(idx)
            bad = sorted(
                key for key, users in over.items()
                if len(users) > counts[key[0]]
            )
            if not bad:
                return kept
            users = over[bad[0]]
            victim = min(
                users, key=lambda i: (kept[i][0], kept[i][1], kept[i][3])
            )
            kept.pop(victim)

    for widen in (False, True):
        runs = [
            (en, bus, tid, vk0 if widen else k0, vk1 if widen else k1)
            for en, bus, tid, k0, k1, vk0, vk1 in candidates
        ]
        kept = trim_to_capacity(runs)
        routed = build_warm_start(
            model, [(bus, tid, k0, k1) for _, bus, tid, k0, k1 in kept]
        )
        if routed is None:
            continue
        cand = _complete_integers(lp, model, lb, ub, routed, int_idx)
        if cand is not None:
            return cand
    return None


def _complete_integers(
    lp: _NodeLp,
    model: MilpModel,
    lb: np.ndarray,
    ub: np.ndarray,
    fixed: np.ndarray,
    int_idx: np.ndarray,
) -> Optional[np.ndarray]:
    """Fix the integer columns at ``fixed`` and solve ``lp`` for the
    continuous ones; the answer only if it validates."""
    flb, fub = lb.copy(), ub.copy()
    flb[int_idx] = fub[int_idx] = fixed[int_idx]
    status, _, x = lp.solve(flb, fub)
    if status != 0 or not validate_solution(model, x)["ok"]:
        return None
    return x


def branch_and_bound(
    model: MilpModel,
    limits: SolveLimits = SolveLimits(),
    on_improvement: Optional[Callable[[str], None]] = None,
) -> MilpSolution:
    """Solve the model to integrality.

    An integral root is the optimum.  A fractional one first gets an
    incumbent from an LP-guided primal heuristic, so large parts of the tree
    prune immediately and even node-limited solves usually carry a feasible
    schedule and a true optimality gap.  The heuristic routes charging runs
    read off the root relaxation (``build_warm_start``), fixes the routed
    integer columns and places the continuous ones with one node LP on the
    search's own HiGHS model; the answer becomes the incumbent only when it
    validates.

    ``on_improvement`` receives one CSV line per incumbent improvement,
    ``time_s,nodes,incumbent,bound,gap`` — diagnostics only, never part of
    solve results (wall time is not deterministic).
    """
    lb0, ub0 = model.lb, model.ub
    lp = _NodeLp(model, lb0, ub0)
    int_idx = np.flatnonzero(model.integer)
    costs = _Pseudocosts(model.n_variables)
    t0 = time.monotonic()

    incumbent: Optional[np.ndarray] = None
    inc_obj = math.inf

    def note_improvement(bound_now: float) -> None:
        if on_improvement is None:
            return
        gap_now = _relative_gap(inc_obj, bound_now)
        on_improvement(
            f"{time.monotonic() - t0:.3f},{nodes},{inc_obj:.9g},"
            f"{bound_now:.9g},{gap_now:.6g}"
        )

    nodes = 0

    def solve_node(lb: np.ndarray, ub: np.ndarray):
        nonlocal nodes
        nodes += 1
        status, fun, x = lp.solve(lb, ub)
        if status == 2:
            return None
        if status == 3:
            raise SolverError("relaxation unbounded below a bounded parent")
        if status != 0:
            raise SolverError(f"LP backend failure (status {status})")
        return float(fun), x

    root = solve_node(lb0, ub0)
    if root is None:
        return MilpSolution("infeasible", math.inf, None, math.inf, nodes, math.inf)

    # open nodes: (bound, insertion sequence, lb, ub, relaxation x)
    heap: List[Tuple[float, int, np.ndarray, np.ndarray, np.ndarray]] = []
    seq = 0
    current: Optional[Tuple[float, np.ndarray, np.ndarray, np.ndarray]] = None
    root_bound, root_x = root

    def global_bound(local: float) -> float:
        return min(local, heap[0][0]) if heap else local

    # an integral root is the optimum; otherwise seek an incumbent first
    if not _is_integral(root_x, int_idx):
        incumbent = _lp_guided_incumbent(lp, model, lb0, ub0, root_x, int_idx)
        if incumbent is not None:
            inc_obj = float(model.c @ incumbent)
            note_improvement(root_bound)
    if root_bound < inc_obj:
        current = (root_bound, lb0, ub0, root_x)

    limited = False
    while current is not None or heap:
        if current is None:
            bound, _, lb, ub, x = heapq.heappop(heap)
            if bound >= inc_obj:
                continue
            current = (bound, lb, ub, x)
        bound, lb, ub, x = current
        current = None
        if bound >= inc_obj:
            continue
        if _relative_gap(inc_obj, bound) <= limits.mip_gap and incumbent is not None:
            # nothing open can improve the incumbent beyond the gap
            return MilpSolution(
                "optimal", inc_obj, incumbent, bound, nodes, _relative_gap(inc_obj, bound)
            )
        branch = _branch_variable(x, int_idx, costs)
        if branch is None:
            if bound < inc_obj:
                incumbent = x
                inc_obj = bound
                note_improvement(global_bound(bound))
            continue
        if nodes >= limits.max_nodes:
            limited = True
            heapq.heappush(heap, (bound, seq, lb, ub, x))
            seq += 1
            break
        pivot = x[branch]
        frac = pivot - math.floor(pivot)
        children = []
        for side in (0, 1):
            clb, cub = lb.copy(), ub.copy()
            if side == 0:
                cub[branch] = math.floor(pivot)
            else:
                clb[branch] = math.ceil(pivot)
            if clb[branch] > cub[branch] + 1e-12:
                continue
            sol = solve_node(clb, cub)
            costs.record(side, branch, frac, bound, None if sol is None else sol[0])
            if sol is None:
                continue
            cbound, cx = sol
            if cbound >= inc_obj:
                continue
            if _is_integral(cx, int_idx):
                incumbent = cx
                inc_obj = cbound
                note_improvement(global_bound(bound))
                continue
            children.append((cbound, clb, cub, cx))
        children.sort(key=lambda ch: ch[0])
        if children:
            current = children[0]
            for ch in children[1:]:
                heapq.heappush(heap, (ch[0], seq, ch[1], ch[2], ch[3]))
                seq += 1

    open_bounds = [b for b, *_ in heap if b < inc_obj]
    if current is not None:
        open_bounds.append(current[0])
    bound = min(open_bounds) if open_bounds else inc_obj
    gap = _relative_gap(inc_obj, bound)
    if incumbent is None:
        status = "unknown" if limited else "infeasible"
        bound = root_bound if limited else math.inf
        return MilpSolution(status, math.inf, None, bound, nodes, math.inf)
    status = "feasible" if (limited and gap > limits.mip_gap) else "optimal"
    return MilpSolution(status, inc_obj, incumbent, bound, nodes, gap)


# ---------------------------------------------------------------------------
# charging runs to flow columns


def build_warm_start(
    model: MilpModel,
    intervals: Sequence[Tuple[str, str, int, int]],
) -> Optional[np.ndarray]:
    """Lift charging runs ``(bus, charger type, k0, k1)``, in this model's
    step coordinates, to a full-length assignment of the model's flow
    columns (column j is edge j): each run is clipped to the window; its charge, entering and
    leaving edges carry one unit; the remaining units ride the rest chain by
    conservation; every other column is zero.  ``_lp_guided_incumbent``
    fixes these integer columns and completes the continuous ones on the
    search's LP.  Returns None when a run cannot be realized (missing edge,
    unknown charger type) or would need more units than exist.
    """
    graph = model.graph
    K = model.instance.n_steps
    x = np.zeros(model.n_variables)

    known_types = {sub.charger_type_id for sub in graph.subgraphs}
    for bus_id, tid, k0, k1 in intervals:
        k0, k1 = max(k0, 0), min(k1, K)
        if k1 <= k0:
            continue
        if tid not in known_types:
            return None
        for k in range(k0, k1):
            gid = graph.sigma.get((bus_id, k, tid))
            if gid is None:
                return None
            x[gid] = 1.0
        # one unit must enter before the run and leave after it
        enter_gid = graph.enter_of.get((bus_id, k0, tid))
        leave_gid = graph.leave_of.get((bus_id, k1, tid))
        if enter_gid is None or leave_gid is None:
            return None
        x[enter_gid] = 1.0
        x[leave_gid] = 1.0

    for sub in graph.subgraphs:
        part = slice(sub.edge_offset, sub.edge_offset + sub.n_edges)
        flow, kind, k_from = x[part], sub.kind, sub.k_from
        on_bus = sub.bus >= 0
        routed = on_bus & (flow != 0.0)
        continuation = flow[routed & (kind == SOURCE)].sum()
        exits_at_end = flow[routed & (kind == SINK)].sum()
        steps = routed & (kind != SOURCE) & (kind != SINK)
        busy = np.bincount(k_from[steps], weights=flow[steps], minlength=K)
        source_rest = sub.count - continuation
        if source_rest < -1e-9:
            return None
        # the rest chain carries every unit not routed through a bus
        chain = ~on_bus
        flow[chain & (kind == SOURCE)] = source_rest
        rest = chain & (kind == REST)
        flow[rest] = sub.count - busy[k_from[rest]]
        flow[chain & (kind == SINK)] = sub.count - exits_at_end
        if flow[chain].min(initial=0.0) < -1e-9:
            return None  # more simultaneous charging than chargers
    return x

"""Mixed-integer model assembly for fleet charge scheduling.

The decision variables follow the network-flow formulation: integer edge flows
``x`` (one per action-graph edge, bounded by edge capacity), per-bus charge
levels ``s`` at every instant, per-step charging gains ``g`` for every
available (bus, step, charger type) triple, aggregated meter energy ``e`` per
step, moving-window average power ``p`` per instant, and the two billed demand
peaks.  Constraint families:

* ``flow``: charger conservation D x = f per charger-type sub-graph.
* ``group``: at most one unit of flow enters each visit's vertex set, so each
  bus plugs in at most once per visit, on one charger type.
* ``dynamics``: s[k+1] = s[k] + gains while a bus can charge, s[k+1] = s[k] -
  route discharge otherwise.
* ``gain_cc`` / ``gain_cv``: the concave one-step CC-CV gain bound (the CV row
  is dropped under ``linear_profile``); ``gain_fix`` replaces both with
  g = b_bar_cc * x under ``fixed_rate``.
* ``gain_bigm``: g <= capacity * x ties gains to the matching charge edge.
* ``energy`` / ``window`` / ``peak`` / ``peak_tou``: meter aggregation, the
  moving demand window (fractional trailing term when the step does not divide
  the window), and epigraph rows for the two demand maxima.

The objective is time-of-use consumption cost plus both demand charges plus
any edge costs (used for plan-preference tie-breaking) plus optional terminal
error and soft-bound penalty terms.

Window rows accept a realized-energy history so a receding horizon can keep
billing windows continuous across horizon boundaries: windows reaching before
step 0 draw constants from the history instead of silently truncating.

A model is stored in one form, built once: the rows as a CSR matrix ``A``
with row bounds ``row_lo <= A x <= row_hi``, row names and families, and the
columns as read-only arrays ``c``, ``lb``, ``ub`` and an integrality mask.
The solver, the residual report and the appending helpers
(:func:`add_terminal_cost`, :func:`lock_charged_visits`) work on those
arrays; ``MilpModel.variables`` and ``MilpModel.constraints`` are per-column
and per-row views of them for LP export and inspection.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from .charge_model import DiscreteChargeParams, discretize_params
from .graph import ActionGraph
from .scenario import DiscreteInstance, charging_params

__all__ = [
    "Variable",
    "LinearConstraint",
    "ModelOptions",
    "MilpModel",
    "ChargePlan",
    "build_static_model",
    "add_terminal_cost",
    "lock_charged_visits",
    "export_lp",
    "extract_plan",
    "window_averages",
    "save_plan_csv",
    "save_plan_summary",
]


@dataclass(frozen=True)
class Variable:
    """One column: bounds, integrality, objective coefficient, and enough
    metadata to find it again (role plus bus/step/charger tags)."""

    name: str
    lb: float
    ub: float
    is_integer: bool
    obj: float
    role: str
    bus_id: Optional[str] = None
    k: Optional[int] = None
    charger_type_id: Optional[str] = None


@dataclass(frozen=True)
class LinearConstraint:
    """One row: sparse coefficients as (variable index, value) pairs."""

    name: str
    coeffs: Tuple[Tuple[int, float], ...]
    sense: str  # "<=", ">=", "=="
    rhs: float
    family: str


@dataclass(frozen=True)
class ModelOptions:
    """Model-shape switches.

    ``soc_buffer`` narrows the usable SOC band from both sides (fraction of
    capacity).  ``fixed_rate`` forces full-rate charging whenever plugged in;
    ``linear_profile`` keeps variable-rate charging but drops the CV taper row.
    ``initial_soc_kwh`` overrides per-bus starting levels (receding horizon
    state); ``enforce_final_soc`` pins the last instant to the bus's final SOC
    (day plans only).  ``energy_history`` lists realized per-step meter energy
    for the steps immediately before the window (most recent last).
    """

    fixed_rate: bool = False
    linear_profile: bool = False
    soc_buffer: float = 0.05
    enforce_final_soc: bool = True
    initial_soc_kwh: Optional[Dict[str, float]] = None
    energy_history: Tuple[float, ...] = ()
    soft_min_soc: bool = False
    soft_min_weight: float = 0.0


@dataclass(frozen=True, eq=False)
class MilpModel:
    """An assembled model in its stored form plus the index maps needed to
    read solutions back.

    Columns are the arrays ``c``, ``lb``, ``ub`` and the integrality mask
    ``integer``; ``columns`` holds each one's (name, role, bus, step,
    charger type).  Rows are ``row_lo <= A x <= row_hi`` with ``A`` in CSR,
    each row's entries in assembly order: an equality row has equal bounds,
    a one-sided row an infinite other bound.  ``row_names`` and
    ``row_family`` (an index into ``families``) label the rows.  Every array
    is read-only; ``variables`` and ``constraints`` are views built on first
    use.
    """

    c: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    integer: np.ndarray
    columns: Tuple[Tuple[str, str, Optional[str], Optional[int], Optional[str]], ...]
    A: sp.csr_matrix
    row_lo: np.ndarray
    row_hi: np.ndarray
    row_names: Tuple[str, ...]
    row_family: np.ndarray
    families: Tuple[str, ...]
    graph: ActionGraph
    options: ModelOptions
    x_of: Dict[int, int]
    s_of: Dict[Tuple[str, int], int]
    g_of: Dict[Tuple[str, int, str], int]
    e_of: Dict[int, int]
    p_of: Dict[int, int]
    peak_idx: int
    peak_tou_idx: int
    err_of: Dict[str, int] = field(default_factory=dict)
    terminal_targets: Dict[str, float] = field(default_factory=dict)
    window_m: int = 0
    window_frac: float = 0.0

    @property
    def instance(self) -> DiscreteInstance:
        return self.graph.instance

    @property
    def n_variables(self) -> int:
        return len(self.c)

    @property
    def n_constraints(self) -> int:
        return self.A.shape[0]

    @cached_property
    def variables(self) -> Tuple[Variable, ...]:
        return tuple(
            Variable(name, lo, hi, is_int, obj, role, bus_id, k, tid)
            for obj, lo, hi, is_int, (name, role, bus_id, k, tid) in zip(
                self.c.tolist(), self.lb.tolist(), self.ub.tolist(),
                self.integer.tolist(), self.columns,
            )
        )

    @cached_property
    def constraints(self) -> Tuple[LinearConstraint, ...]:
        ptr, cols, vals = self.A.indptr, self.A.indices.tolist(), self.A.data.tolist()
        out = []
        for r, (lo, hi) in enumerate(zip(self.row_lo.tolist(), self.row_hi.tolist())):
            sense = "==" if lo == hi else ("<=" if lo == -math.inf else ">=")
            out.append(LinearConstraint(
                name=self.row_names[r],
                coeffs=tuple(zip(cols[ptr[r]:ptr[r + 1]], vals[ptr[r]:ptr[r + 1]])),
                sense=sense,
                rhs=hi if sense == "<=" else lo,
                family=self.families[self.row_family[r]],
            ))
        return tuple(out)

    def objective_vector(self) -> np.ndarray:
        return self.c

    def bound_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.lb, self.ub

    @cached_property
    def _integer_indices(self) -> np.ndarray:
        return _frozen(np.flatnonzero(self.integer))

    def integer_indices(self) -> np.ndarray:
        return self._integer_indices

    def extended(self, appended: "_Assembly", **index_updates) -> "MilpModel":
        """Copy of the model with ``appended``'s rows and columns added
        after its own (never mutated)."""
        return dataclasses.replace(self, **appended.arrays(self), **index_updates)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class _Assembly:
    """Columns and rows to add to a model's stored form, in order."""

    def __init__(self, base: Optional[MilpModel] = None):
        self.first_col = base.n_variables if base is not None else 0
        self.families: List[str] = list(base.families) if base is not None else []
        self.cols: List[Tuple] = []  # (obj, lb, ub, is_integer, column tags)
        self.rows: List[Tuple] = []  # (name, family index, lo, hi)
        self.indptr: List[int] = [0]
        self.indices: List[int] = []
        self.data: List[float] = []

    def col(self, name: str, lb: float, ub: float, obj: float, role: str,
            is_integer: bool = False, bus_id: Optional[str] = None,
            k: Optional[int] = None, tid: Optional[str] = None) -> int:
        self.cols.append((obj, lb, ub, is_integer, (name, role, bus_id, k, tid)))
        return self.first_col + len(self.cols) - 1

    def row(self, name: str, family: str, coeffs: Iterable[Tuple[int, float]],
            sense: str, rhs: float) -> None:
        if family not in self.families:
            self.families.append(family)
        rhs = float(rhs)
        lo = -math.inf if sense == "<=" else rhs
        hi = math.inf if sense == ">=" else rhs
        self.rows.append((name, self.families.index(family), lo, hi))
        for i, coef in coeffs:
            self.indices.append(i)
            self.data.append(coef)
        self.indptr.append(len(self.indices))

    def arrays(self, base: Optional[MilpModel] = None) -> Dict:
        """The stored-form fields of ``base`` (or of an empty model) with
        this assembly appended."""
        obj, lb, ub, integer, tags = zip(*self.cols) if self.cols else ((),) * 5
        names, fam, lo, hi = zip(*self.rows) if self.rows else ((),) * 4
        A0 = base.A if base is not None else sp.csr_matrix((0, 0))

        def cat(old, new, dtype=float):
            return np.concatenate([np.asarray(old, dtype), np.asarray(new, dtype)])

        def grown(attr, new, dtype=float):
            return _frozen(cat(getattr(base, attr) if base is not None else (), new, dtype))

        A = sp.csr_matrix(
            (cat(A0.data, self.data),
             cat(A0.indices, self.indices, np.int64),
             cat(A0.indptr[:-1], np.add(self.indptr, A0.nnz), np.int64)),
            shape=(A0.shape[0] + len(self.rows), self.first_col + len(self.cols)),
        )
        for arr in (A.data, A.indices, A.indptr):
            _frozen(arr)
        return dict(
            c=grown("c", obj),
            lb=grown("lb", lb),
            ub=grown("ub", ub),
            integer=grown("integer", integer, bool),
            columns=(base.columns if base is not None else ()) + tags,
            A=A,
            row_lo=grown("row_lo", lo),
            row_hi=grown("row_hi", hi),
            row_names=(base.row_names if base is not None else ()) + names,
            row_family=grown("row_family", fam, np.int64),
            families=tuple(self.families),
        )


def _lp_name(raw: str) -> str:
    return "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in raw)


def pair_discrete_params(bus, charger, delta_hours: float) -> DiscreteChargeParams:
    """Discrete CC-CV parameters for one (bus, charger type) pairing."""
    return discretize_params(charging_params(bus, charger), delta_hours)


def _window_shape(window_minutes: float, delta_min: float) -> Tuple[int, float]:
    """Number of whole steps in the demand window plus the fractional weight
    of the step just before them."""
    m = int(math.floor(window_minutes / delta_min + 1e-9))
    rem = window_minutes - m * delta_min
    frac = rem / delta_min
    if frac < 1e-9:
        frac = 0.0
    return m, frac


def build_static_model(graph: ActionGraph, options: ModelOptions = ModelOptions()) -> MilpModel:
    """Assemble the full scheduling model over the graph's discretized window."""
    inst = graph.instance
    scenario = inst.scenario
    rates = scenario.rates
    K = inst.n_steps
    delta_h = inst.delta_hours
    form = _Assembly()

    # --- flow variables, one per edge --------------------------------------
    x_of: Dict[int, int] = {}
    for gid, sub, e in graph.iter_edges():
        x_of[gid] = form.col(
            f"x{gid}", 0.0, float(e.capacity), float(graph.edge_costs[gid]), "flow",
            is_integer=True, bus_id=e.bus_id, k=e.k_from, tid=sub.charger_type_id,
        )

    # --- charge levels -------------------------------------------------------
    initial = options.initial_soc_kwh or {}
    s_of: Dict[Tuple[str, int], int] = {}
    for bus in scenario.buses:
        cap = bus.capacity_kwh
        lo = (bus.min_soc + options.soc_buffer) * cap
        hi = (bus.max_soc - options.soc_buffer) * cap
        if hi <= lo:
            raise ValueError(f"bus {bus.id}: SOC buffer leaves an empty band")
        soft_lo = 0.0 if options.soft_min_soc else lo
        for k in range(K + 1):
            vlb, vub = soft_lo, hi
            if k == 0:
                s0 = initial.get(bus.id, bus.initial_soc * cap)
                vlb = vub = s0
            elif k == K and options.enforce_final_soc:
                vlb = vub = bus.final_soc * cap
            s_of[(bus.id, k)] = form.col(
                f"s_{_lp_name(bus.id)}_{k}", vlb, vub, 0.0, "soc", bus_id=bus.id, k=k
            )

    # --- gains ----------------------------------------------------------------
    g_of: Dict[Tuple[str, int, str], int] = {}
    for (bus_id, k, tid) in sorted(graph.sigma.keys(), key=lambda t: (t[0], t[1], t[2])):
        g_of[(bus_id, k, tid)] = form.col(
            f"g_{_lp_name(bus_id)}_{k}_{_lp_name(tid)}", 0.0, math.inf,
            float(inst.step_rate[k]), "gain", bus_id=bus_id, k=k, tid=tid,
        )

    # --- meter energy and window power ----------------------------------------
    e_of = {k: form.col(f"e_{k}", 0.0, math.inf, 0.0, "energy", k=k) for k in range(K)}
    p_of = {
        k: form.col(f"pD_{k}", 0.0, math.inf, 0.0, "window_power", k=k)
        for k in range(K + 1)
    }
    peak_idx = form.col("p_max", 0.0, math.inf, float(rates.demand_base_per_kw), "peak")
    peak_tou_idx = form.col(
        "p_max_tou", 0.0, math.inf, float(rates.demand_tou_per_kw), "peak_tou"
    )

    # --- soft lower-bound slacks ----------------------------------------------
    slack_of: Dict[Tuple[str, int], int] = {}
    if options.soft_min_soc:
        for bus in scenario.buses:
            for k in range(1, K + 1):
                slack_of[(bus.id, k)] = form.col(
                    f"zmin_{_lp_name(bus.id)}_{k}", 0.0, math.inf,
                    float(options.soft_min_weight), "soc_slack", bus_id=bus.id, k=k,
                )

    # --- flow balance ----------------------------------------------------------
    from .graph import flow_rhs, incidence_matrix

    for sub in graph.subgraphs:
        D = incidence_matrix(sub).tocsr()
        f = flow_rhs(sub)
        for row in range(sub.n_vertices):
            lo, hi = D.indptr[row], D.indptr[row + 1]
            form.row(
                f"flow_{_lp_name(sub.charger_type_id)}_{row}", "flow",
                ((x_of[sub.edge_offset + int(col)], float(val))
                 for col, val in zip(D.indices[lo:hi], D.data[lo:hi])),
                "==", f[row],
            )

    # --- one plug-in per visit ---------------------------------------------------
    for grp in graph.groups:
        form.row(
            f"group_{_lp_name(grp.visit.id)}", "group",
            ((x_of[gid], 1.0) for gid in grp.entering_edges), "<=", 1.0,
        )

    # --- charge-level dynamics ---------------------------------------------------
    for j, bus in enumerate(scenario.buses):
        for k in range(K):
            types = inst.charging_types_at(bus.id, k)
            coeffs = [(s_of[(bus.id, k + 1)], 1.0), (s_of[(bus.id, k)], -1.0)]
            coeffs += [(g_of[(bus.id, k, tid)], -1.0) for tid in types]
            rhs = 0.0 if types else -float(inst.discharge_kwh[j, k])
            form.row(f"dyn_{_lp_name(bus.id)}_{k}", "dynamics", coeffs, "==", rhs)

    # --- gain bounds ---------------------------------------------------------------
    params_cache: Dict[Tuple[str, str], DiscreteChargeParams] = {}
    for (bus_id, k, tid), gi in g_of.items():
        key = (bus_id, tid)
        if key not in params_cache:
            params_cache[key] = pair_discrete_params(
                scenario.bus_by_id(bus_id), scenario.charger_by_id(tid), delta_h
            )
        par = params_cache[key]
        xi = x_of[graph.sigma[(bus_id, k, tid)]]
        cap = scenario.bus_by_id(bus_id).capacity_kwh
        tag = f"{_lp_name(bus_id)}_{k}_{_lp_name(tid)}"
        if options.fixed_rate:
            form.row(f"gfix_{tag}", "gain_fix", ((gi, 1.0), (xi, -par.b_bar_cc)), "==", 0.0)
        else:
            form.row(f"gcc_{tag}", "gain_cc", ((gi, 1.0),), "<=", par.b_bar_cc)
            if not options.linear_profile:
                form.row(
                    f"gcv_{tag}", "gain_cv",
                    ((gi, 1.0), (s_of[(bus_id, k)], -(par.a_bar_cv - 1.0))),
                    "<=", par.b_bar_cv,
                )
        form.row(f"gbig_{tag}", "gain_bigm", ((gi, 1.0), (xi, -cap)), "<=", 0.0)

    # --- meter aggregation ------------------------------------------------------------
    gains_by_step: Dict[int, List[int]] = {}
    for (bus_id, k, tid), gi in g_of.items():
        gains_by_step.setdefault(k, []).append(gi)
    for k in range(K):
        coeffs = [(e_of[k], 1.0)] + [(gi, -1.0) for gi in gains_by_step.get(k, [])]
        form.row(f"energy_{k}", "energy", coeffs, "==", inst.load_kwh[k])

    # --- moving demand window -----------------------------------------------------------
    window_h = rates.demand_window_minutes / 60.0
    m, fracw = _window_shape(rates.demand_window_minutes, inst.delta_min)
    history = options.energy_history

    def history_energy(k_prime: int) -> float:
        # k_prime < 0 indexes realized steps before the window; history is
        # most-recent-last, so k_prime = -1 is history[-1]
        idx = len(history) + k_prime
        if 0 <= idx < len(history):
            return float(history[idx])
        return 0.0

    for k in range(K + 1):
        coeffs = [(p_of[k], window_h)]
        const = 0.0
        for k_prime in range(k - m, k):
            if k_prime >= 0:
                coeffs.append((e_of[k_prime], -1.0))
            else:
                const += history_energy(k_prime)
        if fracw > 0.0:
            k_prime = k - m - 1
            if k_prime >= 0:
                coeffs.append((e_of[k_prime], -fracw))
            else:
                const += fracw * history_energy(k_prime)
        form.row(f"window_{k}", "window", coeffs, "==", const)
        form.row(f"peak_{k}", "peak", ((peak_idx, 1.0), (p_of[k], -1.0)), ">=", 0.0)
        if inst.instant_in_peak[k]:
            form.row(
                f"peak_tou_{k}", "peak_tou",
                ((peak_tou_idx, 1.0), (p_of[k], -1.0)), ">=", 0.0,
            )

    # --- soft lower bounds -----------------------------------------------------------------
    if options.soft_min_soc:
        for bus in scenario.buses:
            cap = bus.capacity_kwh
            lo = (bus.min_soc + options.soc_buffer) * cap
            for k in range(1, K + 1):
                form.row(
                    f"softmin_{_lp_name(bus.id)}_{k}", "soft_min",
                    ((s_of[(bus.id, k)], 1.0), (slack_of[(bus.id, k)], 1.0)), ">=", lo,
                )

    names = [tags[0] for *_, tags in form.cols]
    if len(set(names)) != len(names):
        raise ValueError("variable name collision after sanitization")

    return MilpModel(
        **form.arrays(),
        graph=graph,
        options=options,
        x_of=x_of,
        s_of=s_of,
        g_of=g_of,
        e_of=e_of,
        p_of=p_of,
        peak_idx=peak_idx,
        peak_tou_idx=peak_tou_idx,
        window_m=m,
        window_frac=fracw,
    )


def add_terminal_cost(
    model: MilpModel, targets: Dict[str, float], weight: float
) -> MilpModel:
    """Append 1-norm terminal-error variables pulling each bus's final charge
    level toward ``targets`` (kWh), weighted into the objective."""
    if weight < 0:
        raise ValueError("terminal weight must be non-negative")
    K = model.instance.n_steps
    form = _Assembly(model)
    err_of = dict(model.err_of)
    terminal_targets = dict(model.terminal_targets)
    for bus_id, target in targets.items():
        if (bus_id, K) not in model.s_of:
            raise KeyError(f"unknown bus {bus_id!r}")
        idx = form.col(
            f"err_{_lp_name(bus_id)}", 0.0, math.inf, float(weight), "terminal_err",
            bus_id=bus_id,
        )
        err_of[bus_id] = idx
        terminal_targets[bus_id] = float(target)
        s_idx = model.s_of[(bus_id, K)]
        tag = _lp_name(bus_id)
        form.row(f"term_lo_{tag}", "terminal", ((idx, 1.0), (s_idx, 1.0)), ">=", target)
        form.row(f"term_hi_{tag}", "terminal", ((idx, 1.0), (s_idx, -1.0)), ">=", -float(target))
    return model.extended(form, err_of=err_of, terminal_targets=terminal_targets)


def lock_charged_visits(model: MilpModel, charged_visit_ids: Iterable[str]) -> MilpModel:
    """Forbid entering flow into visits that already received their one charge.

    Source-side continuation edges are exempt so an in-progress charge that
    began before the lock can keep going; everything else entering the group is
    capped at zero.
    """
    charged = set(charged_visit_ids)
    form = _Assembly(model)
    for grp in model.graph.groups:
        if grp.visit.id not in charged:
            continue
        form.row(
            f"lock_{_lp_name(grp.visit.id)}", "lock",
            ((model.x_of[gid], 1.0) for gid in grp.entering_edges
             if model.graph.edge(gid).kind != "source"),
            "<=", 0.0,
        )
    return model.extended(form)


# ---------------------------------------------------------------------------
# LP-format export


def _fmt(value: float) -> str:
    if value == math.inf:
        return "+inf"
    if value == -math.inf:
        return "-inf"
    return repr(float(value))


def _terms(coeffs: Iterable[Tuple[int, float]], variables: Sequence[Variable]) -> str:
    parts: List[str] = []
    for idx, coef in coeffs:
        if coef == 0.0:
            continue
        sign = "-" if coef < 0 else "+"
        parts.append(f"{sign} {_fmt(abs(coef))} {variables[idx].name}")
    if not parts:
        return "0 " + variables[0].name
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else text


def export_lp(model: MilpModel, path: str, name: str = "bebcharge") -> None:
    """Write the model in textual LP format (Minimize / Subject To / Bounds /
    Generals / End)."""
    lines: List[str] = [f"\\ {name}", "Minimize"]
    obj_terms = [(i, v.obj) for i, v in enumerate(model.variables) if v.obj != 0.0]
    lines.append(" obj: " + _terms(obj_terms, model.variables))
    lines.append("Subject To")
    sense_map = {"<=": "<=", ">=": ">=", "==": "="}
    for con in model.constraints:
        lines.append(
            f" {con.name}: {_terms(con.coeffs, model.variables)} "
            f"{sense_map[con.sense]} {_fmt(con.rhs)}"
        )
    lines.append("Bounds")
    for v in model.variables:
        if v.lb == v.ub:
            lines.append(f" {v.name} = {_fmt(v.lb)}")
        elif v.lb == -math.inf and v.ub == math.inf:
            lines.append(f" {v.name} free")
        else:
            lines.append(f" {_fmt(v.lb)} <= {v.name} <= {_fmt(v.ub)}")
    generals = [v.name for v in model.variables if v.is_integer]
    if generals:
        lines.append("Generals")
        for chunk in range(0, len(generals), 8):
            lines.append(" " + " ".join(generals[chunk : chunk + 8]))
    lines.append("End")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# plan extraction


@dataclass(frozen=True)
class ChargePlan:
    """A solved schedule on one grid.

    ``intervals`` are half-open step ranges (bus, charger type, k_start,
    k_end); ``gains`` maps (bus, step, charger type) to planned kWh; ``soc``
    maps bus id to its planned level at every instant; ``step_energy`` is the
    planned meter series.  ``cost_breakdown`` carries consumption, the two
    demand charges, and any auxiliary objective terms (edge costs, terminal
    error, soft-bound penalties).
    """

    t0_min: float
    delta_min: float
    n_steps: int
    intervals: Tuple[Tuple[str, str, int, int], ...]
    gains: Dict[Tuple[str, int, str], float]
    soc: Dict[str, np.ndarray]
    step_energy: np.ndarray
    objective_value: float
    cost_breakdown: Dict[str, float]
    status: str = "optimal"

    @property
    def total_cost(self) -> float:
        return (
            self.cost_breakdown["consumption"]
            + self.cost_breakdown["demand_base"]
            + self.cost_breakdown["demand_tou"]
        )

    def interval_minutes(self) -> List[Tuple[str, str, float, float]]:
        return [
            (
                bus_id,
                tid,
                self.t0_min + k0 * self.delta_min,
                self.t0_min + k1 * self.delta_min,
            )
            for bus_id, tid, k0, k1 in self.intervals
        ]


def window_averages(
    step_energy: Sequence[float],
    delta_min: float,
    window_minutes: float,
    history: Sequence[float] = (),
) -> np.ndarray:
    """Moving-window average power (kW) at every instant 0..len(series).

    The window ending at instant k covers the ``m`` whole steps before k plus
    a fractional share of the step before those when the step length does not
    divide the window; steps before 0 read from ``history`` (most recent
    last, zero beyond it).
    """
    e = np.asarray(step_energy, dtype=float)
    m, frac = _window_shape(window_minutes, delta_min)
    window_h = window_minutes / 60.0
    hist = list(history)

    def energy_at(k_prime: int) -> float:
        if k_prime >= 0:
            return float(e[k_prime])
        idx = len(hist) + k_prime
        if 0 <= idx < len(hist):
            return float(hist[idx])
        return 0.0

    out = np.zeros(len(e) + 1)
    for k in range(len(e) + 1):
        total = sum(energy_at(k_prime) for k_prime in range(k - m, k))
        if frac > 0.0:
            total += frac * energy_at(k - m - 1)
        out[k] = total / window_h
    return out


def extract_plan(
    model: MilpModel, assignment: np.ndarray, status: str = "optimal"
) -> ChargePlan:
    """Read a solution back into a :class:`ChargePlan`.

    The cost breakdown is recomputed from raw gains/energies (not from the
    epigraph variables) and must reproduce the assignment's objective value to
    1e-6, which guards the model's internal consistency.
    """
    inst = model.instance
    scenario = inst.scenario
    rates = scenario.rates
    K = inst.n_steps
    x = np.asarray(assignment, dtype=float)
    if x.shape != (model.n_variables,):
        raise ValueError(
            f"assignment has shape {x.shape}, expected {(model.n_variables,)}"
        )

    charging: Dict[Tuple[str, str], List[int]] = {}
    for (bus_id, k, tid), gid in model.graph.sigma.items():
        if x[model.x_of[gid]] > 0.5:
            charging.setdefault((bus_id, tid), []).append(k)
    intervals: List[Tuple[str, str, int, int]] = []
    for (bus_id, tid), ks in charging.items():
        ks.sort()
        start = prev = ks[0]
        for k in ks[1:]:
            if k == prev + 1:
                prev = k
                continue
            intervals.append((bus_id, tid, start, prev + 1))
            start = prev = k
        intervals.append((bus_id, tid, start, prev + 1))
    intervals.sort(key=lambda t: (t[2], t[0], t[1]))

    gains = {key: float(x[gi]) for key, gi in model.g_of.items()}
    soc = {
        bus.id: np.array([x[model.s_of[(bus.id, k)]] for k in range(K + 1)])
        for bus in scenario.buses
    }
    step_energy = np.array([x[model.e_of[k]] for k in range(K)])

    consumption = float(
        sum(inst.step_rate[k] * g for (bus_id, k, tid), g in gains.items())
    )
    p_vals = window_averages(
        step_energy,
        inst.delta_min,
        rates.demand_window_minutes,
        history=model.options.energy_history,
    )
    demand_base = float(rates.demand_base_per_kw * p_vals.max()) if len(p_vals) else 0.0
    tou_mask = inst.instant_in_peak
    if tou_mask.any():
        demand_tou = float(rates.demand_tou_per_kw * p_vals[tou_mask].max())
    else:
        demand_tou = 0.0

    auxiliary = 0.0
    for (_, role, *_), obj, x_i in zip(model.columns, model.c.tolist(), x):
        if role in ("flow", "terminal_err", "soc_slack") and obj != 0.0:
            auxiliary += obj * x_i
    objective = float(model.objective_vector() @ x)
    recomputed = consumption + demand_base + demand_tou + auxiliary
    if status != "infeasible" and abs(recomputed - objective) > 1e-6:
        raise ValueError(
            f"cost breakdown {recomputed} disagrees with objective {objective}"
        )

    return ChargePlan(
        t0_min=float(inst.t0_min),
        delta_min=float(inst.delta_min),
        n_steps=K,
        intervals=tuple(intervals),
        gains=gains,
        soc=soc,
        step_energy=step_energy,
        objective_value=objective,
        cost_breakdown={
            "consumption": consumption,
            "demand_base": demand_base,
            "demand_tou": demand_tou,
            "auxiliary": float(auxiliary),
        },
        status=status,
    )


def save_plan_csv(plan: ChargePlan, path: str) -> None:
    """Write charging intervals: bus,charger_type,start_min,end_min,kwh_gained."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("bus,charger_type,start_min,end_min,kwh_gained\n")
        for bus_id, tid, k0, k1 in plan.intervals:
            kwh = sum(
                plan.gains.get((bus_id, k, tid), 0.0) for k in range(k0, k1)
            )
            start = plan.t0_min + k0 * plan.delta_min
            end = plan.t0_min + k1 * plan.delta_min
            fh.write(f"{bus_id},{tid},{start!r},{end!r},{kwh!r}\n")


def save_plan_summary(plan: ChargePlan, path: str) -> None:
    """Write the cost summary as JSON."""
    doc = {
        "status": plan.status,
        "objective_value": plan.objective_value,
        "cost_breakdown": {k: plan.cost_breakdown[k] for k in sorted(plan.cost_breakdown)},
        "total_utility_cost": plan.total_cost,
        "n_intervals": len(plan.intervals),
        "grid": {
            "t0_min": plan.t0_min,
            "delta_min": plan.delta_min,
            "n_steps": plan.n_steps,
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")

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
with row bounds ``row_lo <= A x <= row_hi`` and row families, and the
columns as read-only arrays ``c``, ``lb``, ``ub``, an integrality mask and a
role code.  Each family is built whole, from index arrays, as (row, column,
value) entries plus row bounds, and all of them go into ``A`` in one step.
Names are made only when asked for: row names, column tags and the
``MilpModel.variables`` / ``MilpModel.constraints`` views (for LP export and
inspection) are built on first use.  The solver, the residual report, plan
extraction, the routing of charging runs and the appending helpers
(:func:`add_terminal_cost`, :func:`lock_charged_visits`) work on the arrays
alone.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from .charge_model import DiscreteChargeParams, discretize_params
from .graph import ActionGraph, flow_rhs, incidence_entries
from .scenario import DiscreteInstance, charging_params

__all__ = [
    "Variable",
    "LinearConstraint",
    "ModelOptions",
    "MilpModel",
    "ChargePlan",
    "COLUMN_ROLES",
    "SOC_BUFFER",
    "build_static_model",
    "add_terminal_cost",
    "lock_charged_visits",
    "export_lp",
    "extract_plan",
    "window_averages",
    "save_plan_csv",
    "save_plan_summary",
]

COLUMN_ROLES = (
    "flow", "soc", "gain", "energy", "window_power", "peak", "peak_tou",
    "soc_slack", "terminal_err",
)

# the usable charge band is narrowed by this share of capacity from both sides
SOC_BUFFER = 0.05


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

    ``fixed_rate`` forces full-rate charging whenever plugged in;
    ``linear_profile`` keeps variable-rate charging but drops the CV taper row.
    ``initial_soc_kwh`` overrides per-bus starting levels (receding horizon
    state); ``enforce_final_soc`` pins the last instant to the bus's final SOC
    (day plans only).  ``energy_history`` lists realized per-step meter energy
    for the steps immediately before the window (most recent last).
    """

    fixed_rate: bool = False
    linear_profile: bool = False
    enforce_final_soc: bool = True
    initial_soc_kwh: Optional[Dict[str, float]] = None
    energy_history: Tuple[float, ...] = ()
    soft_min_soc: bool = False
    soft_min_weight: float = 0.0


ColumnTag = Tuple[str, str, Optional[str], Optional[int], Optional[str]]


@dataclass(frozen=True, eq=False)
class MilpModel:
    """An assembled model in its stored form plus the index maps needed to
    read solutions back.

    Columns are the arrays ``c``, ``lb``, ``ub``, the integrality mask
    ``integer`` and ``role``, each column's index into
    :data:`COLUMN_ROLES`.  Rows are ``row_lo <= A x <= row_hi`` with ``A``
    in CSR, each row's entries in assembly order: an equality row has equal
    bounds, a one-sided row an infinite other bound.  ``row_family`` (an
    index into ``families``) labels the rows.  Every array is read-only.

    The flow block comes first, in edge order, so flow column j is action
    graph edge j: edge ids index the columns directly.  ``s_of`` and
    ``g_of`` map (bus, instant) and (bus, step, charger type) keys to their
    columns; ``e_of[k]`` and ``p_of[k]`` are the read-only arrays of the
    energy column of step k and the window-power column of instant k.

    Names are made on first use.  ``columns`` holds each column's (name,
    role, bus, step, charger type) and ``row_names`` each row's name; each
    assembled block contributes one function to ``column_labels`` or
    ``row_labels`` that returns its share of them in order.  ``variables``
    and ``constraints`` are views built on those.
    """

    c: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    integer: np.ndarray
    role: np.ndarray
    A: sp.csr_matrix
    row_lo: np.ndarray
    row_hi: np.ndarray
    row_family: np.ndarray
    families: Tuple[str, ...]
    column_labels: Tuple[Callable[[], List[ColumnTag]], ...]
    row_labels: Tuple[Callable[[], List[str]], ...]
    graph: ActionGraph
    options: ModelOptions
    s_of: Dict[Tuple[str, int], int]
    g_of: Dict[Tuple[str, int, str], int]
    e_of: np.ndarray
    p_of: np.ndarray
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
    def columns(self) -> Tuple[ColumnTag, ...]:
        return tuple(tag for labels in self.column_labels for tag in labels())

    @cached_property
    def row_names(self) -> Tuple[str, ...]:
        return tuple(name for labels in self.row_labels for name in labels())

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

    def columns_of(self, *roles: str) -> np.ndarray:
        """Indices of the columns with any of these roles, ascending."""
        return np.flatnonzero(np.isin(self.role, [COLUMN_ROLES.index(r) for r in roles]))

    def extended(self, appended: "_Assembly", **index_updates) -> "MilpModel":
        """Copy of the model with ``appended``'s rows and columns added
        after its own (never mutated)."""
        return dataclasses.replace(self, **appended.fields(), **index_updates)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _ragged(lengths) -> np.ndarray:
    """Row index of every entry of consecutive rows with these entry counts."""
    return np.repeat(np.arange(len(lengths)), lengths)


def _bounds(sense: str, rhs) -> Tuple[np.ndarray, np.ndarray]:
    """Row bounds ``(lo, hi)`` of one-sense rows with right-hand sides ``rhs``."""
    rhs = np.asarray(rhs, dtype=float)
    inf = np.full(rhs.shape, math.inf)
    if sense == "==":
        return rhs, rhs
    return (-inf, rhs) if sense == "<=" else (rhs, inf)


class _Assembly:
    """Column and row blocks to add to a model's stored form, in order.

    A column block is n columns of one role.  A row block is n rows given by
    their bounds and a list of entry parts ``(row, column, value)``, with the
    row counted within the block and scalars broadcast; each row's entries
    keep the order of the parts.  A block of several families names them in
    a tuple and gives each row's position in it as ``kind``.  Every block
    carries a labeler, a function returning its column tags or row names,
    which runs only when names are asked for.
    """

    def __init__(self, base: Optional[MilpModel] = None):
        self.base = base
        self.n_cols = base.n_variables if base is not None else 0
        self.n_rows = base.n_constraints if base is not None else 0
        self.families: List[str] = list(base.families) if base is not None else []
        self.col_blocks: List[Tuple[np.ndarray, ...]] = []  # c, lb, ub, integer, role
        self.row_blocks: List[Tuple[np.ndarray, ...]] = []  # family, lo, hi
        self.entries: Tuple[List[np.ndarray], ...] = ([], [], [])  # row, col, value
        self.column_labels: List[Callable[[], List[ColumnTag]]] = []
        self.row_labels: List[Callable[[], List[str]]] = []

    def cols(self, n: int, lb, ub, obj, role: str,
             labels: Callable[[], List[ColumnTag]], integer: bool = False) -> np.ndarray:
        """Append ``n`` columns; returns their indices."""
        self.col_blocks.append((
            _fill(obj, n, float), _fill(lb, n, float), _fill(ub, n, float),
            _fill(integer, n, bool), _fill(COLUMN_ROLES.index(role), n, np.int8),
        ))
        self.column_labels.append(labels)
        self.n_cols += n
        return np.arange(self.n_cols - n, self.n_cols)

    def rows(self, family, lo: np.ndarray, hi: np.ndarray,
             parts: Sequence[Tuple], labels: Callable[[], List[str]],
             kind: Optional[np.ndarray] = None) -> None:
        """Append ``len(lo)`` rows with entries from ``parts``."""
        names = (family,) if isinstance(family, str) else tuple(family)
        kind = np.zeros(len(lo), dtype=np.int64) if kind is None else kind
        for i, name in enumerate(names):
            if name not in self.families and (kind == i).any():
                self.families.append(name)
        fam = np.array([self.families.index(f) if f in self.families else -1 for f in names])
        self.row_blocks.append((fam[kind], lo, hi))
        for r, c, v in parts:
            r = np.asarray(r, dtype=np.int64)
            self.entries[0].append(r + self.n_rows)
            self.entries[1].append(_fill(c, len(r), np.int64))
            self.entries[2].append(_fill(v, len(r), float))
        self.row_labels.append(labels)
        self.n_rows += len(lo)

    def fields(self) -> Dict:
        """The stored-form fields of the base model (or of an empty one) with
        these blocks appended."""
        base = self.base

        def grown(attr, blocks, i, dtype=float):
            if base is not None and not blocks:
                return getattr(base, attr)  # read-only, so shared
            old = [getattr(base, attr)] if base is not None else []
            return _frozen(_concat(old + [b[i] for b in blocks], dtype))

        A0 = base.A if base is not None else sp.csr_matrix((0, 0))
        row, col, val = (_concat(part, dtype) for part, dtype in zip(
            self.entries, (np.int64, np.int64, float)))
        order = np.argsort(row, kind="stable")
        counts = np.bincount(row - A0.shape[0], minlength=self.n_rows - A0.shape[0])
        A = sp.csr_matrix(
            (_concat([A0.data, val[order]], float),
             _concat([A0.indices, col[order]], np.int64),
             _concat([A0.indptr, A0.nnz + np.cumsum(counts)], np.int64)),
            shape=(self.n_rows, self.n_cols),
        )
        for arr in (A.data, A.indices, A.indptr):
            _frozen(arr)
        return dict(
            c=grown("c", self.col_blocks, 0),
            lb=grown("lb", self.col_blocks, 1),
            ub=grown("ub", self.col_blocks, 2),
            integer=grown("integer", self.col_blocks, 3, bool),
            role=grown("role", self.col_blocks, 4, np.int8),
            A=A,
            row_lo=grown("row_lo", self.row_blocks, 1),
            row_hi=grown("row_hi", self.row_blocks, 2),
            row_family=grown("row_family", self.row_blocks, 0, np.int64),
            families=tuple(self.families),
            column_labels=(base.column_labels if base is not None else ())
            + tuple(self.column_labels),
            row_labels=(base.row_labels if base is not None else ()) + tuple(self.row_labels),
        )


def _fill(v, n: int, dtype) -> np.ndarray:
    """``v`` as an array of ``n`` entries, a scalar repeated."""
    return v.astype(dtype, copy=False) if isinstance(v, np.ndarray) else np.full(n, v, dtype)


def _concat(arrays, dtype) -> np.ndarray:
    arrays = [np.asarray(a, dtype=dtype) for a in arrays]
    return np.concatenate(arrays) if arrays else np.empty(0, dtype)


# ---------------------------------------------------------------------------
# names, made on first use


def _lp_name(raw: str) -> str:
    return "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in raw)


def _names(keys: Iterable[Tuple]) -> List[str]:
    """LP names ``prefix_part_part...`` of ``(prefix, part, ...)`` keys: string
    parts sanitized (each once per call), None parts left out."""
    clean: Dict[object, str] = {}
    out = []
    for prefix, *parts in keys:
        for part in parts:
            if part is not None:
                if part not in clean:
                    clean[part] = _lp_name(part) if isinstance(part, str) else str(part)
                prefix += "_" + clean[part]
        out.append(prefix)
    return out


def _tags(role: str, keys: Sequence[Tuple]) -> List[ColumnTag]:
    """Column tags of ``(prefix, bus, step, charger type)`` keys."""
    return [(name, role, *key[1:]) for name, key in zip(_names(keys), keys)]


# ---------------------------------------------------------------------------
# assembly


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
    """Assemble the full scheduling model over the graph's discretized
    window, one constraint family at a time."""
    inst = graph.instance
    scenario = inst.scenario
    rates = scenario.rates
    K = inst.n_steps
    buses = scenario.buses
    bus_ids = tuple(b.id for b in buses)
    n_bus = len(buses)
    form = _Assembly()

    # --- flow variables, one per edge: column j is edge j ------------------
    form.cols(
        graph.n_edges, 0.0, graph.edge_capacities(), graph.edge_costs, "flow",
        lambda: [(f"x{gid}", "flow", e.bus_id, e.k_from, sub.charger_type_id)
                 for gid, sub, e in graph.iter_edges()],
        integer=True,
    )

    # --- charge levels, bus by bus over instants 0..K -------------------------
    initial = options.initial_soc_kwh or {}
    band_lo = np.empty(n_bus)
    s_lb = np.empty((n_bus, K + 1))
    s_ub = np.empty((n_bus, K + 1))
    for j, bus in enumerate(buses):
        cap = bus.capacity_kwh
        lo = (bus.min_soc + SOC_BUFFER) * cap
        hi = (bus.max_soc - SOC_BUFFER) * cap
        if hi <= lo:
            raise ValueError(f"bus {bus.id}: SOC buffer leaves an empty band")
        band_lo[j] = lo
        s_lb[j] = 0.0 if options.soft_min_soc else lo
        s_ub[j] = hi
        if options.enforce_final_soc:
            s_lb[j, K] = s_ub[j, K] = bus.final_soc * cap
        s_lb[j, 0] = s_ub[j, 0] = initial.get(bus.id, bus.initial_soc * cap)
    s = form.cols(
        n_bus * (K + 1), s_lb.ravel(), s_ub.ravel(), 0.0, "soc",
        lambda: _tags("soc", [("s", b, k, None) for b in bus_ids for k in range(K + 1)]),
    ).reshape(n_bus, K + 1)
    s_of = {(b, k): i for b, row in zip(bus_ids, s.tolist()) for k, i in enumerate(row)}

    # --- gains, in (bus, step, charger type) order -----------------------------
    g_keys = tuple(sorted(graph.sigma))
    g_bus, g_k, g_tid = zip(*g_keys) if g_keys else ((), (), ())
    g_k = np.array(g_k, dtype=np.int64)
    g = form.cols(
        len(g_keys), 0.0, math.inf, inst.step_rate[g_k], "gain",
        lambda: _tags("gain", [("g", *key) for key in g_keys]),
    )
    g_of = dict(zip(g_keys, g.tolist()))

    # --- meter energy, window power and the two peaks ---------------------------
    e = form.cols(
        K, 0.0, math.inf, 0.0, "energy",
        lambda: _tags("energy", [("e", None, k, None) for k in range(K)]),
    )
    p = form.cols(
        K + 1, 0.0, math.inf, 0.0, "window_power",
        lambda: _tags("window_power", [("pD", None, k, None) for k in range(K + 1)]),
    )
    peak_idx = int(form.cols(
        1, 0.0, math.inf, rates.demand_base_per_kw, "peak",
        lambda: _tags("peak", [("p_max", None, None, None)]),
    )[0])
    peak_tou_idx = int(form.cols(
        1, 0.0, math.inf, rates.demand_tou_per_kw, "peak_tou",
        lambda: _tags("peak_tou", [("p_max_tou", None, None, None)]),
    )[0])

    # --- soft lower-bound slacks, bus by bus over instants 1..K ----------------------
    if options.soft_min_soc:
        slack = form.cols(
            n_bus * K, 0.0, math.inf, options.soft_min_weight, "soc_slack",
            lambda: _tags(
                "soc_slack", [("zmin", b, k, None) for b in bus_ids for k in range(1, K + 1)]
            ),
        )

    # --- flow balance, straight from each sub-graph's incidence matrix -------------
    subs = graph.subgraphs
    flow = [incidence_entries(sub) for sub in subs]
    form.rows(
        "flow", *_bounds("==", _concat(map(flow_rhs, subs), float)),
        [(sub.vertex_offset + vertex, sub.edge_offset + edge, sign)
         for sub, (vertex, edge, sign) in zip(subs, flow)],
        lambda: _names(
            ("flow", sub.charger_type_id, v) for sub in subs for v in range(sub.n_vertices)
        ),
    )

    # --- one plug-in per visit -------------------------------------------------------
    entering = [grp.entering_edges for grp in graph.groups]
    form.rows(
        "group", *_bounds("<=", np.ones(len(entering))),
        [(_ragged([len(ids) for ids in entering]), _concat(entering, np.int64), 1.0)],
        lambda: _names(("group", grp.visit.id) for grp in graph.groups),
    )

    # --- charge-level dynamics, row j*K + k for bus j and step k -----------------------
    # a step's gains are those of the first visit covering it, in its type order
    visits = inst.visits
    bus_index = {b: j for j, b in enumerate(bus_ids)}
    type_index = {ct.id: t for t, ct in enumerate(scenario.charger_types)}
    visit_at = np.full((n_bus, K), len(visits))  # len(visits) stands for none
    type_pos = np.full((len(visits) + 1, len(type_index)), -1)
    for v_i in range(len(visits) - 1, -1, -1):
        v = visits[v_i]
        visit_at[bus_index[v.bus_id], max(v.k_start, 0):max(v.k_end, 0)] = v_i
        for pos, tid in enumerate(v.charger_type_ids):
            type_pos[v_i, type_index[tid]] = pos
    g_j = np.array([bus_index[b] for b in g_bus], dtype=np.int64)
    g_t = np.array([type_index[t] for t in g_tid], dtype=np.int64)
    g_row = g_j * K + g_k
    g_pos = type_pos[visit_at[g_j, g_k], g_t]
    on = np.flatnonzero(g_pos >= 0)
    on = on[np.lexsort((g_pos[on], g_row[on]))]
    dyn = np.arange(n_bus * K)
    charging = (type_pos[visit_at] >= 0).any(axis=2)
    form.rows(
        "dynamics", *_bounds("==", np.where(charging, 0.0, -inst.discharge_kwh).ravel()),
        [(dyn, s[:, 1:].ravel(), 1.0), (dyn, s[:, :-1].ravel(), -1.0), (g_row[on], g[on], -1.0)],
        lambda: _names(("dyn", b, k) for b in bus_ids for k in range(K)),
    )

    # --- gain bounds, the rows of one gain together --------------------------------------
    if options.fixed_rate:
        gain_rows = (("gain_fix", "gfix"), ("gain_bigm", "gbig"))
    elif options.linear_profile:
        gain_rows = (("gain_cc", "gcc"), ("gain_bigm", "gbig"))
    else:
        gain_rows = (("gain_cc", "gcc"), ("gain_cv", "gcv"), ("gain_bigm", "gbig"))
    families, prefixes = zip(*gain_rows)
    params = {}
    for bus_id, _, tid in g_keys:
        if (bus_id, tid) not in params:
            bus = scenario.bus_by_id(bus_id)
            par = pair_discrete_params(bus, scenario.charger_by_id(tid), inst.delta_hours)
            params[(bus_id, tid)] = (par.b_bar_cc, par.a_bar_cv, par.b_bar_cv, bus.capacity_kwh)
    b_cc, a_cv, b_cv, cap = np.array(
        [params[(bus_id, tid)] for bus_id, _, tid in g_keys], dtype=float
    ).reshape(-1, 4).T
    edge = np.array([graph.sigma[key] for key in g_keys], dtype=np.int64)
    n_g, r = len(g_keys), len(gain_rows)
    first = np.arange(n_g) * r
    lo = np.full(n_g * r, -math.inf)
    hi = np.zeros(n_g * r)
    parts = [(np.arange(n_g * r), np.repeat(g, r), 1.0)]
    if options.fixed_rate:
        lo[first] = 0.0
        parts.append((first, edge, -b_cc))
    else:
        hi[first] = b_cc
        if not options.linear_profile:
            hi[first + 1] = b_cv
            parts.append((first + 1, s[g_j, g_k], -(a_cv - 1.0)))
    parts.append((first + r - 1, edge, -cap))
    form.rows(
        families, lo, hi, parts,
        lambda: _names((prefix, *key) for key in g_keys for prefix in prefixes),
        kind=np.tile(np.arange(r), n_g),
    )

    # --- meter aggregation ------------------------------------------------------------
    form.rows(
        "energy", *_bounds("==", inst.load_kwh), [(np.arange(K), e, 1.0), (g_k, g, -1.0)],
        lambda: _names(("energy", k) for k in range(K)),
    )

    # --- moving demand window and peaks: window, peak, peak_tou rows per instant ---------
    window_h = rates.demand_window_minutes / 60.0
    m, fracw = _window_shape(rates.demand_window_minutes, inst.delta_min)
    # only the windows ending at instants 0..m reach before step 0
    n_const = min(K, m)
    const = np.zeros(K + 1)
    const[: n_const + 1] = _window_energy(
        np.zeros(n_const), m, fracw, options.energy_history
    )

    in_peak = np.asarray(inst.instant_in_peak, dtype=bool)
    width = 2 + in_peak
    win = np.cumsum(width) - width  # each instant's window row
    tou = win[in_peak] + 2
    kind = np.ones(int(width.sum()), dtype=np.int64)
    kind[win] = 0
    kind[tou] = 2
    lo = np.zeros(len(kind))
    hi = np.full(len(kind), math.inf)
    lo[win] = hi[win] = const
    ks = np.arange(K + 1)
    parts = [(win, p, window_h)]
    # steps k-m..k-1 whole, then step k-m-1 by its fraction
    back = [(m - i, -1.0) for i in range(m)] + ([(m + 1, -fracw)] if fracw > 0.0 else [])
    for shift, weight in back:
        k_prime = ks - shift
        inside = k_prime >= 0
        parts.append((win[inside], e[k_prime[inside]], weight))
    parts += [
        (win + 1, peak_idx, 1.0), (win + 1, p, -1.0),
        (tou, peak_tou_idx, 1.0), (tou, p[in_peak], -1.0),
    ]
    form.rows(
        ("window", "peak", "peak_tou"), lo, hi, parts,
        lambda: _names(
            (prefix, k) for k, on_peak in enumerate(in_peak.tolist())
            for prefix in ("window", "peak", "peak_tou")[:2 + on_peak]
        ),
        kind=kind,
    )

    # --- soft lower bounds ---------------------------------------------------------------
    if options.soft_min_soc:
        rows = np.arange(n_bus * K)
        form.rows(
            "soft_min", *_bounds(">=", np.repeat(band_lo, K)),
            [(rows, s[:, 1:].ravel(), 1.0), (rows, slack, 1.0)],
            lambda: _names(("softmin", b, k) for b in bus_ids for k in range(1, K + 1)),
        )

    # column names are prefix-distinct by family; within one they clash only
    # when sanitized bus ids do, or gain tags do
    bus_tag = {b: _lp_name(b) for b in bus_ids}
    type_tag = {t: _lp_name(t) for t in type_index}
    if (len(set(bus_tag.values())) < n_bus
            or len({f"{bus_tag[b]}_{k}_{type_tag[t]}" for b, k, t in g_keys}) < len(g_keys)):
        raise ValueError("variable name collision after sanitization")

    return MilpModel(
        **form.fields(),
        graph=graph,
        options=options,
        s_of=s_of,
        g_of=g_of,
        e_of=_frozen(e),
        p_of=_frozen(p),
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
    bus_ids = tuple(targets)
    for bus_id in bus_ids:
        if (bus_id, K) not in model.s_of:
            raise KeyError(f"unknown bus {bus_id!r}")
    form = _Assembly(model)
    err = form.cols(
        len(bus_ids), 0.0, math.inf, weight, "terminal_err",
        lambda: _tags("terminal_err", [("err", b, None, None) for b in bus_ids]),
    )
    s_end = np.array([model.s_of[(bus_id, K)] for bus_id in bus_ids], dtype=np.int64)
    target = np.array([targets[bus_id] for bus_id in bus_ids], dtype=float)
    # per bus: err + s >= target, then err - s >= -target
    rows = np.arange(2 * len(bus_ids))
    form.rows(
        "terminal", *_bounds(">=", np.column_stack((target, -target)).ravel()),
        [(rows, np.repeat(err, 2), 1.0), (rows[0::2], s_end, 1.0), (rows[1::2], s_end, -1.0)],
        lambda: _names((side, b) for b in bus_ids for side in ("term_lo", "term_hi")),
    )
    return model.extended(
        form,
        err_of={**model.err_of, **dict(zip(bus_ids, err.tolist()))},
        terminal_targets={**model.terminal_targets, **dict(zip(bus_ids, target.tolist()))},
    )


def lock_charged_visits(model: MilpModel, charged_visit_ids: Iterable[str]) -> MilpModel:
    """Forbid entering flow into visits that already received their one charge.

    Source-side continuation edges are exempt so an in-progress charge that
    began before the lock can keep going; everything else entering the group is
    capped at zero.
    """
    charged = set(charged_visit_ids)
    graph = model.graph
    locked = [grp for grp in graph.groups if grp.visit.id in charged]
    cols = [
        [gid for gid in grp.entering_edges if graph.edge(gid).kind != "source"]
        for grp in locked
    ]
    form = _Assembly(model)
    form.rows(
        "lock", *_bounds("<=", np.zeros(len(locked))),
        [(_ragged([len(c) for c in cols]), _concat(cols, np.int64), 1.0)],
        lambda: _names(("lock", grp.visit.id) for grp in locked),
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
    m, frac = _window_shape(window_minutes, delta_min)
    return _window_energy(step_energy, m, frac, history) / (window_minutes / 60.0)


def _window_energy(
    series: Sequence[float], m: int, frac: float, history: Sequence[float]
) -> np.ndarray:
    """Energy in the demand window ending at every instant 0..len(series):
    the ``m`` whole steps before it plus ``frac`` of the step before those,
    summed oldest first; steps before 0 read from ``history`` (most recent
    last, zero beyond it)."""
    e = np.asarray(series, dtype=float)
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
        out[k] = total
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
        if x[gid] > 0.5:
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
    step_energy = x[model.e_of]

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

    aux = model.columns_of("flow", "terminal_err", "soc_slack")
    auxiliary = 0.0
    for obj, x_i in zip(model.c[aux].tolist(), x[aux]):
        if obj != 0.0:
            auxiliary += obj * x_i
    objective = float(model.c @ x)
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

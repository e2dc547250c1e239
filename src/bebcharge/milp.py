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
role code.  Each family is built whole, from index arrays, as a block of
(row, column, value) entries plus row bounds.  A model keeps its blocks and
makes the stored form from them on first read, in one pass: every column
block side by side, and one stable sort of every entry by row.  The
appending helpers (:func:`add_terminal_cost`, :func:`lock_charged_visits`)
take a model and return a new one with their blocks after its own; they read
none of its arrays, so a model appended to before it is first read is
assembled once, with all its blocks.  Names are made only when asked for:
row names, column tags and the ``MilpModel.variables`` /
``MilpModel.constraints`` views (for LP export and inspection) are built on
first use.  The solver, the residual report, plan extraction and the
routing of charging runs work on the arrays alone.
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
from .graph import CHARGE, SOURCE, ActionGraph, stable_argsort
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

# the roles whose objective terms a plan's cost breakdown calls auxiliary
_AUXILIARY = np.array([role in ("flow", "terminal_err", "soc_slack") for role in COLUMN_ROLES])


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


class _Stored:
    """One array of a model's stored form.  The first read of any of them
    assembles them all, in one pass over the model's blocks, and keeps them
    on the model."""

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, model, owner=None):
        if model is None:
            return self
        model.__dict__.update(model.blocks.fields())
        return model.__dict__[self.name]


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
    ``blocks`` holds the column and row blocks the model was assembled from;
    the arrays are made from them on first read.

    The flow block comes first, in edge order, so flow column j is action
    graph edge j: edge ids index the columns directly.  ``s_of`` and
    ``g_of`` map (bus, instant) and (bus, step, charger type) keys to their
    columns; ``e_of[k]`` and ``p_of[k]`` are the read-only arrays of the
    energy column of step k and the window-power column of instant k.

    Names are made on first use.  ``columns`` holds each column's (name,
    role, bus, step, charger type) and ``row_names`` each row's name; each
    assembled block contributes one function that returns its share of them
    in order.  ``variables`` and ``constraints`` are views built on those.
    """

    blocks: "_Assembly"
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

    c = _Stored()
    lb = _Stored()
    ub = _Stored()
    integer = _Stored()
    role = _Stored()
    A = _Stored()
    row_lo = _Stored()
    row_hi = _Stored()
    row_family = _Stored()

    @property
    def instance(self) -> DiscreteInstance:
        return self.graph.instance

    @property
    def families(self) -> Tuple[str, ...]:
        return tuple(self.blocks.families)

    @property
    def n_variables(self) -> int:
        return self.blocks.n_cols

    @property
    def n_constraints(self) -> int:
        return self.blocks.n_rows

    @cached_property
    def columns(self) -> Tuple[ColumnTag, ...]:
        return tuple(tag for labels in self.blocks.column_labels for tag in labels())

    @cached_property
    def row_names(self) -> Tuple[str, ...]:
        return tuple(name for labels in self.blocks.row_labels for name in labels())

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

    def extended(self, appended: "_Assembly", **index_updates) -> "MilpModel":
        """Copy of the model with ``appended``'s rows and columns added
        after its own (never mutated)."""
        return dataclasses.replace(self, blocks=appended, **index_updates)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _ragged(lengths) -> np.ndarray:
    """Row index of every entry of consecutive rows with these entry counts."""
    return np.repeat(np.arange(len(lengths)), lengths)


def _bounds(sense: str, rhs) -> Tuple[np.ndarray, np.ndarray]:
    """Row bounds ``(lo, hi)`` of one-sense rows with right-hand sides ``rhs``."""
    rhs = np.asarray(rhs, dtype=float)
    if sense == "==":
        return rhs, rhs
    inf = np.full(rhs.shape, math.inf)
    return (-inf, rhs) if sense == "<=" else (rhs, inf)


class _Assembly:
    """The column and row blocks of a model's stored form, in order.

    A column block is n columns of one role.  A row block is n rows given by
    their bounds and a list of entry parts ``(row, column, value)``, with the
    row counted within the block and scalars broadcast; each row's entries
    keep the order of the parts.  A block of several families names them in
    a tuple and gives each row's position in it as ``kind``.  Every block
    carries a labeler, a function returning its column tags or row names,
    which runs only when names are asked for.

    An assembly started from a model holds that model's blocks and adds its
    own after them; the model's own assembly is never changed.  Rows added
    after a model's rows give the same CSR as one stable sort of every
    block's entries by row, so :meth:`fields` builds a model's stored form in
    one pass however many blocks were appended to it.
    """

    def __init__(self, base: Optional[MilpModel] = None):
        prior = base.blocks if base is not None else None
        self.n_cols = prior.n_cols if prior else 0
        self.n_rows = prior.n_rows if prior else 0
        self.families: List[str] = list(prior.families) if prior else []
        # n, c, lb, ub, integer, role per column block (scalars or arrays);
        # family, lo, hi per row block
        self.col_blocks: List[Tuple] = list(prior.col_blocks) if prior else []
        self.row_blocks: List[Tuple[np.ndarray, ...]] = list(prior.row_blocks) if prior else []
        # each part's rows (counted in the model), columns and values
        self.entries: Tuple[List, ...] = (
            tuple(list(part) for part in prior.entries) if prior else ([], [], []))
        self.column_labels: List[Callable[[], List[ColumnTag]]] = (
            list(prior.column_labels) if prior else [])
        self.row_labels: List[Callable[[], List[str]]] = list(prior.row_labels) if prior else []

    def cols(self, n: int, lb, ub, obj, role: str,
             labels: Callable[[], List[ColumnTag]], integer: bool = False) -> np.ndarray:
        """Append ``n`` columns; returns their indices."""
        self.col_blocks.append((n, obj, lb, ub, integer, COLUMN_ROLES.index(role)))
        self.column_labels.append(labels)
        self.n_cols += n
        return np.arange(self.n_cols - n, self.n_cols)

    def rows(self, family, lo: np.ndarray, hi: np.ndarray,
             parts: Sequence[Tuple], labels: Callable[[], List[str]],
             kind: Optional[np.ndarray] = None) -> None:
        """Append ``len(lo)`` rows with entries from ``parts``."""
        if kind is None:  # one family
            if len(lo) and family not in self.families:
                self.families.append(family)
            fam = np.full(len(lo), self.families.index(family) if len(lo) else -1)
        else:
            used = np.bincount(kind, minlength=len(family)).tolist()
            for name, n in zip(family, used):
                if n and name not in self.families:
                    self.families.append(name)
            codes = [self.families.index(f) if f in self.families else -1 for f in family]
            fam = np.array(codes)[kind]
        self.row_blocks.append((fam, lo, hi))
        for r, c, v in parts:
            r = np.asarray(r, dtype=np.int64)
            self.entries[0].append(r + self.n_rows)
            self.entries[1].append(c)
            self.entries[2].append(v)
        self.row_labels.append(labels)
        self.n_rows += len(lo)

    def fields(self) -> Dict:
        """The stored-form arrays of every block, in order."""

        def stacked(blocks, i, dtype=float):
            return _frozen(_concat([b[i] for b in blocks], dtype))

        sizes = [b[0] for b in self.col_blocks]
        c, lb, ub, integer, role = (
            _frozen(_expand([b[i] for b in self.col_blocks], sizes, dtype))
            for i, dtype in enumerate((float, float, float, bool, np.int8), 1)
        )
        rows, cols, vals = self.entries
        row = _concat(rows, np.int64)
        sizes = [len(r) for r in rows]
        col = _expand(cols, sizes, np.int64)
        val = _expand(vals, sizes, float)
        order = stable_argsort(row, self.n_rows)
        # the index type scipy picks for these sizes, so it converts nothing
        index = np.int32 if max(len(row), self.n_rows, self.n_cols) < 2**31 else np.int64
        indptr = np.zeros(self.n_rows + 1, dtype=index)
        np.cumsum(np.bincount(row, minlength=self.n_rows), out=indptr[1:])
        A = sp.csr_matrix((val[order], col[order].astype(index), indptr),
                          shape=(self.n_rows, self.n_cols))
        for arr in (A.data, A.indices, A.indptr):
            _frozen(arr)
        return dict(
            c=c, lb=lb, ub=ub, integer=integer, role=role, A=A,
            row_lo=stacked(self.row_blocks, 1),
            row_hi=stacked(self.row_blocks, 2),
            row_family=stacked(self.row_blocks, 0, np.int64),
        )


def _expand(values: Sequence, sizes: Sequence[int], dtype) -> np.ndarray:
    """Consecutive blocks of ``sizes[i]`` entries: ``values[i]`` if it is an
    array, else that scalar repeated."""
    arrays = [isinstance(v, np.ndarray) for v in values]
    out = np.repeat(np.array([0 if a else v for a, v in zip(arrays, values)], dtype=dtype), sizes)
    start = 0
    for is_array, v, n in zip(arrays, values, sizes):
        if is_array:
            out[start:start + n] = v
        start += n
    return out


def _concat(arrays, dtype) -> np.ndarray:
    return np.concatenate(arrays).astype(dtype, copy=False) if arrays else np.empty(0, dtype)


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


def _ranks(ids: Sequence[str]) -> np.ndarray:
    """Each id's position in sorted order."""
    rank = np.empty(len(ids), dtype=np.int64)
    rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return rank


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

    # --- gains, in (bus, step, charger type) order: one per charge edge ------------
    type_ids = tuple(ct.id for ct in scenario.charger_types)
    charge = np.flatnonzero(graph.edge_kind == CHARGE)
    g_j, g_k, g_t = graph.edge_bus[charge], graph.edge_k_from[charge], graph.edge_type[charge]
    order = np.lexsort((_ranks(type_ids)[g_t], g_k, _ranks(bus_ids)[g_j]))
    edge = charge[order]  # each gain's charge edge
    g_j, g_k, g_t = g_j[order], g_k[order], g_t[order]
    g_keys = tuple(zip(map(bus_ids.__getitem__, g_j.tolist()), g_k.tolist(),
                       map(type_ids.__getitem__, g_t.tolist())))
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

    # --- flow balance, from the incidence matrix of every sub-graph at once ----------
    # +1 at each edge's begin vertex, -1 at its end vertex, by vertex and edge
    subs = graph.subgraphs
    n_v = graph.n_vertices
    ends = np.stack((_concat([sub.tail + sub.vertex_offset for sub in subs], np.int64),
                     _concat([sub.head + sub.vertex_offset for sub in subs], np.int64)),
                    axis=1).ravel()
    order = stable_argsort(ends, n_v)
    rhs = np.zeros(n_v)
    first = np.array([sub.vertex_offset for sub in subs], dtype=np.int64)
    count = np.array([sub.count for sub in subs], dtype=float)
    rhs[first] = count
    rhs[first + [sub.n_vertices - 1 for sub in subs]] = -count
    form.rows(
        "flow", *_bounds("==", rhs),
        [(ends[order], order // 2, np.where(order % 2 == 0, 1.0, -1.0))],
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
    type_index = {t: i for i, t in enumerate(type_ids)}
    visit_at = np.full((n_bus, K), len(visits))  # len(visits) stands for none
    type_pos = np.full((len(visits) + 1, len(type_index)), -1)
    for v_i in range(len(visits) - 1, -1, -1):
        v = visits[v_i]
        visit_at[bus_index[v.bus_id], max(v.k_start, 0):max(v.k_end, 0)] = v_i
        for pos, tid in enumerate(v.charger_type_ids):
            type_pos[v_i, type_index[tid]] = pos
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
    # each (bus, charger type) pairing's b_bar_cc, a_bar_cv, b_bar_cv and capacity
    pair = g_j * len(type_ids) + g_t
    params = np.zeros((n_bus * len(type_ids), 4))
    for code in np.unique(pair).tolist():
        bus, ct = buses[code // len(type_ids)], scenario.charger_types[code % len(type_ids)]
        par = pair_discrete_params(bus, ct, inst.delta_hours)
        params[code] = (par.b_bar_cc, par.a_bar_cv, par.b_bar_cv, bus.capacity_kwh)
    b_cc, a_cv, b_cv, cap = params[pair].T
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
        kind=np.arange(n_g * r) % r,
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
    # steps k-m..k-1 whole, then step k-m-1 by its fraction
    shift = np.arange(m, 0, -1)
    weight = np.full(m, -1.0)
    if fracw > 0.0:
        shift, weight = np.append(shift, m + 1), np.append(weight, -fracw)
    k_prime = np.arange(K + 1)[:, None] - shift
    at, back = np.nonzero(k_prime >= 0)  # by instant, then oldest step first
    parts = [
        (win, p, window_h),
        (win[at], e[k_prime[at, back]], weight[back]),
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
    # when sanitized bus ids do, or gain tags do.  A gain tag bus_step_type
    # whose bus and type tags hold no "_" splits back into its key, so then
    # only the bus tags can clash
    bus_tag = {b: _lp_name(b) for b in bus_ids}
    type_tag = {t: _lp_name(t) for t in type_ids}
    if len(set(bus_tag.values())) < n_bus or (
            any("_" in tag for tag in (*bus_tag.values(), *type_tag.values()))
            and len({f"{bus_tag[b]}_{k}_{type_tag[t]}" for b, k, t in g_keys}) < len(g_keys)):
        raise ValueError("variable name collision after sanitization")

    return MilpModel(
        blocks=form,
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
    if not locked:
        return model
    source = graph.edge_kind == SOURCE
    cols = [[gid for gid in grp.entering_edges if not source[gid]] for grp in locked]
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
    n = len(e) + 1
    # steps -m-1..-1 from the history, then the series: step k is ext[k + m + 1]
    hist = np.asarray(history, dtype=float)[max(len(history) - m - 1, 0):]
    ext = np.concatenate((np.zeros(m + 1 - len(hist)), hist, e))
    out = np.zeros(n)
    for i in range(m):
        out += ext[i + 1:i + 1 + n]
    if frac > 0.0:
        out += frac * ext[:n]
    return out


def _running_sum(terms: np.ndarray) -> float:
    """``0.0 + terms[0] + terms[1] + ...``, added in that order."""
    return float(np.cumsum(np.concatenate(([0.0], terms)))[-1])


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

    # charging runs: the charge edges carrying flow, by bus, type and step
    graph = model.graph
    charge = np.flatnonzero(graph.edge_kind == CHARGE)
    on = charge[x[charge] > 0.5]
    bus, tid, k = graph.edge_bus[on], graph.edge_type[on], graph.edge_k_from[on]
    order = np.lexsort((k, tid, bus))
    bus, tid, k = bus[order], tid[order], k[order]
    first = np.ones(len(k) + 1, dtype=bool)  # a run starts here, or the steps end
    first[1:-1] = (bus[1:] != bus[:-1]) | (tid[1:] != tid[:-1]) | (k[1:] != k[:-1] + 1)
    last = first[1:]
    first = first[:-1]
    bus_ids = [b.id for b in scenario.buses]
    type_ids = [g.charger_type_id for g in graph.subgraphs]
    intervals = sorted(
        ((bus_ids[b], type_ids[t], k0, k1 + 1) for b, t, k0, k1 in zip(
            bus[first].tolist(), tid[first].tolist(), k[first].tolist(), k[last].tolist())),
        key=lambda t: (t[2], t[0], t[1]),
    )

    role = model.role
    g_x = x[role == COLUMN_ROLES.index("gain")]
    gains = dict(zip(model.g_of, g_x.tolist()))
    soc = dict(zip(bus_ids, x[role == COLUMN_ROLES.index("soc")].reshape(len(bus_ids), K + 1)))
    step_energy = x[model.e_of]

    # sums run left to right from zero, as a Python sum over the terms would
    g_k = np.fromiter((key[1] for key in model.g_of), dtype=np.int64, count=len(g_x))
    consumption = _running_sum(inst.step_rate[g_k] * g_x)
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

    aux = _AUXILIARY[role] & (model.c != 0.0)
    auxiliary = _running_sum(model.c[aux] * x[aux])
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
            "auxiliary": auxiliary,
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

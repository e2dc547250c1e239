"""Row-by-row reference assembly of the day model.

The builder ``bebcharge.milp`` replaced, kept as the oracle for its stored
form: every column and row is appended one Python call at a time, with its
LP name built on the spot, exactly as the package did before it built whole
constraint families from index arrays.  ``reference_model`` returns the
stored-form arrays, names and index maps; ``reference_terminal_cost`` and
``reference_lock`` append to them as ``add_terminal_cost`` and
``lock_charged_visits`` do.  ``assert_same_stored_form`` and
``assert_same_highs_arrays`` compare a model with its reference.
"""

import math
from types import SimpleNamespace
from typing import Dict, Iterable, List, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse import coo_array, csc_array, vstack

from bebcharge import solver
from bebcharge.graph import flow_rhs, incidence_matrix
from bebcharge.milp import SOC_BUFFER, _window_shape, pair_discrete_params


def _lp_name(raw):
    return "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in raw)


class _Assembly:
    """Columns and rows to add to a model's stored form, in order."""

    def __init__(self, base=None):
        self.first_col = len(base.c) if base is not None else 0
        self.families: List[str] = list(base.families) if base is not None else []
        self.cols: List[Tuple] = []  # (obj, lb, ub, is_integer, column tags)
        self.rows: List[Tuple] = []  # (name, family index, lo, hi)
        self.indptr: List[int] = [0]
        self.indices: List[int] = []
        self.data: List[float] = []

    def col(self, name, lb, ub, obj, role, is_integer=False, bus_id=None, k=None, tid=None):
        self.cols.append((obj, lb, ub, is_integer, (name, role, bus_id, k, tid)))
        return self.first_col + len(self.cols) - 1

    def row(self, name, family, coeffs, sense, rhs):
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

    def arrays(self, base=None) -> Dict:
        obj, lb, ub, integer, tags = zip(*self.cols) if self.cols else ((),) * 5
        names, fam, lo, hi = zip(*self.rows) if self.rows else ((),) * 4
        A0 = base.A if base is not None else sp.csr_matrix((0, 0))

        def cat(old, new, dtype=float):
            return np.concatenate([np.asarray(old, dtype), np.asarray(new, dtype)])

        def grown(attr, new, dtype=float):
            return cat(getattr(base, attr) if base is not None else (), new, dtype)

        A = sp.csr_matrix(
            (cat(A0.data, self.data),
             cat(A0.indices, self.indices, np.int64),
             cat(A0.indptr[:-1], np.add(self.indptr, A0.nnz), np.int64)),
            shape=(A0.shape[0] + len(self.rows), self.first_col + len(self.cols)),
        )
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


def reference_model(graph, options):
    """The stored form of ``build_static_model(graph, options)``, assembled
    row by row."""
    inst = graph.instance
    scenario = inst.scenario
    rates = scenario.rates
    K = inst.n_steps
    delta_h = inst.delta_hours
    form = _Assembly()

    x_of = {}
    for gid, sub, e in graph.iter_edges():
        x_of[gid] = form.col(
            f"x{gid}", 0.0, float(e.capacity), float(graph.edge_costs[gid]), "flow",
            is_integer=True, bus_id=e.bus_id, k=e.k_from, tid=sub.charger_type_id,
        )

    initial = options.initial_soc_kwh or {}
    s_of = {}
    for bus in scenario.buses:
        cap = bus.capacity_kwh
        lo = (bus.min_soc + SOC_BUFFER) * cap
        hi = (bus.max_soc - SOC_BUFFER) * cap
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

    g_of = {}
    for (bus_id, k, tid) in sorted(graph.sigma.keys(), key=lambda t: (t[0], t[1], t[2])):
        g_of[(bus_id, k, tid)] = form.col(
            f"g_{_lp_name(bus_id)}_{k}_{_lp_name(tid)}", 0.0, math.inf,
            float(inst.step_rate[k]), "gain", bus_id=bus_id, k=k, tid=tid,
        )

    e_of = {k: form.col(f"e_{k}", 0.0, math.inf, 0.0, "energy", k=k) for k in range(K)}
    p_of = {
        k: form.col(f"pD_{k}", 0.0, math.inf, 0.0, "window_power", k=k)
        for k in range(K + 1)
    }
    peak_idx = form.col("p_max", 0.0, math.inf, float(rates.demand_base_per_kw), "peak")
    peak_tou_idx = form.col(
        "p_max_tou", 0.0, math.inf, float(rates.demand_tou_per_kw), "peak_tou"
    )

    slack_of = {}
    if options.soft_min_soc:
        for bus in scenario.buses:
            for k in range(1, K + 1):
                slack_of[(bus.id, k)] = form.col(
                    f"zmin_{_lp_name(bus.id)}_{k}", 0.0, math.inf,
                    float(options.soft_min_weight), "soc_slack", bus_id=bus.id, k=k,
                )

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

    for grp in graph.groups:
        form.row(
            f"group_{_lp_name(grp.visit.id)}", "group",
            ((x_of[gid], 1.0) for gid in grp.entering_edges), "<=", 1.0,
        )

    for j, bus in enumerate(scenario.buses):
        for k in range(K):
            types = inst.charging_types_at(bus.id, k)
            coeffs = [(s_of[(bus.id, k + 1)], 1.0), (s_of[(bus.id, k)], -1.0)]
            coeffs += [(g_of[(bus.id, k, tid)], -1.0) for tid in types]
            rhs = 0.0 if types else -float(inst.discharge_kwh[j, k])
            form.row(f"dyn_{_lp_name(bus.id)}_{k}", "dynamics", coeffs, "==", rhs)

    params_cache = {}
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

    gains_by_step = {}
    for (bus_id, k, tid), gi in g_of.items():
        gains_by_step.setdefault(k, []).append(gi)
    for k in range(K):
        coeffs = [(e_of[k], 1.0)] + [(gi, -1.0) for gi in gains_by_step.get(k, [])]
        form.row(f"energy_{k}", "energy", coeffs, "==", inst.load_kwh[k])

    window_h = rates.demand_window_minutes / 60.0
    m, fracw = _window_shape(rates.demand_window_minutes, inst.delta_min)
    history = options.energy_history

    def history_energy(k_prime):
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

    if options.soft_min_soc:
        for bus in scenario.buses:
            cap = bus.capacity_kwh
            lo = (bus.min_soc + SOC_BUFFER) * cap
            for k in range(1, K + 1):
                form.row(
                    f"softmin_{_lp_name(bus.id)}_{k}", "soft_min",
                    ((s_of[(bus.id, k)], 1.0), (slack_of[(bus.id, k)], 1.0)), ">=", lo,
                )

    names = [tags[0] for *_, tags in form.cols]
    if len(set(names)) != len(names):
        raise ValueError("variable name collision after sanitization")

    return SimpleNamespace(
        **form.arrays(), graph=graph, x_of=x_of, s_of=s_of, g_of=g_of, e_of=e_of,
        p_of=p_of, peak_idx=peak_idx, peak_tou_idx=peak_tou_idx, err_of={},
        terminal_targets={},
    )


def reference_terminal_cost(model, targets: Dict[str, float], weight: float):
    K = model.graph.instance.n_steps
    form = _Assembly(model)
    err_of = dict(model.err_of)
    terminal_targets = dict(model.terminal_targets)
    for bus_id, target in targets.items():
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
    return _replace(model, form, err_of=err_of, terminal_targets=terminal_targets)


def reference_lock(model, charged_visit_ids: Iterable[str]):
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
    return _replace(model, form)


def _replace(model, form, **updates):
    return SimpleNamespace(**{**vars(model), **form.arrays(model), **updates})


# ---------------------------------------------------------------------------
# comparisons


def assert_same_stored_form(model, ref):
    for name in ("c", "lb", "ub", "integer", "row_lo", "row_hi", "row_family"):
        got, want = getattr(model, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert model.A.shape == ref.A.shape
    for name in ("data", "indices", "indptr"):
        got, want = getattr(model.A, name), getattr(ref.A, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert model.row_names == ref.row_names
    assert model.columns == ref.columns
    assert model.families == ref.families
    # the reference appends one flow column per edge first, in edge order
    assert list(ref.x_of.items()) == [(gid, gid) for gid in range(ref.graph.n_edges)]
    for name in ("s_of", "g_of", "err_of", "terminal_targets"):
        assert list(getattr(model, name).items()) == list(getattr(ref, name).items()), name
    for name in ("e_of", "p_of"):
        got = getattr(model, name)
        assert got.dtype == np.int64, name
        assert list(enumerate(got.tolist())) == list(getattr(ref, name).items()), name
    assert (model.peak_idx, model.peak_tou_idx) == (ref.peak_idx, ref.peak_tou_idx)


def stacked_highs_arrays(ref):
    """What ``linprog`` hands HiGHS for the reference's rows: the split into
    ``A_ub`` (``>=`` rows negated) and ``A_eq``, stacked and converted to
    CSC, with the row bounds."""
    mats = solver._Matrices(ref)
    A = csc_array(vstack((coo_array(mats.A_ub), coo_array(mats.A_eq))))
    lower = np.concatenate((np.full(len(mats.b_ub), -math.inf), mats.b_eq))
    upper = np.concatenate((mats.b_ub, mats.b_eq))
    return A.indptr, A.indices, A.data, lower, upper


def assert_same_highs_arrays(model, ref):
    """The node LP's HiGHS input for ``model`` is the reference's, byte for
    byte."""
    lp = solver._NodeLp(model, model.lb, model.ub).lp
    start, index, value, lower, upper = stacked_highs_arrays(ref)
    assert np.array_equal(np.asarray(lp.a_matrix_.start_), start)
    assert np.array_equal(np.asarray(lp.a_matrix_.index_), index)
    for got, want in ((lp.a_matrix_.value_, value), (lp.row_lower_, lower),
                      (lp.row_upper_, upper), (lp.col_cost_, ref.c)):
        assert np.asarray(got, dtype=float).tobytes() == want.tobytes()

"""Model-assembly tests: row structure by hand, window arithmetic against an
independent interval-overlap integral and the window energy against its
per-instant loop, LP export round-trip plus a golden snapshot, plan
extraction from a hand-built feasible assignment, the stored form against
the row-by-row reference builder (read after every append, and read once
after deferred appends), names made only on demand, and the name-collision
check."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bebcharge import solver
from bebcharge.charge_model import discretize_params
from bebcharge.graph import build_action_graph
from bebcharge.milp import (
    ModelOptions,
    add_terminal_cost,
    build_static_model,
    export_lp,
    extract_plan,
    _window_energy,
    lock_charged_visits,
    window_averages,
)
from bebcharge.scenario import (
    ChargerType,
    GeneratorBounds,
    Scenario,
    ScheduleBlock,
    charging_params,
    discretize,
    generate_random_scenario,
)

from helpers import make_bus, mini_scenario, single_visit_scenario
from reference_milp import (
    assert_same_highs_arrays,
    assert_same_stored_form,
    reference_lock,
    reference_model,
    reference_terminal_cost,
)

GOLDEN = "tests/golden/tiny_model.lp"


def build(delta=5.0, options=ModelOptions(), scenario=None, **scen_kwargs):
    scenario = scenario or single_visit_scenario(**scen_kwargs)
    inst = discretize(scenario, delta)
    graph = build_action_graph(inst)
    return build_static_model(graph, options), graph, inst


def rows(model, family):
    return [c for c in model.constraints if c.family == family]


def row_named(model, name):
    matches = [c for c in model.constraints if c.name == name]
    assert len(matches) == 1, name
    return matches[0]


def coeff_map(model, con):
    return {model.variables[i].name: v for i, v in con.coeffs}


# ---------------------------------------------------------------------------
# structure


def test_variable_and_constraint_counts():
    model, graph, inst = build()
    K = inst.n_steps
    assert K == 12
    # x per edge, s per (bus, instant), g per availability triple, e per step,
    # p per instant, two peaks
    n_g = len(graph.sigma)
    assert n_g == 3  # visit 330-345 on a 5-minute grid: steps 6, 7, 8
    assert model.n_variables == graph.n_edges + (K + 1) + n_g + K + (K + 1) + 2
    assert len(rows(model, "flow")) == graph.n_vertices
    assert len(rows(model, "group")) == 1
    assert len(rows(model, "dynamics")) == K
    assert len(rows(model, "gain_cc")) == n_g
    assert len(rows(model, "gain_cv")) == n_g
    assert len(rows(model, "gain_bigm")) == n_g
    assert len(rows(model, "energy")) == K
    assert len(rows(model, "window")) == K + 1
    assert len(rows(model, "peak")) == K + 1
    # only the 06:00 instant falls inside the default on-peak windows
    assert len(rows(model, "peak_tou")) == 1
    assert row_named(model, "peak_tou_12")


def test_dynamics_rows():
    model, graph, inst = build()
    # step 0 is on route: s1 - s0 = -discharge
    con = row_named(model, "dyn_b1_0")
    assert con.sense == "=="
    assert coeff_map(model, con) == {"s_b1_1": 1.0, "s_b1_0": -1.0}
    assert con.rhs == pytest.approx(-30.0 * 5 / 60)
    # step 6 can charge: s7 - s6 - g = 0
    con = row_named(model, "dyn_b1_6")
    assert coeff_map(model, con) == {"s_b1_7": 1.0, "s_b1_6": -1.0, "g_b1_6_fast": -1.0}
    assert con.rhs == 0.0


def test_gain_rows_match_closed_forms():
    model, graph, inst = build()
    scen = inst.scenario
    par = discretize_params(
        charging_params(scen.buses[0], scen.charger_types[0]), inst.delta_hours
    )
    cc = row_named(model, "gcc_b1_6_fast")
    assert cc.sense == "<=" and cc.rhs == pytest.approx(par.b_bar_cc)
    assert coeff_map(model, cc) == {"g_b1_6_fast": 1.0}
    cv = row_named(model, "gcv_b1_6_fast")
    assert cv.rhs == pytest.approx(par.b_bar_cv)
    assert coeff_map(model, cv) == pytest.approx(
        {"g_b1_6_fast": 1.0, "s_b1_6": -(par.a_bar_cv - 1.0)}
    )
    big = row_named(model, "gbig_b1_6_fast")
    cm = coeff_map(model, big)
    assert cm["g_b1_6_fast"] == 1.0
    # the tie to the charge edge uses pack capacity as the big constant
    edge_var = model.variables[graph.sigma[("b1", 6, "fast")]]
    assert cm[edge_var.name] == -200.0
    assert big.rhs == 0.0


def test_gain_objective_uses_step_rates():
    model, _, inst = build()
    gi = model.g_of[("b1", 6, "fast")]
    assert model.variables[gi].obj == pytest.approx(float(inst.step_rate[6]))
    assert model.variables[model.peak_idx].obj == pytest.approx(4.81)
    assert model.variables[model.peak_tou_idx].obj == pytest.approx(13.92)


def test_soc_bounds_and_pins():
    model, _, inst = build()
    K = inst.n_steps
    v0 = model.variables[model.s_of[("b1", 0)]]
    assert v0.lb == v0.ub == pytest.approx(0.7 * 200)
    vK = model.variables[model.s_of[("b1", K)]]
    assert vK.lb == vK.ub == pytest.approx(0.7 * 200)
    mid = model.variables[model.s_of[("b1", 4)]]
    assert mid.lb == pytest.approx((0.3 + 0.05) * 200)
    assert mid.ub == pytest.approx((0.95 - 0.05) * 200)


def test_initial_override_and_open_final():
    opts = ModelOptions(enforce_final_soc=False, initial_soc_kwh={"b1": 99.0})
    model, _, inst = build(options=opts)
    v0 = model.variables[model.s_of[("b1", 0)]]
    assert v0.lb == v0.ub == 99.0
    vK = model.variables[model.s_of[("b1", inst.n_steps)]]
    assert vK.lb < vK.ub


def test_empty_soc_band_raises():
    with pytest.raises(ValueError, match="empty band"):
        build(min_soc=0.45, max_soc=0.55)


def test_fixed_rate_rows():
    model, graph, inst = build(options=ModelOptions(fixed_rate=True))
    assert not rows(model, "gain_cc") and not rows(model, "gain_cv")
    par = discretize_params(
        charging_params(inst.scenario.buses[0], inst.scenario.charger_types[0]),
        inst.delta_hours,
    )
    fix = row_named(model, "gfix_b1_6_fast")
    assert fix.sense == "=="
    cm = coeff_map(model, fix)
    assert cm["g_b1_6_fast"] == 1.0
    edge_var = model.variables[graph.sigma[("b1", 6, "fast")]]
    assert cm[edge_var.name] == pytest.approx(-par.b_bar_cc)


def test_linear_profile_drops_cv_rows():
    model, _, _ = build(options=ModelOptions(linear_profile=True))
    assert rows(model, "gain_cc") and not rows(model, "gain_cv")


def test_soft_min_soc_slacks():
    opts = ModelOptions(soft_min_soc=True, soft_min_weight=7.0, enforce_final_soc=False)
    model, _, inst = build(options=opts)
    K = inst.n_steps
    soft = rows(model, "soft_min")
    assert len(soft) == K  # instants 1..K
    con = row_named(model, "softmin_b1_3")
    assert con.sense == ">=" and con.rhs == pytest.approx(0.35 * 200)
    assert coeff_map(model, con) == {"s_b1_3": 1.0, "zmin_b1_3": 1.0}
    s3 = model.variables[model.s_of[("b1", 3)]]
    assert s3.lb == 0.0  # hard bound released in favor of the slack row
    z = [v for v in model.variables if v.role == "soc_slack"]
    assert len(z) == K and all(v.obj == 7.0 for v in z)


# ---------------------------------------------------------------------------
# demand windows


def test_window_rows_divisible_grid():
    model, _, _ = build(delta=5.0)
    assert model.window_m == 3 and model.window_frac == 0.0
    con = row_named(model, "window_5")
    assert coeff_map(model, con) == {"pD_5": 0.25, "e_2": -1.0, "e_3": -1.0, "e_4": -1.0}
    assert con.rhs == 0.0
    # near the window start the missing steps read as zero energy
    con = row_named(model, "window_1")
    assert coeff_map(model, con) == {"pD_1": 0.25, "e_0": -1.0}
    assert con.rhs == 0.0


def test_window_rows_fractional_grid():
    model, _, inst = build(delta=4.0)
    assert inst.n_steps == 15
    assert model.window_m == 3 and model.window_frac == pytest.approx(0.75)
    con = row_named(model, "window_5")
    assert coeff_map(model, con) == pytest.approx(
        {"pD_5": 0.25, "e_2": -1.0, "e_3": -1.0, "e_4": -1.0, "e_1": -0.75}
    )
    con = row_named(model, "window_3")
    assert coeff_map(model, con) == pytest.approx(
        {"pD_3": 0.25, "e_0": -1.0, "e_1": -1.0, "e_2": -1.0}
    )
    assert con.rhs == 0.0


def test_window_history_constants():
    opts = ModelOptions(energy_history=(1.0, 2.0, 3.0))
    model, _, _ = build(delta=4.0, options=opts)
    # window ending at step 0 covers only realized history
    con = row_named(model, "window_0")
    assert coeff_map(model, con) == {"pD_0": 0.25}
    assert con.rhs == pytest.approx(1.0 + 2.0 + 3.0 + 0.75 * 0.0)
    # two steps in, one history step plus the fractional one remain
    con = row_named(model, "window_2")
    assert coeff_map(model, con) == pytest.approx(
        {"pD_2": 0.25, "e_0": -1.0, "e_1": -1.0}
    )
    assert con.rhs == pytest.approx(3.0 + 0.75 * 2.0)


def exact_window_power(e, delta_min, window_minutes, history=()):
    """Independent check: integrate the piecewise-constant power profile over
    the trailing window with explicit interval overlaps."""
    steps = [(i * delta_min, (i + 1) * delta_min, kwh)
             for i, kwh in enumerate(list(history), start=-len(list(history)))]
    steps += [(i * delta_min, (i + 1) * delta_min, kwh) for i, kwh in enumerate(e)]
    out = []
    for k in range(len(e) + 1):
        lo, hi = k * delta_min - window_minutes, k * delta_min
        total = sum(
            kwh * max(0.0, min(hi, b) - max(lo, a)) / delta_min
            for a, b, kwh in steps
        )
        out.append(total / (window_minutes / 60.0))
    return np.array(out)


@pytest.mark.parametrize("delta", [3.0, 4.0, 5.0, 7.0])
def test_window_averages_against_overlap_integral(delta):
    rng = np.random.default_rng(11)
    e = rng.uniform(0.0, 8.0, size=14)
    history = tuple(rng.uniform(0.0, 8.0, size=6))
    got = window_averages(e, delta, 15.0, history=history)
    want = exact_window_power(e, delta, 15.0, history=history)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_window_averages_no_history():
    got = window_averages([4.0, 0.0, 0.0, 0.0], 15.0, 15.0)
    np.testing.assert_allclose(got, [0.0, 16.0, 0.0, 0.0, 0.0])


def loop_window_energy(series, m, frac, history):
    """The per-instant loop ``_window_energy`` replaced, kept as its
    reference: at each instant a Python sum over the ``m`` whole steps,
    oldest first, then ``frac`` of the step before them."""
    e = np.asarray(series, dtype=float)
    hist = list(history)

    def energy_at(k_prime):
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


energies = st.floats(-1e3, 1e3, allow_nan=False) | st.sampled_from([0.0, -0.0, 1e-300])


@settings(max_examples=300, deadline=None)
@given(
    series=st.lists(energies, max_size=30),
    m=st.integers(0, 12),
    frac=st.sampled_from([0.0, 0.5]) | st.floats(1e-9, 1.0, exclude_max=True),
    history=st.lists(energies, max_size=16),
)
def test_window_energy_matches_the_loop_reference(series, m, frac, history):
    got = _window_energy(series, m, frac, tuple(history))
    want = loop_window_energy(series, m, frac, history)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# model add-ons


def test_terminal_cost_rows():
    model, _, inst = build(options=ModelOptions(enforce_final_soc=False))
    K = inst.n_steps
    ext = add_terminal_cost(model, {"b1": 150.0}, weight=2.5)
    assert ext.n_variables == model.n_variables + 1
    err = ext.variables[ext.err_of["b1"]]
    assert err.obj == 2.5 and err.role == "terminal_err"
    lo = row_named(ext, "term_lo_b1")
    hi = row_named(ext, "term_hi_b1")
    assert coeff_map(ext, lo) == {"err_b1": 1.0, f"s_b1_{K}": 1.0}
    assert lo.sense == ">=" and lo.rhs == 150.0
    assert coeff_map(ext, hi) == {"err_b1": 1.0, f"s_b1_{K}": -1.0}
    assert hi.rhs == -150.0
    # the original model is untouched
    assert "err_b1" not in [v.name for v in model.variables]
    with pytest.raises(ValueError):
        add_terminal_cost(model, {"b1": 150.0}, weight=-1.0)
    with pytest.raises(KeyError):
        add_terminal_cost(model, {"ghost": 1.0}, weight=1.0)


def test_lock_excludes_continuation_edges():
    scenario = single_visit_scenario(visit_start=330, visit_end=345)
    inst = discretize(scenario, 5.0, t0_min=335)
    graph = build_action_graph(inst, attachments=(("b1", "fast"),))
    model = build_static_model(graph, ModelOptions(enforce_final_soc=False))
    visit_id = graph.groups[0].visit.id
    locked = lock_charged_visits(model, [visit_id])
    lock = rows(locked, "lock")
    assert len(lock) == 1
    assert lock[0].sense == "<=" and lock[0].rhs == 0.0
    locked_edge_kinds = {locked.graph.edge(i).kind for i, _ in lock[0].coeffs}
    assert "source" not in locked_edge_kinds
    assert locked_edge_kinds == {"transition"}
    # unknown ids simply lock nothing
    assert len(rows(lock_charged_visits(model, ["nope"]), "lock")) == 0


# ---------------------------------------------------------------------------
# a tiny fully hand-checked instance


def tiny_model():
    """60-minute day on a 15-minute grid: route for two steps, one charging
    step, one idle step; charging must restore the 15 kWh spent."""
    model, graph, inst = build(delta=15.0)
    assert inst.n_steps == 4
    assert list(graph.sigma.keys()) == [("b1", 2, "fast")]
    return model, graph, inst


def feasible_assignment(model, graph):
    x = np.zeros(model.n_variables)
    for gid, sub, e in graph.iter_edges():
        on = (
            e.kind == "source"
            or (e.kind == "rest" and e.k_from == 0)
            or (e.kind == "transition" and e.k_to == 2)  # step in
            or e.kind == "charge"
            or (e.kind == "transition" and e.k_from == 3)  # step out
            or (e.kind == "sink" and e.bus_id is None)
        )
        if on:
            x[gid] = 1.0
    for k, s in enumerate([140.0, 132.5, 125.0, 140.0, 140.0]):
        x[model.s_of[("b1", k)]] = s
    x[model.g_of[("b1", 2, "fast")]] = 15.0
    for k, e_k in enumerate([0.0, 0.0, 15.0, 0.0]):
        x[model.e_of[k]] = e_k
    for k, p_k in enumerate([0.0, 0.0, 0.0, 60.0, 0.0]):
        x[model.p_of[k]] = p_k
    x[model.peak_idx] = 60.0
    x[model.peak_tou_idx] = 0.0
    return x


def assert_assignment_feasible(model, x, tol=1e-9):
    assert (x >= model.lb - tol).all() and (x <= model.ub + tol).all()
    for con in model.constraints:
        lhs = sum(coef * x[i] for i, coef in con.coeffs)
        if con.sense == "==":
            assert abs(lhs - con.rhs) <= tol, con.name
        elif con.sense == "<=":
            assert lhs <= con.rhs + tol, con.name
        else:
            assert lhs >= con.rhs - tol, con.name


def test_hand_assignment_is_feasible():
    model, graph, _ = tiny_model()
    x = feasible_assignment(model, graph)
    assert_assignment_feasible(model, x)


def test_extract_plan_from_hand_assignment():
    model, graph, inst = tiny_model()
    x = feasible_assignment(model, graph)
    plan = extract_plan(model, x)
    assert plan.intervals == (("b1", "fast", 2, 3),)
    assert plan.interval_minutes() == [("b1", "fast", 330.0, 345.0)]
    assert plan.gains[("b1", 2, "fast")] == pytest.approx(15.0)
    np.testing.assert_allclose(plan.soc["b1"], [140.0, 132.5, 125.0, 140.0, 140.0])
    np.testing.assert_allclose(plan.step_energy, [0.0, 0.0, 15.0, 0.0])
    assert plan.cost_breakdown["consumption"] == pytest.approx(15 * 0.026216)
    assert plan.cost_breakdown["demand_base"] == pytest.approx(4.81 * 60.0)
    assert plan.cost_breakdown["demand_tou"] == 0.0
    assert plan.cost_breakdown["auxiliary"] == 0.0
    assert plan.objective_value == pytest.approx(15 * 0.026216 + 4.81 * 60.0)
    assert plan.total_cost == pytest.approx(plan.objective_value)


def test_extract_plan_rejects_inconsistent_peak():
    model, graph, _ = tiny_model()
    x = feasible_assignment(model, graph)
    x[model.peak_idx] = 75.0  # feasible but not cost-consistent
    with pytest.raises(ValueError, match="disagrees"):
        extract_plan(model, x)


def test_extract_plan_shape_guard():
    model, _, _ = tiny_model()
    with pytest.raises(ValueError, match="shape"):
        extract_plan(model, np.zeros(3))


def test_split_intervals_are_reported_separately():
    # charging on steps 6 and 8 but not 7 must yield two distinct intervals
    # (extract_plan reads the assignment as-is; only cost consistency is checked)
    model, graph, inst = build(delta=5.0)
    x = np.zeros(model.n_variables)
    for bus in inst.scenario.buses:
        for k in range(inst.n_steps + 1):
            x[model.s_of[(bus.id, k)]] = 140.0
    for k in (6, 8):
        x[graph.sigma[("b1", k, "fast")]] = 1.0
        x[model.g_of[("b1", k, "fast")]] = 10.0
        x[model.e_of[k]] = 10.0
    # windows: 3 whole 5-minute steps; the largest ends at instant 9 (e6 + e8)
    x[model.peak_idx] = 20.0 / 0.25
    plan = extract_plan(model, x)
    assert plan.intervals == (("b1", "fast", 6, 7), ("b1", "fast", 8, 9))
    assert plan.cost_breakdown["demand_base"] == pytest.approx(4.81 * 80.0)


# ---------------------------------------------------------------------------
# LP export


def test_lp_export_round_trip(tmp_path):
    model, graph, _ = tiny_model()
    path = tmp_path / "m.lp"
    export_lp(model, str(path))
    from lp_reader import read_lp

    parsed = read_lp(str(path))
    want_obj = {v.name: v.obj for v in model.variables if v.obj != 0.0}
    assert parsed.objective == pytest.approx(want_obj)
    assert set(parsed.constraints) == {c.name for c in model.constraints}
    sense_map = {"<=": "<=", ">=": ">=", "==": "="}
    for con in model.constraints:
        coeffs, sense, rhs = parsed.constraints[con.name]
        want = {}
        for i, coef in con.coeffs:
            if coef != 0.0:
                want[model.variables[i].name] = want.get(model.variables[i].name, 0.0) + coef
        assert coeffs == pytest.approx(want), con.name
        assert sense == sense_map[con.sense]
        assert rhs == pytest.approx(con.rhs)
    for v in model.variables:
        assert parsed.bounds[v.name] == (v.lb, v.ub)
    assert parsed.generals == [v.name for v in model.variables if v.is_integer]


def test_lp_export_golden_snapshot(tmp_path):
    model, _, _ = tiny_model()
    path = tmp_path / "m.lp"
    export_lp(model, str(path))
    with open(path, "rb") as fh:
        fresh = fh.read()
    with open(GOLDEN, "rb") as fh:
        frozen = fh.read()
    assert fresh == frozen


def test_model_arrays_are_read_only():
    # callers share the stored arrays: a write must not reach a frozen model
    model, _, _ = tiny_model()
    for arr in (model.lb, model.ub, model.c, model.integer, model.e_of, model.p_of,
                model.A.data):
        with pytest.raises(ValueError):
            arr[0] = arr[0] + 1


# ---------------------------------------------------------------------------
# the family-by-family build against the row-by-row reference


@st.composite
def model_cases(draw):
    """A day (mini or generated with 1-4 buses), a grid window, and model
    options; the graph sometimes carries edge costs and attachments."""
    if draw(st.booleans()):
        scenario = mini_scenario(draw(st.integers(0, 10_000)))
        t0 = scenario.day_start_min + draw(st.sampled_from([0, 0, 15, 30]))
        t_end = None
    else:
        bounds = GeneratorBounds(n_buses=draw(st.integers(1, 4)))
        scenario = generate_random_scenario(draw(st.integers(0, 10_000)), bounds)
        t0 = draw(st.integers(scenario.day_start_min, scenario.day_end_min - 120))
        t_end = min(t0 + draw(st.integers(60, 240)), scenario.day_end_min)
    window = draw(st.sampled_from([15, 16, 20]))
    scenario = dataclasses.replace(
        scenario, rates=dataclasses.replace(scenario.rates, demand_window_minutes=window)
    )
    if draw(st.booleans()):
        # list each visit's charger types against their sorted order
        scenario = dataclasses.replace(scenario, buses=tuple(
            dataclasses.replace(bus, schedule=tuple(
                dataclasses.replace(block, charger_type_ids=block.charger_type_ids[::-1])
                for block in bus.schedule
            ))
            for bus in scenario.buses
        ))
    inst = discretize(scenario, draw(st.sampled_from([3.0, 5.0])), t0_min=t0, t_end_min=t_end)
    pairs = [(b.id, ct.id) for b in scenario.buses for ct in scenario.charger_types]
    attachments = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2))
    graph = build_action_graph(inst, attachments=tuple(attachments))
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        costs = np.where(rng.random(graph.n_edges) < 0.3, -rng.uniform(0, 2, graph.n_edges), 0.0)
        graph = dataclasses.replace(graph, edge_costs=costs)
    buses = [b.id for b in scenario.buses]
    soft = draw(st.booleans())
    initial = draw(st.dictionaries(st.sampled_from(buses), st.floats(60.0, 300.0), max_size=2))
    options = ModelOptions(
        fixed_rate=draw(st.booleans()),
        linear_profile=draw(st.booleans()),
        enforce_final_soc=draw(st.booleans()),
        initial_soc_kwh=initial or None,
        energy_history=tuple(draw(st.lists(st.floats(0.0, 40.0), max_size=8))),
        soft_min_soc=soft,
        soft_min_weight=draw(st.floats(0.5, 50.0)) if soft else 0.0,
    )
    targets = draw(st.dictionaries(st.sampled_from(buses), st.floats(50.0, 300.0), min_size=1))
    weight = draw(st.floats(0.0, 20.0))
    visit_ids = [grp.visit.id for grp in graph.groups] + ["no-such-visit"]
    locked = draw(st.lists(st.sampled_from(visit_ids), unique=True))
    return graph, options, targets, weight, locked


@settings(max_examples=60, deadline=None)
@given(case=model_cases())
def test_family_build_matches_row_by_row_reference(case):
    graph, options, targets, weight, locked = case
    model = build_static_model(graph, options)
    ref = reference_model(graph, options)
    assert_same_stored_form(model, ref)
    model = add_terminal_cost(model, targets, weight)
    ref = reference_terminal_cost(ref, targets, weight)
    assert_same_stored_form(model, ref)
    model = lock_charged_visits(model, locked)
    ref = reference_lock(ref, locked)
    assert_same_stored_form(model, ref)
    assert_same_highs_arrays(model, ref)

    # the appends read nothing of the model they extend, so a model whose
    # stored form was never read gets its arrays in one pass, on first read
    built = build_static_model(graph, options)
    deferred = lock_charged_visits(add_terminal_cost(built, targets, weight), locked)
    assert not {"A", "c", "row_lo"} & set(vars(built))
    assert_same_stored_form(deferred, ref)
    assert_same_highs_arrays(deferred, ref)


def test_names_are_built_only_on_demand():
    opts = ModelOptions(soft_min_soc=True, soft_min_weight=7.0, enforce_final_soc=False)
    model, graph, inst = build(options=opts)
    model = add_terminal_cost(model, {"b1": 140.0}, weight=2.0)
    model = lock_charged_visits(model, ["no-such-visit"])
    sol = solver.branch_and_bound(model)
    plan = extract_plan(model, sol.assignment)
    assert plan.intervals
    assert solver.build_warm_start(model, plan.intervals) is not None
    lazy = ("columns", "row_names", "variables", "constraints")
    assert not set(lazy) & set(vars(model))
    assert model.variables[model.peak_idx].name == "p_max"
    assert {"columns", "variables"} <= set(vars(model))
    assert "row_names" not in vars(model)


def two_bus_scenario(first, second):
    """Bus ``first[0]`` charges at step 1 on type ``first[1]``, bus
    ``second[0]`` at step 2 on type ``second[1]`` (15-minute grid)."""
    buses = []
    for (bus_id, type_id), (a, b) in ((first, (315, 330)), (second, (330, 345))):
        blocks = [
            ScheduleBlock("on_route", 300, a, route_power_kw=20.0),
            ScheduleBlock("in_station", a, b, charger_type_ids=(type_id,)),
        ]
        buses.append(make_bus(bus_id=bus_id, schedule=blocks))
    types = sorted({first[1], second[1]})
    return Scenario(
        day_start_min=300, day_end_min=360, buses=tuple(buses),
        charger_types=tuple(ChargerType(t, 1, 120.0, 2.0, "stn") for t in types),
    )


@pytest.mark.parametrize(
    "first, second",
    [(("b-1", "fast"), ("b_1", "fast")), (("b", "2_x"), ("b_1", "x"))],
    ids=["bus_ids", "across_fields"],
)
def test_name_collision_after_sanitization_raises(first, second):
    graph = build_action_graph(discretize(two_bus_scenario(first, second), 15.0))
    with pytest.raises(ValueError, match="variable name collision after sanitization"):
        build_static_model(graph)
    with pytest.raises(ValueError, match="variable name collision after sanitization"):
        reference_model(graph, ModelOptions())


def test_distinct_names_after_sanitization_build():
    # the same layout with ids that stay apart once sanitized
    graph = build_action_graph(discretize(two_bus_scenario(("b", "2_x"), ("c_1", "x")), 15.0))
    names = [v.name for v in build_static_model(graph).variables]
    assert "g_b_1_2_x" in names and "g_c_1_2_x" in names
    assert len(set(names)) == len(names)

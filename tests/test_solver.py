"""Solver tests: certified LP relaxations, warm node LPs against linprog,
branch and bound against the exhaustive and HiGHS oracles, pseudocost
branching, routing charging runs to flows, the primal heuristic, limits, and
determinism."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.optimize._highspy._core import HighsModelStatus
from scipy.optimize._linprog_highs import _highs_to_scipy_status_message
from scipy.optimize._linprog_util import _check_result

from bebcharge import solver
from bebcharge.benchmarks import four_bus_day
from bebcharge.graph import build_action_graph
from bebcharge.milp import ModelOptions, add_terminal_cost, build_static_model, extract_plan
from bebcharge.scenario import GeneratorBounds, discretize, generate_random_scenario
from bebcharge.solver import (
    SolveLimits,
    branch_and_bound,
    build_warm_start,
    solve_lp,
    validate_solution,
)

from bruteforce import brute_force_best, combo_count
from helpers import mini_scenario, single_visit_scenario, two_type_scenario
from test_milp import feasible_assignment, tiny_model
from test_perfbench_bindings import load_benchmark_module

EXACT = SolveLimits(mip_gap=0.0)


def mini_model(seed, enforce_final=True, terminal_weight=None, attachments=(), t0=None):
    scenario = mini_scenario(seed)
    inst = discretize(scenario, 15.0, t0_min=t0)
    graph = build_action_graph(inst, attachments=attachments)
    model = build_static_model(
        graph, ModelOptions(enforce_final_soc=enforce_final)
    )
    if terminal_weight is not None:
        targets = {b.id: 0.7 * b.capacity_kwh for b in scenario.buses}
        model = add_terminal_cost(model, targets, terminal_weight)
    return model


# ---------------------------------------------------------------------------
# LP relaxation


def test_solve_lp_tiny_model_certified():
    model, graph, _ = tiny_model()
    res = solve_lp(model)
    assert res.status == "optimal"
    assert res.certified, res.certificate
    # the 15 kWh of charging is forced; so is the single demand window holding it
    assert res.objective == pytest.approx(15 * 0.026216 + 4.81 * 60.0)
    assert res.certificate["duality_gap"] <= 1e-6


def test_solve_lp_bound_override():
    model, graph, _ = tiny_model()
    lb = model.lb
    gi = model.g_of[("b1", 2, "fast")]
    # forbid charging entirely: the final-level pin becomes unreachable
    ub = model.ub.copy()
    ub[gi] = 0.0
    res = solve_lp(model, lb, ub)
    assert res.status == "infeasible"
    assert res.x is None and res.objective == math.inf


def test_solve_lp_relaxation_below_integer_optimum():
    model = mini_model(3, enforce_final=True)
    lp = solve_lp(model)
    mip = branch_and_bound(model, EXACT)
    if mip.status == "infeasible":
        assert lp.status == "infeasible"
    else:
        assert lp.status == "optimal" and lp.certified
        assert lp.objective <= mip.objective + 1e-9


# ---------------------------------------------------------------------------
# node LPs: one HiGHS model per search, solved warm, each answer as good as a
# fresh linprog's


def linprog_reference(mats, lb, ub, method="highs"):
    res = linprog(
        mats.c,
        A_ub=mats.A_ub,
        b_ub=mats.b_ub,
        A_eq=mats.A_eq,
        b_eq=mats.b_eq,
        bounds=np.column_stack([lb, ub]),
        method=method,
    )
    return res.status, res.fun, res.x


def assert_same_lp_answer(got, want):
    status, fun, x = got
    assert status == want[0]
    if status == 0:
        assert fun == want[1]
        assert np.array_equal(x, want[2])
    else:
        assert x is None and want[2] is None


def assert_lp_answer_as_good(got, want, mats, lb, ub):
    """The node-LP contract: the status of a fresh ``linprog``, an objective
    within 1e-9 relative of its ``fun``, and an ``x`` that passes
    ``linprog``'s own check of a returned point."""
    status, fun, x = got
    assert status == want[0]
    if status != 0:
        assert x is None and want[2] is None
        return
    assert abs(fun - want[1]) <= 1e-9 * max(1.0, abs(want[1]))
    checked, message = _check_result(
        x, fun, 0, mats.b_ub - mats.A_ub @ x, mats.b_eq - mats.A_eq @ x,
        np.column_stack([lb, ub]), 1e-9, "", None,
    )
    assert checked == 0, message


def node_kind(lb, ub, lb0, ub0, int_idx):
    if np.array_equal(lb, lb0) and np.array_equal(ub, ub0):
        return "root"
    if np.array_equal(lb[int_idx], ub[int_idx]):
        return "fixed"  # the primal heuristic's frozen integer block
    return "down" if np.any(ub < ub0) else "up"


def generated_two_bus_model():
    scenario = generate_random_scenario(0, GeneratorBounds(n_buses=2))
    return build_static_model(build_action_graph(discretize(scenario, 5.0)))


def bundled_day_model():
    return build_static_model(build_action_graph(discretize(four_bus_day(), 5.0)))


@pytest.mark.parametrize(
    "make, kinds",
    [
        (lambda: tiny_model()[0], {"root"}),
        (bundled_day_model, {"root", "down", "up", "fixed"}),
        (generated_two_bus_model, {"root", "down", "up", "fixed"}),
    ],
    ids=["tiny", "four_bus_day", "generated_2bus"],
)
def test_node_lp_matches_linprog(monkeypatch, make, kinds):
    model = make()
    seen = []
    real_solve = solver._NodeLp.solve

    def spy(self, lb, ub):
        out = real_solve(self, lb, ub)
        seen.append((lb.copy(), ub.copy(), out))
        return out

    monkeypatch.setattr(solver._NodeLp, "solve", spy)
    branch_and_bound(model, SolveLimits(mip_gap=0.0, max_nodes=8))
    monkeypatch.undo()

    # every LP of the search's warm sequence against a fresh, cold linprog
    mats = solver._Matrices(model)
    lb0, ub0 = model.lb, model.ub
    int_idx = np.flatnonzero(model.integer)
    assert {node_kind(lb, ub, lb0, ub0, int_idx) for lb, ub, _ in seen} == kinds
    for lb, ub, got in seen:
        assert_lp_answer_as_good(got, linprog_reference(mats, lb, ub), mats, lb, ub)

    # no charging at all cannot restore the final levels; the model answers
    # the root alike before and after that infeasible solve
    no_charge = ub0.copy()
    no_charge[list(model.g_of.values())] = 0.0
    lp = solver._NodeLp(model, lb0, ub0)
    root = linprog_reference(mats, lb0, ub0)
    assert_lp_answer_as_good(lp.solve(lb0, ub0), root, mats, lb0, ub0)
    assert lp.solve(lb0, no_charge)[0] == 2
    assert_lp_answer_as_good(
        lp.solve(lb0, no_charge), linprog_reference(mats, lb0, no_charge), mats, lb0, no_charge
    )
    assert_lp_answer_as_good(lp.solve(lb0, ub0), root, mats, lb0, ub0)


def test_node_lp_retries_on_a_fresh_dual_simplex(monkeypatch):
    model = bundled_day_model()
    mats = solver._Matrices(model)
    lb0, ub0 = model.lb, model.ub
    lp = solver._NodeLp(model, lb0, ub0)
    real_run = solver._NodeLp._run
    runs = []

    def first_run_fails(self, highs, lb, ub):
        runs.append(highs)
        out = real_run(self, highs, lb, ub)
        return (4, math.nan, None) if len(runs) == 1 else out

    monkeypatch.setattr(solver._NodeLp, "_run", first_run_fails)
    got = lp.solve(lb0, ub0)
    assert len(runs) == 2 and runs[1] is not lp.highs
    assert_same_lp_answer(got, linprog_reference(mats, lb0, ub0, method="highs-ds"))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_rows=st.integers(1, 40), n_cols=st.integers(1, 40),
       density=st.floats(0.0, 0.6))
def test_permuted_csc_matches_scipy(seed, n_rows, n_cols, density):
    # a random CSR with explicit zeros and rows in any column order, its rows
    # split into one-sided (scaled by +-1) and equality rows
    rng = np.random.default_rng(seed)
    dense = np.where(rng.random((n_rows, n_cols)) < density, rng.normal(size=(n_rows, n_cols)), 0.0)
    dense[rng.random((n_rows, n_cols)) < 0.05] = -0.0
    rows, cols = np.nonzero((dense != 0.0) | np.signbit(dense))
    shuffled = np.lexsort((rng.random(len(rows)), rows))
    A = sp.csr_matrix((dense[rows, cols][shuffled], cols[shuffled],
                       np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n_rows))))),
                      shape=(n_rows, n_cols))
    ineq = np.flatnonzero(rng.random(n_rows) < 0.5)
    eq = np.setdiff1d(np.arange(n_rows), ineq)
    sign = np.where(rng.random(len(ineq)) < 0.5, 1.0, -1.0)
    B = A[np.concatenate((ineq, eq))]
    B.data *= np.repeat(np.concatenate((sign, np.ones(len(eq)))), np.diff(B.indptr))
    B.sum_duplicates()
    B = B.tocsc()
    start, index, value = solver._permuted_csc(A, ineq, sign, eq)
    assert start.tolist() == B.indptr.tolist() and index.tolist() == B.indices.tolist()
    assert value.tobytes() == B.data.tobytes()


def test_permuted_csc_rejects_a_repeated_entry():
    A = sp.csr_matrix((np.array([1.0, 2.0]), np.array([0, 0]), np.array([0, 2])), shape=(1, 1))
    with pytest.raises(solver.SolverError, match="holds a column twice"):
        solver._permuted_csc(A, np.array([0]), np.array([1.0]), np.array([], dtype=np.int64))


@pytest.mark.parametrize(
    "status", [*HighsModelStatus.__members__.values(), None], ids=str
)
def test_node_lp_status_map_matches_linprog(status):
    assert solver._lp_status(status) == _highs_to_scipy_status_message(status, "")[0]


# ---------------------------------------------------------------------------
# branch and bound vs. exhaustive enumeration


@pytest.mark.parametrize("seed", range(6))
def test_bnb_matches_bruteforce(seed):
    model = mini_model(seed, enforce_final=True)
    assert combo_count(model) <= 2500
    want_obj, want_combo = brute_force_best(model)
    got = branch_and_bound(model, EXACT)
    if math.isinf(want_obj):
        assert got.status == "infeasible"
        return
    assert got.status == "optimal"
    assert got.objective == pytest.approx(want_obj, abs=1e-6)
    assert validate_solution(model, got.assignment)["ok"]
    assert got.bound <= got.objective + 1e-9
    assert got.gap <= 1e-9


@pytest.mark.parametrize("seed", [10, 11, 12])
def test_bnb_matches_bruteforce_terminal_cost(seed):
    model = mini_model(seed, enforce_final=False, terminal_weight=0.5)
    want_obj, _ = brute_force_best(model)
    got = branch_and_bound(model, EXACT)
    assert not math.isinf(want_obj)  # soft terminal keeps everything feasible
    assert got.status == "optimal"
    assert got.objective == pytest.approx(want_obj, abs=1e-6)


def test_bnb_matches_bruteforce_with_continuation():
    # window opens mid-visit with the bus already plugged in
    scenario = single_visit_scenario(
        visit_start=330, visit_end=360, day_end=420, initial=0.5, final=0.55
    )
    attachments = (("b1", "fast"),)
    inst = discretize(scenario, 15.0, t0_min=345)
    graph = build_action_graph(inst, attachments=attachments)
    model = build_static_model(graph, ModelOptions(enforce_final_soc=True))
    want_obj, want_combo = brute_force_best(model, attachments=attachments)
    got = branch_and_bound(model, EXACT)
    assert got.status == "optimal"
    assert got.objective == pytest.approx(want_obj, abs=1e-6)
    # charging must begin at the window start: only the continuation edge
    # reaches the first step, and waiting would lose the cheap slot
    plan = extract_plan(model, got.assignment)
    assert any(k0 == 0 for _, _, k0, _ in plan.intervals)


def test_bnb_respects_charger_capacity():
    # two buses, one fast charger, fully overlapping visits: runs cannot overlap
    from bebcharge.scenario import Bus, ChargerType, Scenario, ScheduleBlock

    blocks = lambda: (
        ScheduleBlock("on_route", 300, 330, route_power_kw=30.0),
        ScheduleBlock("in_station", 330, 390, charger_type_ids=("fast",)),
        ScheduleBlock("on_route", 390, 420, route_power_kw=30.0),
    )
    buses = tuple(
        Bus(
            id=f"b{j}",
            capacity_kwh=200.0,
            eta=1.0,
            initial_soc=0.7,
            final_soc=0.7,
            min_soc=0.3,
            max_soc=0.95,
            schedule=blocks(),
        )
        for j in (1, 2)
    )
    scenario = Scenario(
        day_start_min=300,
        day_end_min=420,
        buses=buses,
        charger_types=(ChargerType("fast", 1, 120.0, 2.0, "stn"),),
    )
    inst = discretize(scenario, 15.0)
    graph = build_action_graph(inst)
    model = build_static_model(graph, ModelOptions())
    want_obj, _ = brute_force_best(model)
    got = branch_and_bound(model, EXACT)
    assert got.status == "optimal"
    assert got.objective == pytest.approx(want_obj, abs=1e-6)
    plan = extract_plan(model, got.assignment)
    # with connect/disconnect steps counted, concurrent use never exceeds one
    busy = np.zeros(inst.n_steps)
    for bus_id, tid, k0, k1 in plan.intervals:
        for k in range(max(0, k0 - 1), min(inst.n_steps, k1 + 1)):
            busy[k] += 1
    assert busy.max() <= 1


# ---------------------------------------------------------------------------
# routing charging runs to flow columns


def fixed_integer_bounds(model, ws):
    int_idx = np.flatnonzero(model.integer)
    lb, ub = model.lb.copy(), model.ub.copy()
    lb[int_idx] = ub[int_idx] = ws[int_idx]
    return lb, ub


def test_warm_start_rejects_unrealizable_intervals():
    model = mini_model(4, enforce_final=False, terminal_weight=0.5)
    # no such charge step exists at k = 0 (buses start on route)
    assert build_warm_start(model, [("m1", "fast", 0, 1)]) is None
    assert build_warm_start(model, [("m1", "ghost", 2, 3)]) is None


def test_warm_start_ignored_when_it_cannot_be_completed():
    # one bus on both charger types in the same steps: each run routes on its
    # own sub-graph, but the visit takes one plug-in, so fixing the routed
    # flows leaves no feasible completion, and the completion on the
    # search's own LP rejects them
    model = build_static_model(build_action_graph(discretize(two_type_scenario(), 5.0)))
    ws = build_warm_start(model, [("b1", "fast", 7, 8), ("b1", "slow", 7, 8)])
    assert ws is not None
    assert solve_lp(model, *fixed_integer_bounds(model, ws)).status == "infeasible"
    lp = solver._NodeLp(model, model.lb, model.ub)
    int_idx = np.flatnonzero(model.integer)
    assert solver._complete_integers(lp, model, model.lb, model.ub, ws, int_idx) is None


# ---------------------------------------------------------------------------
# limits, statuses, determinism


def branching_seed():
    """First corpus seed whose exact solve needs more than one LP."""
    for seed in range(20):
        model = mini_model(seed, enforce_final=True)
        sol = branch_and_bound(model, EXACT)
        if sol.status == "optimal" and sol.nodes_explored > 1:
            return seed, model
    raise AssertionError("no branching instance in the corpus")


def test_node_limit_reports_partial_result():
    seed, model = branching_seed()
    limited = branch_and_bound(model, SolveLimits(mip_gap=0.0, max_nodes=1))
    assert limited.nodes_explored == 1
    assert limited.status in ("unknown", "feasible")
    assert limited.bound <= branch_and_bound(model, EXACT).objective + 1e-9


def test_improvement_log_lines():
    seed, model = branching_seed()
    lines = []
    sol = branch_and_bound(model, EXACT, on_improvement=lines.append)
    assert sol.status == "optimal"
    assert lines, "an optimal solve must report at least one incumbent"
    rows = [line.split(",") for line in lines]
    assert all(len(r) == 5 for r in rows)
    incumbents = [float(r[2]) for r in rows]
    # each reported incumbent strictly improves on the previous one
    assert all(b < a for a, b in zip(incumbents, incumbents[1:]))
    assert incumbents[-1] == pytest.approx(sol.objective, rel=1e-6)
    for r in rows:
        time_s, nodes, inc, bound, gap = map(float, r)
        assert time_s >= 0.0
        assert nodes == int(nodes) and 0 <= nodes <= sol.nodes_explored
        assert bound <= inc + 1e-9
        assert gap >= -1e-12


def test_improvement_log_reports_warm_start():
    # a fractional root whose LP-guided heuristic schedule (runs read off the
    # root, routed by build_warm_start) costs more than the root bound
    model = mini_model(10, enforce_final=True)
    root = solve_lp(model)
    int_idx = np.flatnonzero(model.integer)
    assert not solver._is_integral(root.x, int_idx)
    lb, ub = model.lb, model.ub
    schedule = solver._lp_guided_incumbent(
        solver._NodeLp(model, lb, ub), model, lb, ub, root.x, int_idx
    )
    assert schedule is not None
    completed = solve_lp(model, *fixed_integer_bounds(model, schedule))
    assert completed.status == "optimal"
    assert completed.objective > root.objective + 1.0
    lines = []
    branch_and_bound(model, EXACT, on_improvement=lines.append)
    first = lines[0].split(",")
    assert int(first[1]) == 1  # logged after the root, before any branching
    # the heuristic's schedule, to the log's nine significant digits
    assert float(first[2]) == pytest.approx(completed.objective, rel=1e-8)


def test_infeasible_when_target_unreachable():
    # the route drains more than the single visit can restore
    scenario = single_visit_scenario(
        visit_start=330,
        visit_end=345,
        day_end=420,
        route_power=90.0,
        charger_power=20.0,
        initial=0.7,
        final=0.9,
        max_soc=0.99,
    )
    inst = discretize(scenario, 15.0)
    graph = build_action_graph(inst)
    model = build_static_model(graph, ModelOptions())
    sol = branch_and_bound(model, EXACT)
    assert sol.status == "infeasible"
    assert sol.assignment is None and math.isinf(sol.objective)
    want_obj, want_combo = brute_force_best(model)
    assert math.isinf(want_obj) and want_combo is None


def test_determinism_across_repeat_solves():
    model_a = mini_model(7, enforce_final=True)
    model_b = mini_model(7, enforce_final=True)
    sol_a = branch_and_bound(model_a, EXACT)
    sol_b = branch_and_bound(model_b, EXACT)
    assert sol_a.status == sol_b.status
    assert sol_a.nodes_explored == sol_b.nodes_explored
    if sol_a.assignment is not None:
        assert np.array_equal(sol_a.assignment, sol_b.assignment)
        assert sol_a.objective == sol_b.objective


def test_search_repeats_with_another_search_in_between():
    # each node LP starts from the basis the solve before it left, so a
    # search must depend only on its own solves: another model's search in
    # between changes nothing
    model = bundled_day_model()
    limits = SolveLimits(mip_gap=0.0, max_nodes=60)
    first = branch_and_bound(model, limits)
    other = branch_and_bound(generated_two_bus_model(), SolveLimits(max_nodes=20))
    assert other.nodes_explored > 1
    again = branch_and_bound(model, limits)
    assert first.nodes_explored == again.nodes_explored > 1
    assert (first.status, first.objective, first.bound, first.gap) == (
        again.status, again.objective, again.bound, again.gap
    )
    assert first.assignment.tobytes() == again.assignment.tobytes()


# ---------------------------------------------------------------------------
# branch and bound vs. HiGHS' own branch and cut on small generated days


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    hours=st.integers(3, 6),
    initial_soc=st.sampled_from([0.7, 0.8, 0.9]),
    final_soc=st.sampled_from([0.5, 0.6, 0.7]),
    max_nodes=st.integers(1, 6),
)
def test_bnb_matches_the_highs_oracle_on_small_generated_days(
    seed, hours, initial_soc, final_soc, max_nodes
):
    bounds = GeneratorBounds(
        n_buses=2, day_end_min=300 + 60 * hours, initial_soc=initial_soc, final_soc=final_soc
    )
    model = build_static_model(
        build_action_graph(discretize(generate_random_scenario(seed, bounds), 15.0))
    )
    want = load_benchmark_module("oracle").mip_oracle(model)
    assert want.status in ("optimal", "infeasible")
    got = branch_and_bound(model, EXACT)
    assert got.status == want.status
    if want.status == "optimal":
        assert abs(got.objective - want.primal) <= 1e-9 * max(1.0, abs(want.primal))
        assert validate_solution(model, got.assignment)["ok"]
    # a node-limited search proves no more than the optimum
    limited = branch_and_bound(model, SolveLimits(mip_gap=0.0, max_nodes=max_nodes))
    assert limited.bound <= want.primal + 1e-9 * max(1.0, abs(want.primal))


def row_walk_report(model, x):
    """Worst violation per family, bound and integrality violation, walked
    over the row and column views the way
    ``test_milp.assert_assignment_feasible`` checks them."""
    families = {}
    for con in model.constraints:
        lhs = sum(coef * x[i] for i, coef in con.coeffs)
        if con.sense == "==":
            viol = abs(lhs - con.rhs)
        elif con.sense == "<=":
            viol = max(0.0, lhs - con.rhs)
        else:
            viol = max(0.0, con.rhs - lhs)
        families[con.family] = max(families.get(con.family, 0.0), viol)
    bound = max(max(0.0, v.lb - x[i], x[i] - v.ub) for i, v in enumerate(model.variables))
    integral = max(
        (abs(x[i] - round(x[i])) for i, v in enumerate(model.variables) if v.is_integer),
        default=0.0,
    )
    return families, bound, integral


@settings(max_examples=60, deadline=None)
@given(
    moves=st.lists(
        st.tuples(st.integers(min_value=0), st.floats(-200.0, 200.0)), max_size=6
    )
)
def test_validate_solution_flags_violations(moves):
    model, graph, _ = tiny_model()
    x = feasible_assignment(model, graph)
    assert validate_solution(model, x)["ok"]
    x[model.g_of[("b1", 2, "fast")]] = 999.0
    report = validate_solution(model, x)
    assert not report["ok"]
    assert report["families"]["gain_cc"] > 900.0
    x2 = feasible_assignment(model, graph)
    x2[graph.sigma[("b1", 2, "fast")]] = 0.4
    report2 = validate_solution(model, x2)
    assert report2["max_integrality_violation"] == pytest.approx(0.4)
    assert not report2["ok"]

    # a perturbed hand assignment: the sparse report matches a row walk
    x3 = feasible_assignment(model, graph)
    for i, delta in moves:
        x3[i % model.n_variables] += delta
    report3 = validate_solution(model, x3)
    families, bound, integral = row_walk_report(model, x3)
    close = lambda v: pytest.approx(v, rel=1e-12, abs=1e-12)
    assert list(report3["families"]) == list(families)
    for family, worst in families.items():
        assert report3["families"][family] == close(worst), family
    assert report3["max_constraint_violation"] == close(max(families.values()))
    assert report3["max_bound_violation"] == close(bound)
    assert report3["max_integrality_violation"] == close(integral)
    assert report3["ok"] == (max(max(families.values()), bound, integral) <= 1e-6)


def branch_variable_loop(x, int_idx, children):
    """Pseudocost branching walked column by column, the reference for
    ``solver._branch_variable``.  ``children`` lists every solved or
    infeasible child so far as ``(side, col, frac, parent, child)``, with
    ``child`` None for an infeasible one, which shows no increase."""
    gains = {}  # (side, col) -> per-unit increases, in observation order
    every = ([], [])  # per side, all columns' increases in observation order
    for side, col, frac, parent, child in children:
        if child is None:
            continue
        gain = max(child - parent, 0.0) / (frac if side == 0 else 1.0 - frac)
        gains.setdefault((side, col), []).append(gain)
        every[side].append(gain)
    means = []
    for seen in every:
        total = 0.0
        for gain in seen:
            total += gain
        means.append(total / len(seen) if seen else 1.0)
    best, best_score = None, -math.inf
    for col in int_idx:
        frac = x[col] - math.floor(x[col])
        if min(frac, 1.0 - frac) <= solver._INT_TOL:
            continue
        unit = []
        for side in (0, 1):
            seen = gains.get((side, int(col)), [])
            total = 0.0
            for gain in seen:
                total += gain
            unit.append(total / len(seen) if seen else means[side])
        score = max(unit[0] * frac, 1e-6) * max(unit[1] * (1.0 - frac), 1e-6)
        if score > best_score or (score == best_score and col < best):
            best, best_score = int(col), score
    return best


# values on the integrality tolerance, exact ties and near-ties within 1e-12
BRANCH_VALUES = st.one_of(
    st.integers(-3, 3).map(float),
    st.sampled_from([1e-6, 1.0 - 1e-6, 1.5e-6, 2.0 + 9e-7]),
    st.tuples(
        st.integers(-2, 2),
        st.sampled_from([0.5, 0.25, 0.75, 0.3, 0.7]),
        st.sampled_from([0.0, 5e-13, -5e-13, 1e-12, -1e-12, 1.5e-12, -2e-12]),
    ).map(lambda t: t[0] + t[1] + t[2]),
    st.floats(-5.0, 5.0, allow_nan=False),
)

# a child's objective increase over its parent's: none, tiny (where the
# score's 1e-6 floor decides), tied, or a decrease (counted as none)
CHILD_INCREASES = st.one_of(
    st.none(),  # infeasible
    st.sampled_from([0.0, 1.0, 2.5, -1e-12, -0.5, 1e-9, 1e-5, 1e-4]),
    st.floats(0.0, 100.0, allow_nan=False),
)


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(BRANCH_VALUES, min_size=1, max_size=12),
    data=st.data(),
)
def test_branch_variable_matches_the_column_walk(values, data):
    x = np.array(values)
    cols = data.draw(st.lists(st.sampled_from(range(x.size)), unique=True, min_size=1))
    int_idx = np.array(sorted(cols) if data.draw(st.booleans()) else cols, dtype=np.int64)
    # children of earlier branches on some of the columns (others stay unseen)
    children = data.draw(st.lists(st.tuples(
        st.sampled_from((0, 1)),
        st.sampled_from(cols),
        st.sampled_from([0.5, 0.25, 0.75, 1e-3, 1.0 - 1e-3]),
        st.sampled_from([0.0, 100.0, 2611.874534666668]),
        CHILD_INCREASES,
    ), max_size=10))
    children = [(side, col, frac, parent, None if rise is None else parent + rise)
                for side, col, frac, parent, rise in children]
    costs = solver._Pseudocosts(x.size)
    for child in children:
        costs.record(*child)
    assert solver._branch_variable(x, int_idx, costs) == branch_variable_loop(x, int_idx, children)


def test_pseudocosts_count_a_child_below_its_parent_as_no_increase():
    costs = solver._Pseudocosts(2)
    costs.record(0, 0, 0.5, 100.0, 99.5)  # below the parent: no increase
    costs.record(0, 0, 0.5, 100.0, 101.0)  # 1.0 over half a unit
    costs.record(1, 1, 0.25, 100.0, None)  # infeasible: not counted
    assert costs.sum[0].tolist() == [2.0, 0.0] and costs.count[0].tolist() == [2, 0]
    assert costs.count[1].tolist() == [0, 0]
    assert costs.total == [2.0, 0.0] and costs.n == [2, 0]

"""Top-level acceptance suite.

Nine numbered criteria, each implemented as one test that prints a single
``[criterion N] PASS/FAIL`` line (emitted with capture suspended so the lines
reach the real stdout even under pytest's default fd-level capture).
Tolerances and runtime budgets are asserted inside the tests themselves.
"""

import contextlib
import math
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from bebcharge.benchmarks import four_bus_day
from bebcharge.charge_model import (
    continuous_params,
    discretize_params,
    gain_upper_bound,
    ideal_gain_bound,
    max_gain_error,
    simulate_exact,
    step_size_for_error,
    switching_point,
)
from bebcharge.graph import Edge, Vertex, build_action_graph, incidence_matrix
from bebcharge.milp import (
    ModelOptions,
    add_terminal_cost,
    build_static_model,
    extract_plan,
    save_plan_csv,
    save_plan_summary,
)
from bebcharge.scenario import discretize
from bebcharge.simulation import (
    NoiseParams,
    billing_oracle,
    monte_carlo,
    nominal_plan,
    save_report_json,
    save_run_trajectory_csv,
    simulate_run,
)
from bebcharge.solver import SolveLimits, branch_and_bound

from bruteforce import brute_force_best
from helpers import flat_rates, mini_scenario, single_visit_scenario, subgraph_of

EXACT = SolveLimits(mip_gap=0.0)


_CAPTURE = None


@pytest.fixture(autouse=True)
def _passthrough_capture(capfd):
    """Expose the active capture fixture so ``criterion`` can suspend it."""
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def criterion(n: int, ok: bool, text: str) -> None:
    line = f"[criterion {n}] {'PASS' if ok else 'FAIL'} - {text}"
    ctx = _CAPTURE.disabled() if _CAPTURE is not None else contextlib.nullcontext()
    with ctx:
        sys.stdout.write(line + "\n")
        sys.stdout.flush()
    assert ok, line


# ---------------------------------------------------------------------------
# shared instances


@pytest.fixture(scope="module")
def desk():
    """The bundled four-bus benchmark day: staggered visits, mild charger
    contention, early visits inside the morning peak window."""
    return four_bus_day()


@pytest.fixture(scope="module")
def desk_plan(desk):
    plan, solution = nominal_plan(desk, 5.0)
    assert solution.status == "optimal" and plan is not None
    return plan


def mini_model(seed, enforce_final=True, terminal_weight=None, delta=15.0,
               fixed_rate=False):
    scenario = mini_scenario(seed)
    instance = discretize(scenario, delta)
    graph = build_action_graph(instance)
    model = build_static_model(
        graph,
        ModelOptions(enforce_final_soc=enforce_final, fixed_rate=fixed_rate),
    )
    if terminal_weight is not None:
        targets = {b.id: 0.7 * b.capacity_kwh for b in scenario.buses}
        model = add_terminal_cost(model, targets, terminal_weight)
    return model


# ---------------------------------------------------------------------------
# criterion 1: sample-graph incidence matrix


def test_criterion_1_incidence_golden():
    vertices = tuple(Vertex("rest", k=i) for i in range(4))
    edges = (
        Edge("rest", 0, 1, 0, 1, 1),
        Edge("rest", 1, 2, 1, 2, 1),
        Edge("rest", 2, 1, 2, 1, 1),
        Edge("rest", 2, 3, 2, 3, 1),
        Edge("rest", 1, 3, 1, 3, 1),
    )
    expected = np.array(
        [
            [1, 0, 0, 0, 0],
            [-1, 1, -1, 0, 1],
            [0, -1, 1, 1, 0],
            [0, 0, 0, -1, -1],
        ],
        dtype=float,
    )
    got = incidence_matrix(subgraph_of("t", 1, vertices, edges)).toarray()
    ok = got.shape == (4, 5) and np.array_equal(got, expected)
    criterion(1, ok, "4x5 sample incidence matrix reproduced exactly")


# ---------------------------------------------------------------------------
# criterion 2: discrete recursion is exact within a phase


def test_criterion_2_recursion_exactness():
    rng = np.random.default_rng(20260814)
    worst = 0.0
    t0 = time.monotonic()
    for _ in range(1000):
        c = continuous_params(
            rng.uniform(20.0, 300.0),
            rng.uniform(0.5, 5.0),
            rng.uniform(0.5, 0.95),
            rng.uniform(100.0, 500.0),
        )
        d = discretize_params(c, rng.uniform(0.5, 20.0) / 60.0)
        n = int(rng.integers(1, 6))
        headroom = c.threshold - n * d.b_bar_cc
        if rng.random() < 0.5 and headroom > 0.0:
            s0 = rng.uniform(0.0, headroom)  # stays in the CC phase
            s = s0
            for _ in range(n):
                s = d.a_bar_cc * s + d.b_bar_cc
        else:
            # start at/above the threshold but below the CV asymptote
            s0 = rng.uniform(c.threshold, min(c.capacity, c.asymptote))
            s = s0
            for _ in range(n):
                s = d.a_bar_cv * s + d.b_bar_cv
        exact = simulate_exact(c, s0, n * d.delta, clamp=False)
        worst = max(worst, abs(s - exact) / max(1.0, abs(exact)))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-9 and elapsed < 1.0
    criterion(
        2, ok,
        f"1000 draws: worst relative error {worst:.2e} (<=1e-9) "
        f"in {elapsed:.2f}s (<1s)",
    )


# ---------------------------------------------------------------------------
# criterion 3: concave gain bound suite


def test_criterion_3_gain_bound_suite():
    rng = np.random.default_rng(7)
    conservative_ok = True
    geometry_ok = True
    error_ok = True
    sweep_ok = True

    for _ in range(40):
        c = continuous_params(
            rng.uniform(20.0, 300.0),
            rng.uniform(0.5, 5.0),
            rng.uniform(0.5, 0.95),
            rng.uniform(100.0, 500.0),
        )
        d = discretize_params(c, rng.uniform(1.0, 20.0) / 60.0)
        s_x = switching_point(d)
        th = c.threshold

        s = np.linspace(0.0, c.capacity, 2001)
        ub = gain_upper_bound(d, s)
        ideal = ideal_gain_bound(d, s)
        conservative_ok &= bool(np.all(ub <= ideal + 1e-12))
        outside = (s <= s_x) | (s >= th)
        conservative_ok &= bool(
            np.max(np.abs(ub[outside] - ideal[outside])) <= 1e-9
        )

        geometry_ok &= s_x < th and (th - s_x) < d.b_bar_cc

        # numeric worst shortfall: dense grid plus the left limit at the
        # threshold, where the open gap interval attains its supremum
        s_lim = np.nextafter(th, 0.0)
        gap_grid = np.linspace(max(0.0, s_x), s_lim, 4001)
        errs = ideal_gain_bound(d, gap_grid) - gain_upper_bound(d, gap_grid)
        numeric = float(errs.max())
        expr = max_gain_error(d)
        error_ok &= abs(numeric - expr) <= 1e-9 * max(1.0, expr)

    for _ in range(100):
        c = continuous_params(
            rng.uniform(20.0, 300.0),
            rng.uniform(0.5, 5.0),
            rng.uniform(0.5, 0.95),
            rng.uniform(100.0, 500.0),
        )
        eps_d = 10.0 ** rng.uniform(-6.0, 0.0)
        delta = step_size_for_error(c, eps_d)
        sweep_ok &= max_gain_error(discretize_params(c, delta)) <= eps_d + 1e-12

    ok = conservative_ok and geometry_ok and error_ok and sweep_ok
    criterion(
        3, ok,
        "concave bound conservative & tight outside the gap "
        f"(ok={conservative_ok}), s_x geometry (ok={geometry_ok}), "
        f"worst-case error matches closed form to 1e-9 (ok={error_ok}), "
        f"100-point step-size sweep within eps_d (ok={sweep_ok})",
    )


# ---------------------------------------------------------------------------
# criterion 4: branch and bound equals exhaustive enumeration


def test_criterion_4_bnb_matches_bruteforce():
    t0 = time.monotonic()
    checked = 0
    feasible = 0
    worst = 0.0
    cases = [(seed, True, None) for seed in range(22)]
    cases += [(seed, False, 0.5) for seed in range(10, 18)]
    for seed, hard, weight in cases:
        model = mini_model(seed, enforce_final=hard, terminal_weight=weight)
        assert len(model.graph.sigma) <= 12, "instance exceeds 12 binary edges"
        want_obj, _ = brute_force_best(model)
        got = branch_and_bound(model, EXACT)
        if math.isinf(want_obj):
            assert got.status == "infeasible"
        else:
            assert got.status == "optimal"
            worst = max(worst, abs(got.objective - want_obj))
            assert abs(got.objective - want_obj) <= 1e-6
            feasible += 1
        checked += 1
    elapsed = time.monotonic() - t0
    ok = checked >= 20 and feasible >= 10 and worst <= 1e-6 and elapsed < 60.0
    criterion(
        4, ok,
        f"{checked} instances ({feasible} feasible): worst objective gap "
        f"{worst:.2e} (<=1e-6) in {elapsed:.1f}s (<60s)",
    )


# ---------------------------------------------------------------------------
# criterion 5: demand windows, divisible and fractional grids


def window_agreement(model, assignment):
    """Max |oracle - internal| over every window-power variable, in kW."""
    inst = model.instance
    energy = [assignment[model.e_of[k]] for k in range(inst.n_steps)]
    oracle = billing_oracle(
        energy, inst.delta_min, inst.scenario.rates, inst.t0_min
    )
    wkw = np.asarray(oracle["window_kw"])
    internal = np.array(
        [assignment[model.p_of[k]] for k in range(inst.n_instants)]
    )
    diff = float(np.abs(wkw - internal).max())
    diff = max(diff, abs(float(wkw.max()) - assignment[model.peak_idx]))
    return diff


def build_and_solve(scenario, delta, enforce_final=True, terminal_weight=None):
    instance = discretize(scenario, delta)
    graph = build_action_graph(instance)
    model = build_static_model(
        graph, ModelOptions(enforce_final_soc=enforce_final)
    )
    if terminal_weight is not None:
        targets = {b.id: 0.7 * b.capacity_kwh for b in scenario.buses}
        model = add_terminal_cost(model, targets, terminal_weight)
    solution = branch_and_bound(model, EXACT)
    return model, solution


def test_criterion_5_demand_window_correctness(desk):
    worst = {5.0: 0.0, 4.0: 0.0}
    solved = {5.0: 0, 4.0: 0}
    # the soft-final weight must beat the worst-case delivery cost
    # (~75 $/kWh of demand charge) or those instances never charge
    cases = [
        (single_visit_scenario(), True, None),
        (mini_scenario(3), False, 150.0),
        (mini_scenario(7), False, 150.0),
        (desk, True, None),
    ]
    for delta in (5.0, 4.0):
        for scenario, hard, weight in cases:
            model, solution = build_and_solve(scenario, delta, hard, weight)
            if not solution.has_solution:
                continue
            charged = sum(
                solution.assignment[gi] for gi in model.g_of.values()
            )
            assert charged > 1.0, "instance must actually charge"
            worst[delta] = max(
                worst[delta], window_agreement(model, solution.assignment)
            )
            solved[delta] += 1
    ok = (
        solved[5.0] >= 3
        and solved[4.0] >= 3
        and worst[5.0] <= 1e-6
        and worst[4.0] <= 1e-6
    )
    criterion(
        5, ok,
        f"oracle vs internal window power: worst {worst[5.0]:.2e} kW on "
        f"divisible grids ({solved[5.0]} instances), {worst[4.0]:.2e} kW on "
        f"the fractional 4|15 grid ({solved[4.0]} instances), both <=1e-6",
    )


# ---------------------------------------------------------------------------
# criterion 6: variable rate never costs more than fixed rate


def test_criterion_6_variable_rate_dominates():
    compared = 0
    dominance_ok = True
    # hard final targets are rarely hittable in whole full-rate steps (that
    # is the point of the comparison); only fixed-feasible ones count, while
    # soft-final instances are always fixed-feasible and all count
    cases = [(seed, True, None) for seed in range(10)]
    cases += [(seed, False, 150.0) for seed in range(10)]
    for seed, hard, weight in cases:
        fix_model = mini_model(
            seed, enforce_final=hard, terminal_weight=weight, fixed_rate=True
        )
        fix = branch_and_bound(fix_model, EXACT)
        if not fix.has_solution:
            continue
        var = branch_and_bound(
            mini_model(seed, enforce_final=hard, terminal_weight=weight),
            EXACT,
        )
        assert var.has_solution  # fixed-rate schedules are variable-feasible
        dominance_ok &= var.objective <= fix.objective + 1e-9
        compared += 1

    # constructed strict case, flat tariff with no peak windows: 20 kWh over
    # a 30-minute visit.  The fixed rate must slam it into two adjacent steps
    # (an 80 kW demand window); the variable rate spreads it to 40 kW and
    # halves the demand charge.
    scenario = single_visit_scenario(visit_end=360, day_end=390, initial=0.675)
    scenario = replace(
        scenario, rates=flat_rates(demand_base_per_kw=4.81)
    )
    instance = discretize(scenario, 5.0)
    graph = build_action_graph(instance)
    fix = branch_and_bound(
        build_static_model(graph, ModelOptions(fixed_rate=True)), EXACT
    )
    var = branch_and_bound(build_static_model(graph, ModelOptions()), EXACT)
    strict_ok = (
        fix.has_solution
        and var.has_solution
        and var.objective < fix.objective - 1e-6
    )
    ok = compared >= 10 and dominance_ok and strict_ok
    criterion(
        6, ok,
        f"variable <= fixed on {compared} fixed-feasible instances "
        f"(ok={dominance_ok}); constructed instance strictly cheaper by "
        f"{(fix.objective - var.objective):.4f} (ok={strict_ok})",
    )


# ---------------------------------------------------------------------------
# criterion 7: zero-noise closed-loop consistency


def test_criterion_7_zero_noise_consistency(desk, desk_plan):
    zero = NoiseParams.zero()
    ol = simulate_run(desk, "open_loop", 0, params=zero, reference=desk_plan)
    hier = simulate_run(
        desk, "hierarchical", 0, params=zero, reference=desk_plan
    )
    nominal_cost = desk_plan.total_cost
    ol_rel = abs(ol.total_cost - nominal_cost) / nominal_cost
    hier_rel = abs(hier.total_cost - nominal_cost) / nominal_cost
    ok = (
        not ol.failed
        and not hier.failed
        and ol_rel <= 1e-6
        and hier_rel <= 0.05
    )
    criterion(
        7, ok,
        f"zero noise on the 4-bus day: open-loop rel gap {ol_rel:.2e} "
        f"(<=1e-6), hierarchical rel gap {hier_rel:.4f} (<=0.05)",
    )


# ---------------------------------------------------------------------------
# criterion 8: stochastic directionality


def test_criterion_8_stochastic_directionality(desk, desk_plan):
    t0 = time.monotonic()
    params = NoiseParams()  # the stated disturbance magnitudes
    reports = {}
    for strategy in ("qin", "open_loop", "hierarchical"):
        reports[strategy] = monte_carlo(
            desk, strategy, 30, 2024, params=params,
            reference=None if strategy == "qin" else desk_plan,
        )
    elapsed = time.monotonic() - t0
    q, o, h = (reports[s] for s in ("qin", "open_loop", "hierarchical"))
    a = q.mean_cost > o.mean_cost and q.mean_cost > h.mean_cost
    b = o.sigma3_terminal_kwh > h.sigma3_terminal_kwh
    c = h.violation_rate <= o.violation_rate
    no_failures = all(r.failed_runs == 0 for r in reports.values())
    ok = a and b and c and no_failures and elapsed < 600.0
    criterion(
        8, ok,
        f"30 runs/strategy in {elapsed:.0f}s (<600s): mean cost "
        f"qin {q.mean_cost:.1f} > max(ol {o.mean_cost:.1f}, "
        f"hier {h.mean_cost:.1f}) (ok={a}); terminal 3-sigma "
        f"ol {o.sigma3_terminal_kwh:.2f} > hier {h.sigma3_terminal_kwh:.2f} "
        f"(ok={b}); violation rate hier {h.violation_rate:.3f} <= "
        f"ol {o.violation_rate:.3f} (ok={c})",
    )


# ---------------------------------------------------------------------------
# criterion 9: byte-identical determinism


def test_criterion_9_determinism(tmp_path):
    scenario = single_visit_scenario()

    def solve_bytes(tag):
        model, solution = build_and_solve(scenario, 5.0)
        plan = extract_plan(model, solution.assignment)
        csv_path = tmp_path / f"plan_{tag}.csv"
        json_path = tmp_path / f"plan_{tag}.json"
        save_plan_csv(plan, str(csv_path))
        save_plan_summary(plan, str(json_path))
        return (
            solution.assignment.tobytes(),
            csv_path.read_bytes(),
            json_path.read_bytes(),
        )

    def sim_bytes(tag, strategy, reference):
        run = simulate_run(
            scenario, strategy, 11, params=NoiseParams(), reference=reference
        )
        path = tmp_path / f"traj_{strategy}_{tag}.csv"
        save_run_trajectory_csv(run, str(path))
        return run.total_cost, path.read_bytes()

    def mc_bytes(tag):
        report = monte_carlo(scenario, "qin", 3, 7, params=NoiseParams())
        path = tmp_path / f"mc_{tag}.json"
        save_report_json(report, str(path))
        return path.read_bytes()

    plan, _ = nominal_plan(scenario, 5.0)
    solve_ok = solve_bytes("a") == solve_bytes("b")
    sim_ok = all(
        sim_bytes("a", s, r) == sim_bytes("b", s, r)
        for s, r in (("qin", None), ("open_loop", plan), ("hierarchical", plan))
    )
    mc_ok = mc_bytes("a") == mc_bytes("b")
    ok = solve_ok and sim_ok and mc_ok
    criterion(
        9, ok,
        f"repeat invocations byte-identical: solve artifacts (ok={solve_ok}), "
        f"trajectories for all three strategies (ok={sim_ok}), "
        f"MC report (ok={mc_ok})",
    )

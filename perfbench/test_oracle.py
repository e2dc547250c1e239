"""The benchmark's independent checks must reject wrong answers.

Run from the repository root:  python3 -m pytest perfbench/test_oracle.py
"""

import dataclasses
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from bebcharge.benchmarks import four_bus_day  # noqa: E402
from bebcharge.graph import build_action_graph  # noqa: E402
from bebcharge.milp import build_static_model, extract_plan  # noqa: E402
from bebcharge.scenario import RateSchedule, discretize  # noqa: E402
from bebcharge.simulation import NoiseParams, billing_oracle, simulate_run  # noqa: E402
from bebcharge.solver import MilpSolution, SolveLimits, branch_and_bound  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def solved():
    """Two buses of the bundled day on a 15-minute grid: small enough to
    solve in well under a second, with charger contention left in."""
    day = four_bus_day()
    day = dataclasses.replace(day, buses=day.buses[:2])
    model = build_static_model(build_action_graph(discretize(day, 15.0)))
    sol = branch_and_bound(model, SolveLimits(mip_gap=0.0))
    assert sol.status == "optimal"
    return day, model, sol, extract_plan(model, sol.assignment)


def test_oracle_agrees_with_branch_and_bound(solved):
    day, model, sol, plan = solved
    ref = oracle.mip_oracle(model, mip_rel_gap=0.0)
    assert ref.status == "optimal"
    assert oracle.close(ref.primal, sol.objective)
    assert oracle.assignment_ok(model, sol.assignment)
    assert oracle.assignment_ok(model, ref.x)
    assert not oracle.plan_faults(day, plan)
    assert not oracle.plan_bill_faults(day, plan)


def test_scaled_gain_is_rejected(solved):
    day, model, sol, plan = solved
    gains = [i for i in model.g_of.values() if sol.assignment[i] > 1e-3]
    bad = sol.assignment.copy()
    bad[gains[0]] *= 1.5
    assert not oracle.assignment_ok(model, bad)
    assert oracle.residuals(model, bad)["row"] > 1e-3


def test_wrong_objective_is_rejected(solved):
    day, model, sol, plan = solved
    ref = oracle.mip_oracle(model, mip_rel_gap=0.0)
    assert not oracle.close(sol.objective * 1.001, ref.primal)
    assert not oracle.close(oracle.residuals(model, sol.assignment)["objective"],
                            sol.objective + 1.0)


def test_rebilled_plan_catches_a_changed_meter_step(solved):
    day, model, sol, plan = solved
    energy = plan.step_energy.copy()
    energy[int(np.argmax(energy))] *= 1.1
    assert oracle.plan_bill_faults(day, dataclasses.replace(plan, step_energy=energy))


def test_plan_bounds_and_charger_counts(solved):
    day, model, sol, plan = solved
    soc = dict(plan.soc)
    bus = day.buses[0]
    soc[bus.id] = soc[bus.id].copy()
    soc[bus.id][-1] = bus.max_soc * bus.capacity_kwh + 1.0
    assert oracle.plan_faults(day, dataclasses.replace(plan, soc=soc))
    slow = [ct for ct in day.charger_types if ct.id == "slow"][0]
    crowded = tuple(("b1", "slow", 0, 2) for _ in range(slow.count + 1))
    assert oracle.plan_faults(day, dataclasses.replace(plan, intervals=crowded))


def test_rebill_matches_the_package_tariff_on_random_series():
    rng = np.random.default_rng(7)
    for delta, window in ((1.0, 15), (5.0, 15), (4.0, 15), (7.0, 30)):
        rates = RateSchedule(demand_window_minutes=window)
        e = rng.uniform(0.0, 20.0, size=60)
        hist = tuple(rng.uniform(0.0, 20.0, size=int(rng.integers(0, 12))))
        mine = oracle.rebill(e, delta, rates, 330.0, hist)
        theirs = billing_oracle(e, delta, rates, 330.0, hist)
        for key in ("consumption", "demand_base", "demand_tou", "total"):
            assert mine[key] == pytest.approx(theirs[key], rel=1e-12, abs=1e-9)


def test_realized_run_checks():
    day = four_bus_day()
    run = simulate_run(day, "qin", 3, NoiseParams())
    assert not oracle.run_faults(day, run)
    assert not oracle.run_bill_faults(day, run, 1.0)
    wrong_bill = dataclasses.replace(
        run, cost_breakdown=dict(run.cost_breakdown, total=run.total_cost * 1.001))
    assert oracle.run_bill_faults(day, wrong_bill, 1.0)
    soc = run.soc_series.copy()
    soc[0, 10] = day.buses[0].capacity_kwh + 1.0
    assert oracle.run_faults(day, dataclasses.replace(run, soc_series=soc))
    types = [list(row) for row in run.charge_type]
    for row in types:
        row[5] = "slow"
    assert oracle.run_faults(day, dataclasses.replace(
        run, charge_type=tuple(tuple(row) for row in types)))


# ---------------------------------------------------------------------------
# the workloads' own checks, fed corrupted records


@pytest.fixture(scope="module")
def planned():
    """The bundled day on the benchmark's 5-minute grid, with HiGHS' optimum
    standing in for the program's answer (a zero-gap plan of the day takes
    seconds) and the LP relaxation value."""
    day = four_bus_day()
    model = workloads.day_model(day)
    ref = oracle.mip_oracle(model, mip_rel_gap=0.0)
    assert ref.status == "optimal"
    x = ref.x.copy()
    ints = oracle.matrix_form(model).integer
    x[ints] = np.round(x[ints])
    relax = oracle.mip_oracle(model, relax=True)
    cost = oracle.residuals(model, x)["objective"]
    sol = MilpSolution("optimal", cost, x, ref.primal, 1, 0.0)
    return day, model, sol, extract_plan(model, x), relax.primal


def faults_of(check, records):
    result = workloads.Result()
    check(records, result)
    return result


def test_check_plan_rejects_a_wrong_objective_and_a_scaled_gain(planned):
    day, model, sol, plan, _ = planned
    result = workloads.Result()
    workloads.check_plan(result, "plan", day, model, sol, plan)
    assert result.faults == []
    workloads.check_plan(result, "plan", day, model,
                         dataclasses.replace(sol, objective=sol.objective + 1.0), plan)
    assert any("c.x" in f for f in result.faults)
    bad = sol.assignment.copy()
    gain = [i for i in model.g_of.values() if bad[i] > 1e-3][0]
    bad[gain] *= 1.5
    result = workloads.Result()
    workloads.check_plan(result, "plan", day, model,
                         dataclasses.replace(sol, assignment=bad), plan)
    assert any("violates the model" in f for f in result.faults)


def test_desk_check_compares_with_the_oracle(planned):
    day, model, sol, plan, _ = planned
    desk = workloads.DeskPlan()
    assert faults_of(desk.check, [(day, sol, plan)]).faults == []
    # an objective 0.1% above the optimum
    worse = dataclasses.replace(sol, objective=sol.objective * 1.001)
    assert any("HiGHS optimal" in f for f in faults_of(desk.check, [(day, worse, plan)]).faults)
    wrong_verdict = dataclasses.replace(sol, status="infeasible", assignment=None)
    assert any("program says infeasible" in f
               for f in faults_of(desk.check, [(day, wrong_verdict, None)]).faults)


def test_fleet_check_compares_bounds_with_the_oracle(planned):
    day, model, sol, plan, relax = planned
    fleet = workloads.FleetPlan()
    assert faults_of(fleet.check, [(day, "2-bus", 0, sol, plan)]).faults == []
    below = dataclasses.replace(sol, objective=sol.objective - 10.0)
    assert any("below HiGHS bound" in f
               for f in faults_of(fleet.check, [(day, "2-bus", 0, below, plan)]).faults)
    above = dataclasses.replace(sol, bound=sol.objective + 10.0)
    assert any("above HiGHS schedule" in f
               for f in faults_of(fleet.check, [(day, "2-bus", 0, above, plan)]).faults)


def test_fleet_check_counts_the_known_fault_and_checks_its_bound(planned):
    day, model, sol, plan, relax = planned
    fleet = workloads.FleetPlan()
    none = MilpSolution("unknown", float("inf"), None, relax, 10, float("inf"))
    result = faults_of(fleet.check, [(day, "4-bus", 0, none, None)])
    assert result.failed == 1 and result.faults == []
    assert any(workloads.FLEET_FAULT in n for n in result.notes)
    wrong_bound = dataclasses.replace(none, bound=relax * 0.9)
    assert any("LP relaxation" in f
               for f in faults_of(fleet.check, [(day, "4-bus", 0, wrong_bound, None)]).faults)
    # only the named 4-bus days may end without a schedule
    assert any("without a schedule" in f
               for f in faults_of(fleet.check, [(day, "2-bus", 0, none, None)]).faults)

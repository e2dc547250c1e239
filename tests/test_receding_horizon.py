"""Closed-loop tests for the hierarchical receding-horizon controller."""

import csv
import dataclasses
import math

import numpy as np
import pytest

from bebcharge import receding_horizon
from bebcharge.benchmarks import four_bus_day
from bebcharge.milp import ChargePlan, window_averages
from bebcharge.scenario import ChargerType, Scenario, ScheduleBlock, _step_count
from bebcharge.simulation import (
    TRUTH_DELTA_MIN,
    NoiseParams,
    TruthEnvironment,
    billing_oracle,
    nominal_plan,
    sample_run_noise,
)
from bebcharge.receding_horizon import (
    ExecutionState,
    HorizonConfig,
    execute_first_step,
    interpolate_reference_soc,
    plan_horizon,
    run_day,
    save_controller_log_csv,
)
from bebcharge.solver import MilpSolution, SolverError

from helpers import make_bus, single_visit_scenario
from reference_milp import (
    assert_same_highs_arrays,
    assert_same_stored_form,
    reference_lock,
    reference_model,
    reference_terminal_cost,
)


def make_closed_loop(scenario, seed=0, params=None):
    """Environment + initial state the way the simulation layer wires them."""
    params = params or NoiseParams.zero()
    n_truth = _step_count(scenario.day_start_min, scenario.day_end_min, TRUTH_DELTA_MIN)
    noise = sample_run_noise(scenario, params, seed, n_truth)
    env = TruthEnvironment(scenario, noise, params)
    state = ExecutionState(
        t_min=float(scenario.day_start_min), soc_kwh=dict(env.soc)
    )
    return env, state


def twin_type_scenario(**bus_kwargs):
    """One bus, one visit, two *identical* charger types: a pure tie."""
    blocks = [
        ScheduleBlock("on_route", 300, 330, route_power_kw=30.0),
        ScheduleBlock(
            "in_station", 330, 345, charger_type_ids=("t1", "t2")
        ),
    ]
    bus = make_bus(schedule=blocks, **bus_kwargs)
    return Scenario(
        day_start_min=300,
        day_end_min=360,
        buses=(bus,),
        charger_types=(
            ChargerType("t1", 1, 120.0, 2.0, "stn"),
            ChargerType("t2", 1, 120.0, 2.0, "stn"),
        ),
    )


def contention_scenario(initial_soc=0.625):
    """Two buses, one charger unit: realized charging must serialize."""
    blocks = lambda: [
        ScheduleBlock("in_station", 330, 420, charger_type_ids=("fast",))
    ]
    buses = (
        make_bus(bus_id="a", schedule=blocks(), initial=initial_soc),
        make_bus(bus_id="b", schedule=blocks(), initial=initial_soc),
    )
    return Scenario(
        day_start_min=300,
        day_end_min=420,
        buses=buses,
        charger_types=(ChargerType("fast", 1, 120.0, 2.0, "stn"),),
    )


# ---------------------------------------------------------------------------
# configuration


class TestHorizonConfig:
    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            HorizonConfig(delta_rh_minutes=0.0)
        with pytest.raises(ValueError):
            HorizonConfig(horizon_minutes=2.0, delta_rh_minutes=3.0)

    def test_terminal_weight_beats_worst_case_delivery_cost(self):
        sc = single_visit_scenario()
        w = HorizonConfig().resolved_terminal_weight(sc)
        rates = sc.rates
        worst = (
            rates.demand_base_per_kw + rates.demand_tou_per_kw
        ) * 60.0 / rates.demand_window_minutes + rates.consumption_onpeak_per_kwh
        assert w > worst

    def test_explicit_values_win(self):
        sc = single_visit_scenario()
        cfg = HorizonConfig(terminal_weight=5.0, preference_bonus=1e-4)
        assert cfg.resolved_terminal_weight(sc) == 5.0
        assert cfg.resolved_preference_bonus(sc) == 1e-4

    def test_preference_bonus_is_a_strict_tiebreaker(self):
        sc = single_visit_scenario()
        cfg = HorizonConfig()
        bonus = cfg.resolved_preference_bonus(sc)
        rates = sc.rates
        smallest = min(
            r
            for r in (
                rates.consumption_offpeak_per_kwh,
                rates.consumption_onpeak_per_kwh,
                rates.demand_base_per_kw,
                rates.demand_tou_per_kw,
            )
            if r > 0
        )
        assert 0 < bonus < 1e-2 * smallest


# ---------------------------------------------------------------------------
# reference interpolation


class TestReferenceInterpolation:
    def test_exact_at_plan_instants_and_midpoints(self):
        sc = single_visit_scenario()
        plan, _ = nominal_plan(sc, 5.0)
        soc = plan.soc["b1"]
        for k in (0, 3, plan.n_steps):
            t = plan.t0_min + plan.delta_min * k
            assert interpolate_reference_soc(plan, t)["b1"] == pytest.approx(
                soc[k]
            )
        mid = plan.t0_min + plan.delta_min * 2.5
        assert interpolate_reference_soc(plan, mid)["b1"] == pytest.approx(
            0.5 * (soc[2] + soc[3])
        )

    def test_clamps_outside_the_plan(self):
        sc = single_visit_scenario()
        plan, _ = nominal_plan(sc, 5.0)
        soc = plan.soc["b1"]
        assert interpolate_reference_soc(plan, plan.t0_min - 100)["b1"] == soc[0]
        t_end = plan.t0_min + plan.delta_min * plan.n_steps
        assert interpolate_reference_soc(plan, t_end + 100)["b1"] == soc[-1]


def fake_plan(intervals, t0=327.0, delta=3.0, n_steps=20):
    return ChargePlan(
        t0_min=t0,
        delta_min=delta,
        n_steps=n_steps,
        intervals=tuple(intervals),
        gains={},
        soc={},
        step_energy=np.zeros(n_steps),
        objective_value=0.0,
        cost_breakdown={},
    )


# ---------------------------------------------------------------------------
# single horizon solves


class TestPlanHorizon:
    def test_attachment_unlocks_step_zero_start(self):
        sc = single_visit_scenario()
        plan, _ = nominal_plan(sc, 5.0)
        cfg = HorizonConfig()
        base = dict(t_min=330.0, soc_kwh={"b1": 125.0})
        cold = plan_horizon(sc, plan, cfg, ExecutionState(**base))
        warm = plan_horizon(
            sc, plan, cfg,
            ExecutionState(**base, attachments={("b1", "fast")}),
        )
        # without an attachment the first step can only connect, not charge
        assert min(k0 for _, _, k0, _ in cold.plan.intervals) == 1
        assert min(k0 for _, _, k0, _ in warm.plan.intervals) == 0

    def test_whole_day_horizon_reaches_reference_terminal(self):
        sc = single_visit_scenario()
        plan, nominal = nominal_plan(sc, 5.0)
        state = ExecutionState(t_min=300.0, soc_kwh={"b1": 140.0})
        out = plan_horizon(sc, plan, HorizonConfig(), state)
        assert not out.used_fallback
        assert out.plan.soc["b1"][-1] == pytest.approx(140.0, abs=1e-6)
        assert out.solution.objective == pytest.approx(
            nominal.objective, rel=1e-6
        )

    def test_window_after_visit_rests(self):
        sc = single_visit_scenario()
        plan, _ = nominal_plan(sc, 5.0)
        state = ExecutionState(t_min=345.0, soc_kwh={"b1": 140.0})
        out = plan_horizon(sc, plan, HorizonConfig(), state)
        assert out.plan.intervals == ()
        assert not out.used_fallback

    def test_soft_fallback_rescues_band_violation(self):
        # start below the buffered minimum: the hard model is infeasible the
        # moment driving pushes the level further down, the soft one is not
        sc = single_visit_scenario(initial=0.31)
        plan, _ = nominal_plan(sc, 5.0)  # reference may differ; only shape matters
        state = ExecutionState(t_min=300.0, soc_kwh={"b1": 62.0})
        out = plan_horizon(sc, plan or fake_plan([], t0=300.0), HorizonConfig(), state)
        assert out.used_fallback
        assert out.plan is not None

    @pytest.mark.parametrize("failure", ["raises", "unknown"])
    def test_hard_solver_failure_falls_back_to_soft_model(self, monkeypatch, failure):
        # the hard attempt's search breaks down (an LP backend exception, or
        # a node limit with no schedule): the window still gets the soft
        # model's plan
        sc = single_visit_scenario()
        plan, _ = nominal_plan(sc, 5.0)
        state = ExecutionState(t_min=300.0, soc_kwh={"b1": 140.0})
        real = receding_horizon.branch_and_bound
        soft_solves = []

        def failing_hard(model, limits):
            if model.options.soft_min_soc:
                sol = real(model, limits)
                soft_solves.append((model, sol))
                return sol
            if failure == "raises":
                raise SolverError("LP backend failure (status 4)")
            return MilpSolution("unknown", math.inf, None, -math.inf, 1, math.inf)

        monkeypatch.setattr(receding_horizon, "branch_and_bound", failing_hard)
        out = plan_horizon(sc, plan, HorizonConfig(), state)
        assert out.used_fallback
        assert len(soft_solves) == 1
        model, sol = soft_solves[0]
        assert out.model is model and out.solution is sol
        assert out.plan is not None and out.plan.intervals
        assert out.plan.objective_value == pytest.approx(sol.objective, rel=1e-9)

    def test_unreachable_state_fails_both_models(self):
        # above the buffered maximum: no slack exists on that side, so even
        # the fallback cannot produce a plan and the outcome carries none
        sc = single_visit_scenario()
        plan, _ = nominal_plan(sc, 5.0)
        state = ExecutionState(t_min=300.0, soc_kwh={"b1": 190.0})
        out = plan_horizon(sc, plan, HorizonConfig(), state)
        assert out.used_fallback
        assert out.plan is None


# ---------------------------------------------------------------------------
# executing the first step


class TestExecuteFirstStep:
    def loop_until(self, sc, plan, cfg, env, state, stop_t):
        trace = []
        while state.t_min < stop_t - 1e-9:
            out = plan_horizon(sc, plan, cfg, state)
            execute_first_step(env, out.plan, cfg, state)
            trace.append(
                (state.t_min, out.plan.intervals, set(state.attachments),
                 set(state.charged_visits))
            )
        return trace

    def test_connection_step_attaches_without_marking_charged(self):
        sc = single_visit_scenario()
        plan, _ = nominal_plan(sc, 5.0)
        cfg = HorizonConfig()
        env, state = make_closed_loop(sc)
        trace = self.loop_until(sc, plan, cfg, env, state, 333.0)
        # the iteration solved at t=327 plans (1, 6): its executed step is the
        # connection, so afterwards the pair is attached but nothing charged
        t, intervals, attach, charged = trace[-2]
        assert t == pytest.approx(330.0)
        assert intervals == (("b1", "fast", 1, 6),)
        assert attach == {("b1", "fast")}
        assert charged == set()
        # the next executed step actually charges and marks the visit
        t, intervals, attach, charged = trace[-1]
        assert intervals == (("b1", "fast", 0, 5),)
        assert charged == {"b1:v1"}

    def test_attachment_released_when_visit_ends(self):
        sc = single_visit_scenario()
        plan, _ = nominal_plan(sc, 5.0)
        cfg = HorizonConfig()
        env, state = make_closed_loop(sc)
        trace = self.loop_until(sc, plan, cfg, env, state, 348.0)
        assert trace[-1][2] == set()  # visit over, nothing attached

    def test_energy_history_records_realized_meter(self):
        sc = single_visit_scenario()
        plan, _ = nominal_plan(sc, 5.0)
        cfg = HorizonConfig()
        env, state = make_closed_loop(sc)
        self.loop_until(sc, plan, cfg, env, state, 312.0)
        kept = np.asarray(state.energy_history)
        binned = env.meter_kwh[:12].reshape(4, 3).sum(axis=1)
        np.testing.assert_allclose(kept, binned, atol=1e-12)


# ---------------------------------------------------------------------------
# whole-day closed loop


class TestClosedLoopTracking:
    def test_zero_noise_tracks_reference_exactly(self):
        sc = single_visit_scenario()
        plan, nominal = nominal_plan(sc, 5.0)
        env, _ = make_closed_loop(sc)
        outcome = run_day(sc, plan, HorizonConfig(), env)
        assert not outcome.failed
        assert outcome.fallback_count == 0
        assert env.soc["b1"] == pytest.approx(140.0, abs=1e-9)
        bill = billing_oracle(
            env.meter_kwh, 1.0, sc.rates, env.t0_min
        )
        assert bill["total"] == pytest.approx(nominal.objective, rel=1e-6)
        assert outcome.charged_visits == ("b1:v1",)

    def test_charge_block_is_contiguous_and_single_type(self):
        sc = single_visit_scenario()
        plan, _ = nominal_plan(sc, 5.0)
        env, _ = make_closed_loop(sc)
        run_day(sc, plan, HorizonConfig(), env)
        minutes = [
            k
            for k in range(env.n_steps)
            if env.charge_type[0][k] is not None
        ]
        assert minutes == list(range(minutes[0], minutes[-1] + 1))
        assert {env.charge_type[0][k] for k in minutes} == {"fast"}

    def test_terminal_attraction_beats_no_attraction(self):
        sc = single_visit_scenario()
        plan, _ = nominal_plan(sc, 5.0)
        errs = {}
        for w in (None, 0.0):
            env, _ = make_closed_loop(sc)
            run_day(sc, plan, HorizonConfig(terminal_weight=w), env)
            errs[w] = abs(env.soc["b1"] - 140.0)
        assert errs[None] <= errs[0.0] + 1e-9
        assert errs[None] < 1e-6
        assert errs[0.0] > 1.0  # without attraction charging never pays

    def test_two_buses_one_charger_serialize(self):
        sc = contention_scenario()
        plan, _ = nominal_plan(sc, 5.0)
        assert plan is not None
        env, _ = make_closed_loop(sc)
        outcome = run_day(sc, plan, HorizonConfig(), env)
        assert not outcome.failed
        for k in range(env.n_steps):
            concurrent = sum(
                1 for j in range(2) if env.charge_type[j][k] is not None
            )
            assert concurrent <= 1
        for j, bus in enumerate(("a", "b")):
            assert env.soc[bus] == pytest.approx(140.0, abs=1e-9)


class TestPreferenceStability:
    def test_identical_types_never_swap_mid_visit(self):
        sc = twin_type_scenario()
        plan, _ = nominal_plan(sc, 5.0)
        env, _ = make_closed_loop(sc)
        outcome = run_day(sc, plan, HorizonConfig(), env)
        assert not outcome.failed
        used = {
            env.charge_type[0][k]
            for k in range(env.n_steps)
            if env.charge_type[0][k] is not None
        }
        assert len(used) == 1
        assert env.soc["b1"] == pytest.approx(140.0, abs=1e-9)


class TestDemandContinuity:
    def test_model_window_power_matches_billing_oracle(self):
        sc = single_visit_scenario()
        plan, _ = nominal_plan(sc, 5.0)
        env, _ = make_closed_loop(sc, seed=3, params=NoiseParams())
        outcome = run_day(sc, plan, HorizonConfig(), env)
        bill = billing_oracle(env.meter_kwh, 1.0, sc.rates, env.t0_min)
        for log in outcome.logs:
            idx = int(round(log.t_min - sc.day_start_min))
            assert log.window_kw0 == pytest.approx(
                float(bill["window_kw"][idx]), abs=1e-6
            )

    @pytest.mark.parametrize("window_minutes", [27.0, 30.0])
    def test_long_demand_windows_keep_their_whole_history(self, window_minutes):
        # a 27- or 30-minute window on 3-minute steps reads 9 or 10 realized
        # steps; from window 34 on, the bundled day's realized meter fills
        # more than 8 of them
        day = four_bus_day()
        day = dataclasses.replace(
            day, rates=dataclasses.replace(day.rates, demand_window_minutes=window_minutes)
        )
        plan, _ = nominal_plan(day, 5.0)
        cfg = HorizonConfig()
        env, state = make_closed_loop(day)
        n_sub = int(round(cfg.delta_rh_minutes / TRUTH_DELTA_MIN))
        for i in range(40):
            outcome = plan_horizon(day, plan, cfg, state)
            steps = env.meter_kwh[: n_sub * i].reshape(i, n_sub).sum(axis=1)
            realized = window_averages(steps, cfg.delta_rh_minutes, window_minutes)[-1]
            assert outcome.window_kw0 == pytest.approx(realized, abs=1e-6), i
            execute_first_step(env, outcome.plan, cfg, state)
        assert len(state.energy_history) == window_minutes // cfg.delta_rh_minutes
        assert env.meter_kwh[: n_sub * 40].sum() > 0.0


class TestWindowModels:
    def test_window_sequence_matches_the_reference_build(self, monkeypatch):
        # every stored model and node-LP input of the first 30 windows of the
        # bundled day under noise seed 2024 against the row-by-row reference
        # build plus its terminal and lock appends; a charger is first
        # attached at window 26 and a visit first locked at window 27
        day = four_bus_day()
        plan, _ = nominal_plan(day, 5.0)
        cfg = HorizonConfig()
        build = receding_horizon._build_horizon_model
        seen = []

        def checked(scenario, reference, cfg, state, soft_min):
            model = build(scenario, reference, cfg, state, soft_min)
            t_end = min(state.t_min + cfg.horizon_minutes, scenario.day_end_min)
            ref = reference_model(model.graph, model.options)
            ref = reference_terminal_cost(
                ref, interpolate_reference_soc(reference, t_end),
                cfg.resolved_terminal_weight(scenario),
            )
            if state.charged_visits:
                ref = reference_lock(ref, state.charged_visits)
            assert_same_stored_form(model, ref)
            assert_same_highs_arrays(model, ref)
            seen.append((bool(state.attachments), "lock" in ref.families))
            return model

        monkeypatch.setattr(receding_horizon, "_build_horizon_model", checked)
        env, state = make_closed_loop(day, seed=2024, params=NoiseParams())
        for _ in range(30):
            outcome = plan_horizon(day, plan, cfg, state)
            execute_first_step(env, outcome.plan, cfg, state)
        assert len(seen) >= 30
        assert any(attached for attached, _ in seen)
        assert any(locked for _, locked in seen)


class TestDeterminism:
    def test_same_seed_identical_runs(self):
        sc = single_visit_scenario()
        plan, _ = nominal_plan(sc, 5.0)
        results = []
        for _ in range(2):
            env, _ = make_closed_loop(sc, seed=11, params=NoiseParams())
            outcome = run_day(sc, plan, HorizonConfig(), env)
            results.append(
                (outcome.logs, env.meter_kwh.tobytes(), env.soc_series.tobytes())
            )
        assert results[0] == results[1]


class TestRunDayFailure:
    def test_unplannable_state_marks_day_failed(self):
        sc = single_visit_scenario(initial=0.95)
        # the truth starts above the planner's buffered ceiling, which no
        # slack relaxes, so the very first horizon has no plan at all
        plan, _ = nominal_plan(sc, 5.0)
        env, _ = make_closed_loop(sc)
        outcome = run_day(sc, plan or fake_plan([], t0=300.0), HorizonConfig(), env)
        assert outcome.failed
        assert outcome.logs == ()


class TestLogExport:
    def test_csv_round_trip(self, tmp_path):
        sc = single_visit_scenario()
        plan, _ = nominal_plan(sc, 5.0)
        env, _ = make_closed_loop(sc)
        outcome = run_day(sc, plan, HorizonConfig(), env)
        path = tmp_path / "controller_log.csv"
        save_controller_log_csv(outcome, str(path))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "t_min", "objective", "window_kw", "nodes", "fallback", "intervals"
        ]
        assert len(rows) == len(outcome.logs) + 1
        assert float(rows[1][0]) == outcome.logs[0].t_min

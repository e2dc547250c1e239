"""Truth-model, strategy, billing-oracle, and Monte-Carlo tests."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bebcharge.benchmarks import four_bus_day
from bebcharge.charge_model import simulate_exact
from bebcharge.milp import ChargePlan, window_averages
from bebcharge.scenario import (
    ChargerType,
    GeneratorBounds,
    RateSchedule,
    Scenario,
    ScheduleBlock,
    _step_count,
    charging_params,
    discretize,
    generate_random_scenario,
)
from bebcharge.simulation import (
    TRUTH_DELTA_MIN,
    MCReport,
    NoiseParams,
    RunNoise,
    SimRun,
    TruthEnvironment,
    billing_oracle,
    monte_carlo,
    multi_day,
    nominal_plan,
    perturb_arrivals,
    sample_run_noise,
    save_report_json,
    save_run_trajectory_csv,
    save_trace_csv,
    simulate_run,
    strategy_open_loop,
    strategy_qin,
)
from bebcharge.solver import SolveLimits

from helpers import make_bus, mini_scenario, single_visit_scenario, two_type_scenario
from reference_simulation import (
    ReferenceEnvironment,
    ReferenceQin,
    reference_open_loop,
    reference_qin,
    reference_tables,
)
from test_milp import exact_window_power


def hand_noise(
    scenario,
    n_steps,
    beta_d=0.0,
    beta_c=0.0,
    arrival=None,
    white_d=None,
    white_c=None,
):
    """Build a fully explicit disturbance draw for unit checks."""
    return RunNoise(
        beta_discharge_kw={b.id: beta_d for b in scenario.buses},
        beta_charge_kw={ct.id: beta_c for ct in scenario.charger_types},
        arrival_shift_s=dict(arrival or {}),
        white_discharge=(
            white_d
            if white_d is not None
            else np.zeros((len(scenario.buses), n_steps))
        ),
        white_charge=(
            white_c
            if white_c is not None
            else np.zeros((len(scenario.charger_types), n_steps))
        ),
    )


def make_env(scenario, params=None, **noise_kwargs):
    params = params or NoiseParams.zero()
    n = scenario.day_end_min - scenario.day_start_min
    return TruthEnvironment(scenario, hand_noise(scenario, n, **noise_kwargs), params)


def advance_to(env, k, commands=None):
    while env.minute_index < k:
        env.advance(commands or {})


def contention_scenario(initial_soc=0.5, visit=(330, 420), day=(300, 420), n_units=1):
    blocks = lambda: [
        ScheduleBlock("in_station", visit[0], visit[1], charger_type_ids=("fast",))
    ]
    buses = (
        make_bus(bus_id="a", schedule=blocks(), initial=initial_soc),
        make_bus(bus_id="b", schedule=blocks(), initial=initial_soc),
    )
    return Scenario(
        day_start_min=day[0],
        day_end_min=day[1],
        buses=buses,
        charger_types=(ChargerType("fast", n_units, 120.0, 2.0, "stn"),),
    )


# ---------------------------------------------------------------------------
# noise parameters and sampling


class TestNoiseParams:
    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            NoiseParams(discharge_bias_kw=-1.0)
        with pytest.raises(ValueError):
            NoiseParams(charge_white_overrides={"fast": -0.1})

    def test_fast_slow_classification(self):
        p = NoiseParams()
        fast = ChargerType("fast", 1, 120.0, 2.0, "stn")
        slow = ChargerType("slow", 1, 40.0, 1.0, "stn")
        assert p.charge_white_for(fast) == p.charge_white_fast_kwh_per_sqrt_s
        assert p.charge_white_for(slow) == p.charge_white_slow_kwh_per_sqrt_s
        assert p.charge_bias_for(fast) == 2.4
        assert p.charge_bias_for(slow) == 1.2

    def test_overrides_win(self):
        p = NoiseParams(charge_bias_overrides={"fast": 0.5})
        fast = ChargerType("fast", 1, 120.0, 2.0, "stn")
        assert p.charge_bias_for(fast) == 0.5

    def test_zero_profile(self):
        z = NoiseParams.zero()
        sc = single_visit_scenario()
        noise = sample_run_noise(sc, z, 3, 60)
        assert all(v == 0.0 for v in noise.beta_discharge_kw.values())
        assert all(v == 0.0 for v in noise.beta_charge_kw.values())
        assert all(v == 0.0 for v in noise.arrival_shift_s.values())


class TestSampleRunNoise:
    def test_deterministic_per_seed(self):
        sc = single_visit_scenario()
        a = sample_run_noise(sc, NoiseParams(), 11, 60)
        b = sample_run_noise(sc, NoiseParams(), 11, 60)
        c = sample_run_noise(sc, NoiseParams(), 12, 60)
        assert a.beta_discharge_kw == b.beta_discharge_kw
        np.testing.assert_array_equal(a.white_discharge, b.white_discharge)
        np.testing.assert_array_equal(a.white_charge, b.white_charge)
        assert a.beta_discharge_kw != c.beta_discharge_kw

    def test_draw_order_fixed_across_sigma_settings(self):
        # zeroing one sigma must not shift any other stream's draws
        sc = single_visit_scenario()
        full = sample_run_noise(sc, NoiseParams(), 5, 60)
        no_arrival = sample_run_noise(
            sc, NoiseParams(arrival_sigma_s=0.0), 5, 60
        )
        np.testing.assert_array_equal(full.white_discharge, no_arrival.white_discharge)
        np.testing.assert_array_equal(full.white_charge, no_arrival.white_charge)
        assert full.beta_discharge_kw == no_arrival.beta_discharge_kw
        assert all(v == 0.0 for v in no_arrival.arrival_shift_s.values())

    def test_bias_stddev_statistical(self):
        sc = single_visit_scenario()
        params = NoiseParams()
        draws = np.array(
            [
                sample_run_noise(sc, params, seed, 1).beta_discharge_kw["b1"]
                for seed in range(5000)
            ]
        )
        assert abs(draws.std() - params.discharge_bias_kw) < 0.05 * params.discharge_bias_kw
        assert abs(draws.mean()) < 0.05

    def test_white_matrix_is_standard_normal(self):
        sc = two_type_scenario()
        noise = sample_run_noise(sc, NoiseParams(), 99, 5000)
        assert abs(noise.white_charge.std() - 1.0) < 0.02
        assert abs(noise.white_discharge.mean()) < 0.05


class TestPerturbArrivals:
    def test_shift_applies_in_minutes(self):
        sc = single_visit_scenario()
        out = perturb_arrivals(sc, {"b1:v1": 120.0})
        assert out["b1:v1"] == pytest.approx(332.0)

    def test_clamped_to_visit_end(self):
        sc = single_visit_scenario()
        out = perturb_arrivals(sc, {"b1:v1": 3600.0})
        assert out["b1:v1"] == 345.0

    def test_clamped_to_previous_departure(self):
        sc = single_visit_scenario()
        # previous departure is the start of the preceding route leg (300)
        out = perturb_arrivals(sc, {"b1:v1": -1e6})
        assert out["b1:v1"] == 300.0

    def test_departures_unchanged(self):
        sc = single_visit_scenario()
        env = make_env(sc, arrival={"b1:v1": 120.0})
        span = env.visit_spans["b1:v1"]
        assert span.end_min == 345.0


# ---------------------------------------------------------------------------
# truth dynamics


class TestTruthDischarge:
    def test_nominal_energy_and_bias_units(self):
        sc = single_visit_scenario()
        env = make_env(sc, beta_d=1.2)
        advance_to(env, 5)
        # 5 minutes driving at 30 kW, bias 1.2 kW over 5/60 h = +0.1 kWh
        expected = 140.0 - 30.0 * 5 / 60.0 + 1.2 * 5 / 60.0
        assert env.soc["b1"] == pytest.approx(expected, abs=1e-12)

    def test_white_noise_sqrt_dt_units(self):
        sc = single_visit_scenario()
        n = sc.day_end_min - sc.day_start_min
        wd = np.zeros((1, n))
        wd[0, 2] = 1.0
        env = TruthEnvironment(
            sc,
            hand_noise(sc, n, white_d=wd),
            NoiseParams(
                discharge_white_kwh_per_sqrt_s=0.05,
                discharge_bias_kw=0.0,
                charge_white_slow_kwh_per_sqrt_s=0.0,
                charge_white_fast_kwh_per_sqrt_s=0.0,
                charge_bias_slow_kw=0.0,
                charge_bias_fast_kw=0.0,
                arrival_sigma_s=0.0,
            ),
        )
        advance_to(env, 3)
        expected = 140.0 - 30.0 * 3 / 60.0 + 0.05 * math.sqrt(60.0)
        assert env.soc["b1"] == pytest.approx(expected, abs=1e-12)

    def test_clamped_at_zero(self):
        sc = single_visit_scenario(route_power=1000.0, initial=0.05)
        env = make_env(sc)
        advance_to(env, 30)
        assert env.soc["b1"] == 0.0

    def test_no_discharge_while_parked(self):
        sc = single_visit_scenario()
        env = make_env(sc)
        advance_to(env, 45)  # through the visit, no commands
        soc_at_arrival = env.soc_series[0, 30]
        assert env.soc["b1"] == soc_at_arrival


class TestTruthCharge:
    def test_full_rate_follows_exact_model(self):
        sc = single_visit_scenario(alpha=2.0, eta=0.9)
        env = make_env(sc)
        advance_to(env, 30)
        cp = charging_params(sc.buses[0], sc.charger_types[0])
        soc = env.soc["b1"]
        env.advance({"b1": ("fast", math.inf)})
        expected = simulate_exact(cp, soc, 1.0 / 60.0)
        assert env.soc["b1"] == pytest.approx(expected, abs=1e-12)

    def test_command_power_caps_gain(self):
        sc = single_visit_scenario()
        env = make_env(sc)
        advance_to(env, 30)
        before = env.soc["b1"]
        env.advance({"b1": ("fast", 2.0)})
        assert env.soc["b1"] - before == pytest.approx(2.0 / 60.0, abs=1e-12)

    def test_bias_added_on_top(self):
        sc = single_visit_scenario()
        env = make_env(sc, beta_c=2.4)
        advance_to(env, 30)
        before = env.soc["b1"]
        env.advance({"b1": ("fast", 2.0)})
        gained = env.soc["b1"] - before
        assert gained == pytest.approx((2.0 + 2.4) / 60.0, abs=1e-12)
        assert env.meter_kwh[30] == pytest.approx(gained, abs=1e-12)

    def test_negative_delta_not_metered(self):
        sc = single_visit_scenario()
        n = sc.day_end_min - sc.day_start_min
        wc = np.zeros((1, n))
        wc[0, 30] = -100.0
        env = TruthEnvironment(
            sc, hand_noise(sc, n, white_c=wc), NoiseParams(arrival_sigma_s=0.0)
        )
        advance_to(env, 30)
        before = env.soc["b1"]
        env.advance({"b1": ("fast", 0.0)})
        assert env.soc["b1"] < before
        assert env.meter_kwh[30] == 0.0

    def test_clamped_at_capacity(self):
        sc = single_visit_scenario(initial=0.999, max_soc=1.0)
        env = make_env(sc, beta_c=1000.0)
        advance_to(env, 30)
        env.advance({"b1": ("fast", math.inf)})
        assert env.soc["b1"] == 200.0

    def test_charger_noise_needs_engagement(self):
        sc = single_visit_scenario()
        env = make_env(sc, beta_c=50.0)
        advance_to(env, 45)  # never commanded
        assert env.charge_gain_kwh.sum() == 0.0
        assert env.meter_kwh.sum() == 0.0

    def test_zero_power_command_still_sees_noise(self):
        sc = single_visit_scenario()
        env = make_env(sc, beta_c=2.4)
        advance_to(env, 30)
        before = env.soc["b1"]
        env.advance({"b1": ("fast", 0.0)})
        assert env.soc["b1"] - before == pytest.approx(2.4 / 60.0, abs=1e-12)

    def test_presence_masks_late_arrival(self):
        sc = single_visit_scenario()
        env = make_env(sc, arrival={"b1:v1": 120.0})
        advance_to(env, 30)
        cmds = {"b1": ("fast", math.inf)}
        env.advance(cmds)  # minute 330: bus still en route
        env.advance(cmds)  # minute 331
        assert env.charge_gain_kwh[0, 30] == 0.0
        assert env.charge_gain_kwh[0, 31] == 0.0
        env.advance(cmds)  # minute 332: arrived
        assert env.charge_gain_kwh[0, 32] == pytest.approx(2.0, abs=1e-9)

    def test_partial_minute_presence(self):
        sc = single_visit_scenario()
        env = make_env(sc, arrival={"b1:v1": 30.0})
        advance_to(env, 30)
        env.advance({"b1": ("fast", 120.0)})
        # present for half the minute at 120 kW -> 1 kWh
        assert env.charge_gain_kwh[0, 30] == pytest.approx(1.0, abs=1e-9)


def minute_geometry(bus, arrivals, t):
    """Drive minutes, drive kWh, presence minutes and the visited station
    block of ``bus`` in the truth minute [t, t + 1), walked block by block."""
    drive_min = drive_kwh = present_min = 0.0
    station = None
    for bi, block in enumerate(bus.schedule):
        if block.kind == "on_route":
            end = block.end_min
            nxt = bus.schedule[bi + 1] if bi + 1 < len(bus.schedule) else None
            if nxt is not None and nxt.kind == "in_station":
                end = arrivals[f"{bus.id}:v{bi + 1}"]
            ov = max(0.0, min(t + 1.0, end) - max(t, block.start_min))
            drive_min += ov
            drive_kwh += block.route_power_kw * ov / 60.0
        elif block.kind == "in_station":
            ov = max(0.0, min(t + 1.0, block.end_min) - max(t, arrivals[f"{bus.id}:v{bi}"]))
            if ov > 0:
                present_min += ov
                station = block
    return drive_min, drive_kwh, present_min, station


@settings(max_examples=30, deadline=None)
@given(
    scenario_seed=st.integers(0, 300),
    noise_seed=st.integers(0, 2**32 - 1),
    command_seed=st.integers(0, 2**32 - 1),
)
def test_truth_levels_follow_charge_minus_drive(scenario_seed, noise_seed, command_seed):
    # per bus and minute, away from the [0, capacity] clamps: the level
    # changes by the realized charge minus the drive discharge, both with
    # their bias and white noise; the meter is load plus positive charges
    scenario = mini_scenario(scenario_seed)
    params = NoiseParams()
    n = scenario.day_end_min - scenario.day_start_min
    noise = sample_run_noise(scenario, params, noise_seed, n)
    env = TruthEnvironment(scenario, noise, params)
    rng = np.random.default_rng(command_seed)
    type_ids = [ct.id for ct in scenario.charger_types]
    commands = []
    while not env.done:
        cmds = {}
        for bus in scenario.buses:
            if rng.random() < 0.6:
                power = math.inf if rng.random() < 0.3 else float(rng.uniform(0.0, 150.0))
                cmds[bus.id] = (type_ids[int(rng.integers(len(type_ids)))], power)
        commands.append(cmds)
        env.advance(cmds)

    arrivals = perturb_arrivals(scenario, noise.arrival_shift_s)
    close = lambda v: pytest.approx(v, rel=1e-9, abs=1e-9)
    checked = charged = clamped = 0
    for k in range(n):
        t = float(scenario.day_start_min + k)
        for j, bus in enumerate(scenario.buses):
            cap = bus.capacity_kwh
            level = env.soc_series[j, k]
            drive_min, drive_kwh, present_min, station = minute_geometry(bus, arrivals, t)
            drive = 0.0
            if drive_min > 0:
                drive = (
                    drive_kwh
                    - noise.beta_discharge_kw[bus.id] * drive_min / 60.0
                    - params.discharge_white_kwh_per_sqrt_s
                    * math.sqrt(drive_min * 60.0)
                    * noise.white_discharge[j, k]
                )
            after_drive = level - drive
            charge = 0.0
            cmd = commands[k].get(bus.id)
            plugged = (
                cmd is not None and station is not None and cmd[0] in station.charger_type_ids
            )
            if plugged:
                tid, power = cmd
                charger = scenario.charger_by_id(tid)
                pres_h = present_min / 60.0
                attainable = (
                    simulate_exact(charging_params(bus, charger), after_drive, pres_h)
                    - after_drive
                )
                charge = (
                    min(power * pres_h, attainable)
                    + noise.beta_charge_kw[tid] * pres_h
                    + params.charge_white_for(charger)
                    * math.sqrt(pres_h * 3600.0)
                    * noise.white_charge[type_ids.index(tid), k]
                )
            assert (env.charge_type[j][k] is not None) == plugged
            if not (0.0 <= after_drive <= cap and 0.0 <= after_drive + charge <= cap):
                clamped += 1
                continue
            checked += 1
            charged += plugged
            assert env.charge_gain_kwh[j, k] == close(charge)
            assert env.soc_series[j, k + 1] - level == close(charge - drive)
    assert checked > clamped and charged > 0

    load = discretize(scenario, 1.0).load_kwh
    positive = np.maximum(env.charge_gain_kwh, 0.0).sum(axis=0)
    np.testing.assert_allclose(env.meter_kwh, load + positive, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# the tabulated minute kernel against the per-minute reference


def bits(x):
    """A float's exact bit pattern (so -0.0 and 0.0 differ)."""
    return float(x).hex()


def assert_same_run(got, want):
    for name in ("soc_series", "meter_kwh", "charge_gain_kwh"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name
    assert got.charge_type == want.charge_type
    assert {k: bits(v) for k, v in got.cost_breakdown.items()} == {
        k: bits(v) for k, v in want.cost_breakdown.items()
    }


# one unit per charger type for five or six buses that arrive half full
# and dwell up to an hour: buses wait for a charger
CONTENTION = GeneratorBounds(
    n_buses=5,
    initial_soc=0.5,
    dwell_minutes=(25, 60),
    charger_specs=(("fast", 1, 120.0, 2.0), ("slow", 1, 40.0, 1.0)),
)


def drawn_day(source, seed):
    """A ``mini_scenario`` day, a generated full day of 1-3 buses, or a
    generated contention day of 5-6 buses."""
    if source == "mini":
        return mini_scenario(seed)
    if source == "contention":
        return generate_random_scenario(
            seed, dataclasses.replace(CONTENTION, n_buses=5 + seed % 2)
        )
    return generate_random_scenario(seed, GeneratorBounds(n_buses=1 + seed % 3))


def both_environments(scenario, params, noise_seed, arrival=None):
    """The package's and the reference truth model on one noise draw, its
    arrival shifts replaced by ``arrival`` when given."""
    n = _step_count(scenario.day_start_min, scenario.day_end_min, TRUTH_DELTA_MIN)
    noise = sample_run_noise(scenario, params, noise_seed, n)
    if arrival is not None:
        noise = dataclasses.replace(noise, arrival_shift_s=arrival)
    return (
        TruthEnvironment(scenario, noise, params),
        ReferenceEnvironment(scenario, noise, params),
    )


def noise_params(kind):
    return {
        "default": NoiseParams(),
        "zero": NoiseParams.zero(),
        # arrivals shifted by up to an hour: clamped to the previous
        # departure or to the visit's end
        "wide_arrivals": NoiseParams(arrival_sigma_s=1800.0),
    }[kind]


def with_load_profile(scenario, rng):
    """The day with a load profile of one to three rows, the first of them
    possibly before the day starts."""
    t0, t1 = scenario.day_start_min, scenario.day_end_min
    times = sorted(
        {int(t) for t in rng.integers(t0 - 30, t1 - 1, size=int(rng.integers(1, 4)))}
    )
    rows = tuple((t, float(rng.uniform(0.0, 40.0))) for t in times)
    return dataclasses.replace(scenario, load_profile=rows)


day_sources = st.sampled_from(["mini", "generated"])
noise_kinds = st.sampled_from(["default", "default", "zero"])


@settings(max_examples=80, deadline=None)
@given(
    source=st.sampled_from(["mini", "generated", "contention", "contention", "hand"]),
    scenario_seed=st.integers(0, 10_000),
    noise_seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["default", "default", "zero", "wide_arrivals"]),
    load_seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
)
def test_kernel_matches_reference_qin(source, scenario_seed, noise_seed, kind, load_seed):
    # the session-stepping controller against the per-minute one on the
    # per-minute truth model; with a load on the meter, the order in which
    # a minute's charging buses are added up shows in its bits.  "hand"
    # draws the hand cases below (session edges: releases, hand-offs and
    # arrivals on the same minute) under other noise and loads
    arrival = None
    if source == "hand":
        case = sorted(QIN_HAND_CASES)[scenario_seed % len(QIN_HAND_CASES)]
        scenario, arrival = QIN_HAND_CASES[case]
    else:
        scenario = drawn_day(source, scenario_seed)
    if load_seed is not None:
        scenario = with_load_profile(scenario, np.random.default_rng(load_seed))
    env, ref = both_environments(scenario, noise_params(kind), noise_seed, arrival)
    assert_same_run(strategy_qin(env), reference_qin(ref))


def waiting_minutes(env):
    """Run the per-minute controller; count the bus-minutes spent waiting
    after a minute's service."""
    controller = ReferenceQin(env)
    waiting = 0
    while not env.done:
        env.advance(controller.commands())
        waiting += len(controller.queue)
    return waiting


def test_contention_days_leave_buses_waiting():
    # the generated contention days reach the queue code that the bundled
    # and the default generated days never do
    waits = [
        waiting_minutes(both_environments(drawn_day("contention", seed), NoiseParams(), 0)[1])
        for seed in range(4)
    ]
    assert all(w > 0 for w in waits), waits


def back_to_back_scenario(n_units=1):
    """Bus ``a`` has two station blocks back to back, bus ``b`` one visit
    over both."""
    sc = contention_scenario(initial_soc=0.5, n_units=n_units)
    a = dataclasses.replace(
        sc.buses[0],
        schedule=(
            ScheduleBlock("on_route", 300, 330, route_power_kw=30.0),
            ScheduleBlock("in_station", 330, 360, charger_type_ids=("fast",)),
            ScheduleBlock("in_station", 360, 400, charger_type_ids=("fast",)),
        ),
    )
    return dataclasses.replace(sc, buses=(a, sc.buses[1]))


def two_bus_scenario(a_blocks, b_blocks, n_units=1):
    """``contention_scenario`` with the two buses' schedules replaced."""
    sc = contention_scenario(initial_soc=0.5, n_units=n_units)
    a = dataclasses.replace(sc.buses[0], schedule=tuple(a_blocks))
    b = dataclasses.replace(sc.buses[1], schedule=tuple(b_blocks))
    return dataclasses.replace(sc, buses=(a, b))


def stay(t0, t1):
    return ScheduleBlock("in_station", t0, t1, charger_type_ids=("fast",))


def drive(t0, t1):
    return ScheduleBlock("on_route", t0, t1, route_power_kw=30.0)


# Most hand cases run on the one-unit contention day: a bus arriving at
# 330 half full charges 2 kWh a minute and is full (190 kWh) 45 minutes
# after it connects.
QIN_HAND_CASES = {
    # `b` waits behind `a` on the one unit and leaves before `a` is full
    "departs_while_queued": (
        dataclasses.replace(
            contention_scenario(initial_soc=0.5),
            buses=(
                contention_scenario(initial_soc=0.5).buses[0],
                make_bus(
                    bus_id="b",
                    schedule=[ScheduleBlock("in_station", 330, 350, charger_type_ids=("fast",))],
                    initial=0.5,
                ),
            ),
        ),
        {},
    ),
    # `a` reaches its maximum level and `b` takes the unit in that minute
    "handoff_at_max_level": (contention_scenario(initial_soc=0.5), {}),
    # `a`'s arrival is pushed past its visit's end: the visit covers no minute
    "visit_wiped_out": (contention_scenario(initial_soc=0.5), {"a:v0": 1.0e6}),
    # `a`'s second visit arrives before the first one ends and takes over
    # the minutes they share
    "back_to_back_visits": (back_to_back_scenario(), {"a:v2": -1200.0}),
    # `a`'s second visit arrives at its previous block's start, the clamp,
    # and takes over every minute of the first: the first is never seen,
    # so `a` queues once and `b` gets the second unit
    "visit_overwritten": (back_to_back_scenario(n_units=2), {"a:v2": -3600.0}),
    # `b` arrives half a minute after `a` and waits; `a` departs before it
    # is full, and `b` takes the unit in the minute `a` leaves
    "released_while_waiting": (
        two_bus_scenario([stay(330, 360), drive(360, 420)], [stay(330, 420)]),
        {"b:v0": 30.0},
    ),
    # nobody waits: `a` departs inside a session that would run to `b`'s
    # arrival, and `b` finds the unit free
    "departure_mid_session": (
        two_bus_scenario([stay(330, 350), drive(350, 420)], [drive(300, 370), stay(370, 420)]),
        {},
    ),
    # nobody waits: `a` is full inside a session that would run to `b`'s
    # arrival, and `b` takes the unit it freed
    "full_mid_session": (
        two_bus_scenario([stay(330, 420)], [drive(300, 390), stay(390, 420)]),
        {},
    ),
    # `b` arrives in the very minute `a` is full: `a` is released first
    "arrival_at_full": (
        two_bus_scenario([stay(330, 420)], [drive(300, 375), stay(375, 420)]),
        {},
    ),
    # both arrive inside minute 30, so both are seen at minute 31; `b`
    # arrived first and gets the unit, `a` takes it over when `b` is full
    "two_arrivals_one_minute": (contention_scenario(initial_soc=0.5), {"a:v0": 45.0, "b:v0": 15.0}),
}

# the first and the last minute `a` and `b` charge in, with zero noise
CHARGING_MINUTES = {
    "released_while_waiting": [(30, 59), (60, 104)],
    "departure_mid_session": [(30, 49), (70, 119)],
    "full_mid_session": [(30, 74), (90, 119)],
    "arrival_at_full": [(30, 74), (75, 119)],
    "two_arrivals_one_minute": [(76, 119), (31, 75)],
}


@pytest.mark.parametrize("case", sorted(QIN_HAND_CASES))
@pytest.mark.parametrize("kind", ["zero", "default"])
def test_qin_hand_cases_match_reference(case, kind):
    scenario, arrival = QIN_HAND_CASES[case]
    params = noise_params(kind)
    n = _step_count(scenario.day_start_min, scenario.day_end_min, TRUTH_DELTA_MIN)
    noise = dataclasses.replace(
        sample_run_noise(scenario, params, 11, n), arrival_shift_s=arrival
    )
    env = TruthEnvironment(scenario, noise, params)
    ref = ReferenceEnvironment(scenario, noise, params)
    assert_same_tables(env, ref)
    run = strategy_qin(env)
    assert_same_run(run, reference_qin(ref))
    if kind != "zero":
        return
    a, b = run.charge_gain_kwh
    if case in CHARGING_MINUTES:
        charging = [np.nonzero(row)[0] for row in (a, b)]
        assert [(m.min(), m.max()) for m in charging] == CHARGING_MINUTES[case]
    elif case == "departs_while_queued":
        assert np.nonzero(a)[0].min() == 30 and b.sum() == 0.0
    elif case == "handoff_at_max_level":
        assert np.nonzero(a)[0].max() == 74 and np.nonzero(b)[0].min() == 75
    elif case == "visit_wiped_out":
        assert a.sum() == 0.0 and np.nonzero(b)[0].min() == 30
    elif case == "back_to_back_visits":
        assert ref.arrivals["a:v2"] == 340.0
        assert ref.visit_at("a", 39).id == "a:v1" and ref.visit_at("a", 40).id == "a:v2"
    else:
        assert ref.arrivals["a:v2"] == 330.0
        assert {ref.visit_at("a", k).id for k in range(30, 100)} == {"a:v2"}
        assert np.nonzero(a)[0].min() == 30 and np.nonzero(b)[0].min() == 30


def span_key(span):
    if span is None:
        return None
    return (span.id, span.bus_id, bits(span.arrival_min), bits(span.end_min),
            span.charger_type_ids)


def row_bits(row):
    return [None if x is None else bits(x) for x in row]


def assert_same_tables(env, ref):
    """The per-run tables, the arrivals and the initial meter of a fresh
    ``TruthEnvironment`` equal the reference build's, bit for bit."""
    assert (env.t0_min, env.n_steps) == (ref.t0_min, ref.n_steps)
    assert {v: bits(t) for v, t in env.arrivals.items()} == {
        v: bits(t) for v, t in ref.arrivals.items()
    }
    assert env.meter_kwh.dtype == ref.meter_kwh.dtype
    assert env.meter_kwh.tobytes() == ref.meter_kwh.tobytes()
    for tables, (kwh, bias, white, presence, visits) in zip(env._buses, reference_tables(ref)):
        assert row_bits(tables.drive_kwh) == row_bits(kwh)
        assert row_bits(tables.drive_bias_kwh) == row_bits(bias)
        assert row_bits(tables.drive_white_kwh) == row_bits(white)
        assert row_bits(tables.presence_hours) == row_bits(presence)
        assert [span_key(v) for v in tables.visits] == [span_key(v) for v in visits]


@settings(max_examples=60, deadline=None)
@given(
    source=st.sampled_from(["mini", "generated", "contention"]),
    scenario_seed=st.integers(0, 10_000),
    noise_seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["default", "zero", "wide_arrivals"]),
    load_seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
)
def test_tables_match_reference_build(source, scenario_seed, noise_seed, kind, load_seed):
    # the per-run tables, read span by span, against the block-by-block
    # overlaps of the per-minute model
    scenario = drawn_day(source, scenario_seed)
    if load_seed is not None:
        scenario = with_load_profile(scenario, np.random.default_rng(load_seed))
    assert_same_tables(*both_environments(scenario, noise_params(kind), noise_seed))


def synthetic_plan(scenario, delta_min, rng):
    """A random plan on a ``delta_min`` grid: intervals may overlap (the
    later one wins), name a charger type the visit does not list or a bus
    the day does not have, and start off the day's first minute."""
    t0 = scenario.day_start_min + float(rng.choice([0.0, 0.0, 2.0, -delta_min]))
    n_steps = int((scenario.day_end_min - t0) // delta_min)
    bus_ids = [b.id for b in scenario.buses] + ["ghost"]
    type_ids = [ct.id for ct in scenario.charger_types] + ["unlisted"]
    intervals, gains = [], {}
    for _ in range(int(rng.integers(1, 4 * len(scenario.buses) + 2))):
        bus_id = bus_ids[int(rng.integers(len(bus_ids)))]
        tid = type_ids[int(rng.integers(len(type_ids)))]
        k0 = int(rng.integers(0, n_steps))
        k1 = int(rng.integers(k0 + 1, n_steps + 1))
        intervals.append((bus_id, tid, k0, k1))
        for kp in range(k0, k1):
            if rng.random() < 0.9:
                gains[(bus_id, kp, tid)] = float(rng.uniform(0.0, 12.0))
    return ChargePlan(
        t0_min=t0,
        delta_min=delta_min,
        n_steps=n_steps,
        intervals=tuple(intervals),
        gains=gains,
        soc={},
        step_energy=np.zeros(n_steps),
        objective_value=0.0,
        cost_breakdown={},
    )


@settings(max_examples=40, deadline=None)
@given(
    source=day_sources,
    scenario_seed=st.integers(0, 10_000),
    noise_seed=st.integers(0, 2**32 - 1),
    kind=noise_kinds,
    delta_min=st.sampled_from([5.0, 3.0]),
    solved=st.booleans(),
    plan_seed=st.integers(0, 2**32 - 1),
)
def test_kernel_matches_reference_open_loop(
    source, scenario_seed, noise_seed, kind, delta_min, solved, plan_seed
):
    # solved plans only for the short mini days; every day also gets
    # random plans
    scenario = drawn_day(source, scenario_seed)
    plan = None
    if solved and source == "mini":
        plan, _ = nominal_plan(scenario, delta_min)
    if plan is None:
        plan = synthetic_plan(scenario, delta_min, np.random.default_rng(plan_seed))
    env, ref = both_environments(scenario, noise_params(kind), noise_seed)
    assert_same_run(strategy_open_loop(env, plan), reference_open_loop(ref, plan))


@settings(max_examples=60, deadline=None)
@given(
    scenario_seed=st.integers(0, 10_000),
    noise_seed=st.integers(0, 2**32 - 1),
    command_seed=st.integers(0, 2**32 - 1),
    extreme=st.sampled_from([None, -1.0, 1.0]),
)
def test_kernel_matches_reference_advance(scenario_seed, noise_seed, command_seed, extreme):
    # raw command streams: buses on the road, types the visit does not
    # list, unknown buses, zero and unbounded power; extreme biases push
    # driving buses into one clamp and charging buses into the other
    scenario = mini_scenario(scenario_seed)
    params = NoiseParams()
    n = _step_count(scenario.day_start_min, scenario.day_end_min, TRUTH_DELTA_MIN)
    noise = sample_run_noise(scenario, params, noise_seed, n)
    if extreme is not None:
        noise = dataclasses.replace(
            noise,
            beta_discharge_kw={b.id: 3000.0 * extreme for b in scenario.buses},
            beta_charge_kw={ct.id: -20000.0 * extreme for ct in scenario.charger_types},
        )
    env = TruthEnvironment(scenario, noise, params)
    ref = ReferenceEnvironment(scenario, noise, params)
    rng = np.random.default_rng(command_seed)
    bus_ids = [b.id for b in scenario.buses] + ["ghost"]
    type_ids = [ct.id for ct in scenario.charger_types] + ["unlisted"]
    while not ref.done:
        commands = {}
        for bus_id in bus_ids:
            if rng.random() < 0.7:
                power = [0.0, math.inf, float(rng.uniform(0.0, 200.0))][int(rng.integers(3))]
                commands[bus_id] = (type_ids[int(rng.integers(len(type_ids)))], power)
        got, want = env.advance(commands), ref.advance(commands)
        assert {b: bits(v) for b, v in got.items()} == {b: bits(v) for b, v in want.items()}
        assert list(got) == list(want)
        assert {b: bits(v) for b, v in env.soc.items()} == {
            b: bits(v) for b, v in ref.soc.items()
        }
        assert env.minute_index == ref.minute_index
    with pytest.raises(RuntimeError):
        env.advance({})
    for name in ("soc_series", "meter_kwh", "charge_gain_kwh"):
        assert getattr(env, name).tobytes() == getattr(ref, name).tobytes(), name
    assert env.charge_type == ref.charge_type
    if extreme is not None:
        caps = np.array([b.capacity_kwh for b in scenario.buses]).reshape(-1, 1)
        assert (ref.soc_series == 0.0).any() and (ref.soc_series == caps).any()


# ---------------------------------------------------------------------------
# billing oracle


class TestBillingOracle:
    def test_hand_example(self):
        rates = RateSchedule()
        e = np.zeros(12)
        e[2] = 12.0
        e[11] = 5.0
        out = billing_oracle(e, 5.0, rates, 300.0)
        w = out["window_kw"]
        np.testing.assert_allclose(w[3:6], 48.0)
        assert out["demand_base"] == pytest.approx(4.81 * 48.0)
        # only instant 12 (06:00) lies in a peak window; its window holds e[11]
        assert list(np.nonzero(out["tou_instants"])[0]) == [12]
        assert out["demand_tou"] == pytest.approx(13.92 * 20.0)
        assert out["consumption"] == pytest.approx(0.026216 * 17.0)
        assert out["total"] == pytest.approx(
            0.026216 * 17.0 + 4.81 * 48.0 + 13.92 * 20.0
        )

    def test_no_peak_instants_means_no_tou_charge(self):
        out = billing_oracle([1.0, 2.0], 5.0, RateSchedule(), 600.0)
        assert not out["tou_instants"].any()
        assert out["demand_tou"] == 0.0

    @pytest.mark.parametrize("delta", [3.0, 4.0, 5.0, 20.0])
    def test_windows_match_overlap_integral(self, delta):
        rng = np.random.default_rng(5)
        e = rng.uniform(0.0, 9.0, size=16)
        out = billing_oracle(e, delta, RateSchedule(), 300.0)
        want = exact_window_power(e, delta, 15.0)
        np.testing.assert_allclose(out["window_kw"], want, atol=1e-12)

    @pytest.mark.parametrize("delta", [3.0, 4.0, 5.0])
    def test_windows_match_planner_formula_with_history(self, delta):
        rng = np.random.default_rng(6)
        e = rng.uniform(0.0, 9.0, size=14)
        hist = tuple(rng.uniform(0.0, 9.0, size=5))
        out = billing_oracle(e, delta, RateSchedule(), 300.0, history=hist)
        want = window_averages(e, delta, 15.0, history=hist)
        np.testing.assert_allclose(out["window_kw"], want, atol=1e-12)

    def test_history_completes_early_windows(self):
        rng = np.random.default_rng(7)
        e = rng.uniform(0.0, 9.0, size=12)
        full = billing_oracle(e, 5.0, RateSchedule(), 300.0)
        tail = billing_oracle(e[6:], 5.0, RateSchedule(), 330.0, history=e[:6])
        np.testing.assert_allclose(
            tail["window_kw"], full["window_kw"][6:], atol=1e-12
        )

    def test_short_series_prefix_windows(self):
        # with no history, early windows simply see zero energy before start
        out = billing_oracle([4.0], 15.0, RateSchedule(), 300.0)
        np.testing.assert_allclose(out["window_kw"], [0.0, 16.0])


# ---------------------------------------------------------------------------
# open-loop strategy


# Known fault: on generated 18-hour days the zero-noise replay bills more
# than the plan.  The planner's peak-demand rows see only windows that end
# on its own 5-minute instants, so a plan can charge hard in the last step
# before a peak window closes (seed 9: the peak demand charge is 380.20 in
# the plan and 825.64 billed); and a charging step that crosses a bus's
# CC-CV threshold plans up to `max_gain_error` more than the exact gain
# (seed 9: 0.0098 kWh at step 121).  Strict: it fails the suite once the
# invariant holds, so the marker goes when the planner is mended.
@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the planner's peak windows end only on its own grid; see CHANGES.md FOUND",
)
@settings(max_examples=10, deadline=None)
@example(seed=9)
@given(seed=st.integers(0, 10_000))
def test_zero_noise_open_loop_bills_the_plan_on_generated_days(seed):
    day = generate_random_scenario(seed, GeneratorBounds(n_buses=2))
    plan, _ = nominal_plan(day, 5.0, SolveLimits(max_nodes=30))
    if plan is None:
        return  # no schedule, nothing to replay
    run = simulate_run(day, "open_loop", 0, NoiseParams.zero(), reference=plan)
    assert not run.failed
    assert abs(run.total_cost - plan.total_cost) <= 1e-6 * plan.total_cost


class TestOpenLoop:
    def setup_method(self):
        self.sc = single_visit_scenario()
        self.plan, sol = nominal_plan(self.sc, 5.0)
        assert sol.status == "optimal"

    def test_zero_noise_reproduces_plan(self):
        run = simulate_run(
            self.sc, "open_loop", 0, NoiseParams.zero(), reference=self.plan
        )
        # realized SOC hits the planned trajectory at every planning instant
        for kp in range(self.plan.n_steps + 1):
            assert run.soc_series[0, 5 * kp] == pytest.approx(
                self.plan.soc["b1"][kp], abs=1e-9
            )
        binned = run.meter_kwh.reshape(-1, 5).sum(axis=1)
        np.testing.assert_allclose(binned, self.plan.step_energy, atol=1e-9)
        nominal = billing_oracle(
            self.plan.step_energy, 5.0, self.sc.rates, self.plan.t0_min
        )
        assert run.total_cost == pytest.approx(nominal["total"], abs=1e-9)
        assert run.violation_count == 0

    def test_front_truncation_on_late_arrival(self):
        n = self.sc.day_end_min - self.sc.day_start_min
        noise = hand_noise(self.sc, n, arrival={"b1:v1": 300.0})
        env = TruthEnvironment(self.sc, noise, NoiseParams.zero())
        run = strategy_open_loop(env, self.plan)
        start_min = self.plan.intervals[0][2] * 5 + 300
        for k in range(start_min - 300, start_min - 300 + 5):
            assert run.charge_gain_kwh[0, k] == 0.0
        assert run.charge_gain_kwh.sum() > 0.0

    def test_never_extends_past_plan(self):
        run = simulate_run(
            self.sc, "open_loop", 1, NoiseParams.zero(), reference=self.plan
        )
        (bus, tid, k0, k1) = self.plan.intervals[0]
        lo, hi = 5 * k0, 5 * k1
        charged = np.nonzero(run.charge_gain_kwh[0])[0]
        assert charged.min() >= lo and charged.max() < hi

    def test_total_miss_is_dropped(self):
        n = self.sc.day_end_min - self.sc.day_start_min
        noise = hand_noise(self.sc, n, arrival={"b1:v1": 3600.0})
        env = TruthEnvironment(self.sc, noise, NoiseParams.zero())
        run = strategy_open_loop(env, self.plan)
        assert run.charge_gain_kwh.sum() == 0.0

    def test_requires_reference(self):
        with pytest.raises(ValueError):
            simulate_run(self.sc, "open_loop", 0, NoiseParams.zero())


# ---------------------------------------------------------------------------
# reactive threshold strategy


class TestQin:
    def test_charges_below_threshold_at_full_rate(self):
        sc = single_visit_scenario()  # arrives at 125 kWh < 140 threshold
        run = simulate_run(sc, "qin", 0, NoiseParams.zero())
        gains = run.charge_gain_kwh[0]
        np.testing.assert_allclose(gains[30:45], 2.0, atol=1e-9)
        assert gains[:30].sum() == 0.0 and gains[45:].sum() == 0.0
        assert run.terminal_soc_kwh["b1"] == pytest.approx(155.0, abs=1e-9)

    def test_skips_above_threshold(self):
        sc = single_visit_scenario(initial=0.9)  # 165 kWh at arrival
        run = simulate_run(sc, "qin", 0, NoiseParams.zero())
        assert run.charge_gain_kwh.sum() == 0.0

    def test_stops_at_max_level(self):
        sc = contention_scenario(initial_soc=0.5)
        run = simulate_run(sc, "qin", 0, NoiseParams.zero())
        # bus `a` charges 100 -> 190 kWh at 2 kWh/min, releasing at +45 min
        a = run.charge_gain_kwh[0]
        assert np.nonzero(a)[0].max() == 74  # minutes 330..374
        assert run.soc_series[0, 75] == pytest.approx(190.0, abs=1e-9)
        assert a[75:].sum() == 0.0

    def test_fifo_contention_and_handoff(self):
        sc = contention_scenario(initial_soc=0.5)
        run = simulate_run(sc, "qin", 0, NoiseParams.zero())
        a, b = run.charge_gain_kwh
        # one unit: `a` (lower id) first, `b` takes over the same boundary
        assert np.nonzero(a)[0].min() == 30
        assert np.nonzero(b)[0].min() == 75
        busy = (run.charge_gain_kwh > 0).sum(axis=0)
        assert busy.max() <= 1
        assert run.terminal_soc_kwh["b"] == pytest.approx(190.0, abs=1e-9)

    def test_waits_for_earlier_arrival(self):
        sc = contention_scenario(initial_soc=0.5)
        n = sc.day_end_min - sc.day_start_min
        noise = hand_noise(sc, n, arrival={"a:v0": 120.0})  # a arrives later
        env = TruthEnvironment(sc, noise, NoiseParams.zero())
        run = strategy_qin(env)
        a, b = run.charge_gain_kwh
        assert np.nonzero(b)[0].min() == 30  # b now first
        assert np.nonzero(a)[0].min() > 30

    def test_prefers_fastest_free_type(self):
        sc = two_type_scenario(initial=0.5)
        run = simulate_run(sc, "qin", 0, NoiseParams.zero())
        used = {t for row in run.charge_type for t in row if t}
        assert used == {"fast"}


# ---------------------------------------------------------------------------
# run- and ensemble-level determinism and statistics


class TestSimulateRun:
    def test_deterministic_per_seed(self):
        sc = single_visit_scenario()
        plan, _ = nominal_plan(sc, 5.0)
        a = simulate_run(sc, "open_loop", 123, reference=plan)
        b = simulate_run(sc, "open_loop", 123, reference=plan)
        c = simulate_run(sc, "open_loop", 124, reference=plan)
        np.testing.assert_array_equal(a.soc_series, b.soc_series)
        np.testing.assert_array_equal(a.meter_kwh, b.meter_kwh)
        assert a.total_cost == b.total_cost
        assert not np.array_equal(a.soc_series, c.soc_series)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            simulate_run(single_visit_scenario(), "psychic", 0)


def report_equal(a: MCReport, b: MCReport) -> bool:
    return (
        a.run_costs == b.run_costs
        and a.mean_cost == b.mean_cost
        and a.violation_counts == b.violation_counts
        and np.array_equal(a.terminal_soc_kwh, b.terminal_soc_kwh)
        and np.array_equal(a.mean_soc_trace, b.mean_soc_trace)
        and np.array_equal(a.sigma3_soc_trace, b.sigma3_soc_trace)
        and a.sigma3_terminal_kwh == b.sigma3_terminal_kwh
    )


class TestMonteCarlo:
    def test_single_zero_noise_run_has_no_dispersion(self):
        sc = single_visit_scenario()
        plan, _ = nominal_plan(sc, 5.0)
        rep = monte_carlo(
            sc, "open_loop", 1, 42, params=NoiseParams.zero(), reference=plan
        )
        assert rep.sigma3_terminal_kwh == 0.0
        assert rep.sigma3_soc_trace.max() == 0.0
        assert rep.mean_cost == rep.run_costs[0]

    def test_reports_reproducible(self):
        sc = single_visit_scenario()
        plan, _ = nominal_plan(sc, 5.0)
        a = monte_carlo(sc, "open_loop", 4, 42, reference=plan)
        b = monte_carlo(sc, "open_loop", 4, 42, reference=plan)
        assert report_equal(a, b)

    def test_parallel_merge_matches_serial(self):
        sc = single_visit_scenario()
        plan, _ = nominal_plan(sc, 5.0)
        serial = monte_carlo(sc, "open_loop", 4, 7, reference=plan, jobs=1)
        parallel = monte_carlo(sc, "open_loop", 4, 7, reference=plan, jobs=2)
        assert report_equal(serial, parallel)

    @pytest.mark.parametrize("day", ["bundled", "generated"])
    def test_parallel_merge_matches_serial_qin(self, day):
        sc = four_bus_day() if day == "bundled" else generate_random_scenario(5)
        serial = monte_carlo(sc, "qin", 4, 7, jobs=1)
        parallel = monte_carlo(sc, "qin", 4, 7, jobs=2)
        assert report_equal(serial, parallel)

    def test_pool_has_no_more_workers_than_runs(self, monkeypatch):
        # a stand-in pool records its size and maps in this process, so no
        # worker is started
        import multiprocessing

        sizes = []

        class RecordingPool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return [fn(t) for t in tasks]

        monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
        sc = single_visit_scenario()
        serial = monte_carlo(sc, "qin", 2, 7, jobs=1)
        assert sizes == []
        wide = monte_carlo(sc, "qin", 2, 7, jobs=64)
        narrow = monte_carlo(sc, "qin", 5, 7, jobs=3)
        assert sizes == [2, 3]
        assert report_equal(serial, wide)
        assert report_equal(monte_carlo(sc, "qin", 5, 7, jobs=1), narrow)

    def test_violation_rate_counts_runs(self):
        sc = single_visit_scenario(initial=0.62, final=0.62)  # floor is 60 kWh
        plan, _ = nominal_plan(sc, 5.0)
        assert plan is not None
        big = NoiseParams(
            discharge_white_kwh_per_sqrt_s=3.0,
            arrival_sigma_s=0.0,
        )
        rep = monte_carlo(sc, "open_loop", 8, 3, params=big, reference=plan)
        hits = sum(1 for c in rep.violation_counts if c)
        assert rep.violation_rate == pytest.approx(hits / 8)
        assert (rep.worst_violation_kwh > 0) == (hits > 0)


class TestMultiDay:
    def test_one_day_equals_monte_carlo(self):
        sc = single_visit_scenario()
        plan, _ = nominal_plan(sc, 5.0)
        chain = multi_day(sc, "open_loop", 1, 3, 42)
        direct = monte_carlo(sc, "open_loop", 3, 42, reference=plan)
        assert len(chain.days) == 1 and not chain.days[0].failed
        assert report_equal(chain.days[0].report, direct)

    def test_zero_noise_chain_is_stationary(self):
        sc = single_visit_scenario()
        chain = multi_day(
            sc, "open_loop", 3, 1, 42, params=NoiseParams.zero()
        )
        assert chain.completed_days == 3
        inits = [d.initial_soc_frac["b1"] for d in chain.days]
        assert inits == pytest.approx([0.7, 0.7, 0.7], abs=1e-9)
        costs = [d.report.mean_cost for d in chain.days]
        assert costs[0] == pytest.approx(costs[1], abs=1e-6)
        assert costs[1] == pytest.approx(costs[2], abs=1e-6)

    def test_infeasible_nominal_plan_stops_chain(self):
        sc = single_visit_scenario(initial=0.2)  # below the buffered floor
        chain = multi_day(sc, "open_loop", 3, 2, 1)
        assert len(chain.days) == 1
        assert chain.days[0].failed
        assert chain.completed_days == 0

    def test_qin_needs_no_plan(self):
        sc = single_visit_scenario()
        chain = multi_day(sc, "qin", 2, 1, 5, params=NoiseParams.zero())
        assert chain.completed_days == 2


# ---------------------------------------------------------------------------
# exports


class TestExports:
    def test_trajectory_csv(self, tmp_path):
        sc = single_visit_scenario()
        run = simulate_run(sc, "qin", 0, NoiseParams.zero())
        path = tmp_path / "traj.csv"
        save_run_trajectory_csv(run, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t_min,bus,soc_kwh,charging_type,gain_kwh"
        assert len(lines) == 1 + 61  # one bus, 60 steps + final instant
        assert any(",fast," in ln for ln in lines)

    def test_report_json_and_trace_csv(self, tmp_path):
        sc = single_visit_scenario()
        plan, _ = nominal_plan(sc, 5.0)
        rep = monte_carlo(sc, "open_loop", 2, 9, reference=plan)
        jpath = tmp_path / "report.json"
        save_report_json(rep, str(jpath))
        payload = json.loads(jpath.read_text())
        assert payload["n_runs"] == 2
        assert payload["mean_cost"] == rep.mean_cost
        tpath = tmp_path / "trace.csv"
        save_trace_csv(rep, str(tpath))
        lines = tpath.read_text().strip().splitlines()
        assert lines[0] == "t,mean_soc,sigma3_lo,sigma3_hi"
        assert len(lines) == 1 + 61

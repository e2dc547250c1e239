"""Scenario model, file format, random generator, and grid discretization."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bebcharge.scenario import (
    Bus,
    ChargerType,
    GeneratorBounds,
    RateSchedule,
    Scenario,
    ScheduleBlock,
    ScenarioFormatError,
    consumption_rate_at,
    discretize,
    format_hhmm,
    generate_random_scenario,
    in_peak_window,
    load_scenario,
    parse_hhmm,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    step_overlap_minutes,
)

from helpers import mini_scenario


def tiny_scenario(**kwargs):
    """One bus, one charger type, route 06:00-07:00 then station 07:00-07:30."""
    defaults = dict(
        day_start_min=5 * 60,
        day_end_min=9 * 60,
        buses=(
            Bus(
                id="b1",
                capacity_kwh=200.0,
                eta=1.0,
                initial_soc=0.7,
                final_soc=0.7,
                min_soc=0.3,
                max_soc=0.95,
                schedule=(
                    ScheduleBlock("on_route", 360, 420, route_power_kw=30.0),
                    ScheduleBlock("in_station", 420, 450, charger_type_ids=("fast",)),
                ),
            ),
        ),
        charger_types=(ChargerType("fast", 1, 120.0, 2.0, "stn"),),
    )
    defaults.update(kwargs)
    return Scenario(**defaults)


# ---------------------------------------------------------------------------
# times and rates


@pytest.mark.parametrize("text,minutes", [("00:00", 0), ("06:05", 365), ("23:00", 1380)])
def test_hhmm_round_trip(text, minutes):
    assert parse_hhmm(text) == minutes
    assert format_hhmm(minutes) == text


@pytest.mark.parametrize("bad", ["6am", "25:99", "12", "", ":30", "xx:yy"])
def test_hhmm_rejects_garbage(bad):
    with pytest.raises(ScenarioFormatError):
        parse_hhmm(bad)


def test_peak_windows_are_half_open():
    rates = RateSchedule()
    assert not in_peak_window(rates, 359.9)
    assert in_peak_window(rates, 360.0)  # 06:00 inclusive
    assert in_peak_window(rates, 539.9)
    assert not in_peak_window(rates, 540.0)  # 09:00 exclusive
    assert in_peak_window(rates, 1080.0)
    assert not in_peak_window(rates, 1320.0)
    times = np.array([359.9, 360.0, 539.9, 540.0, 1080.0, 1320.0])
    np.testing.assert_array_equal(
        in_peak_window(rates, times), [False, True, True, False, True, False]
    )
    assert in_peak_window(rates, times.reshape(2, 3)).shape == (2, 3)


def test_consumption_rate_switches_at_boundaries():
    rates = RateSchedule()
    assert consumption_rate_at(rates, 300) == rates.consumption_offpeak_per_kwh
    assert consumption_rate_at(rates, 360) == rates.consumption_onpeak_per_kwh
    assert consumption_rate_at(rates, 540) == rates.consumption_offpeak_per_kwh
    off, on = rates.consumption_offpeak_per_kwh, rates.consumption_onpeak_per_kwh
    prices = consumption_rate_at(rates, np.array([300, 360, 540]))
    assert prices.dtype == np.float64
    np.testing.assert_array_equal(prices, [off, on, off])


# ---------------------------------------------------------------------------
# validation


def test_valid_scenario_passes():
    tiny_scenario().validate()


def test_overlapping_blocks_rejected():
    with pytest.raises(ScenarioFormatError):
        tiny_scenario(
            buses=(
                Bus(
                    id="b1",
                    capacity_kwh=200.0,
                    eta=1.0,
                    initial_soc=0.7,
                    final_soc=0.7,
                    min_soc=0.3,
                    max_soc=0.95,
                    schedule=(
                        ScheduleBlock("on_route", 360, 430, route_power_kw=30.0),
                        ScheduleBlock("in_station", 420, 450, charger_type_ids=("fast",)),
                    ),
                ),
            )
        ).validate()


def test_unknown_charger_reference_rejected():
    with pytest.raises(ScenarioFormatError):
        tiny_scenario(charger_types=(ChargerType("other", 1, 50.0, 1.0),)).validate()


def test_soc_ordering_enforced():
    with pytest.raises(ScenarioFormatError):
        Bus(
            id="b",
            capacity_kwh=100.0,
            eta=0.9,
            initial_soc=0.2,
            final_soc=0.7,
            min_soc=0.3,
            max_soc=0.95,
        ).validate()


def test_alpha_override_used_when_present():
    charger = ChargerType("fast", 1, 120.0, 2.0)
    bus = Bus(
        id="b",
        capacity_kwh=100.0,
        eta=0.9,
        initial_soc=0.7,
        final_soc=0.7,
        min_soc=0.3,
        max_soc=0.95,
        cv_alpha_override={"fast": 3.5},
    )
    assert bus.effective_alpha(charger) == 3.5
    assert Bus(
        id="b2",
        capacity_kwh=100.0,
        eta=0.9,
        initial_soc=0.7,
        final_soc=0.7,
        min_soc=0.3,
        max_soc=0.95,
    ).effective_alpha(charger) == 2.0


# ---------------------------------------------------------------------------
# file format


def test_yaml_round_trip(tmp_path):
    scn = tiny_scenario()
    path = tmp_path / "scn.yaml"
    save_scenario(scn, str(path))
    loaded = load_scenario(str(path))
    assert loaded == scn


def test_golden_scenario_file_parses_to_known_values():
    golden = load_scenario("tests/golden/scenario_example.yaml")
    assert golden.day_start_min == 300
    assert golden.day_end_min == 1380
    assert [ct.id for ct in golden.charger_types] == ["fast", "slow"]
    assert golden.charger_types[0].count == 2
    bus = golden.buses[0]
    assert bus.id == "bus01"
    assert bus.schedule[0].kind == "on_route"
    assert bus.schedule[0].start_min == parse_hhmm("05:30")
    assert bus.schedule[1].charger_type_ids == ("fast", "slow")
    assert golden.rates.consumption_onpeak_per_kwh == 0.051577
    assert golden.rates.peak_windows == ((360, 540), (1080, 1320))
    assert bus.cv_alpha_override == {"fast": 2.5}
    assert golden.load_profile[0] == (300, 1.25)


def test_golden_scenario_round_trips_byte_identically(tmp_path):
    # freeze the writer against the golden document
    golden_path = "tests/golden/scenario_example.yaml"
    scn = load_scenario(golden_path)
    out = tmp_path / "rewritten.yaml"
    save_scenario(scn, str(out))
    with open(golden_path, "rb") as fh:
        expected = fh.read()
    with open(out, "rb") as fh:
        actual = fh.read()
    assert actual == expected


def test_load_profile_csv_reference(tmp_path):
    csv = tmp_path / "loads.csv"
    csv.write_text("time,kwh_per_step\n05:00,1.5\n05:30,2.5\n", encoding="utf-8")
    doc = scenario_to_dict(tiny_scenario())
    doc["load_profile"] = {"csv": "loads.csv"}
    path = tmp_path / "scn.yaml"
    import yaml

    path.write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")
    scn = load_scenario(str(path))
    assert scn.load_profile == ((300, 1.5), (330, 2.5))


def test_missing_key_gives_clear_error():
    doc = scenario_to_dict(tiny_scenario())
    del doc["rates"]
    with pytest.raises(ScenarioFormatError, match="rates"):
        scenario_from_dict(doc)


# ---------------------------------------------------------------------------
# random generation


def test_generator_is_deterministic_per_seed(tmp_path):
    a = generate_random_scenario(7)
    b = generate_random_scenario(7)
    assert a == b
    pa, pb = tmp_path / "a.yaml", tmp_path / "b.yaml"
    save_scenario(a, str(pa))
    save_scenario(b, str(pb))
    assert pa.read_bytes() == pb.read_bytes()
    assert generate_random_scenario(8) != a


def test_generator_respects_bounds():
    bounds = GeneratorBounds(n_buses=3)
    scn = generate_random_scenario(123, bounds)
    assert len(scn.buses) == 3
    for bus in scn.buses:
        kinds = [blk.kind for blk in bus.schedule]
        assert kinds[0] == "on_route"
        # strict alternation
        for a, b in zip(kinds, kinds[1:]):
            assert a != b
        for blk in bus.schedule:
            length = blk.end_min - blk.start_min
            if blk.kind == "on_route":
                assert 45 <= length <= 150
                assert 28.0 <= blk.route_power_kw <= 36.0
            else:
                assert 20 <= length <= 45
            assert blk.start_min >= bounds.day_start_min
            assert blk.end_min <= bounds.day_end_min
        # back-to-back blocks
        for a, b in zip(bus.schedule, bus.schedule[1:]):
            assert a.end_min == b.start_min
    scn.validate()


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_generator_always_yields_valid_scenarios(seed):
    generate_random_scenario(seed).validate()


# ---------------------------------------------------------------------------
# discretization


def test_availability_only_for_steps_fully_inside_blocks():
    # station block 07:00-07:30, delta 5 -> steps covering 07:00..07:30
    inst = discretize(tiny_scenario(), 5.0)
    visits = inst.visits
    assert len(visits) == 1
    v = visits[0]
    t0 = inst.t0_min
    assert inst.instant_minutes(v.k_start) == 420
    assert inst.instant_minutes(v.k_end) == 450
    assert v.id == "b1:v1"
    assert inst.charging_types_at("b1", v.k_start) == ("fast",)
    assert inst.charging_types_at("b1", v.k_start - 1) == ()
    assert t0 == 300


def test_partial_overlap_grants_no_availability():
    # delta 7 min: block [420, 450) -> k_start = ceil(120/7)=18 (t=426),
    # k_end = floor(450-300 /7)=21 (t=447): three steps, none poking outside
    inst = discretize(tiny_scenario(), 7.0)
    v = inst.visits[0]
    assert (inst.instant_minutes(v.k_start) >= 420) and (
        inst.instant_minutes(v.k_end) <= 450
    )
    assert v.n_steps == 3


def test_block_shorter_than_step_yields_no_visit():
    scn = tiny_scenario(
        buses=(
            Bus(
                id="b1",
                capacity_kwh=200.0,
                eta=1.0,
                initial_soc=0.7,
                final_soc=0.7,
                min_soc=0.3,
                max_soc=0.95,
                schedule=(ScheduleBlock("in_station", 423, 426, charger_type_ids=("fast",)),),
            ),
        )
    )
    assert discretize(scn, 5.0).visits == ()


def test_discharge_totals_are_overlap_exact():
    scn = tiny_scenario()
    for delta in (5.0, 7.0, 11.0):
        inst = discretize(scn, delta)
        total = inst.discharge_kwh[0].sum()
        # route 06:00-07:00 at 30 kW = 30 kWh, entirely inside every window
        assert total == pytest.approx(30.0, abs=1e-9)


def test_route_discharge_splits_partial_steps():
    # route [360, 420); with delta=7 and t0=300, step k=8 covers [356, 363):
    # 3 of 7 minutes on route
    inst = discretize(tiny_scenario(), 7.0)
    assert inst.discharge_kwh[0, 8] == pytest.approx(30.0 * 3.0 / 60.0)


def test_trailing_partial_step_dropped():
    inst = discretize(tiny_scenario(), 7.0)
    # 240 minutes / 7 = 34.28... -> 34 steps
    assert inst.n_steps == 34
    assert inst.instant_minutes(inst.n_steps) <= 540


def test_load_profile_resampling_conserves_energy():
    scn = tiny_scenario(load_profile=((300, 3.0), (330, 6.0)))
    inst = discretize(scn, 5.0)
    # rows: [05:00,05:30) 3 kWh, [05:30, day_end) 6 kWh
    np.testing.assert_allclose(inst.load_kwh[:6], np.full(6, 0.5))
    assert inst.load_kwh.sum() == pytest.approx(9.0)


def test_step_rates_and_peak_instants():
    inst = discretize(tiny_scenario(), 5.0)
    rates = inst.scenario.rates
    # step starting 05:55 off-peak, step starting 06:00 on-peak
    assert inst.step_rate[11] == rates.consumption_offpeak_per_kwh
    assert inst.step_rate[12] == rates.consumption_onpeak_per_kwh
    # instant at 06:00 counts as in-peak, instant at 09:00 does not
    assert inst.instant_in_peak[12]
    assert not inst.instant_in_peak[48]


def test_window_smaller_than_day_clips():
    inst = discretize(tiny_scenario(), 5.0, t0_min=420, t_end_min=450)
    assert inst.n_steps == 6
    assert inst.visits[0].k_start == 0
    assert inst.visits[0].k_end == 6


def test_step_overlap_minutes():
    starts = 300 + 7.0 * np.arange(5)  # steps [300, 307), ..., [328, 335)
    np.testing.assert_array_equal(
        step_overlap_minutes(starts, 7.0, 305, 321.5), [2.0, 7.0, 7.0, 0.5, 0.0]
    )
    np.testing.assert_array_equal(step_overlap_minutes(starts, 7.0, 200, 290), np.zeros(5))


def scalar_discretize(scenario, delta, t0=None, t_end=None):
    """The per-step walk ``discretize`` replaced, kept as the reference: one
    scalar overlap per grid step and route block or load row, and one scalar
    rate lookup per step and instant."""

    def overlap(a0, a1, b0, b1):
        return max(0.0, min(a1, b1) - max(a0, b0))

    def in_peak(t):
        return any(lo <= t < hi for lo, hi in scenario.rates.peak_windows)

    rates = scenario.rates
    t0 = scenario.day_start_min if t0 is None else t0
    t_end = scenario.day_end_min if t_end is None else t_end
    n = int(math.floor((t_end - t0) / delta + 1e-9))
    step_starts = t0 + delta * np.arange(n)
    discharge = np.zeros((len(scenario.buses), n))
    load = np.zeros(n)
    visits = []
    for j, bus in enumerate(scenario.buses):
        for bi, block in enumerate(bus.schedule):
            if block.kind == "on_route":
                for k in range(n):
                    ov = overlap(step_starts[k], step_starts[k] + delta,
                                 block.start_min, block.end_min)
                    if ov > 0:
                        discharge[j, k] += block.route_power_kw * ov / 60.0
            elif block.kind == "in_station":
                k_start = max(int(math.ceil((block.start_min - t0) / delta - 1e-9)), 0)
                k_end = min(int(math.floor((block.end_min - t0) / delta + 1e-9)), n)
                if k_end > k_start:
                    visits.append((f"{bus.id}:v{bi}", bus.id, bi,
                                   tuple(block.charger_type_ids), k_start, k_end,
                                   block.start_min, block.end_min))
    if scenario.load_profile:
        times = [t for t, _ in scenario.load_profile]
        energies = [kwh for _, kwh in scenario.load_profile]
        ends = times[1:] + [float(max(scenario.day_end_min, times[-1] + 1))]
        for t_i, e_i, t_next in zip(times, energies, ends):
            power = e_i / ((t_next - t_i) / 60.0)
            for k in range(n):
                ov = overlap(step_starts[k], step_starts[k] + delta, t_i, t_next)
                if ov > 0:
                    load[k] += power * ov / 60.0
    step_rate = np.array([
        rates.consumption_onpeak_per_kwh if in_peak(t) else rates.consumption_offpeak_per_kwh
        for t in step_starts
    ])
    instant_in_peak = np.array([in_peak(t0 + k * delta) for k in range(n + 1)], dtype=bool)
    return discharge, load, step_rate, instant_in_peak, visits


@st.composite
def discretize_cases(draw):
    scenario = mini_scenario(draw(st.integers(0, 500)))
    profile = draw(st.sampled_from(["own", "none", "rows"]))
    if profile == "none":
        scenario = dataclasses.replace(scenario, load_profile=())
    elif profile == "rows":
        times = draw(st.lists(
            st.integers(scenario.day_start_min - 20, scenario.day_end_min + 5),
            min_size=1, max_size=5, unique=True,
        ))
        energies = draw(st.lists(st.floats(0.0, 9.0), min_size=len(times), max_size=len(times)))
        scenario = dataclasses.replace(
            scenario, load_profile=tuple(zip(sorted(times), energies))
        )
    # mini days put routes before 07:00 and after 06:00; a moved peak window
    # cuts through them
    if draw(st.booleans()):
        lo = draw(st.integers(scenario.day_start_min - 10, scenario.day_end_min))
        scenario = dataclasses.replace(
            scenario,
            rates=dataclasses.replace(scenario.rates, peak_windows=((lo, lo + 37),)),
        )
    delta = draw(st.sampled_from([1.0, 2.5, 5.0, 7.0, 15.0]))
    t0 = t_end = None
    if draw(st.booleans()):  # shifted start
        t0 = scenario.day_start_min + draw(st.integers(-10, 40))
    if draw(st.booleans()):  # clipped or stretched end, not always on the grid
        t_end = scenario.day_end_min - draw(st.integers(-5, 40)) + draw(st.sampled_from([0.0, 0.5]))
    start = scenario.day_start_min if t0 is None else t0
    end = scenario.day_end_min if t_end is None else t_end
    assume(end - start >= delta)
    return scenario, delta, t0, t_end


@settings(max_examples=250, deadline=None)
@given(case=discretize_cases())
def test_discretize_matches_the_scalar_step_walk(case):
    scenario, delta, t0, t_end = case
    inst = discretize(scenario, delta, t0_min=t0, t_end_min=t_end)
    discharge, load, step_rate, instant_in_peak, visits = scalar_discretize(
        scenario, delta, t0, t_end
    )
    for got, want in [(inst.discharge_kwh, discharge), (inst.load_kwh, load),
                      (inst.step_rate, step_rate), (inst.instant_in_peak, instant_in_peak)]:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert [
        (v.id, v.bus_id, v.block_index, v.charger_type_ids, v.k_start, v.k_end,
         v.start_min, v.end_min)
        for v in inst.visits
    ] == visits


@pytest.mark.parametrize("delta", [1.0, 2.5, 5.0])
@pytest.mark.parametrize("shift", [-10, 3, 17])
def test_discretize_load_for_windows_off_the_day_start(delta, shift):
    # windows starting before, or part-way into, the profile's rows
    scenario = tiny_scenario(load_profile=((295, 1.0), (310, 4.0), (333, 2.5)))
    t0 = scenario.day_start_min + shift
    inst = discretize(scenario, delta, t0_min=t0)
    load = scalar_discretize(scenario, delta, t0)[1]
    assert inst.load_kwh.tobytes() == load.tobytes()
    assert inst.load_kwh.sum() > 0.0

"""CC-CV charge model: discretization exactness, bound geometry, error formula."""

import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bebcharge.charge_model import (
    ContinuousChargeParams,
    continuous_params,
    discretize_params,
    gain_upper_bound,
    ideal_gain_bound,
    max_gain_error,
    simulate_exact,
    step_size_for_error,
    switching_point,
)


def make_params(p=120.0, alpha=2.0, eta=0.8, cap=300.0):
    return continuous_params(p, alpha, eta, cap)


# ---------------------------------------------------------------------------
# continuous-time parameters


def test_cc_phase_is_constant_power():
    c = make_params()
    assert c.a_cc == 0.0
    assert c.b_cc == 120.0


def test_cv_phase_rate_continuity_at_threshold():
    c = make_params(p=100.0, alpha=1.5, eta=0.8, cap=200.0)
    # ds/dt just above the threshold must match the CC rate.
    assert c.a_cv == -1.5
    assert c.b_cv == pytest.approx(1.5 * 0.8 * 200.0 + 100.0)
    rate_at_threshold = c.a_cv * c.threshold + c.b_cv
    assert rate_at_threshold == pytest.approx(c.p_cc)


def test_t_cc_is_time_to_threshold_at_full_rate():
    c = make_params(p=100.0, eta=0.8, cap=200.0)
    assert c.t_cc == pytest.approx(1.6)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(p_cc_kw=0.0, alpha_per_hour=1.0, eta=0.8, capacity_kwh=100.0),
        dict(p_cc_kw=50.0, alpha_per_hour=-1.0, eta=0.8, capacity_kwh=100.0),
        dict(p_cc_kw=50.0, alpha_per_hour=1.0, eta=0.0, capacity_kwh=100.0),
        dict(p_cc_kw=50.0, alpha_per_hour=1.0, eta=1.2, capacity_kwh=100.0),
        dict(p_cc_kw=50.0, alpha_per_hour=1.0, eta=0.8, capacity_kwh=-5.0),
    ],
)
def test_invalid_continuous_params_rejected(kwargs):
    with pytest.raises(ValueError):
        continuous_params(**kwargs)


# ---------------------------------------------------------------------------
# exact discretization


def test_discretization_closed_forms():
    c = make_params(p=100.0, alpha=2.0, eta=0.8, cap=200.0)
    d = discretize_params(c, 0.25)
    assert d.a_bar_cc == 1.0
    assert d.b_bar_cc == pytest.approx(25.0)
    assert d.a_bar_cv == pytest.approx(math.exp(-0.5))
    assert d.b_bar_cv == pytest.approx((math.exp(-0.5) - 1.0) / -2.0 * c.b_cv)


def test_discretization_rejects_nonpositive_step():
    with pytest.raises(ValueError):
        discretize_params(make_params(), 0.0)


def _recursion(d, s0, n, phase):
    s = s0
    for _ in range(n):
        if phase == "cc":
            s = d.a_bar_cc * s + d.b_bar_cc
        else:
            s = d.a_bar_cv * s + d.b_bar_cv
    return s


def test_cc_recursion_matches_closed_form():
    c = make_params(p=50.0, alpha=1.0, eta=0.9, cap=400.0)
    d = discretize_params(c, 1.0 / 12.0)
    s0 = 10.0
    n = 8
    assert _recursion(d, s0, n, "cc") == pytest.approx(
        simulate_exact(c, s0, n * d.delta), rel=1e-12
    )


def test_cv_recursion_matches_closed_form():
    c = make_params(p=50.0, alpha=3.0, eta=0.7, cap=200.0)
    d = discretize_params(c, 0.1)
    s0 = c.threshold + 5.0
    n = 10
    assert _recursion(d, s0, n, "cv") == pytest.approx(
        simulate_exact(c, s0, n * d.delta), rel=1e-12
    )


@settings(max_examples=80, deadline=None)
@given(
    p=st.floats(20.0, 300.0),
    alpha=st.floats(0.5, 5.0),
    eta=st.floats(0.5, 0.95),
    cap=st.floats(100.0, 500.0),
    delta_min=st.floats(1.0, 20.0),
    n=st.integers(1, 15),
)
def test_cv_recursion_matches_closed_form_property(p, alpha, eta, cap, delta_min, n):
    # keep the CV asymptote inside the pack so the truth clamp stays inactive
    alpha = max(alpha, 1.05 * p / (cap * (1.0 - eta)))
    c = continuous_params(p, alpha, eta, cap)
    d = discretize_params(c, delta_min / 60.0)
    s0 = c.threshold
    exact = simulate_exact(c, s0, n * d.delta)
    rec = _recursion(d, s0, n, "cv")
    assert rec == pytest.approx(exact, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# gain bounds


def test_gain_bound_is_concave_min_of_two_lines():
    c = make_params()
    d = discretize_params(c, 0.25)
    s = np.linspace(0.0, c.capacity, 500)
    cv_line = (d.a_bar_cv - 1.0) * s + d.b_bar_cv
    expected = np.maximum(np.minimum(d.b_bar_cc, cv_line), 0.0)
    np.testing.assert_allclose(gain_upper_bound(d, s), expected)


def test_gain_bound_scalar_round_trip():
    d = discretize_params(make_params(), 0.1)
    val = gain_upper_bound(d, 10.0)
    assert isinstance(val, float)
    assert val == pytest.approx(d.b_bar_cc)


@settings(max_examples=60, deadline=None)
@given(
    s=st.floats(0.0, 500.0),
    p=st.floats(20.0, 300.0),
    alpha=st.floats(0.3, 5.0),
    eta=st.floats(0.4, 1.0),
    cap=st.floats(100.0, 500.0),
)
def test_conservative_never_exceeds_ideal(s, p, alpha, eta, cap):
    d = discretize_params(continuous_params(p, alpha, eta, cap), 1.0 / 12.0)
    assert gain_upper_bound(d, s) <= ideal_gain_bound(d, s) + 1e-12
    assert gain_upper_bound(d, s) >= 0.0


def test_bounds_coincide_outside_gap_interval():
    c = make_params()
    d = discretize_params(c, 0.25)
    s_x = switching_point(d)
    below = np.linspace(0.0, s_x - 1e-9, 100)
    above = np.linspace(c.threshold, c.capacity, 100)
    np.testing.assert_allclose(gain_upper_bound(d, below), ideal_gain_bound(d, below))
    np.testing.assert_allclose(gain_upper_bound(d, above), ideal_gain_bound(d, above))


def test_switching_point_sits_just_below_threshold():
    for delta in (1.0 / 60.0, 1.0 / 12.0, 0.25, 0.5):
        d = discretize_params(make_params(), delta)
        s_x = switching_point(d)
        assert s_x < d.continuous.threshold
        assert d.continuous.threshold - s_x < d.b_bar_cc


def test_switching_point_is_where_the_lines_cross():
    d = discretize_params(make_params(), 0.2)
    s_x = switching_point(d)
    cv_at_sx = (d.a_bar_cv - 1.0) * s_x + d.b_bar_cv
    assert cv_at_sx == pytest.approx(d.b_bar_cc, rel=1e-12)


def test_max_gain_error_matches_worst_case_shortfall():
    c = make_params(p=80.0, alpha=1.7, eta=0.85, cap=250.0)
    d = discretize_params(c, 0.25)
    s_edge = np.nextafter(c.threshold, 0.0)
    shortfall = ideal_gain_bound(d, s_edge) - gain_upper_bound(d, s_edge)
    assert shortfall == pytest.approx(max_gain_error(d), rel=1e-9)
    # nowhere is the gap wider
    s = np.linspace(0.0, c.capacity, 20000)
    gaps = ideal_gain_bound(d, s) - gain_upper_bound(d, s)
    assert gaps.max() <= max_gain_error(d) + 1e-9


def test_max_gain_error_increases_with_step_and_stays_below_ceiling():
    c = make_params()
    errs = [max_gain_error(discretize_params(c, x)) for x in (0.05, 0.1, 0.2, 0.4)]
    assert all(e2 > e1 for e1, e2 in zip(errs, errs[1:]))
    for x in (0.05, 0.1, 0.2, 0.4):
        d = discretize_params(c, x)
        assert 0.0 < max_gain_error(d) < d.b_bar_cc


# ---------------------------------------------------------------------------
# step-size search


def test_step_size_for_error_brackets_the_tolerance():
    c = make_params()
    eps = 0.05
    delta = step_size_for_error(c, eps)
    assert max_gain_error(discretize_params(c, delta)) <= eps
    assert max_gain_error(discretize_params(c, 2.0 * delta)) > eps


def test_step_size_for_error_hits_grid_ceiling_for_loose_tolerance():
    c = make_params()
    loose = max_gain_error(discretize_params(c, 10.0)) + 1.0
    assert step_size_for_error(c, loose) == 10.0


def test_step_size_for_error_rejects_unattainable_tolerance():
    with pytest.raises(ValueError):
        step_size_for_error(make_params(), 1e-30)


# ---------------------------------------------------------------------------
# closed-form simulator


def test_simulate_exact_pure_cc_segment():
    c = make_params(p=100.0, eta=0.8, cap=200.0)
    assert simulate_exact(c, 20.0, 0.5) == pytest.approx(70.0)


def test_simulate_exact_crossing_is_continuous_and_monotone():
    c = make_params(p=100.0, alpha=2.0, eta=0.8, cap=200.0)
    s0 = c.threshold - 10.0
    t_hit = 10.0 / c.p_cc
    levels = [simulate_exact(c, s0, t) for t in np.linspace(0.0, 4.0 * t_hit, 400)]
    diffs = np.diff(levels)
    assert (diffs >= -1e-12).all()
    just_before = simulate_exact(c, s0, t_hit - 1e-9)
    just_after = simulate_exact(c, s0, t_hit + 1e-9)
    assert just_after - just_before < 1e-6
    assert simulate_exact(c, s0, t_hit) == pytest.approx(c.threshold)


def test_simulate_exact_clamps_at_capacity():
    c = make_params(p=200.0, alpha=0.2, eta=0.9, cap=100.0)  # asymptote above pack
    assert c.asymptote > c.capacity
    assert simulate_exact(c, 50.0, 100.0) == pytest.approx(c.capacity)
    assert simulate_exact(c, 50.0, 100.0, clamp=False) > c.capacity


def test_simulate_exact_never_drains_above_asymptote():
    c = make_params(p=10.0, alpha=0.1, eta=0.5, cap=500.0)
    s0 = c.asymptote + 50.0
    assert s0 < c.capacity
    assert simulate_exact(c, s0, 2.0) == s0


def test_simulate_exact_rejects_negative_duration():
    with pytest.raises(ValueError):
        simulate_exact(make_params(), 0.0, -1.0)


def property_simulate_exact(params, s0, duration_hours, clamp=True):
    """``simulate_exact`` as it read when ``threshold`` and ``asymptote``
    were properties computed on every call and the clamps were
    ``max``/``min``: the reference for the stored-constant form."""
    if duration_hours < 0.0:
        raise ValueError(f"duration must be non-negative, got {duration_hours}")
    s_th = params.eta * params.capacity
    s_inf = s_th + params.p_cc / params.alpha
    if s0 < s_th:
        t_hit = (s_th - s0) / params.p_cc
        if duration_hours <= t_hit:
            s = s0 + params.p_cc * duration_hours
        else:
            t_cv = duration_hours - t_hit
            s = s_inf + (s_th - s_inf) * math.exp(-params.alpha * t_cv)
    else:
        s = s_inf + (s0 - s_inf) * math.exp(-params.alpha * duration_hours)
    s = max(s, s0)
    if clamp:
        s = min(s, params.capacity)
    return s


def start_and_duration(c, phase, u, v):
    """A starting level and a duration (h) that put one call in ``phase``;
    ``u`` and ``v`` in [0, 1] place them within it."""
    th = c.threshold
    if phase == "cc":  # stays below the threshold
        s0 = u * th
        return s0, v * (th - s0) / c.p_cc
    if phase == "crossing":  # reaches the threshold exactly, or passes it
        s0 = u * th
        return s0, (th - s0) / c.p_cc + v * 3.0
    if phase == "at_threshold":
        return th, v * 3.0
    if phase == "cv":
        return th + u * (c.capacity - th), v * 3.0
    if phase == "above_capacity":
        return c.capacity * (1.0 + u), v * 3.0
    return u * 1.5 * c.capacity, 0.0  # zero duration


@settings(max_examples=600, deadline=None)
@given(
    p=st.floats(1.0, 500.0),
    alpha=st.floats(0.05, 10.0),
    eta=st.floats(0.05, 1.0),
    cap=st.floats(5.0, 1000.0),
    phase=st.sampled_from(
        ["cc", "crossing", "at_threshold", "cv", "above_capacity", "zero"]
    ),
    u=st.floats(0.0, 1.0),
    v=st.floats(0.0, 1.0),
    clamp=st.booleans(),
)
def test_simulate_exact_matches_the_property_form(p, alpha, eta, cap, phase, u, v, clamp):
    c = continuous_params(p, alpha, eta, cap)
    assert c.threshold.hex() == (eta * cap).hex()
    assert c.asymptote.hex() == (eta * cap + p / alpha).hex()
    s0, hours = start_and_duration(c, phase, u, v)
    got = simulate_exact(c, s0, hours, clamp)
    want = property_simulate_exact(c, s0, hours, clamp)
    assert type(got) is type(want)
    assert got.hex() == want.hex()


def test_stored_constants_keep_the_value_semantics():
    c = make_params()
    inputs = [f.name for f in dataclasses.fields(c) if f.init]
    assert inputs == ["p_cc", "alpha", "eta", "capacity", "a_cc", "b_cc", "a_cv", "b_cv", "t_cc"]
    values = tuple(getattr(c, name) for name in inputs)
    twin = ContinuousChargeParams(*values)
    assert twin is not c and twin == c
    # equality, hashing and the repr read the nine inputs only
    assert hash(twin) == hash(c) == hash(values)
    assert repr(c) == "ContinuousChargeParams(" + ", ".join(
        f"{name}={value!r}" for name, value in zip(inputs, values)
    ) + ")"
    assert (twin.threshold, twin.asymptote) == (c.threshold, c.asymptote)
    back = pickle.loads(pickle.dumps(c))
    assert back == c and hash(back) == hash(c)
    assert (back.threshold, back.asymptote) == (c.threshold, c.asymptote)
    # replace derives them again from the replaced inputs
    bigger = dataclasses.replace(c, capacity=400.0)
    assert bigger != c
    assert bigger.threshold == bigger.eta * 400.0
    assert bigger.asymptote == bigger.threshold + bigger.p_cc / bigger.alpha
    assert dataclasses.replace(c) == c
    with pytest.raises(dataclasses.FrozenInstanceError):
        c.threshold = 1.0


def test_equal_arguments_share_parameters_of_their_own_types():
    c = continuous_params(120.0, 2.0, 0.8, 300.0)
    assert continuous_params(120.0, 2.0, 0.8, 300.0) is c
    ints = continuous_params(120, 2.0, 0.8, 300)
    assert ints == c and ints is not c
    assert type(ints.p_cc) is int and type(ints.capacity) is int
    assert type(c.p_cc) is float and type(c.capacity) is float

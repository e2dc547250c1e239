"""Piecewise-linear CC-CV battery charging model.

A plug-in charger delivers a constant current (constant power ``p_cc``) until
the charge level reaches the CC-CV threshold ``eta * capacity``, after which the
charger tapers exponentially (constant-voltage phase) with decay rate ``alpha``.
Both phases are affine time-invariant systems in the charge level ``s`` (kWh):

    ds/dt = a_cc * s + b_cc     for 0 <= s < eta * capacity   (a_cc = 0, b_cc = p_cc)
    ds/dt = a_cv * s + b_cv     for s >= eta * capacity       (a_cv = -alpha)

Continuity of the rate at the threshold fixes ``b_cv = alpha * eta * capacity
+ p_cc``, so the CV phase decays toward the asymptote ``eta * capacity +
p_cc / alpha``.

For a scheduling model on a fixed time step ``delta`` each phase discretizes
exactly (zero-order hold on nothing; the systems are autonomous):

    s[k+1] = a_bar * s[k] + b_bar,   a_bar = exp(a * delta),
                                     b_bar = (a_bar - 1) / a * b     (b * delta when a = 0)

The one-step energy gain ``g = s[k+1] - s[k]`` therefore satisfies two affine
upper bounds whose pointwise minimum is concave in ``s``: the CC ceiling
``b_bar_cc`` and the CV line ``(a_bar_cv - 1) s + b_bar_cv``.  Taking the
minimum *everywhere* (instead of switching at ``eta * capacity``) is
conservative: the two lines cross at ``switching_point() < eta * capacity`` and
the worst-case shortfall against the exact phase-switched bound is
``max_gain_error()``, which shrinks to zero with ``delta``.

Units throughout: kWh for energy, kW for power, hours for time, ``alpha`` in
1/hours.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ContinuousChargeParams",
    "DiscreteChargeParams",
    "continuous_params",
    "discretize_params",
    "gain_upper_bound",
    "ideal_gain_bound",
    "switching_point",
    "max_gain_error",
    "step_size_for_error",
    "simulate_exact",
]


@dataclass(frozen=True)
class ContinuousChargeParams:
    """Continuous-time CC-CV parameters for one (charger, battery) pairing.

    Attributes:
        p_cc: constant-current charging power, kW.
        alpha: CV-phase decay rate, 1/h.
        eta: fraction of capacity where CC hands over to CV, in (0, 1].
        capacity: battery capacity, kWh.
        a_cc, b_cc: CC-phase affine dynamics (a_cc is always 0.0).
        a_cv, b_cv: CV-phase affine dynamics (a_cv = -alpha).
        t_cc: time to fill from empty to the CC-CV threshold at full rate, h.
        threshold: charge level where the CV phase begins, ``eta *
            capacity``, kWh.
        asymptote: charge level the CV phase decays toward, ``threshold +
            p_cc / alpha``, kWh.

    ``threshold`` and ``asymptote`` are derived, not passed: they are
    computed once, when the parameters are made (also by
    ``dataclasses.replace``), so :func:`simulate_exact`, which the truth
    model calls for every charging minute, reads them instead of
    recomputing them.  They take no part in equality, hashing or the repr.
    """

    p_cc: float
    alpha: float
    eta: float
    capacity: float
    a_cc: float
    b_cc: float
    a_cv: float
    b_cv: float
    t_cc: float
    threshold: float = field(init=False, repr=False, compare=False)
    asymptote: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        threshold = self.eta * self.capacity
        object.__setattr__(self, "threshold", threshold)
        object.__setattr__(self, "asymptote", threshold + self.p_cc / self.alpha)


@dataclass(frozen=True)
class DiscreteChargeParams:
    """Exact discretization of :class:`ContinuousChargeParams` on step ``delta``.

    Attributes:
        a_bar_cc, b_bar_cc: CC-phase one-step recursion (a_bar_cc is 1.0,
            b_bar_cc = p_cc * delta, kWh per step).
        a_bar_cv, b_bar_cv: CV-phase one-step recursion.
        delta: step length, h.
        continuous: the parameters this was derived from.
    """

    a_bar_cc: float
    b_bar_cc: float
    a_bar_cv: float
    b_bar_cv: float
    delta: float
    continuous: ContinuousChargeParams


@functools.lru_cache(maxsize=1024, typed=True)
def continuous_params(
    p_cc_kw: float, alpha_per_hour: float, eta: float, capacity_kwh: float
) -> ContinuousChargeParams:
    """Build continuous-time CC-CV parameters, enforcing rate continuity.

    Raises ValueError for non-positive power/decay/capacity or eta outside
    (0, 1].  The parameters are immutable, so equal arguments (of equal
    types) share one object: the truth model asks for every (bus, charger
    type) pairing in every run.
    """
    if p_cc_kw <= 0.0:
        raise ValueError(f"p_cc must be positive, got {p_cc_kw}")
    if alpha_per_hour <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha_per_hour}")
    if not (0.0 < eta <= 1.0):
        raise ValueError(f"eta must lie in (0, 1], got {eta}")
    if capacity_kwh <= 0.0:
        raise ValueError(f"capacity must be positive, got {capacity_kwh}")
    t_cc = eta * capacity_kwh / p_cc_kw
    # b_cv makes ds/dt continuous at s = eta * capacity:
    #   -alpha * eta * capacity + b_cv = p_cc
    b_cv = alpha_per_hour * p_cc_kw * t_cc + p_cc_kw
    return ContinuousChargeParams(
        p_cc=p_cc_kw,
        alpha=alpha_per_hour,
        eta=eta,
        capacity=capacity_kwh,
        a_cc=0.0,
        b_cc=p_cc_kw,
        a_cv=-alpha_per_hour,
        b_cv=b_cv,
        t_cc=t_cc,
    )


def discretize_params(params: ContinuousChargeParams, delta_hours: float) -> DiscreteChargeParams:
    """Exactly discretize both phases on a step of ``delta_hours``.

    For an affine system ds/dt = a s + b the step map is
    s[k+1] = e^(a delta) s[k] + (e^(a delta) - 1) / a * b, with the a -> 0
    limit b * delta for the CC phase.
    """
    if delta_hours <= 0.0:
        raise ValueError(f"delta must be positive, got {delta_hours}")
    a_bar_cv = math.exp(params.a_cv * delta_hours)
    b_bar_cv = (a_bar_cv - 1.0) / params.a_cv * params.b_cv
    return DiscreteChargeParams(
        a_bar_cc=1.0,
        b_bar_cc=params.b_cc * delta_hours,
        a_bar_cv=a_bar_cv,
        b_bar_cv=b_bar_cv,
        delta=delta_hours,
        continuous=params,
    )


def gain_upper_bound(disc: DiscreteChargeParams, s):
    """Concave conservative one-step gain bound at charge level ``s``.

    min(b_bar_cc, (a_bar_cv - 1) s + b_bar_cv), floored at zero.  Accepts a
    scalar or ndarray.  Conservative: never exceeds :func:`ideal_gain_bound`,
    and coincides with it outside (switching_point, eta * capacity).
    """
    s = np.asarray(s, dtype=float)
    cv_line = (disc.a_bar_cv - 1.0) * s + disc.b_bar_cv
    bound = np.minimum(disc.b_bar_cc, cv_line)
    bound = np.maximum(bound, 0.0)
    if bound.ndim == 0:
        return float(bound)
    return bound


def ideal_gain_bound(disc: DiscreteChargeParams, s):
    """Phase-switched one-step gain bound: CC ceiling below the threshold,
    CV line above it.  Floored at zero; scalar or ndarray."""
    s = np.asarray(s, dtype=float)
    cv_line = (disc.a_bar_cv - 1.0) * s + disc.b_bar_cv
    bound = np.where(s < disc.continuous.threshold, disc.b_bar_cc, cv_line)
    bound = np.maximum(bound, 0.0)
    if bound.ndim == 0:
        return float(bound)
    return bound


def switching_point(disc: DiscreteChargeParams) -> float:
    """Charge level where the CC ceiling and the CV line intersect, kWh.

    Solving b_bar_cc = (a_bar_cv - 1) s + b_bar_cv gives

        s_x = p_cc * delta / (exp(-alpha delta) - 1) + p_cc * t_cc + p_cc / alpha.

    Always below the CC-CV threshold, by strictly less than b_bar_cc.
    """
    c = disc.continuous
    return (
        c.p_cc * disc.delta / (disc.a_bar_cv - 1.0)
        + c.p_cc * c.t_cc
        + c.p_cc / c.alpha
    )


def max_gain_error(disc: DiscreteChargeParams) -> float:
    """Worst-case shortfall of the concave bound against the phase-switched one.

    The gap opens on (switching_point, threshold) and is widest just below the
    threshold:

        |g_err| = (1 - (1 - exp(-alpha delta)) / (alpha delta)) * b_bar_cc,

    strictly between 0 and b_bar_cc, increasing in delta.
    """
    z = disc.continuous.alpha * disc.delta
    return (1.0 - (1.0 - math.exp(-z)) / z) * disc.b_bar_cc


def step_size_for_error(params: ContinuousChargeParams, eps_d: float) -> float:
    """Largest step (hours) whose :func:`max_gain_error` stays within ``eps_d``.

    Bisects log-spaced steps between 1e-9 h and 10 h; the error is strictly
    increasing in delta, so the bracket [lo, hi] keeps error(lo) <= eps_d <
    error(hi) and lo is returned once the bracket is tighter than 1e-6 h.

    Raises ValueError when even the 1e-9 h floor violates ``eps_d``.
    """
    floor, ceil = 1e-9, 10.0

    def err(delta: float) -> float:
        return max_gain_error(discretize_params(params, delta))

    if err(ceil) <= eps_d:
        return ceil
    if err(floor) > eps_d:
        raise ValueError(
            f"eps_d={eps_d} unattainable: error at the {floor} h grid floor "
            f"is already {err(floor)}"
        )
    lo, hi = floor, ceil
    while hi - lo > 1e-6:
        mid = math.sqrt(lo * hi)
        if err(mid) <= eps_d:
            lo = mid
        else:
            hi = mid
    return lo


def simulate_exact(
    params: ContinuousChargeParams,
    s0: float,
    duration_hours: float,
    clamp: bool = True,
) -> float:
    """Exact closed-form charge level after charging at full rate for a duration.

    Handles the CC->CV crossing mid-interval.  From a level below the
    threshold the CC ramp runs for (threshold - s0) / p_cc hours, then the CV
    phase decays toward the asymptote; from a level at or above the threshold
    the whole interval is CV.  ``clamp`` additionally caps the result at the
    physical capacity (truth-model behaviour); the charger never drains, so the
    result is never below ``s0``.
    """
    if duration_hours < 0.0:
        raise ValueError(f"duration must be non-negative, got {duration_hours}")
    s_th = params.threshold
    s_inf = params.asymptote
    if s0 < s_th:
        t_hit = (s_th - s0) / params.p_cc
        if duration_hours <= t_hit:
            s = s0 + params.p_cc * duration_hours
        else:
            t_cv = duration_hours - t_hit
            s = s_inf + (s_th - s_inf) * math.exp(-params.alpha * t_cv)
    else:
        s = s_inf + (s0 - s_inf) * math.exp(-params.alpha * duration_hours)
    # the clamps compare as max(s, s0) and min(s, capacity) do
    if s < s0:
        s = s0
    if clamp and s > params.capacity:
        s = params.capacity
    return s

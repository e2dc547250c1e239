"""Stochastic truth simulation and Monte-Carlo evaluation of charging strategies.

The *truth environment* re-runs a scenario on a fine one-minute grid with
random disturbances layered on top of the nominal physics:

* route discharge gets a per-bus bias (kW, drawn once per run) plus white
  noise scaled by the square root of the driving time;
* charging gets a per-charger-type bias and white stream, applied only while
  a bus is actually plugged in, on top of the exact CC-CV attainable gain;
* station arrivals shift by a per-visit Gaussian perturbation (seconds),
  clamped so a bus never arrives before it departed the previous stop nor
  after the visit ends.  Departures are never perturbed.

Billing is done by an independent tariff oracle (:func:`billing_oracle`) that
re-derives sliding-window average power from a realized meter series with
plain cumulative sums - deliberately sharing no code with the optimizer's
constraint rows, so the two can cross-check each other.

The environment tabulates, once per run, everything in a minute's update
that does not depend on the battery level (drive energy and its noise,
presence, visits, charger noise), so one kernel does only the clamps, the
exact CC-CV gain and the meter.

Three strategies can drive the environment.  The hierarchical
receding-horizon controller (dispatched lazily to
:mod:`bebcharge.receding_horizon`) steps it a minute at a time.  The reactive
threshold heuristic (:func:`strategy_qin`) runs from event to event: each
plugged-in bus charges through a whole stretch of minutes in one kernel call,
every other bus advances a stretch at a time when its level is next read,
and minutes in which nobody is plugged in or waiting are skipped.  Open-loop
replay of a precomputed plan (:func:`strategy_open_loop`) builds the whole
day's commands up front and runs each bus through them in one call.
The Monte-Carlo and multi-day functions aggregate runs into
permutation-invariant reports.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import json
import math
from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from .charge_model import ContinuousChargeParams, simulate_exact
from .graph import build_action_graph
from .milp import ChargePlan, ModelOptions, build_static_model, extract_plan
from .scenario import (
    ChargerType,
    RateSchedule,
    Scenario,
    _step_count,
    charging_params,
    consumption_rate_at,
    discretize,
    in_peak_window,
    step_load_kwh,
    step_overlap_minutes,
)
from .solver import MilpSolution, SolveLimits, branch_and_bound

TRUTH_DELTA_MIN = 1.0

# the reactive heuristic queues a bus arriving below this share of capacity
QIN_THRESHOLD = 0.7

SeedLike = Union[int, np.random.SeedSequence]


# ---------------------------------------------------------------------------
# noise model


@dataclass(frozen=True)
class NoiseParams:
    """Standard deviations of the disturbance model.

    White-noise sigmas are in kWh per square-root second (so the variance a
    stream accumulates over a fixed wall-clock span does not depend on the
    simulation grid).  Biases are in kW and drawn once per run.  Charger-side
    sigmas come in a slow and a fast flavor; a charger type counts as fast
    when its CC power reaches ``fast_threshold_kw``, unless an explicit
    per-type override is given.
    """

    discharge_white_kwh_per_sqrt_s: float = 0.05
    discharge_bias_kw: float = 1.2
    charge_white_slow_kwh_per_sqrt_s: float = 0.04167
    charge_white_fast_kwh_per_sqrt_s: float = 0.0833
    charge_bias_slow_kw: float = 1.2
    charge_bias_fast_kw: float = 2.4
    arrival_sigma_s: float = 120.0
    fast_threshold_kw: float = 100.0
    charge_white_overrides: Optional[Mapping[str, float]] = None
    charge_bias_overrides: Optional[Mapping[str, float]] = None

    def __post_init__(self) -> None:
        sigmas = [
            self.discharge_white_kwh_per_sqrt_s,
            self.discharge_bias_kw,
            self.charge_white_slow_kwh_per_sqrt_s,
            self.charge_white_fast_kwh_per_sqrt_s,
            self.charge_bias_slow_kw,
            self.charge_bias_fast_kw,
            self.arrival_sigma_s,
        ]
        for m in (self.charge_white_overrides, self.charge_bias_overrides):
            if m:
                sigmas.extend(m.values())
        if any(s < 0 for s in sigmas):
            raise ValueError("noise standard deviations must be non-negative")

    @classmethod
    def zero(cls) -> "NoiseParams":
        return cls(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def is_fast(self, charger: ChargerType) -> bool:
        return charger.p_cc_kw >= self.fast_threshold_kw

    def charge_white_for(self, charger: ChargerType) -> float:
        if self.charge_white_overrides and charger.id in self.charge_white_overrides:
            return self.charge_white_overrides[charger.id]
        if self.is_fast(charger):
            return self.charge_white_fast_kwh_per_sqrt_s
        return self.charge_white_slow_kwh_per_sqrt_s

    def charge_bias_for(self, charger: ChargerType) -> float:
        if self.charge_bias_overrides and charger.id in self.charge_bias_overrides:
            return self.charge_bias_overrides[charger.id]
        if self.is_fast(charger):
            return self.charge_bias_fast_kw
        return self.charge_bias_slow_kw


@dataclass(frozen=True)
class RunNoise:
    """One run's realized disturbances.

    ``white_discharge``/``white_charge`` hold *standard* normal draws, indexed
    [bus, step] and [charger type, step] in scenario order; the sigmas and the
    sqrt-dt scaling are applied at use time, so a zero sigma yields exactly
    zero disturbance while keeping the draw sequence identical across
    parameterizations.  ``arrival_shift_s`` maps visit ids to seconds.
    """

    beta_discharge_kw: Mapping[str, float]
    beta_charge_kw: Mapping[str, float]
    arrival_shift_s: Mapping[str, float]
    white_discharge: np.ndarray
    white_charge: np.ndarray


def sample_run_noise(
    scenario: Scenario,
    params: NoiseParams,
    seed: SeedLike,
    n_steps: int,
) -> RunNoise:
    """Draw one run's disturbances.

    Draw order is fixed and documented so runs are reproducible from the seed
    alone: discharge biases per bus (scenario order), charge biases per
    charger type, arrival shifts per station visit (bus order, then schedule
    order), then the two white matrices.
    """
    rng = np.random.default_rng(seed)
    beta_d = {
        bus.id: params.discharge_bias_kw * rng.standard_normal()
        for bus in scenario.buses
    }
    beta_c = {
        ct.id: params.charge_bias_for(ct) * rng.standard_normal()
        for ct in scenario.charger_types
    }
    arrival: Dict[str, float] = {}
    for bus in scenario.buses:
        for bi, block in enumerate(bus.schedule):
            if block.kind == "in_station":
                arrival[f"{bus.id}:v{bi}"] = (
                    params.arrival_sigma_s * rng.standard_normal()
                )
    white_d = rng.standard_normal((len(scenario.buses), n_steps))
    white_c = rng.standard_normal((len(scenario.charger_types), n_steps))
    return RunNoise(
        beta_discharge_kw=beta_d,
        beta_charge_kw=beta_c,
        arrival_shift_s=arrival,
        white_discharge=white_d,
        white_charge=white_c,
    )


def perturb_arrivals(
    scenario: Scenario, arrival_shift_s: Mapping[str, float]
) -> Dict[str, float]:
    """Perturbed arrival minute per station visit id.

    Each arrival moves by its visit's shift, clamped to stay at or after the
    bus's previous departure (the start of the preceding schedule block, i.e.
    when it left the previous stop) and at or before the visit's end; a shift
    past the end wipes out the visit entirely.  Departure times are fixed.
    """
    out: Dict[str, float] = {}
    for bus in scenario.buses:
        for bi, block in enumerate(bus.schedule):
            if block.kind != "in_station":
                continue
            vid = f"{bus.id}:v{bi}"
            shift_min = arrival_shift_s.get(vid, 0.0) / 60.0
            lo = (
                float(bus.schedule[bi - 1].start_min)
                if bi > 0
                else float(scenario.day_start_min)
            )
            out[vid] = min(
                float(block.end_min), max(lo, block.start_min + shift_min)
            )
    return out


# ---------------------------------------------------------------------------
# truth environment


class TruthEnvironment:
    """Minute-resolution stochastic re-run of one scenario day.

    Per minute and bus, route discharge is applied first (spread
    overlap-proportionally over the perturbed driving span, with bias and
    white noise scaled to the driven fraction), then any commanded charging:
    the commanded energy is capped by the exact CC-CV attainable gain over the
    present fraction of the minute, charger bias and white noise are added on
    top (they model metering/actuation error, so they are not capped), and the
    battery level is clamped to [0, capacity].  The meter records uncontrolled
    load plus the non-negative part of each realized charge delta.

    A command is a ``(charger_type_id, power_kw)`` pair per bus; a plugged-in
    bus with zero commanded power still sees charger noise, mirroring the
    planner's convention that engagement (not energy) activates the charger.
    Use ``math.inf`` as the power to request the full CC-CV rate.

    What a run builds is what its noise draw changes.  Everything that does
    not depend on the battery level is tabulated once per run, as plain
    per-bus lists indexed by minute: the drive kWh with its bias and
    white-noise terms, the presence hours and the visit span, next to the bus's capacity and
    CC-CV parameters per charger type (shared across runs; see
    :func:`~bebcharge.charge_model.continuous_params`); per charger type,
    its bias, its white-noise sigma and its row of white draws.  The
    perturbed arrivals end the driving spans and start the visits, all
    spans' overlaps with the minutes they cover are computed in one array
    step, and each span fills its stretch of the per-minute rows.

    One kernel, :meth:`_run_bus`, steps one bus through a stretch of minutes
    under its per-minute commands, doing the level-dependent work only: the
    clamps, :func:`~bebcharge.charge_model.simulate_exact` and the meter.
    It can stop early at a charging session's release.  Its minute body
    serves every caller: :meth:`_run_minutes` runs it bus by bus over one
    command row per bus (open-loop replay hands it the whole day at once)
    and :meth:`advance` over one minute (the closed-loop controller); the
    reactive heuristic calls it directly, once per charging session and
    stretch for plugged-in buses and once per stretch for the others.
    """

    def __init__(
        self, scenario: Scenario, noise: RunNoise, params: NoiseParams
    ) -> None:
        self.scenario = scenario
        self.noise = noise
        self.params = params
        self.t0_min = scenario.day_start_min
        self.n_steps = _step_count(
            scenario.day_start_min, scenario.day_end_min, TRUTH_DELTA_MIN
        )
        self.bus_ids = [b.id for b in scenario.buses]
        self._bus_index = {b: j for j, b in enumerate(self.bus_ids)}
        self._charger_by_id = {ct.id: ct for ct in scenario.charger_types}
        self.arrivals = perturb_arrivals(scenario, noise.arrival_shift_s)

        # every driving span and every visit as [begin, end) minutes, bus by
        # bus in block order
        route_bus: List[int] = []
        route_begin: List[float] = []
        route_end: List[float] = []
        route_power: List[float] = []
        visit_bus: List[int] = []
        self.visit_spans: Dict[str, "_VisitSpan"] = {}
        for j, bus in enumerate(scenario.buses):
            schedule = bus.schedule
            for bi, block in enumerate(schedule):
                if block.kind == "on_route":
                    end = float(block.end_min)
                    nxt = bi + 1
                    if nxt < len(schedule) and schedule[nxt].kind == "in_station":
                        # driving continues until the (perturbed) arrival
                        end = self.arrivals[f"{bus.id}:v{nxt}"]
                    route_bus.append(j)
                    route_begin.append(block.start_min)
                    route_end.append(end)
                    route_power.append(block.route_power_kw)
                elif block.kind == "in_station":
                    vid = f"{bus.id}:v{bi}"
                    self.visit_spans[vid] = _VisitSpan(
                        id=vid,
                        bus_id=bus.id,
                        arrival_min=self.arrivals[vid],
                        end_min=float(block.end_min),
                        charger_type_ids=tuple(block.charger_type_ids),
                    )
                    visit_bus.append(j)
        spans = list(self.visit_spans.values())

        # each span's overlap with the minutes it covers, the driving spans'
        # first; bincount adds them up cell by cell in input order, so in
        # block order
        n_b, n_s = len(self.bus_ids), self.n_steps
        cells = n_b * n_s
        lo, hi, owner, cell, ov = _minute_cover(
            self.t0_min,
            n_s,
            route_bus + visit_bus,
            route_begin + [v.arrival_min for v in spans],
            route_end + [v.end_min for v in spans],
        )
        n_r = len(route_bus)
        m = sum(hi[:n_r]) - sum(lo[:n_r])
        power = np.array(route_power, dtype=float)[owner[:m]]
        drive_minutes = np.bincount(cell[:m], ov[:m], cells).reshape(n_b, n_s)
        drive_kwh = np.bincount(cell[:m], power * ov[:m] / 60.0, cells)
        presence_hours = np.bincount(cell[m:], ov[m:] / 60.0, cells)
        # rows read off the spans' minutes; every other minute has no visit,
        # no presence and no drive kWh (None, not 0.0)
        visit_of_step: List[List[Optional["_VisitSpan"]]] = [
            [None] * n_s for _ in range(n_b)
        ]
        presence_rows: List[List[float]] = [[0.0] * n_s for _ in range(n_b)]
        for j, span, k0, k1 in zip(visit_bus, spans, lo[n_r:], hi[n_r:]):
            visit_of_step[j][k0:k1] = [span] * (k1 - k0)
            first = j * n_s
            presence_rows[j][k0:k1] = presence_hours[first + k0 : first + k1].tolist()
        kwh_rows: List[List[Optional[float]]] = [[None] * n_s for _ in range(n_b)]
        for j, k0, k1 in zip(route_bus, lo, hi[:n_r]):
            first = j * n_s
            kwh_rows[j][k0:k1] = drive_kwh[first + k0 : first + k1].tolist()

        self.soc = {
            b.id: b.initial_soc * b.capacity_kwh for b in scenario.buses
        }
        self.soc_series = np.zeros((n_b, n_s + 1))
        self.soc_series[:, 0] = [self.soc[b] for b in self.bus_ids]
        self.meter_kwh = step_load_kwh(
            scenario, self.t0_min + TRUTH_DELTA_MIN * np.arange(n_s), TRUTH_DELTA_MIN
        )
        self.charge_gain_kwh = np.zeros((n_b, n_s))
        self.charge_type: List[List[Optional[str]]] = [
            [None] * n_s for _ in range(n_b)
        ]
        self._k = 0

        # per-run tables; each noise term keeps the operand order of the
        # minute update, so the kernel's floats are the per-minute arithmetic's
        beta_d = np.array([noise.beta_discharge_kw[b] for b in self.bus_ids])
        drive_bias = beta_d.reshape(-1, 1) * (drive_minutes / 60.0)
        drive_white = (
            params.discharge_white_kwh_per_sqrt_s
            * np.sqrt(drive_minutes * 60.0)
            * noise.white_discharge[:, :n_s]
        )
        bias_rows = drive_bias.tolist()
        white_rows = drive_white.tolist()
        self._buses = [
            _BusTables(
                bus_id=bus.id,
                capacity_kwh=bus.capacity_kwh,
                drive_kwh=kwh_rows[j],
                drive_bias_kwh=bias_rows[j],
                drive_white_kwh=white_rows[j],
                presence_hours=presence_rows[j],
                visits=visit_of_step[j],
                charge_params={
                    ct.id: charging_params(bus, ct) for ct in scenario.charger_types
                },
                levels=self.soc_series[j],
                gains=self.charge_gain_kwh[j],
                types=self.charge_type[j],
            )
            for j, bus in enumerate(scenario.buses)
        ]
        # per charger type: bias kW, white sigma, standard white draws
        self._type_terms: Dict[str, Tuple[float, float, List[float]]] = {
            ct.id: (
                noise.beta_charge_kw[ct.id],
                params.charge_white_for(ct),
                noise.white_charge[ti].tolist(),
            )
            for ti, ct in enumerate(scenario.charger_types)
        }

    # -- geometry queries ---------------------------------------------------

    @property
    def minute_index(self) -> int:
        return self._k

    @property
    def done(self) -> bool:
        return self._k >= self.n_steps

    def visit_at(self, bus_id: str, k: int) -> Optional["_VisitSpan"]:
        return self._buses[self._bus_index[bus_id]].visits[k]

    def charger(self, type_id: str) -> ChargerType:
        return self._charger_by_id[type_id]

    # -- dynamics -----------------------------------------------------------

    def advance(
        self, commands: Mapping[str, Tuple[str, float]]
    ) -> Dict[str, float]:
        """Advance one truth minute; returns realized charge kWh per bus."""
        k = self._k
        self._run_minutes([(commands.get(bus.bus_id),) for bus in self._buses])
        return {
            bus.bus_id: float(bus.gains[k]) for bus in self._buses if bus.types[k] is not None
        }

    def _run_minutes(self, rows: Sequence[Sequence[Optional[Tuple[str, float]]]]) -> None:
        """Advance every bus through the same ``len(rows[j])`` minutes, bus
        ``j`` through minute ``minute_index + i`` under its command
        ``rows[j][i]`` (None for no command).

        Buses interact only through the meter, which every minute adds up
        in bus order whichever loop is outside, so each bus runs all its
        minutes in turn.
        """
        k0 = self._k
        n = len(rows[0])
        if k0 + n > self.n_steps:
            raise RuntimeError("day already finished")
        for bus, commands in zip(self._buses, rows):
            self._run_bus(bus, k0, commands)
        self._k = k0 + n

    def _run_bus(
        self,
        bus: "_BusTables",
        k0: int,
        commands: Iterable[Optional[Tuple[str, float]]],
        full: float = math.inf,
    ) -> int:
        """The minute kernel: step one bus from its current level through
        minutes ``k0, k0 + 1, ...``, minute ``k0 + i`` under the i-th of its
        ``commands`` (a ``(charger_type_id, power_kw)`` pair, or None), and
        return the first minute it did not step.

        It stops early, at the top of a minute after the first, once the
        bus's level is at ``full`` (a charging session's release).  The
        caller keeps the minutes inside the day and steps each minute's
        charging buses in bus order, the order the meter adds them up in.
        """
        (
            bus_id,
            cap,
            drive_kwh,
            drive_bias,
            drive_white,
            presence,
            visits,
            charge_params,
            levels,
            gains,
            types,
        ) = bus
        exact = simulate_exact
        meter = self.meter_kwh
        type_terms = self._type_terms
        soc = self.soc[bus_id]
        stepped: List[float] = []
        for k, cmd in enumerate(commands, k0):
            kwh = drive_kwh[k]
            if kwh is not None:
                soc = soc - kwh + drive_bias[k] + drive_white[k]
                if soc < 0.0:
                    soc = 0.0
                elif soc > cap:
                    soc = cap
            if cmd is not None:
                tid, power_kw = cmd
                span = visits[k]
                pres_h = presence[k]
                if span is not None and pres_h > 0 and tid in span.charger_type_ids:
                    attainable = exact(charge_params[tid], soc, pres_h) - soc
                    beta, sigma, white_row = type_terms[tid]
                    # min(commanded, attainable) and, below, max(0.0,
                    # gained) as comparisons, which pick the same floats
                    commanded = power_kw * pres_h
                    delta = (
                        (attainable if attainable < commanded else commanded)
                        + beta * pres_h
                        + sigma * math.sqrt(pres_h * 3600.0) * white_row[k]
                    )
                    new_soc = soc + delta
                    if new_soc < 0.0:
                        new_soc = 0.0
                    elif new_soc > cap:
                        new_soc = cap
                    gained = new_soc - soc
                    meter[k] += gained if gained > 0.0 else 0.0
                    gains[k] = gained
                    types[k] = tid
                    soc = new_soc
            stepped.append(soc)
            if soc >= full:
                break
        stop = k0 + len(stepped)
        levels[k0 + 1 : stop + 1] = stepped
        self.soc[bus_id] = soc
        return stop


def _minute_cover(
    t0_min: float,
    n_steps: int,
    rows: Sequence[int],
    begin: Sequence[float],
    end: Sequence[float],
) -> Tuple[List[int], List[int], np.ndarray, np.ndarray, np.ndarray]:
    """The truth minutes that spans [begin[i], end[i]) of table rows
    ``rows[i]`` overlap.

    Span i overlaps exactly minutes ``lo[i] <= k < hi[i]`` (none when it is
    empty), each by a positive share.  Returns ``lo`` and ``hi``, then span
    by span, for each minute it overlaps, the span's index, the flat cell
    ``rows[i] * n_steps + k`` and the overlap in minutes as
    :func:`step_overlap_minutes` computes it.
    """
    lo: List[int] = []
    hi: List[int] = []
    for b, e in zip(begin, end):
        k0 = min(max(math.floor(b - t0_min), 0), n_steps)
        lo.append(k0)
        hi.append(min(max(math.ceil(e - t0_min), k0), n_steps) if b < e else k0)
    length = np.subtract(hi, lo)
    owner = np.repeat(np.arange(length.size), length)
    first = np.cumsum(length) - length  # each span's first entry
    k = np.arange(owner.size) + np.repeat(np.subtract(lo, first), length)
    starts = t0_min + TRUTH_DELTA_MIN * k
    ov = step_overlap_minutes(
        starts,
        TRUTH_DELTA_MIN,
        np.array(begin, dtype=float)[owner],
        np.array(end, dtype=float)[owner],
    )
    cell = np.array(rows, dtype=np.intp)[owner] * n_steps + k
    return lo, hi, owner, cell, ov


@dataclass(frozen=True)
class _VisitSpan:
    """A station visit's realized availability window."""

    id: str
    bus_id: str
    arrival_min: float
    end_min: float
    charger_type_ids: Tuple[str, ...]


class _BusTables(NamedTuple):
    """One bus's per-run tables, indexed by truth minute, and the rows of
    the environment's outputs that the kernel writes for it."""

    bus_id: str
    capacity_kwh: float
    drive_kwh: List[Optional[float]]  # None where the bus does not drive
    drive_bias_kwh: List[float]
    drive_white_kwh: List[float]
    presence_hours: List[float]
    visits: List[Optional[_VisitSpan]]
    charge_params: Dict[str, ContinuousChargeParams]
    levels: np.ndarray  # row of soc_series, from instant 0
    gains: np.ndarray  # row of charge_gain_kwh
    types: List[Optional[str]]  # row of charge_type


# ---------------------------------------------------------------------------
# tariff oracle


def billing_oracle(
    step_energy: Sequence[float],
    delta_min: float,
    rates: RateSchedule,
    t0_min: float,
    history: Sequence[float] = (),
) -> Dict[str, object]:
    """Bill a realized meter series, independently of the optimizer.

    ``step_energy`` is kWh per grid step starting at ``t0_min``; ``history``
    (most recent last, same grid) completes demand windows that reach before
    the series starts, with anything older treated as zero energy.  Window
    average power is computed for every instant 0..K: the last ``m`` whole
    steps plus a fractional share of one more when the window length is not a
    step multiple.  The base demand charge bills the all-day maximum; the TOU
    demand charge bills the maximum over windows *ending* at an instant inside
    a half-open peak window.
    """
    e = np.asarray(step_energy, dtype=float)
    hist = np.asarray(history, dtype=float)
    n = e.size
    window_h = rates.demand_window_minutes / 60.0
    m = int(math.floor(rates.demand_window_minutes / delta_min + 1e-9))
    frac = (rates.demand_window_minutes - m * delta_min) / delta_min
    if frac < 1e-9:
        frac = 0.0

    # zero-pad so every instant's window can look back m+1 steps
    pad = max(0, m + 1 - hist.size)
    padded = np.concatenate([np.zeros(pad), hist, e])
    base = pad + hist.size  # index of step 0 in `padded`
    csum = np.concatenate([[0.0], np.cumsum(padded)])
    i = base + np.arange(n + 1)
    window_kw = (csum[i] - csum[i - m] + frac * padded[i - m - 1]) / window_h

    instants = t0_min + delta_min * np.arange(n + 1)
    tou_mask = in_peak_window(rates, instants)
    step_rates = consumption_rate_at(rates, instants[:-1])

    consumption = float(step_rates @ e)
    demand_base = rates.demand_base_per_kw * float(window_kw.max())
    demand_tou = (
        rates.demand_tou_per_kw * float(window_kw[tou_mask].max())
        if tou_mask.any()
        else 0.0
    )
    return {
        "consumption": consumption,
        "demand_base": demand_base,
        "demand_tou": demand_tou,
        "total": consumption + demand_base + demand_tou,
        "window_kw": window_kw,
        "tou_instants": tou_mask,
    }


# ---------------------------------------------------------------------------
# nominal planning pipeline


def nominal_plan(
    scenario: Scenario,
    delta_min: float = 5.0,
    limits: Optional[SolveLimits] = None,
    options: Optional[ModelOptions] = None,
) -> Tuple[Optional[ChargePlan], MilpSolution]:
    """Solve the day-ahead schedule on a uniform grid.

    Returns the extracted plan (or None when no integer solution was found)
    together with the raw solver outcome.
    """
    instance = discretize(scenario, delta_min)
    graph = build_action_graph(instance)
    model = build_static_model(graph, options or ModelOptions())
    solution = branch_and_bound(model, limits or SolveLimits())
    if not solution.has_solution:
        return None, solution
    plan = extract_plan(model, solution.assignment, status=solution.status)
    return plan, solution


# ---------------------------------------------------------------------------
# strategies


class _QinController:
    """Reactive threshold heuristic.

    A bus arriving below the threshold queues for a charger (FIFO by
    perturbed arrival time, then bus id), connects to the fastest free
    charger type its station offers (highest CC power, ties by type id), and
    draws the full CC-CV rate until it reaches its maximum level or departs.
    Queueing and hand-offs happen at whole-minute boundaries: a bus is
    considered at the first minute its visit covers at or after its
    perturbed arrival.

    The day runs as a sequence of stretches of minutes.  At the top of a
    stretch the controller releases, queues and connects buses; then each
    plugged-in bus, in bus order, runs the whole stretch as one charging
    session in one kernel call, stopping early at its own release (the
    first minute its visits no longer cover, or the top of a minute at
    which its level has reached its maximum).  The kernel steps each bus
    through all of a stretch's minutes before the next bus starts, so
    every minute's meter sum keeps its bus order.  A stretch ends at the
    next arrival while nobody waits, since until then only releases can
    happen and a freed charger has no taker; while someone waits it ends
    after one minute, since a release may hand the waiting bus a charger
    at the very next minute.  A bus without a command changes nothing but
    its own level, so it advances lazily, one kernel call per stretch, up
    to the minute its level is next read (its arrival, its wait in the
    queue, its connection) or the end of the day.
    """

    def __init__(self, env: TruthEnvironment) -> None:
        self.env = env
        self.free = {ct.id: ct.count for ct in env.scenario.charger_types}
        self.queue: List[Tuple[float, str]] = []
        # per bus: the minute its level has been stepped to
        self._at = [0] * len(env.bus_ids)

    def _arrivals(self) -> List[Tuple[int, int, "_VisitSpan"]]:
        """``(minute, bus index, visit)`` for every visit the controller
        will see, in the order it sees them."""
        env = self.env
        t0 = env.t0_min
        out = []
        for span in env.visit_spans.values():
            j = env._bus_index[span.bus_id]
            row = env._buses[j].visits
            lo = max(0, math.floor(span.arrival_min - t0))
            hi = min(env.n_steps, math.ceil(span.end_min - t0))
            for k in range(lo, hi):
                t = t0 + k * TRUTH_DELTA_MIN
                if row[k] is span and span.arrival_min <= t + 1e-9:
                    out.append((k, j, span))
                    break
        out.sort(key=lambda a: a[:2])
        return out

    def _catch_up(self, j: int, k: int) -> None:
        """Step bus ``j``, which has no command, up to minute ``k``."""
        at = self._at[j]
        if at < k:
            self.env._run_bus(self.env._buses[j], at, itertools.repeat(None, k - at))
            self._at[j] = k

    def run(self) -> None:
        """Control the whole day."""
        env = self.env
        buses, index, level, n = env._buses, env._bus_index, env.soc, env.n_steps
        free, at = self.free, self._at
        threshold = [QIN_THRESHOLD * b.capacity_kwh for b in env.scenario.buses]
        full = [b.max_soc * b.capacity_kwh - 1e-9 for b in env.scenario.buses]
        arrivals = self._arrivals()
        a = 0
        # per plugged-in bus index: its command and the first minute its
        # visits no longer cover
        sessions: Dict[int, Tuple[Tuple[str, float], int]] = {}
        k = 0
        while k < n:
            # releases: departure or target level reached
            for j in list(sessions):
                if buses[j].visits[k] is None or level[buses[j].bus_id] >= full[j]:
                    free[sessions.pop(j)[0][0]] += 1

            # arrivals: queue if below threshold
            while a < len(arrivals) and arrivals[a][0] == k:
                _, j, span = arrivals[a]
                a += 1
                self._catch_up(j, k)
                if level[span.bus_id] < threshold[j]:
                    self.queue.append((span.arrival_min, span.bus_id))
                    self.queue.sort()

            # service the queue in FIFO order
            if self.queue:
                still_waiting: List[Tuple[float, str]] = []
                for key, bus_id in self.queue:
                    j = index[bus_id]
                    row = buses[j].visits
                    span = row[k]
                    if span is None:
                        continue  # departed while waiting
                    self._catch_up(j, k)
                    if level[bus_id] >= threshold[j]:
                        continue  # no longer below threshold
                    options = sorted(
                        (ct_id for ct_id in span.charger_type_ids if free[ct_id] > 0),
                        key=lambda ct_id: (-env.charger(ct_id).p_cc_kw, ct_id),
                    )
                    if options:
                        free[options[0]] -= 1
                        leave = k + 1
                        while leave < n and row[leave] is not None:
                            leave += 1
                        sessions[j] = ((options[0], math.inf), leave)
                    else:
                        still_waiting.append((key, bus_id))
                self.queue = still_waiting

            # the stretch: each plugged-in bus's session, in bus order
            if self.queue:
                end = k + 1
            else:
                end = arrivals[a][0] if a < len(arrivals) else n
            for j in sorted(sessions):
                cmd, leave = sessions[j]
                stop = env._run_bus(
                    buses[j], k, itertools.repeat(cmd, min(end, leave) - k), full[j]
                )
                at[j] = stop
                if stop < end:
                    free[cmd[0]] += 1
                    del sessions[j]
            k = end
        for j in range(len(buses)):
            self._catch_up(j, n)
        env._k = n


class _OpenLoopController:
    """Replays a reference plan verbatim.

    Commands follow the planned intervals and per-step rates exactly; a bus
    that arrives late simply misses the front of its interval (the command
    falls on an absent bus and realizes nothing), and charging never extends
    past the planned stop, so a fully missed interval is dropped.

    The plan is fixed, so the whole day's commands are known up front:
    ``rows`` holds, per bus, one command per remaining truth minute, the
    command of the plan step that minute falls in (None outside the plan).
    """

    def __init__(self, env: TruthEnvironment, plan: ChargePlan) -> None:
        k = np.arange(env.minute_index, env.n_steps)
        minutes = env.t0_min + k * TRUTH_DELTA_MIN
        steps = np.floor((minutes - plan.t0_min) / plan.delta_min + 1e-9)
        # the steps never decrease, so plan step kp holds minutes
        # first[kp] <= i < first[kp + 1]
        first = np.searchsorted(steps, np.arange(plan.n_steps + 1)).tolist()
        delta_h = plan.delta_min / 60.0
        index = env._bus_index
        self.rows: List[List[Optional[Tuple[str, float]]]] = [
            [None] * k.size for _ in env.bus_ids
        ]
        for bus_id, tid, k0, k1 in plan.intervals:
            if bus_id not in index:
                continue
            row = self.rows[index[bus_id]]
            # a later interval overrides an earlier one
            for kp in range(max(k0, 0), min(k1, plan.n_steps)):
                gain = plan.gains.get((bus_id, kp, tid), 0.0)
                i0, i1 = first[kp], first[kp + 1]
                row[i0:i1] = [(tid, gain / delta_h)] * (i1 - i0)


# ---------------------------------------------------------------------------
# single runs


@dataclass(frozen=True)
class SimRun:
    """One realized day under one strategy and one noise draw."""

    strategy: str
    soc_series: np.ndarray  # [bus, instant] kWh on the truth grid
    meter_kwh: np.ndarray  # [step] realized meter series
    charge_gain_kwh: np.ndarray  # [bus, step]
    charge_type: Tuple[Tuple[Optional[str], ...], ...]
    bus_ids: Tuple[str, ...]
    t0_min: float
    cost_breakdown: Dict[str, float]
    violation_count: int
    worst_violation_kwh: float
    terminal_soc_kwh: Dict[str, float]
    failed: bool = False

    @property
    def total_cost(self) -> float:
        return self.cost_breakdown["total"]


def _finalize_run(
    env: TruthEnvironment, strategy: str, failed: bool = False
) -> SimRun:
    scenario = env.scenario
    billing = billing_oracle(
        env.meter_kwh, TRUTH_DELTA_MIN, scenario.rates, env.t0_min
    )
    floors = np.array(
        [b.min_soc * b.capacity_kwh for b in scenario.buses]
    ).reshape(-1, 1)
    depth = floors - env.soc_series
    violations = int((depth > 1e-9).sum())
    worst = float(max(0.0, depth.max()))
    return SimRun(
        strategy=strategy,
        soc_series=env.soc_series.copy(),
        meter_kwh=env.meter_kwh.copy(),
        charge_gain_kwh=env.charge_gain_kwh.copy(),
        charge_type=tuple(tuple(row) for row in env.charge_type),
        bus_ids=tuple(env.bus_ids),
        t0_min=env.t0_min,
        cost_breakdown={
            "consumption": billing["consumption"],
            "demand_base": billing["demand_base"],
            "demand_tou": billing["demand_tou"],
            "total": billing["total"],
        },
        violation_count=violations,
        worst_violation_kwh=worst,
        terminal_soc_kwh={
            b: float(env.soc_series[j, -1]) for j, b in enumerate(env.bus_ids)
        },
        failed=failed,
    )


def strategy_qin(env: TruthEnvironment) -> SimRun:
    """Run the reactive threshold heuristic (:data:`QIN_THRESHOLD`) to the
    end of the day."""
    _QinController(env).run()
    return _finalize_run(env, "qin")


def strategy_open_loop(env: TruthEnvironment, reference: ChargePlan) -> SimRun:
    """Replay a reference plan open loop against the truth environment."""
    env._run_minutes(_OpenLoopController(env, reference).rows)
    return _finalize_run(env, "open_loop")


def simulate_run(
    scenario: Scenario,
    strategy: str,
    seed: SeedLike,
    params: Optional[NoiseParams] = None,
    reference: Optional[ChargePlan] = None,
    horizon: Optional[object] = None,
) -> SimRun:
    """Run one strategy for one seeded noise draw and bill the outcome."""
    params = params if params is not None else NoiseParams()
    n_truth = _step_count(scenario.day_start_min, scenario.day_end_min, TRUTH_DELTA_MIN)
    noise = sample_run_noise(scenario, params, seed, n_truth)
    env = TruthEnvironment(scenario, noise, params)
    if strategy == "qin":
        return strategy_qin(env)
    if strategy == "open_loop":
        if reference is None:
            raise ValueError("open_loop needs a reference plan")
        return strategy_open_loop(env, reference)
    if strategy == "hierarchical":
        if reference is None:
            raise ValueError("hierarchical needs a reference plan")
        from . import receding_horizon as rh

        cfg = horizon if horizon is not None else rh.HorizonConfig()
        outcome = rh.run_day(scenario, reference, cfg, env)
        return _finalize_run(env, "hierarchical", failed=outcome.failed)
    raise ValueError(f"unknown strategy {strategy!r}")


# ---------------------------------------------------------------------------
# Monte-Carlo driver


@dataclass(frozen=True)
class MCReport:
    """Aggregate of n seeded runs of one strategy on one scenario.

    Dispersion statistics are computed after zeroing each bus's series to its
    own cross-run mean, so systematic per-bus offsets do not inflate the
    spread; ``sigma3_*`` values are three pooled standard deviations.  All
    statistics are invariant under permuting the runs.
    """

    strategy: str
    n_runs: int
    run_costs: Tuple[float, ...]
    mean_cost: float
    mean_breakdown: Dict[str, float]
    violation_counts: Tuple[int, ...]
    violation_rate: float
    worst_violation_kwh: float
    terminal_soc_kwh: np.ndarray  # [run, bus]
    sigma3_terminal_kwh: float
    mean_soc_trace: np.ndarray  # [instant]
    sigma3_soc_trace: np.ndarray  # [instant]
    instant_minutes: np.ndarray
    bus_ids: Tuple[str, ...]
    failed_runs: int


def _pooled_sigma3(values: np.ndarray) -> float:
    """3x pooled std after zeroing each column (bus) to its cross-run mean."""
    centered = values - values.mean(axis=0, keepdims=True)
    return 3.0 * float(centered.std())


def _aggregate_runs(strategy: str, runs: Sequence[SimRun]) -> MCReport:
    costs = tuple(r.total_cost for r in runs)
    soc = np.stack([r.soc_series for r in runs])  # [run, bus, instant]
    centered = soc - soc.mean(axis=0, keepdims=True)
    n_inst = soc.shape[2]
    sigma3_trace = 3.0 * centered.transpose(2, 0, 1).reshape(n_inst, -1).std(axis=1)
    terminal = soc[:, :, -1]
    keys = ("consumption", "demand_base", "demand_tou", "total")
    t0 = runs[0].t0_min
    return MCReport(
        strategy=strategy,
        n_runs=len(runs),
        run_costs=costs,
        mean_cost=float(np.mean(costs)),
        mean_breakdown={
            k: float(np.mean([r.cost_breakdown[k] for r in runs])) for k in keys
        },
        violation_counts=tuple(r.violation_count for r in runs),
        violation_rate=float(
            np.mean([1.0 if r.violation_count else 0.0 for r in runs])
        ),
        worst_violation_kwh=max(r.worst_violation_kwh for r in runs),
        terminal_soc_kwh=terminal,
        sigma3_terminal_kwh=_pooled_sigma3(terminal),
        mean_soc_trace=soc.mean(axis=(0, 1)),
        sigma3_soc_trace=sigma3_trace,
        instant_minutes=t0 + TRUTH_DELTA_MIN * np.arange(n_inst),
        bus_ids=runs[0].bus_ids,
        failed_runs=sum(1 for r in runs if r.failed),
    )


def _mc_worker(args) -> SimRun:
    scenario, strategy, seed, params, reference, horizon = args
    return simulate_run(scenario, strategy, seed, params, reference, horizon)


def monte_carlo(
    scenario: Scenario,
    strategy: str,
    n_runs: int,
    base_seed: SeedLike,
    params: Optional[NoiseParams] = None,
    reference: Optional[ChargePlan] = None,
    horizon: Optional[object] = None,
    jobs: int = 1,
) -> MCReport:
    """Run ``n_runs`` seeded realizations and aggregate them.

    Run seeds are the first ``n_runs`` children of ``base_seed``'s seed
    sequence, so the ensemble is reproducible and independent of ``jobs``;
    parallel results are merged in seed order.  At most one worker process
    per run is started.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be positive")
    if isinstance(base_seed, np.random.SeedSequence):
        root = np.random.SeedSequence(
            entropy=base_seed.entropy, spawn_key=base_seed.spawn_key
        )
    else:
        root = np.random.SeedSequence(base_seed)
    seeds = root.spawn(n_runs)
    tasks = [(scenario, strategy, s, params, reference, horizon) for s in seeds]
    if jobs > 1:
        import multiprocessing

        with multiprocessing.Pool(min(jobs, n_runs)) as pool:
            runs = pool.map(_mc_worker, tasks)
    else:
        runs = [_mc_worker(t) for t in tasks]
    return _aggregate_runs(strategy, runs)


# ---------------------------------------------------------------------------
# multi-day chaining


@dataclass(frozen=True)
class DayResult:
    day: int
    initial_soc_frac: Dict[str, float]
    report: Optional[MCReport]
    plan_cost: Optional[float]
    failed: bool


@dataclass(frozen=True)
class MultiDayReport:
    strategy: str
    days: Tuple[DayResult, ...]

    @property
    def completed_days(self) -> int:
        return sum(1 for d in self.days if not d.failed)


def multi_day(
    scenario: Scenario,
    strategy: str,
    n_days: int,
    runs_per_day: int,
    base_seed: int,
    params: Optional[NoiseParams] = None,
    horizon: Optional[object] = None,
    plan_delta_min: float = 5.0,
    limits: Optional[SolveLimits] = None,
) -> MultiDayReport:
    """Chain day ensembles, carrying each day's mean final level forward.

    Day 0 uses ``base_seed`` directly (so a one-day chain reproduces
    :func:`monte_carlo` bit for bit); later days use distinct children of the
    same sequence.  Each day re-plans from the carried-over initial levels;
    if the nominal plan becomes infeasible the chain stops there and the day
    is reported as failed.
    """
    if n_days < 1:
        raise ValueError("n_days must be positive")
    children = np.random.SeedSequence(base_seed).spawn(n_days)
    init = {b.id: b.initial_soc for b in scenario.buses}
    days: List[DayResult] = []
    for d in range(n_days):
        day_seed: SeedLike = base_seed if d == 0 else children[d]
        buses = tuple(
            dataclasses.replace(b, initial_soc=init[b.id]) for b in scenario.buses
        )
        day_scenario = dataclasses.replace(scenario, buses=buses)
        reference: Optional[ChargePlan] = None
        plan_cost: Optional[float] = None
        if strategy in ("open_loop", "hierarchical"):
            reference, _ = nominal_plan(day_scenario, plan_delta_min, limits)
            if reference is None:
                days.append(DayResult(d, dict(init), None, None, True))
                break
            plan_cost = reference.total_cost
        report = monte_carlo(
            day_scenario,
            strategy,
            runs_per_day,
            day_seed,
            params=params,
            reference=reference,
            horizon=horizon,
        )
        days.append(DayResult(d, dict(init), report, plan_cost, False))
        mean_terminal = report.terminal_soc_kwh.mean(axis=0)
        init = {
            b.id: float(np.clip(mean_terminal[j] / b.capacity_kwh, 0.0, 1.0))
            for j, b in enumerate(scenario.buses)
        }
    return MultiDayReport(strategy=strategy, days=tuple(days))


# ---------------------------------------------------------------------------
# exports


def save_run_trajectory_csv(run: SimRun, path: str) -> None:
    """Per-minute trajectory: ``t_min,bus,soc_kwh,charging_type,gain_kwh``."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t_min", "bus", "soc_kwh", "charging_type", "gain_kwh"])
        n_steps = run.meter_kwh.size
        for k in range(n_steps + 1):
            t = run.t0_min + k * TRUTH_DELTA_MIN
            for j, bus in enumerate(run.bus_ids):
                tid = run.charge_type[j][k] if k < n_steps else None
                gain = run.charge_gain_kwh[j, k] if k < n_steps else 0.0
                w.writerow(
                    [f"{t:.1f}", bus, f"{run.soc_series[j, k]:.6f}",
                     tid or "", f"{gain:.6f}"]
                )


def save_report_json(report: MCReport, path: str) -> None:
    payload = {
        "strategy": report.strategy,
        "n_runs": report.n_runs,
        "mean_cost": report.mean_cost,
        "mean_breakdown": report.mean_breakdown,
        "run_costs": list(report.run_costs),
        "violation_counts": list(report.violation_counts),
        "violation_rate": report.violation_rate,
        "worst_violation_kwh": report.worst_violation_kwh,
        "sigma3_terminal_kwh": report.sigma3_terminal_kwh,
        "failed_runs": report.failed_runs,
        "bus_ids": list(report.bus_ids),
        "terminal_soc_kwh": report.terminal_soc_kwh.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_trace_csv(report: MCReport, path: str) -> None:
    """Ensemble SOC band: ``t,mean_soc,sigma3_lo,sigma3_hi``."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "mean_soc", "sigma3_lo", "sigma3_hi"])
        for t, mu, s3 in zip(
            report.instant_minutes, report.mean_soc_trace, report.sigma3_soc_trace
        ):
            w.writerow(
                [f"{t:.1f}", f"{mu:.6f}", f"{mu - s3:.6f}", f"{mu + s3:.6f}"]
            )

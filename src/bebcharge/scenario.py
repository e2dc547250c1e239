"""Fleet scenario description, file format, random generation, discretization.

A scenario bundles everything a day of charge scheduling needs: the bus fleet
with per-bus battery data and a daily schedule of ``on_route`` / ``in_station``
blocks (gaps mean the bus sits at the depot), the charger types installed at
stations, the utility rate schedule (time-of-use consumption prices plus two
demand charges on moving-window average power), and an optional uncontrolled
load profile that shares the meter.

Scenario files are UTF-8 YAML with top-level sections ``day_start``,
``day_end``, ``charger_types``, ``buses``, ``rates`` and optional
``load_profile``.  All times are ``HH:MM`` strings (whole minutes).  The exact
field names are pinned by golden-file tests; see README for a worked example.

:func:`discretize` lays a uniform grid of ``delta_minutes`` over a window and
produces the arrays the optimization consumes: per-step route discharge
(overlap-proportional), per-step uncontrolled load, per-step consumption
prices, and the list of station visits with the grid steps that fall fully
inside each visit (only those steps are charging-available).  These arrays
are computed whole-array: :func:`step_overlap_minutes` gives the minutes of
every grid step inside a time span (the truth model uses it too), and the rate
lookups take arrays of times.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np
import yaml

from .charge_model import ContinuousChargeParams, continuous_params

__all__ = [
    "charging_params",
    "ChargerType",
    "ScheduleBlock",
    "Bus",
    "RateSchedule",
    "Scenario",
    "Visit",
    "DiscreteInstance",
    "GeneratorBounds",
    "ScenarioFormatError",
    "parse_hhmm",
    "format_hhmm",
    "load_scenario",
    "save_scenario",
    "scenario_to_dict",
    "scenario_from_dict",
    "generate_random_scenario",
    "consumption_rate_at",
    "in_peak_window",
    "discretize",
    "step_overlap_minutes",
]

BLOCK_KINDS = ("on_route", "in_station", "at_depot")


class ScenarioFormatError(ValueError):
    """Raised when a scenario document is malformed or inconsistent."""


def parse_hhmm(text) -> int:
    """Parse an ``HH:MM`` string into minutes since midnight.

    Integers pass through unchanged: YAML 1.1 reads an unquoted ``23:00`` as
    the base-60 integer 1380, which is already minutes since midnight.
    """
    if isinstance(text, int) and not isinstance(text, bool):
        if not (0 <= text <= 47 * 60 + 59):
            raise ScenarioFormatError(f"time out of range: {text!r}")
        return text
    if not isinstance(text, str) or ":" not in text:
        raise ScenarioFormatError(f"expected HH:MM time, got {text!r}")
    hh, _, mm = text.partition(":")
    try:
        hours, minutes = int(hh), int(mm)
    except ValueError as exc:
        raise ScenarioFormatError(f"expected HH:MM time, got {text!r}") from exc
    if not (0 <= hours <= 47 and 0 <= minutes <= 59):
        raise ScenarioFormatError(f"time out of range: {text!r}")
    return 60 * hours + minutes


def format_hhmm(minutes: int) -> str:
    """Render minutes since midnight as ``HH:MM``."""
    minutes = int(minutes)
    if minutes < 0:
        raise ValueError(f"negative time: {minutes}")
    return f"{minutes // 60:02d}:{minutes % 60:02d}"


# ---------------------------------------------------------------------------
# data model


@dataclass(frozen=True)
class ChargerType:
    """One kind of charger available at a station.

    Attributes:
        id: unique identifier, also used in schedules and plans.
        count: number of identical units installed.
        p_cc_kw: constant-current phase power, kW.
        alpha_per_hour: CV-phase decay rate, 1/h.
        location: station name, shared by types at the same physical station.
    """

    id: str
    count: int
    p_cc_kw: float
    alpha_per_hour: float
    location: str = "station"

    def validate(self) -> None:
        if not self.id:
            raise ScenarioFormatError("charger type id must be non-empty")
        if self.count < 1:
            raise ScenarioFormatError(f"charger {self.id}: count must be >= 1")
        if self.p_cc_kw <= 0 or self.alpha_per_hour <= 0:
            raise ScenarioFormatError(f"charger {self.id}: power and alpha must be positive")


@dataclass(frozen=True)
class ScheduleBlock:
    """A contiguous slice of one bus's day.

    ``on_route`` blocks carry ``route_power_kw`` (average traction draw);
    ``in_station`` blocks carry the charger type ids reachable during the
    visit.  ``at_depot`` blocks are allowed for explicitness but behave exactly
    like a gap: no discharge, no charging.
    """

    kind: str
    start_min: int
    end_min: int
    route_power_kw: float = 0.0
    charger_type_ids: Tuple[str, ...] = ()

    def validate(self) -> None:
        if self.kind not in BLOCK_KINDS:
            raise ScenarioFormatError(f"unknown block kind {self.kind!r}")
        if self.end_min <= self.start_min:
            raise ScenarioFormatError(
                f"block [{self.start_min}, {self.end_min}) must have positive length"
            )
        if self.kind == "on_route" and self.route_power_kw <= 0:
            raise ScenarioFormatError("on_route block needs positive route_power_kw")
        if self.kind == "in_station" and not self.charger_type_ids:
            raise ScenarioFormatError("in_station block needs at least one charger type")


@dataclass(frozen=True)
class Bus:
    """One battery-electric bus.

    SOC fields are fractions of ``capacity_kwh``.  ``eta`` is the CC-CV
    threshold fraction; ``cv_alpha_override`` lets a bus's battery taper
    differently from the charger-type default (keyed by charger type id).
    """

    id: str
    capacity_kwh: float
    eta: float
    initial_soc: float
    final_soc: float
    min_soc: float
    max_soc: float
    schedule: Tuple[ScheduleBlock, ...] = ()
    cv_alpha_override: Dict[str, float] = field(default_factory=dict)

    def effective_alpha(self, charger: ChargerType) -> float:
        return self.cv_alpha_override.get(charger.id, charger.alpha_per_hour)

    def validate(self) -> None:
        if not self.id:
            raise ScenarioFormatError("bus id must be non-empty")
        if self.capacity_kwh <= 0:
            raise ScenarioFormatError(f"bus {self.id}: capacity must be positive")
        if not (0.0 < self.eta <= 1.0):
            raise ScenarioFormatError(f"bus {self.id}: eta must lie in (0, 1]")
        if not (0.0 <= self.min_soc < self.max_soc <= 1.0):
            raise ScenarioFormatError(f"bus {self.id}: need 0 <= min_soc < max_soc <= 1")
        for name in ("initial_soc", "final_soc"):
            v = getattr(self, name)
            if not (self.min_soc <= v <= self.max_soc):
                raise ScenarioFormatError(
                    f"bus {self.id}: {name}={v} outside [min_soc, max_soc]"
                )
        for a, b in zip(self.schedule, self.schedule[1:]):
            if b.start_min < a.end_min:
                raise ScenarioFormatError(f"bus {self.id}: schedule blocks overlap")
        for block in self.schedule:
            block.validate()
        for alpha in self.cv_alpha_override.values():
            if alpha <= 0:
                raise ScenarioFormatError(f"bus {self.id}: alpha override must be positive")


@dataclass(frozen=True)
class RateSchedule:
    """Utility tariff: TOU consumption prices plus two demand charges.

    Consumption is billed per kWh at the on-peak price inside any half-open
    ``peak_window`` and at the off-peak price elsewhere.  For demand, average
    power over a sliding ``demand_window_minutes`` window is billed once per
    period at ``demand_base_per_kw`` for the all-day maximum and additionally
    at ``demand_tou_per_kw`` for the maximum over windows ending inside a peak
    window.
    """

    consumption_offpeak_per_kwh: float = 0.026216
    consumption_onpeak_per_kwh: float = 0.051577
    demand_base_per_kw: float = 4.81
    demand_tou_per_kw: float = 13.92
    peak_windows: Tuple[Tuple[int, int], ...] = ((360, 540), (1080, 1320))
    demand_window_minutes: int = 15

    def validate(self) -> None:
        for v in (
            self.consumption_offpeak_per_kwh,
            self.consumption_onpeak_per_kwh,
            self.demand_base_per_kw,
            self.demand_tou_per_kw,
        ):
            if v < 0:
                raise ScenarioFormatError("rates must be non-negative")
        if self.demand_window_minutes <= 0:
            raise ScenarioFormatError("demand window must be positive")
        for lo, hi in self.peak_windows:
            if hi <= lo:
                raise ScenarioFormatError(f"peak window [{lo}, {hi}) is empty")


@dataclass(frozen=True)
class Scenario:
    """A full scheduling scenario; see module docstring for the file format."""

    day_start_min: int
    day_end_min: int
    buses: Tuple[Bus, ...]
    charger_types: Tuple[ChargerType, ...]
    rates: RateSchedule = field(default_factory=RateSchedule)
    load_profile: Tuple[Tuple[int, float], ...] = ()

    def charger_by_id(self, type_id: str) -> ChargerType:
        for ct in self.charger_types:
            if ct.id == type_id:
                return ct
        raise KeyError(type_id)

    def bus_by_id(self, bus_id: str) -> Bus:
        for b in self.buses:
            if b.id == bus_id:
                return b
        raise KeyError(bus_id)

    def validate(self) -> None:
        if self.day_end_min <= self.day_start_min:
            raise ScenarioFormatError("day_end must come after day_start")
        if not self.buses:
            raise ScenarioFormatError("scenario needs at least one bus")
        if not self.charger_types:
            raise ScenarioFormatError("scenario needs at least one charger type")
        ids = [ct.id for ct in self.charger_types]
        if len(set(ids)) != len(ids):
            raise ScenarioFormatError("duplicate charger type ids")
        bus_ids = [b.id for b in self.buses]
        if len(set(bus_ids)) != len(bus_ids):
            raise ScenarioFormatError("duplicate bus ids")
        for ct in self.charger_types:
            ct.validate()
        known = set(ids)
        for bus in self.buses:
            bus.validate()
            for block in bus.schedule:
                for tid in block.charger_type_ids:
                    if tid not in known:
                        raise ScenarioFormatError(
                            f"bus {bus.id}: unknown charger type {tid!r}"
                        )
            for tid in bus.cv_alpha_override:
                if tid not in known:
                    raise ScenarioFormatError(
                        f"bus {bus.id}: alpha override for unknown charger {tid!r}"
                    )
        self.rates.validate()
        last_t = None
        for t, kwh in self.load_profile:
            if kwh < 0:
                raise ScenarioFormatError("load profile energies must be non-negative")
            if last_t is not None and t <= last_t:
                raise ScenarioFormatError("load profile times must strictly increase")
            last_t = t


# ---------------------------------------------------------------------------
# serialization


def scenario_to_dict(scenario: Scenario) -> dict:
    """Plain-dict form of a scenario, in the documented key order."""
    doc: dict = {
        "day_start": format_hhmm(scenario.day_start_min),
        "day_end": format_hhmm(scenario.day_end_min),
        "charger_types": [
            {
                "id": ct.id,
                "count": ct.count,
                "p_cc_kw": float(ct.p_cc_kw),
                "alpha_per_hour": float(ct.alpha_per_hour),
                "location": ct.location,
            }
            for ct in scenario.charger_types
        ],
        "buses": [],
        "rates": {
            "consumption_offpeak_per_kwh": float(scenario.rates.consumption_offpeak_per_kwh),
            "consumption_onpeak_per_kwh": float(scenario.rates.consumption_onpeak_per_kwh),
            "demand_base_per_kw": float(scenario.rates.demand_base_per_kw),
            "demand_tou_per_kw": float(scenario.rates.demand_tou_per_kw),
            "peak_windows": [
                [format_hhmm(lo), format_hhmm(hi)] for lo, hi in scenario.rates.peak_windows
            ],
            "demand_window_minutes": int(scenario.rates.demand_window_minutes),
        },
    }
    for bus in scenario.buses:
        entry: dict = {
            "id": bus.id,
            "capacity_kwh": float(bus.capacity_kwh),
            "eta": float(bus.eta),
            "initial_soc": float(bus.initial_soc),
            "final_soc": float(bus.final_soc),
            "min_soc": float(bus.min_soc),
            "max_soc": float(bus.max_soc),
            "schedule": [],
        }
        if bus.cv_alpha_override:
            entry["cv_alpha_override"] = {
                k: float(v) for k, v in sorted(bus.cv_alpha_override.items())
            }
        for block in bus.schedule:
            b: dict = {
                "kind": block.kind,
                "start": format_hhmm(block.start_min),
                "end": format_hhmm(block.end_min),
            }
            if block.kind == "on_route":
                b["route_power_kw"] = float(block.route_power_kw)
            elif block.kind == "in_station":
                b["chargers"] = list(block.charger_type_ids)
            entry["schedule"].append(b)
        doc["buses"].append(entry)
    if scenario.load_profile:
        doc["load_profile"] = {
            "rows": [[format_hhmm(t), float(kwh)] for t, kwh in scenario.load_profile]
        }
    return doc


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ScenarioFormatError(f"{where}: missing required key {key!r}")
    return mapping[key]


def scenario_from_dict(doc: dict, base_dir: Optional[str] = None) -> Scenario:
    """Inverse of :func:`scenario_to_dict`; validates the result."""
    if not isinstance(doc, dict):
        raise ScenarioFormatError("scenario document must be a mapping")
    day_start = parse_hhmm(_require(doc, "day_start", "scenario"))
    day_end = parse_hhmm(_require(doc, "day_end", "scenario"))
    charger_types = []
    for raw in _require(doc, "charger_types", "scenario"):
        charger_types.append(
            ChargerType(
                id=str(_require(raw, "id", "charger_types")),
                count=int(_require(raw, "count", "charger_types")),
                p_cc_kw=float(_require(raw, "p_cc_kw", "charger_types")),
                alpha_per_hour=float(_require(raw, "alpha_per_hour", "charger_types")),
                location=str(raw.get("location", "station")),
            )
        )
    buses = []
    for raw in _require(doc, "buses", "scenario"):
        where = f"bus {raw.get('id', '?')}"
        blocks = []
        for braw in raw.get("schedule", []):
            kind = str(_require(braw, "kind", where))
            blocks.append(
                ScheduleBlock(
                    kind=kind,
                    start_min=parse_hhmm(_require(braw, "start", where)),
                    end_min=parse_hhmm(_require(braw, "end", where)),
                    route_power_kw=float(braw.get("route_power_kw", 0.0)),
                    charger_type_ids=tuple(braw.get("chargers", ())),
                )
            )
        buses.append(
            Bus(
                id=str(_require(raw, "id", "buses")),
                capacity_kwh=float(_require(raw, "capacity_kwh", where)),
                eta=float(_require(raw, "eta", where)),
                initial_soc=float(_require(raw, "initial_soc", where)),
                final_soc=float(_require(raw, "final_soc", where)),
                min_soc=float(_require(raw, "min_soc", where)),
                max_soc=float(_require(raw, "max_soc", where)),
                schedule=tuple(blocks),
                cv_alpha_override={
                    str(k): float(v) for k, v in raw.get("cv_alpha_override", {}).items()
                },
            )
        )
    rraw = _require(doc, "rates", "scenario")
    rates = RateSchedule(
        consumption_offpeak_per_kwh=float(_require(rraw, "consumption_offpeak_per_kwh", "rates")),
        consumption_onpeak_per_kwh=float(_require(rraw, "consumption_onpeak_per_kwh", "rates")),
        demand_base_per_kw=float(_require(rraw, "demand_base_per_kw", "rates")),
        demand_tou_per_kw=float(_require(rraw, "demand_tou_per_kw", "rates")),
        peak_windows=tuple(
            (parse_hhmm(lo), parse_hhmm(hi)) for lo, hi in _require(rraw, "peak_windows", "rates")
        ),
        demand_window_minutes=int(_require(rraw, "demand_window_minutes", "rates")),
    )
    load_profile: Tuple[Tuple[int, float], ...] = ()
    lraw = doc.get("load_profile")
    if lraw:
        if "rows" in lraw:
            load_profile = tuple((parse_hhmm(t), float(kwh)) for t, kwh in lraw["rows"])
        elif "csv" in lraw:
            path = lraw["csv"]
            if base_dir is not None and not os.path.isabs(path):
                path = os.path.join(base_dir, path)
            load_profile = _read_load_csv(path)
        else:
            raise ScenarioFormatError("load_profile needs either 'rows' or 'csv'")
    scenario = Scenario(
        day_start_min=day_start,
        day_end_min=day_end,
        buses=tuple(buses),
        charger_types=tuple(charger_types),
        rates=rates,
        load_profile=load_profile,
    )
    scenario.validate()
    return scenario


def _read_load_csv(path: str) -> Tuple[Tuple[int, float], ...]:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "time,kwh_per_step":
            raise ScenarioFormatError(
                f"load profile csv must start with 'time,kwh_per_step', got {header!r}"
            )
        for line in fh:
            line = line.strip()
            if not line:
                continue
            t, _, kwh = line.partition(",")
            rows.append((parse_hhmm(t), float(kwh)))
    return tuple(rows)


def load_scenario(path: str) -> Scenario:
    """Load and validate a scenario YAML file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ScenarioFormatError(f"invalid YAML in {path}: {exc}") from exc
    return scenario_from_dict(doc, base_dir=os.path.dirname(os.path.abspath(path)))


def save_scenario(scenario: Scenario, path: str) -> None:
    """Write a scenario YAML file (deterministic key order)."""
    text = yaml.safe_dump(scenario_to_dict(scenario), sort_keys=False, allow_unicode=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def charging_params(bus: Bus, charger: ChargerType) -> ContinuousChargeParams:
    """CC-CV parameters for one (bus, charger type) pairing, honoring the
    bus's per-type alpha override."""
    return continuous_params(
        charger.p_cc_kw, bus.effective_alpha(charger), bus.eta, bus.capacity_kwh
    )


# ---------------------------------------------------------------------------
# rates


def in_peak_window(
    rates: RateSchedule, t_min: Union[float, np.ndarray]
) -> Union[bool, np.ndarray]:
    """True iff ``t_min`` falls inside a half-open [start, end) peak window
    (elementwise for an array of times)."""
    t = np.asarray(t_min)
    inside = np.zeros(t.shape, dtype=bool)
    for lo, hi in rates.peak_windows:
        inside |= (lo <= t) & (t < hi)
    return inside if inside.ndim else bool(inside)


def consumption_rate_at(
    rates: RateSchedule, t_min: Union[float, np.ndarray]
) -> Union[float, np.ndarray]:
    """$/kWh consumption price in effect at wall-clock minute ``t_min``
    (elementwise for an array of times)."""
    price = np.where(
        in_peak_window(rates, t_min),
        rates.consumption_onpeak_per_kwh,
        rates.consumption_offpeak_per_kwh,
    )
    return price if price.ndim else float(price)


# ---------------------------------------------------------------------------
# random generation


@dataclass(frozen=True)
class GeneratorBounds:
    """Knobs for :func:`generate_random_scenario`.

    Ranges are inclusive; route/dwell lengths are drawn as whole minutes so
    every schedule time stays HH:MM-representable.  The default ranges keep a
    random day typically schedulable: the longest route drains ~63 kWh while
    the shortest dwell can restore ~50 kWh on a fast charger, so the SOC band
    cushions local deficits instead of accumulating them.
    """

    n_buses: int = 4
    day_start_min: int = 300
    day_end_min: int = 1380
    first_departure_spread_min: int = 60
    route_minutes: Tuple[int, int] = (45, 105)
    dwell_minutes: Tuple[int, int] = (25, 45)
    route_power_kw: Tuple[float, float] = (28.0, 36.0)
    capacity_kwh: Tuple[float, float] = (250.0, 350.0)
    eta: Tuple[float, float] = (0.8, 0.9)
    initial_soc: float = 0.7
    final_soc: float = 0.7
    min_soc: float = 0.3
    max_soc: float = 0.95
    charger_specs: Tuple[Tuple[str, int, float, float], ...] = (
        ("fast", 2, 120.0, 2.0),
        ("slow", 2, 40.0, 1.0),
    )
    station: str = "station_a"
    rates: RateSchedule = field(default_factory=RateSchedule)


def generate_random_scenario(seed: int, bounds: GeneratorBounds = GeneratorBounds()) -> Scenario:
    """Draw a scenario with alternating route/station blocks per bus.

    Deterministic in ``seed``: a single PCG64 generator is consumed in a fixed
    order (per bus: first departure offset, capacity, eta, then alternating
    route length, route power, dwell length until the day ends).  Every bus
    starts and ends at the depot; station blocks offer every configured
    charger type.
    """
    rng = np.random.default_rng(seed)
    charger_types = tuple(
        ChargerType(id=cid, count=cnt, p_cc_kw=p, alpha_per_hour=a, location=bounds.station)
        for cid, cnt, p, a in bounds.charger_specs
    )
    type_ids = tuple(ct.id for ct in charger_types)
    buses = []
    for i in range(bounds.n_buses):
        offset = int(rng.integers(0, bounds.first_departure_spread_min + 1))
        capacity = float(rng.uniform(*bounds.capacity_kwh))
        eta = float(rng.uniform(*bounds.eta))
        blocks: List[ScheduleBlock] = []
        t = bounds.day_start_min + offset
        while True:
            route_len = int(rng.integers(bounds.route_minutes[0], bounds.route_minutes[1] + 1))
            power = float(rng.uniform(*bounds.route_power_kw))
            if t + route_len > bounds.day_end_min:
                break
            blocks.append(
                ScheduleBlock(
                    kind="on_route",
                    start_min=t,
                    end_min=t + route_len,
                    route_power_kw=power,
                )
            )
            t += route_len
            dwell = int(rng.integers(bounds.dwell_minutes[0], bounds.dwell_minutes[1] + 1))
            if t + dwell > bounds.day_end_min:
                break
            blocks.append(
                ScheduleBlock(
                    kind="in_station",
                    start_min=t,
                    end_min=t + dwell,
                    charger_type_ids=type_ids,
                )
            )
            t += dwell
        buses.append(
            Bus(
                id=f"bus{i + 1:02d}",
                capacity_kwh=capacity,
                eta=eta,
                initial_soc=bounds.initial_soc,
                final_soc=bounds.final_soc,
                min_soc=bounds.min_soc,
                max_soc=bounds.max_soc,
                schedule=tuple(blocks),
            )
        )
    scenario = Scenario(
        day_start_min=bounds.day_start_min,
        day_end_min=bounds.day_end_min,
        buses=tuple(buses),
        charger_types=charger_types,
        rates=bounds.rates,
    )
    scenario.validate()
    return scenario


# ---------------------------------------------------------------------------
# discretization


@dataclass(frozen=True)
class Visit:
    """One bus's stay at a station, as seen on a particular grid.

    ``id`` is grid-independent (bus id plus the block's index in the bus's
    schedule) so receding horizons can track visits across re-discretizations.
    ``k_start``/``k_end`` delimit the half-open range of grid steps that lie
    fully inside the station block; charging is available on exactly those
    steps for each charger type in ``charger_type_ids``.
    """

    id: str
    bus_id: str
    block_index: int
    charger_type_ids: Tuple[str, ...]
    k_start: int
    k_end: int
    start_min: int
    end_min: int

    @property
    def n_steps(self) -> int:
        return self.k_end - self.k_start


@dataclass(frozen=True)
class DiscreteInstance:
    """A scenario window sampled on a uniform grid.

    Steps are half-open intervals [t0 + k delta, t0 + (k+1) delta) for
    k = 0..n_steps-1; instants run 0..n_steps.  ``discharge_kwh[j, k]`` is the
    route energy bus j spends during step k (overlap-proportional, so partial
    route coverage discharges partially).  ``load_kwh[k]`` is the uncontrolled
    meter load.  ``step_rate[k]`` is the consumption price at the step's start;
    ``instant_in_peak[k]`` says whether instant k lies inside a peak window
    (used for the TOU demand charge on windows *ending* at that instant).
    """

    scenario: Scenario
    t0_min: int
    delta_min: float
    n_steps: int
    visits: Tuple[Visit, ...]
    discharge_kwh: np.ndarray
    load_kwh: np.ndarray
    step_rate: np.ndarray
    instant_in_peak: np.ndarray

    @property
    def delta_hours(self) -> float:
        return self.delta_min / 60.0

    @property
    def n_instants(self) -> int:
        return self.n_steps + 1

    def instant_minutes(self, k: int) -> float:
        return self.t0_min + k * self.delta_min

    def charging_types_at(self, bus_id: str, k: int) -> Tuple[str, ...]:
        """Charger types available to a bus during step k (empty if none)."""
        for v in self.visits:
            if v.bus_id == bus_id and v.k_start <= k < v.k_end:
                return v.charger_type_ids
        return ()


def step_overlap_minutes(
    step_starts: np.ndarray, delta_min: float, span_start: float, span_end: float
) -> np.ndarray:
    """Minutes of each grid step [s, s + delta_min) inside [span_start, span_end)."""
    return np.maximum(
        0.0,
        np.minimum(step_starts + delta_min, span_end) - np.maximum(step_starts, span_start),
    )


def step_load_kwh(
    scenario: Scenario, step_starts: np.ndarray, delta_min: float
) -> np.ndarray:
    """Uncontrolled meter load in kWh per grid step [s, s + delta_min).

    Each load-profile row's energy is spread evenly up to the next row's
    time (the last row's up to the day's end, at least one minute).
    """
    load = np.zeros(step_starts.size)
    if scenario.load_profile:
        times = [t for t, _ in scenario.load_profile]
        energies = [kwh for _, kwh in scenario.load_profile]
        ends = times[1:] + [float(max(scenario.day_end_min, times[-1] + 1))]
        for t_i, e_i, t_next in zip(times, energies, ends):
            power = e_i / ((t_next - t_i) / 60.0)
            load += power * step_overlap_minutes(step_starts, delta_min, t_i, t_next) / 60.0
    return load


def _step_count(t0_min: float, t_end_min: float, delta_minutes: float) -> int:
    """Whole grid steps of ``delta_minutes`` in [t0_min, t_end_min)."""
    return int(math.floor((t_end_min - t0_min) / delta_minutes + 1e-9))


def discretize(
    scenario: Scenario,
    delta_minutes: float,
    t0_min: Optional[int] = None,
    t_end_min: Optional[float] = None,
) -> DiscreteInstance:
    """Sample a scenario window onto a uniform grid.

    The window defaults to the whole day; a trailing partial step is dropped.
    Charging availability is granted only for steps fully inside a station
    block, while route discharge is spread overlap-proportionally so the total
    discharged energy over the window is exact.
    """
    if delta_minutes <= 0:
        raise ValueError("delta_minutes must be positive")
    t0 = scenario.day_start_min if t0_min is None else t0_min
    t_end = scenario.day_end_min if t_end_min is None else t_end_min
    if t_end <= t0:
        raise ValueError("window must have positive length")
    n_steps = _step_count(t0, t_end, delta_minutes)
    if n_steps < 1:
        raise ValueError("window shorter than one step")

    instants = t0 + delta_minutes * np.arange(n_steps + 1)
    step_starts = instants[:-1]
    discharge = np.zeros((len(scenario.buses), n_steps))

    visits: List[Visit] = []
    for j, bus in enumerate(scenario.buses):
        for bi, block in enumerate(bus.schedule):
            if block.kind == "on_route":
                ov = step_overlap_minutes(
                    step_starts, delta_minutes, block.start_min, block.end_min
                )
                discharge[j] += block.route_power_kw * ov / 60.0
            elif block.kind == "in_station":
                k_start = int(math.ceil((block.start_min - t0) / delta_minutes - 1e-9))
                k_end = int(math.floor((block.end_min - t0) / delta_minutes + 1e-9))
                k_start = max(k_start, 0)
                k_end = min(k_end, n_steps)
                if k_end > k_start:
                    visits.append(
                        Visit(
                            id=f"{bus.id}:v{bi}",
                            bus_id=bus.id,
                            block_index=bi,
                            charger_type_ids=tuple(block.charger_type_ids),
                            k_start=k_start,
                            k_end=k_end,
                            start_min=block.start_min,
                            end_min=block.end_min,
                        )
                    )

    return DiscreteInstance(
        scenario=scenario,
        t0_min=t0,
        delta_min=float(delta_minutes),
        n_steps=n_steps,
        visits=tuple(visits),
        discharge_kwh=discharge,
        load_kwh=step_load_kwh(scenario, step_starts, delta_minutes),
        step_rate=consumption_rate_at(scenario.rates, step_starts),
        instant_in_peak=in_peak_window(scenario.rates, instants),
    )

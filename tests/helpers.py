"""Shared scenario factories for the test suite, and hand-built sub-graphs."""

import numpy as np

from bebcharge.graph import EDGE_KINDS, VERTEX_KINDS, SubGraph
from bebcharge.scenario import (
    Bus,
    ChargerType,
    RateSchedule,
    Scenario,
    ScheduleBlock,
)


def make_bus(
    bus_id="b1",
    capacity=200.0,
    eta=1.0,
    initial=0.7,
    final=0.7,
    min_soc=0.3,
    max_soc=0.95,
    schedule=(),
    **kwargs,
):
    return Bus(
        id=bus_id,
        capacity_kwh=capacity,
        eta=eta,
        initial_soc=initial,
        final_soc=final,
        min_soc=min_soc,
        max_soc=max_soc,
        schedule=tuple(schedule),
        **kwargs,
    )


def single_visit_scenario(
    visit_start=330,
    visit_end=345,
    day_start=300,
    day_end=360,
    route_power=30.0,
    charger_power=120.0,
    charger_count=1,
    alpha=2.0,
    **bus_kwargs,
):
    """One bus: route from day_start to visit_start, one station visit, then free."""
    blocks = []
    if visit_start > day_start:
        blocks.append(
            ScheduleBlock("on_route", day_start, visit_start, route_power_kw=route_power)
        )
    blocks.append(
        ScheduleBlock("in_station", visit_start, visit_end, charger_type_ids=("fast",))
    )
    bus = make_bus(schedule=blocks, **bus_kwargs)
    return Scenario(
        day_start_min=day_start,
        day_end_min=day_end,
        buses=(bus,),
        charger_types=(ChargerType("fast", charger_count, charger_power, alpha, "stn"),),
    )


def two_type_scenario(
    visit_start=330,
    visit_end=345,
    day_start=300,
    day_end=360,
    charger_counts=(1, 1),
    **bus_kwargs,
):
    """One bus, one visit, two charger types at the same station."""
    blocks = [
        ScheduleBlock("on_route", day_start, visit_start, route_power_kw=30.0),
        ScheduleBlock("in_station", visit_start, visit_end, charger_type_ids=("fast", "slow")),
    ]
    bus = make_bus(schedule=blocks, **bus_kwargs)
    return Scenario(
        day_start_min=day_start,
        day_end_min=day_end,
        buses=(bus,),
        charger_types=(
            ChargerType("fast", charger_counts[0], 120.0, 2.0, "stn"),
            ChargerType("slow", charger_counts[1], 40.0, 1.0, "stn"),
        ),
    )


def flat_rates(**kwargs):
    """Rates with no peak windows unless overridden: flat consumption price."""
    defaults = dict(
        consumption_offpeak_per_kwh=0.03,
        consumption_onpeak_per_kwh=0.03,
        demand_base_per_kw=0.0,
        demand_tou_per_kw=0.0,
        peak_windows=(),
        demand_window_minutes=15,
    )
    defaults.update(kwargs)
    return RateSchedule(**defaults)


def mini_scenario(seed):
    """A small randomized timetable sized for exhaustive enumeration: one or
    two buses, a fast charger (sometimes a slow one too), one visit per bus,
    quarter-hour-friendly times.  On a 15-minute grid every instance spans six
    steps and yields at most 12 charge-step binaries."""
    rng = np.random.default_rng(seed)
    day0 = int(rng.choice([300, 330, 345]))
    day1 = day0 + 90
    charger_types = [ChargerType("fast", int(rng.integers(1, 3)), 120.0, 2.0, "stn")]
    if rng.random() < 0.5:
        charger_types.append(ChargerType("slow", 1, 40.0, 1.0, "stn"))
    type_ids = tuple(ct.id for ct in charger_types)
    n_buses = int(rng.integers(1, 3))
    buses = []
    for j in range(n_buses):
        route_power = float(rng.uniform(25.0, 32.0))
        depart = day0 + int(rng.integers(15, 31))
        dwell = int(rng.integers(30, 56))
        back_at = min(depart + dwell, day1 - 15)
        blocks = [
            ScheduleBlock("on_route", day0, depart, route_power_kw=route_power),
            ScheduleBlock("in_station", depart, back_at, charger_type_ids=type_ids),
            ScheduleBlock("on_route", back_at, day1, route_power_kw=route_power),
        ]
        buses.append(
            make_bus(
                bus_id=f"m{j + 1}",
                capacity=float(rng.choice([200.0, 250.0])),
                eta=float(rng.choice([1.0, 0.85])),
                final=float(rng.choice([0.65, 0.65, 0.7])),
                schedule=blocks,
            )
        )
    load_profile = ((day0, 3.0),) if rng.random() < 0.5 else ()
    return Scenario(
        day_start_min=day0,
        day_end_min=day1,
        buses=tuple(buses),
        charger_types=tuple(charger_types),
        load_profile=load_profile,
    )


def subgraph_of(charger_type_id, count, vertices, edges):
    """The :class:`SubGraph` of these ``Vertex`` and ``Edge`` tuples."""
    bus_ids = tuple(dict.fromkeys(
        x.bus_id for x in (*vertices, *edges) if x.bus_id is not None
    ))

    def codes(values, names):
        return np.array([-1 if v is None else names.index(v) for v in values], dtype=np.int64)

    def ints(values):
        return np.array([-1 if v is None else v for v in values], dtype=np.int64)

    return SubGraph(
        charger_type_id, count, bus_ids,
        vertex_kind=codes([v.kind for v in vertices], VERTEX_KINDS),
        vertex_k=ints([v.k for v in vertices]),
        vertex_bus=codes([v.bus_id for v in vertices], bus_ids),
        kind=codes([e.kind for e in edges], EDGE_KINDS),
        tail=ints([e.tail for e in edges]),
        head=ints([e.head for e in edges]),
        k_from=ints([e.k_from for e in edges]),
        k_to=ints([e.k_to for e in edges]),
        capacity=ints([e.capacity for e in edges]),
        bus=codes([e.bus_id for e in edges], bus_ids),
    )

"""Action-space graph: incidence, capacities, visit groups, plan preference."""

import dataclasses

import numpy as np
import pytest

from bebcharge.graph import (
    Edge,
    Vertex,
    apply_plan_preference,
    build_action_graph,
    close_edges,
    dump_edges_csv,
    flow_rhs,
    incidence_entries,
    incidence_matrix,
)
from bebcharge.benchmarks import four_bus_day
from bebcharge.scenario import GeneratorBounds, discretize, generate_random_scenario

from helpers import single_visit_scenario, subgraph_of, two_type_scenario
from reference_graph import (
    iter_edges,
    reference_close_edges,
    reference_edges_csv,
    reference_graph,
    reference_incidence_entries,
)


def sample_subgraph():
    """Four vertices, five edges, constructed in a fixed order."""
    vertices = tuple(Vertex("rest", k=i) for i in range(4))
    edges = (
        Edge("rest", 0, 1, 0, 1, 1),
        Edge("rest", 1, 2, 1, 2, 1),
        Edge("rest", 2, 1, 2, 1, 1),
        Edge("rest", 2, 3, 2, 3, 1),
        Edge("rest", 1, 3, 1, 3, 1),
    )
    return subgraph_of("t", 1, vertices, edges)


def test_incidence_of_sample_graph_matches_hand_computation():
    expected = np.array(
        [
            [1, 0, 0, 0, 0],
            [-1, 1, -1, 0, 1],
            [0, -1, 1, 1, 0],
            [0, 0, 0, -1, -1],
        ],
        dtype=float,
    )
    D = incidence_matrix(sample_subgraph()).toarray()
    np.testing.assert_array_equal(D, expected)


def test_incidence_columns_sum_to_zero_on_built_graphs():
    inst = discretize(two_type_scenario(), 5.0)
    graph = build_action_graph(inst)
    for sub in graph.subgraphs:
        D = incidence_matrix(sub)
        np.testing.assert_array_equal(np.asarray(D.sum(axis=0)).ravel(), 0.0)
        # each column has exactly one +1 and one -1
        assert (D.toarray() == 1).sum(axis=0).max() == 1
        assert (D.toarray() == -1).sum(axis=0).max() == 1


def test_all_rest_flow_satisfies_balance():
    inst = discretize(two_type_scenario(charger_counts=(2, 3)), 5.0)
    graph = build_action_graph(inst)
    for sub in graph.subgraphs:
        D = incidence_matrix(sub)
        x = np.zeros(sub.n_edges)
        for i, e in enumerate(sub.edges):
            if e.kind in ("rest",) or (e.kind in ("source", "sink") and e.bus_id is None):
                x[i] = sub.count
        np.testing.assert_allclose(D @ x, flow_rhs(sub))


def test_capacities_follow_the_charging_vertex_rule():
    inst = discretize(two_type_scenario(charger_counts=(2, 1)), 5.0)
    graph = build_action_graph(inst)
    for sub in graph.subgraphs:
        for e in sub.edges:
            head_kind = sub.vertices[e.head].kind
            if head_kind == "charge":
                assert e.capacity == 1
            elif e.kind in ("rest", "source", "sink") and e.bus_id is None:
                assert e.capacity == sub.count


def test_single_visit_group_and_entering_edges():
    # visit of exactly 2 steps, one charger type
    scn = single_visit_scenario(visit_start=330, visit_end=340)
    inst = discretize(scn, 5.0)
    graph = build_action_graph(inst)
    assert len(graph.groups) == 1
    grp = graph.groups[0]
    entering = [graph.edge(i) for i in grp.entering_edges]
    assert all(e.kind == "transition" for e in entering)
    assert sorted(e.k_to for e in entering) == [6, 7]  # steps at 330 and 335
    assert all(e.bus_id == "b1" for e in entering)
    # charge edges of the visit are inside the group, not entering
    charge_ids = [gid for gid, _, e in graph.iter_edges() if e.kind == "charge"]
    assert set(charge_ids).isdisjoint(grp.entering_edges)
    assert len(charge_ids) == 2


def test_group_spans_charger_types_at_same_station():
    inst = discretize(two_type_scenario(visit_start=330, visit_end=340), 5.0)
    graph = build_action_graph(inst)
    assert len(graph.groups) == 1
    grp = graph.groups[0]
    sub_of = {}
    for gid in grp.entering_edges:
        sub_of.setdefault(graph.subgraph_of_edge(gid).charger_type_id, 0)
        sub_of[graph.subgraph_of_edge(gid).charger_type_id] += 1
    assert sub_of == {"fast": 2, "slow": 2}


def test_sigma_maps_exactly_the_available_steps():
    inst = discretize(two_type_scenario(visit_start=330, visit_end=345), 5.0)
    graph = build_action_graph(inst)
    v = inst.visits[0]
    expected_keys = {
        (v.bus_id, k, tid)
        for tid in v.charger_type_ids
        for k in range(v.k_start, v.k_end)
    }
    assert set(graph.sigma.keys()) == expected_keys
    for key, gid in graph.sigma.items():
        e = graph.edge(gid)
        assert e.kind == "charge"
        assert (e.bus_id, e.k_from) == (key[0], key[1])


def run_edge_scan(graph, kind_at, kinds_across):
    """The edge scan the recorded run edges replaced, kept as the reference:
    every bus edge with a charging vertex at ``kind_at`` ("head" or "tail")
    and a ``kinds_across`` vertex at its other end, by (bus, instant, type)."""
    found = {}
    for gid, sub, e in graph.iter_edges():
        at, across = (e.head, e.tail) if kind_at == "head" else (e.tail, e.head)
        v = sub.vertices[at]
        if (e.bus_id is not None and v.kind == "charge" and v.bus_id == e.bus_id
                and sub.vertices[across].kind in kinds_across):
            key = (e.bus_id, v.k, sub.charger_type_id)
            assert key not in found  # one edge per run end
            found[key] = gid
    return found


@pytest.mark.parametrize(
    "inst, attachments",
    [
        (discretize(two_type_scenario(charger_counts=(2, 1)), 5.0), ()),
        (discretize(single_visit_scenario(visit_end=360), 5.0), ()),
        (discretize(single_visit_scenario(), 5.0, t0_min=335, t_end_min=360),
         (("b1", "fast"),)),
    ],
    ids=["two_types", "visit_to_day_end", "attached"],
)
def test_run_edges_match_an_edge_scan(inst, attachments):
    graph = build_action_graph(inst, attachments=attachments)
    assert graph.enter_of == run_edge_scan(graph, "head", ("rest", "source"))
    assert graph.leave_of == run_edge_scan(graph, "tail", ("rest", "sink"))
    # every charge step can start and end a run
    for bus_id, k, tid in graph.sigma:
        assert (bus_id, k + 1, tid) in graph.leave_of
        assert (bus_id, k, tid) in graph.enter_of or (k == 0 and not attachments)
    pref = apply_plan_preference(graph, [0], 0.5)
    assert (pref.enter_of, pref.leave_of) == (graph.enter_of, graph.leave_of)


def visit_group_scan(graph):
    """The per-visit edge scan the groups replaced, kept as the reference:
    a visit's vertex set is its bus's charging vertices at instants
    k_start..k_end of its charger types, and its entering edges are the edges
    of those types' sub-graphs with the head inside the set and the tail
    outside, by edge id."""
    vertex_of = {}
    for sub in graph.subgraphs:
        for local, v in enumerate(sub.vertices):
            if v.kind == "charge":
                vertex_of[(sub.charger_type_id, v.bus_id, v.k)] = sub.vertex_offset + local
    groups = []
    for visit in graph.instance.visits:
        keys = [(tid, visit.bus_id, k) for tid in visit.charger_type_ids
                for k in range(visit.k_start, visit.k_end + 1)]
        vids = {vertex_of[key] for key in keys if key in vertex_of}
        entering = []
        for sub in graph.subgraphs:
            if sub.charger_type_id not in visit.charger_type_ids:
                continue
            for i, e in enumerate(sub.edges):
                if (sub.vertex_offset + e.head in vids
                        and sub.vertex_offset + e.tail not in vids):
                    entering.append(sub.edge_offset + i)
        groups.append((visit, tuple(sorted(entering))))
    return groups


def generated_days():
    for n_buses in (2, 4):
        for seed in (0, 1):
            scenario = generate_random_scenario(seed, GeneratorBounds(n_buses=n_buses))
            for delta in (5.0, 15.0):
                yield build_action_graph(discretize(scenario, delta))


def three_minute_windows(scenario, attached):
    """Every 3-minute-grid controller window of the day, 60 minutes long;
    ``attached`` attaches every (bus, charger type) pair at the window start."""
    pairs = tuple(
        (b.id, ct.id) for b in scenario.buses for ct in scenario.charger_types
    ) if attached else ()
    for t0 in range(scenario.day_start_min, scenario.day_end_min - 2, 3):
        inst = discretize(scenario, 3.0, t0_min=t0,
                          t_end_min=min(t0 + 60, scenario.day_end_min))
        yield build_action_graph(inst, attachments=pairs)


def split_station_blocks(scenario):
    """Each station block of 20 minutes or more as two adjacent blocks, cut
    on a quarter hour of the day so that the visits meet on 3- and 5-minute
    grids alike."""
    buses = []
    for bus in scenario.buses:
        blocks = []
        for block in bus.schedule:
            cut = (block.start_min + block.end_min) // 2
            cut -= (cut - scenario.day_start_min) % 15
            long_stay = block.end_min - block.start_min >= 20 and cut > block.start_min
            if block.kind == "in_station" and long_stay:
                blocks.append(dataclasses.replace(block, end_min=cut))
                blocks.append(dataclasses.replace(block, start_min=cut))
            else:
                blocks.append(block)
        buses.append(dataclasses.replace(bus, schedule=tuple(blocks)))
    return dataclasses.replace(scenario, buses=tuple(buses))


def split_day_graphs():
    scenario = split_station_blocks(four_bus_day())
    for delta in (3.0, 5.0):
        yield build_action_graph(discretize(scenario, delta))
    yield from three_minute_windows(scenario, attached=True)


@pytest.mark.parametrize(
    "graphs, kinds",
    [
        (generated_days, {"transition"}),
        (lambda: three_minute_windows(four_bus_day(), attached=False), {"transition"}),
        (lambda: three_minute_windows(four_bus_day(), attached=True),
         {"transition", "source"}),
        (split_day_graphs, {"transition", "source", "charge"}),
    ],
    ids=["generated_days", "bundled_windows", "bundled_windows_attached", "split_visits"],
)
def test_visit_groups_match_a_vertex_set_scan(graphs, kinds):
    seen = set()
    for graph in graphs():
        assert [(grp.visit, grp.entering_edges) for grp in graph.groups] == \
            visit_group_scan(graph)
        seen.update(graph.edge(gid).kind for grp in graph.groups for gid in grp.entering_edges)
    assert seen == kinds


def test_attachment_creates_source_continuation_edge():
    scn = single_visit_scenario(visit_start=330, visit_end=345)
    inst = discretize(scn, 5.0, t0_min=335, t_end_min=360)  # window starts mid-visit
    bare = build_action_graph(inst)
    attached = build_action_graph(inst, attachments=[("b1", "fast")])
    def source_charge_edges(g):
        return [
            e for _, _, e in g.iter_edges() if e.kind == "source" and e.bus_id == "b1"
        ]
    assert source_charge_edges(bare) == []
    cont = source_charge_edges(attached)
    assert len(cont) == 1
    assert cont[0].k_to == 0
    # the continuation edge counts as entering the visit group
    grp = attached.groups[0]
    gid = [i for i, _, e in attached.iter_edges() if e is cont[0]][0]
    assert gid in grp.entering_edges


def test_attachment_without_step_zero_availability_is_ignored():
    scn = single_visit_scenario(visit_start=330, visit_end=345)
    inst = discretize(scn, 5.0)  # visit starts mid-window, not at step 0
    g = build_action_graph(inst, attachments=[("b1", "fast")])
    assert [e for _, _, e in g.iter_edges() if e.kind == "source" and e.bus_id] == []


def test_build_is_deterministic():
    inst = discretize(two_type_scenario(charger_counts=(2, 2)), 5.0)
    a = build_action_graph(inst)
    b = build_action_graph(inst)
    assert [(s.vertices, s.edges) for s in a.subgraphs] == \
        [(s.vertices, s.edges) for s in b.subgraphs]
    assert a.groups == b.groups
    assert a.sigma == b.sigma


def test_edges_ordered_by_tail_then_head():
    inst = discretize(two_type_scenario(), 5.0)
    graph = build_action_graph(inst)
    for sub in graph.subgraphs:
        keys = [(e.tail, e.head) for e in sub.edges]
        assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# plan preference


@dataclasses.dataclass
class FakePlan:
    intervals: list
    t0_min: float
    delta_min: float


def test_close_edges_match_previous_plan_intervals():
    inst = discretize(single_visit_scenario(visit_start=330, visit_end=345), 5.0)
    graph = build_action_graph(inst)
    # previous plan on a 3-minute grid charging b1 on fast during [330, 340)
    plan = FakePlan(intervals=[("b1", "fast", 10, 13.3333333)], t0_min=300, delta_min=3.0)
    close = close_edges(graph, plan)
    kinds = {}
    for gid in close:
        e = graph.edge(gid)
        kinds.setdefault(e.kind, []).append(e)
    # charge edges overlapping [330, 340): steps starting 330 and 335
    assert sorted(e.k_from for e in kinds["charge"]) == [6, 7]
    # rest edges of the fast type overlapping the busy span are not close
    for e in kinds["rest"]:
        lo = inst.t0_min + e.k_from * inst.delta_min
        hi = inst.t0_min + e.k_to * inst.delta_min
        assert not (min(hi, 340.0) - max(lo, 330.0) > 0)


def test_close_edges_empty_plan_returns_all_rest_edges():
    inst = discretize(single_visit_scenario(), 5.0)
    graph = build_action_graph(inst)
    close = close_edges(graph, FakePlan(intervals=[], t0_min=300, delta_min=5.0))
    rest_ids = [gid for gid, _, e in graph.iter_edges() if e.kind == "rest"]
    assert close == rest_ids


def test_apply_plan_preference_lowers_only_close_edges():
    inst = discretize(single_visit_scenario(), 5.0)
    graph = build_action_graph(inst)
    close = [3, 5, 7]
    pref = apply_plan_preference(graph, close, 0.25)
    assert graph.edge_costs.sum() == 0.0  # untouched
    for gid in range(graph.n_edges):
        expected = -0.25 if gid in close else 0.0
        assert pref.edge_costs[gid] == expected
    with pytest.raises(ValueError):
        apply_plan_preference(graph, close, -1.0)


def test_dump_edges_csv_round_trips_structure(tmp_path):
    inst = discretize(two_type_scenario(), 5.0)
    graph = build_action_graph(inst)
    path = tmp_path / "edges.csv"
    dump_edges_csv(graph, str(path))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "edge_id,kind,bus,charger_type,k_from,k_to,capacity,cost"
    assert len(lines) == 1 + graph.n_edges
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[1] in ("source", "sink", "rest", "charge", "transition")


# ---------------------------------------------------------------------------
# the array build against the edge-by-edge reference


def reference_cases():
    """(instance, attachments): generated 2- and 4-bus days and the bundled
    day on 5- and 15-minute grids, and every 3-minute controller window of
    the bundled day, bare and with every pair attached."""
    for n_buses in (2, 4):
        for seed in (0, 1):
            scenario = generate_random_scenario(seed, GeneratorBounds(n_buses=n_buses))
            for delta in (5.0, 15.0):
                yield discretize(scenario, delta), ()
    day = four_bus_day()
    for delta in (5.0, 15.0):
        yield discretize(day, delta), ()
    pairs = tuple((b.id, ct.id) for b in day.buses for ct in day.charger_types)
    for t0 in range(day.day_start_min, day.day_end_min - 2, 3):
        inst = discretize(day, 3.0, t0_min=t0, t_end_min=min(t0 + 60, day.day_end_min))
        yield inst, ()
        yield inst, pairs


def previous_plans(inst):
    """An empty plan, one charging the first steps of every visit on the
    same grid, and one on a coarser grid that starts a minute earlier."""
    yield FakePlan(intervals=[], t0_min=inst.t0_min, delta_min=inst.delta_min)
    same = [(v.bus_id, v.charger_type_ids[0], v.k_start, min(v.k_start + 2, v.k_end))
            for v in inst.visits]
    yield FakePlan(intervals=same, t0_min=inst.t0_min, delta_min=inst.delta_min)
    coarse = [(v.bus_id, v.charger_type_ids[-1], v.k_start * inst.delta_min / 5.0,
               v.k_end * inst.delta_min / 5.0) for v in inst.visits]
    yield FakePlan(intervals=coarse + [("no-such-bus", "fast", 0, 3)],
                   t0_min=inst.t0_min - 1, delta_min=5.0)


def test_array_build_matches_edge_by_edge_reference(tmp_path):
    path = tmp_path / "edges.csv"
    n_attached = 0
    for inst, attachments in reference_cases():
        graph = build_action_graph(inst, attachments=attachments)
        ref = reference_graph(inst, attachments)
        assert len(graph.subgraphs) == len(ref.subgraphs)
        for sub, want in zip(graph.subgraphs, ref.subgraphs):
            assert (sub.charger_type_id, sub.count) == (want.charger_type_id, want.count)
            assert (sub.vertex_offset, sub.edge_offset) == (want.vertex_offset, want.edge_offset)
            assert sub.vertices == want.vertices
            assert sub.edges == want.edges
            for got, expected in zip(incidence_entries(sub), reference_incidence_entries(want)):
                assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
        for name in ("sigma", "enter_of", "leave_of"):
            assert list(getattr(graph, name).items()) == list(getattr(ref, name).items()), name
        assert [(grp.visit, grp.entering_edges) for grp in graph.groups] == ref.groups
        assert [graph.edge(gid) for gid in range(graph.n_edges)] == \
            [e for _, _, e in iter_edges(ref)]
        for plan in previous_plans(inst):
            close = close_edges(graph, plan)
            assert close == reference_close_edges(ref, plan)
            pref = apply_plan_preference(graph, close, 0.125)
            dump_edges_csv(pref, str(path))
            assert path.read_text() == reference_edges_csv(ref, pref.edge_costs)
        n_attached += any(e.kind == "source" and e.bus_id for _, _, e in graph.iter_edges())
    assert n_attached > 0

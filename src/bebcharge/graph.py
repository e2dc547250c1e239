"""Charger action-space graphs for network-flow scheduling.

Each charger type gets its own time-expanded sub-graph.  A vertex is "what one
charger of this type is doing at one instant": charging a particular bus, or
resting.  Edges connect consecutive instants, so every action takes one step:
``charge`` edges run between two charging vertices of the same bus, ``rest``
edges along the rest chain, and ``transition`` edges move a charger between
rest and a bus (connecting takes a step).  Explicit ``source``/``sink``
vertices carry the boundary flow: the source emits one unit per installed
charger into the first instant and the sink absorbs them after the last.

Conservation of charger units is then a flow-balance equation D x = f per
sub-graph, with D the vertex/edge incidence matrix (+1 where an edge begins,
-1 where it ends) and f zero everywhere except +-count at source/sink.  Edges
that end at a charging vertex have capacity 1 (at most one charger per bus);
rest-chain and boundary edges have capacity equal to the charger count.

A *visit group* collects all charging vertices of one bus visit across every
charger type at the station.  Restricting the total flow entering a group's
vertex set from outside to at most one unit enforces "at most one plug-in per
visit, on at most one charger type"; those entering-edge index sets are also
how the receding-horizon controller locks visits that already charged.
:func:`build_action_graph` records every charging run's entering edge by
(bus, instant, type), so a group is read off that map: the entering edges at
the visit's instants ``k_start..k_end``, plus the charge step at
``k_start - 1`` when an adjacent earlier visit's charging runs into this one.

When a horizon starts while a charger is mid-charge, flow must be able to
enter that bus's first charging vertex directly: ``attachments`` passed to the
builder create source->charging edges for exactly those (bus, charger type)
pairs, which keeps an in-progress charge continuable without opening a loophole
for re-entering locked visits.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np
import scipy.sparse as sp

from .scenario import DiscreteInstance, Visit

__all__ = [
    "Vertex",
    "Edge",
    "SubGraph",
    "VisitGroup",
    "ActionGraph",
    "build_action_graph",
    "incidence_entries",
    "incidence_matrix",
    "flow_rhs",
    "close_edges",
    "apply_plan_preference",
    "dump_edges_csv",
]

VERTEX_KINDS = ("source", "sink", "rest", "charge")
EDGE_KINDS = ("source", "sink", "rest", "charge", "transition")


@dataclass(frozen=True)
class Vertex:
    """kind in {source, sink, rest, charge}; ``k`` is the instant (None for
    source/sink); ``bus_id`` set only for charge vertices."""

    kind: str
    k: Optional[int] = None
    bus_id: Optional[str] = None


@dataclass(frozen=True)
class Edge:
    """One charger action spanning instants ``k_from`` -> ``k_to``.

    ``tail``/``head`` are vertex indices local to the owning sub-graph.
    """

    kind: str
    tail: int
    head: int
    k_from: Optional[int]
    k_to: Optional[int]
    capacity: int
    bus_id: Optional[str] = None


@dataclass(frozen=True)
class SubGraph:
    """Time-expanded graph for one charger type."""

    charger_type_id: str
    count: int
    vertices: Tuple[Vertex, ...]
    edges: Tuple[Edge, ...]
    vertex_offset: int = 0
    edge_offset: int = 0

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class VisitGroup:
    """A visit and the edges entering its charging vertices (across charger
    types) from outside."""

    visit: Visit
    entering_edges: Tuple[int, ...]


@dataclass(frozen=True)
class ActionGraph:
    """All sub-graphs plus the cross-cutting index structures the MILP needs.

    ``sigma`` maps (bus, step, charger type) to the charge edge of that step.
    A charging run from step ``k0`` to ``k1`` is entered by the edge
    ``enter_of[(bus, k0, type)]`` (from rest, or from the source for an
    attached charger) and left by ``leave_of[(bus, k1, type)]`` (to rest or
    the sink).
    """

    instance: DiscreteInstance
    subgraphs: Tuple[SubGraph, ...]
    groups: Tuple[VisitGroup, ...]
    sigma: Dict[Tuple[str, int, str], int]
    edge_costs: np.ndarray
    enter_of: Dict[Tuple[str, int, str], int]
    leave_of: Dict[Tuple[str, int, str], int]

    @property
    def n_edges(self) -> int:
        return sum(g.n_edges for g in self.subgraphs)

    @property
    def n_vertices(self) -> int:
        return sum(g.n_vertices for g in self.subgraphs)

    def edge(self, global_idx: int) -> Edge:
        for g in self.subgraphs:
            if global_idx < g.edge_offset + g.n_edges:
                return g.edges[global_idx - g.edge_offset]
        raise IndexError(global_idx)

    def subgraph_of_edge(self, global_idx: int) -> SubGraph:
        for g in self.subgraphs:
            if global_idx < g.edge_offset + g.n_edges:
                return g
        raise IndexError(global_idx)

    def iter_edges(self) -> Iterable[Tuple[int, SubGraph, Edge]]:
        for g in self.subgraphs:
            for i, e in enumerate(g.edges):
                yield g.edge_offset + i, g, e

    def edge_capacities(self) -> np.ndarray:
        return np.fromiter(
            (e.capacity for g in self.subgraphs for e in g.edges), dtype=float, count=self.n_edges
        )


def incidence_entries(subgraph: SubGraph) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The incidence matrix's entries as (vertex, edge, value) arrays, vertex
    by vertex and by edge within a vertex: +1 at each edge's begin vertex,
    -1 at its end vertex."""
    n = subgraph.n_edges
    tail = np.fromiter((e.tail for e in subgraph.edges), dtype=np.int64, count=n)
    head = np.fromiter((e.head for e in subgraph.edges), dtype=np.int64, count=n)
    rows = np.concatenate((tail, head))
    cols = np.tile(np.arange(n), 2)
    order = np.lexsort((cols, rows))
    return rows[order], cols[order], np.repeat([1.0, -1.0], n)[order]


def incidence_matrix(subgraph: SubGraph) -> sp.csc_matrix:
    """Vertex/edge incidence matrix: column j has +1 at the edge's begin vertex
    and -1 at its end vertex."""
    rows, cols, vals = incidence_entries(subgraph)
    return sp.csc_matrix(
        (vals, (rows, cols)), shape=(subgraph.n_vertices, subgraph.n_edges)
    )


def flow_rhs(subgraph: SubGraph) -> np.ndarray:
    """Boundary flow vector: +count at the source (first vertex), -count at the
    sink (last vertex), zero elsewhere."""
    f = np.zeros(subgraph.n_vertices)
    f[0] = subgraph.count
    f[-1] = -subgraph.count
    return f


def build_action_graph(
    instance: DiscreteInstance,
    attachments: Sequence[Tuple[str, str]] = (),
) -> ActionGraph:
    """Build one sub-graph per charger type plus visit groups.

    Vertices are ordered (instant, bus row) with the rest row last per instant,
    bracketed by source first and sink last; edges are sorted by (tail, head).
    ``attachments`` lists (bus_id, charger_type_id) pairs whose charger is
    already connected at the window start; they receive a source->charging edge
    so the charge can continue through instant 0.
    """
    scenario = instance.scenario
    K = instance.n_steps
    attach = set(attachments)
    bus_order = {b.id: i for i, b in enumerate(scenario.buses)}

    # charging availability per type: (bus, k) -> charge step exists
    avail: Dict[str, Set[Tuple[str, int]]] = {ct.id: set() for ct in scenario.charger_types}
    for v in instance.visits:
        for tid in v.charger_type_ids:
            for k in range(v.k_start, v.k_end):
                avail[tid].add((v.bus_id, k))

    subgraphs: List[SubGraph] = []
    vertex_offset = 0
    edge_offset = 0
    sigma: Dict[Tuple[str, int, str], int] = {}
    enter_of: Dict[Tuple[str, int, str], int] = {}
    leave_of: Dict[Tuple[str, int, str], int] = {}

    for ct in scenario.charger_types:
        steps = avail[ct.id]
        # vertex instants per bus: endpoints of available charge steps
        vertices: List[Vertex] = [Vertex("source")]
        local_of: Dict[Tuple[Optional[str], int], int] = {}
        for k in range(K + 1):
            for bus in scenario.buses:
                if (bus.id, k) in steps or (bus.id, k - 1) in steps:
                    local_of[(bus.id, k)] = len(vertices)
                    vertices.append(Vertex("charge", k=k, bus_id=bus.id))
            local_of[(None, k)] = len(vertices)
            vertices.append(Vertex("rest", k=k))
        sink_idx = len(vertices)
        vertices.append(Vertex("sink"))

        edges: List[Edge] = []
        edges.append(
            Edge("source", 0, local_of[(None, 0)], None, 0, capacity=ct.count)
        )
        for bus_id, k in steps:
            if k == 0 and (bus_id, ct.id) in attach:
                edges.append(
                    Edge("source", 0, local_of[(bus_id, 0)], None, 0, capacity=1, bus_id=bus_id)
                )
        for k in range(K):
            edges.append(
                Edge(
                    "rest",
                    local_of[(None, k)],
                    local_of[(None, k + 1)],
                    k,
                    k + 1,
                    capacity=ct.count,
                )
            )
        for bus_id, k in steps:
            edges.append(
                Edge(
                    "charge",
                    local_of[(bus_id, k)],
                    local_of[(bus_id, k + 1)],
                    k,
                    k + 1,
                    capacity=1,
                    bus_id=bus_id,
                )
            )
            # a charger can step in from rest ahead of the charge step...
            if k >= 1:
                edges.append(
                    Edge(
                        "transition",
                        local_of[(None, k - 1)],
                        local_of[(bus_id, k)],
                        k - 1,
                        k,
                        capacity=1,
                        bus_id=bus_id,
                    )
                )
            # ...and step back out after it
            if k + 2 <= K:
                edges.append(
                    Edge(
                        "transition",
                        local_of[(bus_id, k + 1)],
                        local_of[(None, k + 2)],
                        k + 1,
                        k + 2,
                        capacity=1,
                        bus_id=bus_id,
                    )
                )
            else:
                edges.append(
                    Edge(
                        "sink",
                        local_of[(bus_id, K)],
                        sink_idx,
                        K,
                        None,
                        capacity=1,
                        bus_id=bus_id,
                    )
                )
        edges.append(Edge("sink", local_of[(None, K)], sink_idx, K, None, capacity=ct.count))
        # every edge is keyed by its own (bus, step) or instant, so none repeats
        edges.sort(key=lambda e: (e.tail, e.head, e.kind))

        sub = SubGraph(
            charger_type_id=ct.id,
            count=ct.count,
            vertices=tuple(vertices),
            edges=tuple(edges),
            vertex_offset=vertex_offset,
            edge_offset=edge_offset,
        )
        for i, e in enumerate(sub.edges):
            if e.kind == "charge":
                sigma[(e.bus_id, e.k_from, ct.id)] = edge_offset + i
            elif e.bus_id is not None:
                # a bus's transition, source or sink edge: into its charging
                # vertex, or out of it
                if sub.vertices[e.head].kind == "charge":
                    enter_of[(e.bus_id, e.k_to, ct.id)] = edge_offset + i
                else:
                    leave_of[(e.bus_id, e.k_from, ct.id)] = edge_offset + i
        subgraphs.append(sub)
        vertex_offset += sub.n_vertices
        edge_offset += sub.n_edges

    # visit groups across charger types, read off the run-entry map: a run's
    # entering edge at any instant k_start..k_end, plus the charge step of an
    # earlier visit that runs into this one at k_start
    groups: List[VisitGroup] = []
    for v in instance.visits:
        entering: Set[Optional[int]] = set()
        for tid in v.charger_type_ids:
            entering.add(sigma.get((v.bus_id, v.k_start - 1, tid)))
            entering.update(
                enter_of.get((v.bus_id, k, tid)) for k in range(v.k_start, v.k_end + 1)
            )
        entering.discard(None)
        groups.append(VisitGroup(visit=v, entering_edges=tuple(sorted(entering))))

    n_edges = edge_offset
    return ActionGraph(
        instance=instance,
        subgraphs=tuple(subgraphs),
        groups=tuple(groups),
        sigma=sigma,
        edge_costs=np.zeros(n_edges),
        enter_of=enter_of,
        leave_of=leave_of,
    )


def _edge_span_minutes(instance: DiscreteInstance, e: Edge) -> Optional[Tuple[float, float]]:
    if e.k_from is None or e.k_to is None:
        return None
    return (
        instance.t0_min + e.k_from * instance.delta_min,
        instance.t0_min + e.k_to * instance.delta_min,
    )


def close_edges(graph: ActionGraph, previous_plan) -> List[int]:
    """Edges "close" to a previous plan, by wall-clock overlap.

    A charge edge is close when the previous plan charged the same bus on the
    same charger type over an overlapping time span; a rest edge is close when
    the previous plan has no charging interval of that charger type overlapping
    the edge's span.  The plan may live on a different grid; only its
    minute-space intervals matter.  An empty plan makes every rest edge close.
    """
    intervals = []  # (bus_id, type_id, start_min, end_min)
    for bus_id, type_id, k_start, k_end in previous_plan.intervals:
        intervals.append(
            (
                bus_id,
                type_id,
                previous_plan.t0_min + k_start * previous_plan.delta_min,
                previous_plan.t0_min + k_end * previous_plan.delta_min,
            )
        )
    out: List[int] = []
    for gid, sub, e in graph.iter_edges():
        span = _edge_span_minutes(graph.instance, e)
        if span is None:
            continue
        a, b = span
        if e.kind == "charge":
            for bus_id, type_id, lo, hi in intervals:
                if (
                    bus_id == e.bus_id
                    and type_id == sub.charger_type_id
                    and min(b, hi) - max(a, lo) > 0
                ):
                    out.append(gid)
                    break
        elif e.kind == "rest":
            busy = any(
                type_id == sub.charger_type_id and min(b, hi) - max(a, lo) > 0
                for _, type_id, lo, hi in intervals
            )
            if not busy:
                out.append(gid)
    return out


def apply_plan_preference(
    graph: ActionGraph, close: Sequence[int], bonus: float
) -> ActionGraph:
    """Return a copy of the graph with edge costs lowered by ``bonus`` on the
    given edges; the input graph is left untouched."""
    if bonus < 0:
        raise ValueError("bonus must be non-negative")
    costs = graph.edge_costs.copy()
    for gid in close:
        costs[gid] -= bonus
    return replace(graph, edge_costs=costs)


def dump_edges_csv(graph: ActionGraph, path: str) -> None:
    """Write the edge list as CSV: edge_id,kind,bus,charger_type,k_from,k_to,capacity,cost."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("edge_id,kind,bus,charger_type,k_from,k_to,capacity,cost\n")
        for gid, sub, e in graph.iter_edges():
            fh.write(
                f"{gid},{e.kind},{e.bus_id or ''},{sub.charger_type_id},"
                f"{'' if e.k_from is None else e.k_from},"
                f"{'' if e.k_to is None else e.k_to},"
                f"{e.capacity},{graph.edge_costs[gid]!r}\n"
            )

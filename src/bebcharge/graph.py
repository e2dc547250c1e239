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

A sub-graph is stored as arrays, one entry per vertex and one per edge: kind
codes (into :data:`VERTEX_KINDS` / :data:`EDGE_KINDS`), instants, bus indices
and, for edges, tail, head and capacity.  :func:`build_action_graph` builds
each sub-graph's edge arrays whole, from the grid of available charge steps,
and reads the index maps off them.  :class:`Vertex` and :class:`Edge` tuples
are views, made on first use (CSV export, tests, inspection).

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
from functools import cached_property
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
SOURCE, SINK, REST, CHARGE, TRANSITION = range(len(EDGE_KINDS))

# each edge kind's position in name order: edges with the same tail and head
# are ordered by kind name
_KIND_RANK = np.array([sorted(EDGE_KINDS).index(kind) for kind in EDGE_KINDS])


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


@dataclass(frozen=True, eq=False)
class SubGraph:
    """Time-expanded graph for one charger type, stored as arrays.

    Vertex v has kind ``vertex_kind[v]`` (into :data:`VERTEX_KINDS`), instant
    ``vertex_k[v]`` and bus ``vertex_bus[v]`` (into ``bus_ids``).  Edge i has
    kind ``kind[i]`` (into :data:`EDGE_KINDS`), local vertices ``tail[i]`` ->
    ``head[i]``, instants ``k_from[i]`` -> ``k_to[i]``, ``capacity[i]`` and
    bus ``bus[i]``.  -1 stands for "none" in every instant and bus array.
    ``vertices`` and ``edges`` are the same data as :class:`Vertex` /
    :class:`Edge` tuples, made on first use.
    """

    charger_type_id: str
    count: int
    bus_ids: Tuple[str, ...]
    vertex_kind: np.ndarray
    vertex_k: np.ndarray
    vertex_bus: np.ndarray
    kind: np.ndarray
    tail: np.ndarray
    head: np.ndarray
    k_from: np.ndarray
    k_to: np.ndarray
    capacity: np.ndarray
    bus: np.ndarray
    vertex_offset: int = 0
    edge_offset: int = 0

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_kind)

    @property
    def n_edges(self) -> int:
        return len(self.kind)

    def _bus_names(self, codes: np.ndarray) -> List[Optional[str]]:
        names = self.bus_ids + (None,)  # code -1 reads the last entry
        return [names[b] for b in codes.tolist()]

    @cached_property
    def vertices(self) -> Tuple[Vertex, ...]:
        return tuple(
            Vertex(VERTEX_KINDS[kind], None if k < 0 else k, bus_id)
            for kind, k, bus_id in zip(
                self.vertex_kind.tolist(), self.vertex_k.tolist(),
                self._bus_names(self.vertex_bus),
            )
        )

    @cached_property
    def edges(self) -> Tuple[Edge, ...]:
        return tuple(
            Edge(EDGE_KINDS[kind], tail, head, None if k0 < 0 else k0,
                 None if k1 < 0 else k1, capacity, bus_id)
            for kind, tail, head, k0, k1, capacity, bus_id in zip(
                self.kind.tolist(), self.tail.tolist(), self.head.tolist(),
                self.k_from.tolist(), self.k_to.tolist(), self.capacity.tolist(),
                self._bus_names(self.bus),
            )
        )


@dataclass(frozen=True)
class VisitGroup:
    """A visit and the edges entering its charging vertices (across charger
    types) from outside."""

    visit: Visit
    entering_edges: Tuple[int, ...]


@dataclass(frozen=True, eq=False)
class ActionGraph:
    """All sub-graphs plus the cross-cutting index structures the MILP needs.

    Edge ids run over the sub-graphs in order.  ``edge_type`` (the index of
    an edge's sub-graph), ``edge_kind``, ``edge_bus``, ``edge_k_from``,
    ``edge_k_to`` and ``edge_capacity`` are the sub-graphs' edge arrays
    joined, by edge id.  ``sigma`` maps (bus, step, charger type) to the
    charge edge of that step.  A charging run from step ``k0`` to ``k1`` is
    entered by the edge ``enter_of[(bus, k0, type)]`` (from rest, or from the
    source for an attached charger) and left by ``leave_of[(bus, k1, type)]``
    (to rest or the sink).
    """

    instance: DiscreteInstance
    subgraphs: Tuple[SubGraph, ...]
    groups: Tuple[VisitGroup, ...]
    sigma: Dict[Tuple[str, int, str], int]
    edge_costs: np.ndarray
    enter_of: Dict[Tuple[str, int, str], int]
    leave_of: Dict[Tuple[str, int, str], int]
    edge_type: np.ndarray
    edge_kind: np.ndarray
    edge_bus: np.ndarray
    edge_k_from: np.ndarray
    edge_k_to: np.ndarray
    edge_capacity: np.ndarray

    @property
    def n_edges(self) -> int:
        return len(self.edge_kind)

    @property
    def n_vertices(self) -> int:
        return sum(g.n_vertices for g in self.subgraphs)

    def edge(self, global_idx: int) -> Edge:
        g = self.subgraph_of_edge(global_idx)
        return g.edges[global_idx - g.edge_offset]

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
        return self.edge_capacity.astype(float)


def stable_argsort(keys: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` of integer keys in ``[0, bound)``;
    keys that fit 16 bits sort as such, by radix sort."""
    return np.argsort(keys.astype(np.int16) if bound < 2**15 else keys, kind="stable")


def incidence_entries(subgraph: SubGraph) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The incidence matrix's entries as (vertex, edge, value) arrays, vertex
    by vertex and by edge within a vertex: +1 at each edge's begin vertex,
    -1 at its end vertex."""
    # each edge's begin then end vertex, sorted by vertex: within a vertex by
    # edge, and a loop edge's +1 ahead of its -1
    ends = np.stack((subgraph.tail, subgraph.head), axis=1).ravel()
    order = stable_argsort(ends, subgraph.n_vertices)
    return ends[order], order // 2, np.where(order % 2 == 0, 1.0, -1.0)


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


# what an edge is to the index maps: part of the rest chain (or a boundary
# edge of it), a bus's charge step, the entry of a charging run, or its exit
_CHAIN, _STEP, _ENTER, _LEAVE = range(4)


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

    Every charger type is built at once, as arrays over (type, bus, step):
    each available charge step brings its charge edge, the edge entering it
    from rest a step earlier (from the source for an attached charger at step
    0) and the edge leaving it for rest a step later (for the sink at the
    window end); each type adds its source, rest chain and sink edges.
    """
    scenario = instance.scenario
    K = instance.n_steps
    bus_ids = tuple(b.id for b in scenario.buses)
    type_ids = tuple(ct.id for ct in scenario.charger_types)
    n_bus, n_type = len(bus_ids), len(type_ids)
    bus_index = {b: j for j, b in enumerate(bus_ids)}
    type_index = {t: i for i, t in enumerate(type_ids)}

    avail = np.zeros((n_type, n_bus, K), dtype=bool)
    for v in instance.visits:
        for tid in v.charger_type_ids:
            avail[type_index[tid], bus_index[v.bus_id], v.k_start:v.k_end] = True
    attached = np.zeros((n_type, n_bus), dtype=bool)
    for bus_id, tid in attachments:
        if bus_id in bus_index and tid in type_index:
            attached[type_index[tid], bus_index[bus_id]] = True

    # vertices per type: by instant, each bus's charging vertex (where a step
    # begins or ends) then the rest vertex, between the source (0) and the sink
    present = np.zeros((n_type, K + 1, n_bus + 1), dtype=bool)
    present[:, :, n_bus] = True
    steps_at = avail.transpose(0, 2, 1)
    present[:, :K, :n_bus] = steps_at
    present[:, 1:, :n_bus] |= steps_at
    local = np.cumsum(present.reshape(n_type, -1), axis=1).reshape(present.shape)
    rest = local[:, :, n_bus]
    sink = rest[:, K] + 1

    # rows: type, kind, tail, head, k_from, k_to, capacity, bus, map role; per
    # charge step three slots: the step, its entry and its exit
    t, j, k = np.nonzero(avail)
    step = np.empty((9, len(k), 3), dtype=np.int64)
    s_type, s_kind, s_tail, s_head, s_from, s_to, s_cap, s_bus, s_role = step
    s_type[:] = t[:, None]
    s_bus[:] = j[:, None]
    s_cap[:] = 1
    at_k, at_next = local[t, k, j], local[t, k + 1, j]
    s_role[:, 0] = _STEP
    s_role[:, 1] = _ENTER
    s_role[:, 2] = _LEAVE
    s_kind[:, 0] = CHARGE
    s_tail[:, 0] = at_k
    s_head[:, 0] = at_next
    s_from[:, 0] = k
    s_to[:, 0] = k + 1
    s_head[:, 1] = at_k
    s_to[:, 1] = k
    from_rest = k >= 1
    s_kind[:, 1] = np.where(from_rest, TRANSITION, SOURCE)
    s_tail[:, 1] = np.where(from_rest, rest[t, k - 1], 0)
    s_from[:, 1] = k - 1
    to_rest = k + 2 <= K
    s_kind[:, 2] = np.where(to_rest, TRANSITION, SINK)
    s_tail[:, 2] = at_next
    s_head[:, 2] = np.where(to_rest, rest[t, np.minimum(k + 2, K)], sink[t])
    s_from[:, 2] = k + 1
    s_to[:, 2] = np.where(to_rest, k + 2, -1)
    kept = np.ones((len(k), 3), dtype=bool)
    kept[:, 1] = from_rest | attached[t, j]

    chain = np.empty((9, n_type, K + 2), dtype=np.int64)
    c_type, c_kind, c_tail, c_head, c_from, c_to, c_cap, c_bus, c_role = chain
    c_type[:] = np.arange(n_type)[:, None]
    c_kind[:] = REST
    c_kind[:, 0] = SOURCE
    c_kind[:, K + 1] = SINK
    c_tail[:, 0] = 0
    c_tail[:, 1:] = rest
    c_head[:, :K + 1] = rest
    c_head[:, K + 1] = sink
    c_from[:, 0] = -1
    c_from[:, 1:] = np.arange(K + 1)
    c_to[:, :K + 1] = np.arange(K + 1)
    c_to[:, K + 1] = -1
    c_cap[:] = np.array([ct.count for ct in scenario.charger_types])[:, None]
    c_bus[:] = -1
    c_role[:] = _CHAIN

    edges = np.concatenate((chain.reshape(9, -1), step.reshape(9, -1)[:, kept.ravel()]), axis=1)
    typ, kind, tail, head = edges[:4]
    edges = edges[:, np.lexsort((_KIND_RANK[kind], head, tail, typ))]
    typ, kind, tail, head, k_from, k_to, capacity, bus, role = edges

    # index maps, in edge id order
    maps: List[Dict[Tuple[str, int, str], int]] = []
    for which, at in ((_STEP, k_from), (_ENTER, k_to), (_LEAVE, k_from)):
        i = np.flatnonzero(role == which)
        keys = zip(map(bus_ids.__getitem__, bus[i].tolist()), at[i].tolist(),
                   map(type_ids.__getitem__, typ[i].tolist()))
        maps.append(dict(zip(keys, i.tolist())))
    sigma, enter_of, leave_of = maps

    subgraphs: List[SubGraph] = []
    edge_end = np.cumsum(np.bincount(typ, minlength=n_type)).tolist()
    vertex_offset = edge_offset = 0
    for i, ct in enumerate(scenario.charger_types):
        k_v, col = np.nonzero(present[i])
        is_rest = col == n_bus
        part = slice(edge_offset, edge_end[i])
        sub = SubGraph(
            ct.id, ct.count, bus_ids,
            vertex_kind=np.concatenate(([SOURCE], np.where(is_rest, REST, CHARGE), [SINK])),
            vertex_k=np.concatenate(([-1], k_v, [-1])),
            vertex_bus=np.concatenate(([-1], np.where(is_rest, -1, col), [-1])),
            kind=kind[part], tail=tail[part], head=head[part], k_from=k_from[part],
            k_to=k_to[part], capacity=capacity[part], bus=bus[part],
            vertex_offset=vertex_offset, edge_offset=edge_offset,
        )
        subgraphs.append(sub)
        vertex_offset += sub.n_vertices
        edge_offset = edge_end[i]

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

    return ActionGraph(
        instance=instance,
        subgraphs=tuple(subgraphs),
        groups=tuple(groups),
        sigma=sigma,
        edge_costs=np.zeros(edge_offset),
        enter_of=enter_of,
        leave_of=leave_of,
        edge_type=typ,
        edge_kind=kind,
        edge_bus=bus,
        edge_k_from=k_from,
        edge_k_to=k_to,
        edge_capacity=capacity,
    )


def close_edges(graph: ActionGraph, previous_plan) -> List[int]:
    """Edges "close" to a previous plan, by wall-clock overlap.

    A charge edge is close when the previous plan charged the same bus on the
    same charger type over an overlapping time span; a rest edge is close when
    the previous plan has no charging interval of that charger type overlapping
    the edge's span.  The plan may live on a different grid; only its
    minute-space intervals matter.  An empty plan makes every rest edge close.
    """
    inst = graph.instance
    kind = graph.edge_kind
    bus_index = {b.id: j for j, b in enumerate(inst.scenario.buses)}
    type_index = {g.charger_type_id: t for t, g in enumerate(graph.subgraphs)}
    plan = previous_plan
    bus_ids, type_ids, k_start, k_end = zip(*plan.intervals) if plan.intervals else ((),) * 4
    # codes no edge carries for a bus or type the graph lacks
    i_bus = np.array([bus_index.get(b, -2) for b in bus_ids], dtype=np.int64)
    i_type = np.array([type_index.get(t, -2) for t in type_ids], dtype=np.int64)
    lo = np.array([plan.t0_min + k * plan.delta_min for k in k_start], dtype=float)
    hi = np.array([plan.t0_min + k * plan.delta_min for k in k_end], dtype=float)

    ids = np.flatnonzero((kind == CHARGE) | (kind == REST))
    a = inst.t0_min + graph.edge_k_from[ids] * inst.delta_min
    b = inst.t0_min + graph.edge_k_to[ids] * inst.delta_min
    overlap = np.minimum(b[:, None], hi) - np.maximum(a[:, None], lo) > 0
    busy = overlap & (graph.edge_type[ids, None] == i_type)
    close = np.where(
        kind[ids] == CHARGE,
        (busy & (graph.edge_bus[ids, None] == i_bus)).any(axis=1),
        ~busy.any(axis=1),
    )
    return ids[close].tolist()


def apply_plan_preference(
    graph: ActionGraph, close: Sequence[int], bonus: float
) -> ActionGraph:
    """Return a copy of the graph with edge costs lowered by ``bonus`` on the
    given edges; the input graph is left untouched."""
    if bonus < 0:
        raise ValueError("bonus must be non-negative")
    costs = graph.edge_costs.copy()
    np.subtract.at(costs, np.asarray(close, dtype=np.int64), bonus)
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

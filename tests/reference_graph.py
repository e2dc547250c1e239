"""Edge-by-edge reference build of the action graph.

The builder ``bebcharge.graph`` replaced, kept as the oracle for its array
build: every vertex and edge is a :class:`~bebcharge.graph.Vertex` /
:class:`~bebcharge.graph.Edge` made one Python call at a time, the edges of a
sub-graph are sorted by (tail, head, kind), and the index maps are read off
the edge objects, exactly as the package did before it built edge arrays.
``reference_graph`` returns the sub-graphs, ``sigma``, ``enter_of``,
``leave_of`` and the visit groups; ``reference_incidence_entries``,
``reference_close_edges`` and ``reference_edges_csv`` are the per-edge
versions of ``incidence_entries``, ``close_edges`` and ``dump_edges_csv``.
"""

from types import SimpleNamespace
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from bebcharge.graph import Edge, Vertex


def reference_graph(instance, attachments=()):
    """The sub-graphs and index maps of ``build_action_graph(instance,
    attachments)``, built edge by edge."""
    scenario = instance.scenario
    K = instance.n_steps
    attach = set(attachments)

    avail: Dict[str, Set[Tuple[str, int]]] = {ct.id: set() for ct in scenario.charger_types}
    for v in instance.visits:
        for tid in v.charger_type_ids:
            for k in range(v.k_start, v.k_end):
                avail[tid].add((v.bus_id, k))

    subgraphs = []
    vertex_offset = 0
    edge_offset = 0
    sigma, enter_of, leave_of = {}, {}, {}

    for ct in scenario.charger_types:
        steps = avail[ct.id]
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

        edges: List[Edge] = [Edge("source", 0, local_of[(None, 0)], None, 0, capacity=ct.count)]
        for bus_id, k in steps:
            if k == 0 and (bus_id, ct.id) in attach:
                edges.append(
                    Edge("source", 0, local_of[(bus_id, 0)], None, 0, capacity=1, bus_id=bus_id)
                )
        for k in range(K):
            edges.append(Edge("rest", local_of[(None, k)], local_of[(None, k + 1)], k, k + 1,
                              capacity=ct.count))
        for bus_id, k in steps:
            edges.append(Edge("charge", local_of[(bus_id, k)], local_of[(bus_id, k + 1)],
                              k, k + 1, capacity=1, bus_id=bus_id))
            if k >= 1:
                edges.append(Edge("transition", local_of[(None, k - 1)], local_of[(bus_id, k)],
                                  k - 1, k, capacity=1, bus_id=bus_id))
            if k + 2 <= K:
                edges.append(Edge("transition", local_of[(bus_id, k + 1)],
                                  local_of[(None, k + 2)], k + 1, k + 2, capacity=1,
                                  bus_id=bus_id))
            else:
                edges.append(Edge("sink", local_of[(bus_id, K)], sink_idx, K, None, capacity=1,
                                  bus_id=bus_id))
        edges.append(Edge("sink", local_of[(None, K)], sink_idx, K, None, capacity=ct.count))
        edges.sort(key=lambda e: (e.tail, e.head, e.kind))

        sub = SimpleNamespace(
            charger_type_id=ct.id, count=ct.count, vertices=tuple(vertices),
            edges=tuple(edges), vertex_offset=vertex_offset, edge_offset=edge_offset,
        )
        for i, e in enumerate(sub.edges):
            if e.kind == "charge":
                sigma[(e.bus_id, e.k_from, ct.id)] = edge_offset + i
            elif e.bus_id is not None:
                if sub.vertices[e.head].kind == "charge":
                    enter_of[(e.bus_id, e.k_to, ct.id)] = edge_offset + i
                else:
                    leave_of[(e.bus_id, e.k_from, ct.id)] = edge_offset + i
        subgraphs.append(sub)
        vertex_offset += len(vertices)
        edge_offset += len(edges)

    groups = []
    for v in instance.visits:
        entering: Set[Optional[int]] = set()
        for tid in v.charger_type_ids:
            entering.add(sigma.get((v.bus_id, v.k_start - 1, tid)))
            entering.update(
                enter_of.get((v.bus_id, k, tid)) for k in range(v.k_start, v.k_end + 1)
            )
        entering.discard(None)
        groups.append((v, tuple(sorted(entering))))

    return SimpleNamespace(
        instance=instance, subgraphs=tuple(subgraphs), sigma=sigma, enter_of=enter_of,
        leave_of=leave_of, groups=groups,
    )


def iter_edges(ref):
    for sub in ref.subgraphs:
        for i, e in enumerate(sub.edges):
            yield sub.edge_offset + i, sub, e


def reference_incidence_entries(sub):
    """(vertex, edge, value) entries of one sub-graph's incidence matrix, by
    vertex and by edge within a vertex."""
    n = len(sub.edges)
    tail = np.fromiter((e.tail for e in sub.edges), dtype=np.int64, count=n)
    head = np.fromiter((e.head for e in sub.edges), dtype=np.int64, count=n)
    rows = np.concatenate((tail, head))
    cols = np.tile(np.arange(n), 2)
    order = np.lexsort((cols, rows))
    return rows[order], cols[order], np.repeat([1.0, -1.0], n)[order]


def reference_close_edges(ref, previous_plan):
    """Charge edges overlapping a previous-plan interval of the same bus and
    type, and rest edges overlapping none of their type, edge by edge."""
    inst = ref.instance
    intervals = [
        (bus_id, type_id,
         previous_plan.t0_min + k_start * previous_plan.delta_min,
         previous_plan.t0_min + k_end * previous_plan.delta_min)
        for bus_id, type_id, k_start, k_end in previous_plan.intervals
    ]
    out = []
    for gid, sub, e in iter_edges(ref):
        if e.k_from is None or e.k_to is None:
            continue
        a = inst.t0_min + e.k_from * inst.delta_min
        b = inst.t0_min + e.k_to * inst.delta_min
        if e.kind == "charge":
            if any(bus_id == e.bus_id and type_id == sub.charger_type_id
                   and min(b, hi) - max(a, lo) > 0 for bus_id, type_id, lo, hi in intervals):
                out.append(gid)
        elif e.kind == "rest":
            if not any(type_id == sub.charger_type_id and min(b, hi) - max(a, lo) > 0
                       for _, type_id, lo, hi in intervals):
                out.append(gid)
    return out


def reference_edges_csv(ref, edge_costs) -> str:
    """The text ``dump_edges_csv`` writes, edge by edge."""
    lines = ["edge_id,kind,bus,charger_type,k_from,k_to,capacity,cost\n"]
    for gid, sub, e in iter_edges(ref):
        lines.append(
            f"{gid},{e.kind},{e.bus_id or ''},{sub.charger_type_id},"
            f"{'' if e.k_from is None else e.k_from},"
            f"{'' if e.k_to is None else e.k_to},"
            f"{e.capacity},{edge_costs[gid]!r}\n"
        )
    return "".join(lines)

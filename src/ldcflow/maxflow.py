"""Classical (graph-theoretic) maximum flow, computed exactly.

This ignores susceptances and the power law entirely: every undirected
edge simply has its capacity available in both directions.  The value from
a super-source over all generators to a super-sink over all loads upper
bounds the power-law-constrained maximum of the network and of every one
of its sub-networks, which is what makes it useful as a pruning bound for
the switching search.

The capacities are scaled once by the LCM L of their denominators, so
Edmonds-Karp runs on Python ints; the value comes back as
`Fraction(x, L)`, the same exact rational.  `mpf` replays the integer
per-edge flows of a tree component as its solution.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Sequence
from fractions import Fraction

from .network import Edge, Network, NodeId


def _edmonds_karp(num_nodes: int, arcs: dict[tuple[int, int], int], source: int, sink: int) -> dict[tuple[int, int], int]:
    """Max flow on a directed arc-capacity dict; returns the flow per arc."""
    residual = dict(arcs)
    adj: dict[int, list[int]] = {i: [] for i in range(num_nodes)}
    for (u, v) in arcs:
        adj[u].append(v)
        if (v, u) not in arcs:
            residual[(v, u)] = 0
            adj[v].append(u)
    for u in adj:
        adj[u].sort()

    while True:
        parent: dict[int, int] = {source: source}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for v in adj[u]:
                if v not in parent and residual[(u, v)] > 0:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            break
        bottleneck = None
        v = sink
        while v != source:
            u = parent[v]
            r = residual[(u, v)]
            bottleneck = r if bottleneck is None or r < bottleneck else bottleneck
            v = u
        v = sink
        while v != source:
            u = parent[v]
            residual[(u, v)] -= bottleneck
            residual[(v, u)] += bottleneck
            v = u

    return {arc: arcs[arc] - residual[arc] for arc in arcs}


def _integer_flow(names: Sequence[NodeId], edges: Sequence[Edge], generators: Sequence[NodeId], loads: Sequence[NodeId]) -> tuple[int, int, list[int]]:
    """(value, scale, signed flow per edge from a to b), all over the scale L of the capacities.

    `names` are every node an edge touches; their order numbers the nodes,
    and so fixes which max flow Edmonds-Karp returns when there are several.
    """
    if not (generators and loads and edges):
        return 0, 1, [0] * len(edges)
    index = {name: i for i, name in enumerate(names)}
    source = len(index)
    sink = len(index) + 1
    scale = math.lcm(*(e.cap.denominator for e in edges))
    caps = [e.cap.numerator * (scale // e.cap.denominator) for e in edges]
    big = sum(caps) + scale  # more than every edge together can carry

    arcs: dict[tuple[int, int], int] = {}
    for e, cap in zip(edges, caps):
        u, v = index[e.a], index[e.b]
        arcs[(u, v)] = arcs.get((u, v), 0) + cap
        arcs[(v, u)] = arcs.get((v, u), 0) + cap
    for g in generators:
        arcs[(source, index[g])] = big
    for l in loads:
        arcs[(index[l], sink)] = big

    flow = _edmonds_karp(len(index) + 2, arcs, source, sink)
    value = sum(flow[(source, index[g])] for g in generators)
    # cap - residual on the forward arc is already the signed net flow
    return value, scale, [flow[(index[e.a], index[e.b])] for e in edges]


def classical_max_flow(n: Network) -> Fraction:
    """Standard max flow from all generators to all loads, capacities only."""
    value, scale, _ = _integer_flow(n.node_names, n.edges, n.generators, n.loads)
    return Fraction(value, scale)

"""Classical (graph-theoretic) maximum flow, computed exactly.

This ignores susceptances and the power law entirely: every undirected
edge simply has its capacity available in both directions.  The value from
a super-source over all generators to a super-sink over all loads upper
bounds the power-law-constrained maximum of the network and of every one
of its sub-networks, which is what makes it useful as a pruning bound for
the switching search.

The capacities are scaled once by the LCM L of their denominators, so
Edmonds-Karp runs on Python ints; the value and the per-edge flows come
back as `Fraction(x, L)`, the same exact rationals.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction

from .network import Edge, Network


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


def _integer_flow(n: Network) -> tuple[int, int, dict[str, int], dict[tuple[int, int], int]]:
    """(value, scale, node index, flow per arc), all over the scale L of the capacities."""
    index = {name: i for i, name in enumerate(n.node_names)}
    if not (n.generators and n.loads and n.edges):
        return 0, 1, index, {}
    source = len(index)
    sink = len(index) + 1
    scale = math.lcm(*(e.cap.denominator for e in n.edges))
    caps = [e.cap.numerator * (scale // e.cap.denominator) for e in n.edges]
    big = sum(caps) + scale  # more than every edge together can carry

    arcs: dict[tuple[int, int], int] = {}
    for e, cap in zip(n.edges, caps):
        u, v = index[e.a], index[e.b]
        arcs[(u, v)] = arcs.get((u, v), 0) + cap
        arcs[(v, u)] = arcs.get((v, u), 0) + cap
    for g in n.generators:
        arcs[(source, index[g])] = big
    for l in n.loads:
        arcs[(index[l], sink)] = big

    flow = _edmonds_karp(len(index) + 2, arcs, source, sink)
    value = sum(flow[(source, index[g])] for g in n.generators)
    return value, scale, index, flow


def _classical_flow_detail(n: Network) -> tuple[Fraction, dict[Edge, Fraction]]:
    """(max-flow value, signed net flow per edge relative to canonical orientation)."""
    value, scale, index, flow = _integer_flow(n)
    # cap - residual on the forward arc is already the signed net flow
    per_edge = {e: Fraction(flow.get((index[e.a], index[e.b]), 0), scale) for e in n.edges}
    return Fraction(value, scale), per_edge


def classical_max_flow(n: Network) -> Fraction:
    """Standard max flow from all generators to all loads, capacities only."""
    value, scale, _, _ = _integer_flow(n)
    return Fraction(value, scale)

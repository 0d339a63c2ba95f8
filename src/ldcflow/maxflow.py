"""Classical (graph-theoretic) maximum flow, computed exactly.

This ignores susceptances and the power law entirely: every undirected
edge simply has its capacity available in both directions.  The value from
a super-source over all generators to a super-sink over all loads upper
bounds the power-law-constrained maximum of the network and of every one
of its sub-networks, which is what makes it useful as a pruning bound for
the switching search.

The capacities are scaled once by the LCM L of their denominators, so
Edmonds-Karp (Edmonds and Karp 1972) runs on Python ints; the value comes
back as `Fraction(x, L)`, the same exact rational.  The residual graph is
a dense matrix of lists indexed by node number, which these small
networks make cheaper to build and scan than a dict of arcs.  Neighbours
are scanned in ascending number, so the node order fixes the augmenting
paths, and with them the integer per-edge flows, whose net outflows `mpf`
takes as a tree component's injections.  `classical_max_flow` validates
its network first, so no two edges share a pair of arcs.

The last search, the one that fails to reach the sink, also yields a
witness: the nodes it reached are the source side of a minimum cut.  Every
edge leaving that side is saturated, so its capacity is the flow's value.
It is the minimal min cut: the source side of every minimum cut contains
it, so it is the same whichever max flow the search found.  Branch-and-bound
(`msf`) reads, with `witness=True`, which edges a max flow uses and that
cut.  An edge that carries nothing can be removed without lowering the
value, and removing edges lowers the cut's capacity by the capacities of
those that cross it, which still bounds the smaller network's max flow.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

from .network import Edge, Network, NodeId, require_valid


def _integer_flow(names: Sequence[NodeId], edges: Sequence[Edge], generators: Sequence[NodeId], loads: Sequence[NodeId]) -> tuple[int, int, list[int], int]:
    """(value, scale, signed flow per edge from a to b, source side), the numbers over the scale L of the capacities.

    `names` are every node an edge touches; their order numbers the nodes,
    and so fixes which max flow Edmonds-Karp returns when there are several.
    The source and the sink come after them.  `residual[u][v]` is what is
    left on the arc u -> v: an edge gives both of its directions its
    capacity, and the source and the sink reach every generator and load
    by an arc no cut can saturate.  Each search is breadth first, scans
    neighbours in ascending index and stops once the sink has a parent, so
    it finds the shortest augmenting path that comes first in that order.  Both directions of an edge start at its
    capacity c and an augmentation moves residual from one to the other,
    so the net flow from a to b is c - residual[a][b], which is
    (residual[b][a] - residual[a][b]) / 2.  Parallel edges, which a valid
    network does not hold, add up, and each reports their merged flow.
    The source side is a bitmask over `names`: the nodes the last search
    reached, which found no augmenting path.  Without a generator or a load
    nothing flows, and the value is 0 over 1.
    """
    index = {name: i for i, name in enumerate(names)}
    size = len(index) + 2
    source, sink = size - 2, size - 1
    scale = math.lcm(*(e.cap.denominator for e in edges))
    caps = [e.cap.numerator * (scale // e.cap.denominator) for e in edges]
    big = sum(caps) + scale  # more than every edge together can carry

    residual = [[0] * size for _ in range(size)]
    ends = []
    for e, cap in zip(edges, caps):
        u, v = index[e.a], index[e.b]
        residual[u][v] += cap
        residual[v][u] += cap
        ends.append((u, v))
    gens = [index[g] for g in generators]
    for g in gens:
        residual[source][g] = big
    for l in loads:
        residual[index[l]][sink] = big

    nodes = range(size)
    while True:
        parent = [-1] * size
        parent[source] = source
        queue = [source]
        for u in queue:
            row = residual[u]
            for v in nodes:
                if row[v] > 0 and parent[v] < 0:
                    parent[v] = u
                    queue.append(v)
            if parent[sink] >= 0:
                break
        else:
            break  # no augmenting path is left
        path = []
        v = sink
        while v != source:
            path.append((parent[v], v))
            v = parent[v]
        bottleneck = min(residual[u][v] for u, v in path)
        for u, v in path:
            residual[u][v] -= bottleneck
            residual[v][u] += bottleneck

    flows = [(residual[v][u] - residual[u][v]) // 2 for u, v in ends]
    side = sum(1 << i for i in range(len(index)) if parent[i] >= 0)
    # the arc g -> source starts empty and gains what source -> g carries
    return sum(residual[g][source] for g in gens), scale if generators and loads else 1, flows, side


def classical_max_flow(n: Network, *, witness: bool = False) -> Fraction | tuple[Fraction, int, int]:
    """Standard max flow from all generators to all loads, capacities only.

    With `witness`, return (value, flowing, side): `flowing` is a bitmask
    over `n.edges` of the edges the max flow uses, and `side` a bitmask
    over `n.node_names` of the source side of the minimal min cut, which
    holds every generator and no load and whose crossing edges add up to
    the value.  A sub-network keeps both orders.  An invalid network
    raises `InvalidNetwork`.
    """
    require_valid(n)
    value, scale, flows, side = _integer_flow(n.node_names, n.edges, n.generators, n.loads)
    if not witness:
        return Fraction(value, scale)
    return Fraction(value, scale), sum(1 << i for i, x in enumerate(flows) if x), side

"""Classical (graph-theoretic) maximum flow, computed exactly.

This ignores susceptances and the power law entirely: every undirected
edge simply has its capacity available in both directions.  The value from
a super-source over all generators to a super-sink over all loads upper
bounds the power-law-constrained maximum of the network and of every one
of its sub-networks, which is what makes it useful as a pruning bound for
the switching search.

Edmonds-Karp (Edmonds and Karp 1972) runs on Python ints read from the
network's integer view (`network._View`): its node numbers, edge ends and
capacities, scaled once per root network by the LCM L of their
denominators and shared by every sub-network, so the value comes back as
`Fraction(x, L)`, the same exact rational.  The residual graph is a dense
matrix of lists indexed by node number, which these small networks make
cheaper to build and scan than a dict of arcs.  Neighbours are scanned in
ascending number, so the node order fixes the augmenting paths, and with
them the integer per-edge flows, whose net outflows `mpf` takes as a tree
component's injections.  A network holds no two edges on one node
pair, so no two edges share a pair of arcs.

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

from fractions import Fraction

from .network import Network, _View


def _integer_flow(view: _View, kept: int, nodes: int) -> tuple[int, list[int], int]:
    """(value, signed flow per edge from a to b, source side), the numbers over the view's `scale`.

    The arcs are the edges of the mask `kept`, in the view's edge bits,
    whose ends lie in the node mask `nodes` (-1 for every node), and the
    terminals are the view's generators and loads among `nodes`.  The
    view's node numbers, in `node_names` order, fix which max flow
    Edmonds-Karp returns when there are several; the source and the sink
    come after them.  A node outside `nodes` has no arc, so a component's
    flow is the one its own nodes, numbered in sorted order, would give.
    `residual[u][v]` is what is left on the arc u -> v: an edge gives both
    of its directions its capacity, and the source and the sink reach
    every generator and load by an arc no cut can saturate.  Each search
    is breadth first, scans neighbours in ascending number and stops once
    the sink has a parent, so it finds the shortest augmenting path that
    comes first in that order.  Both directions of an edge start at its
    capacity c and an augmentation moves residual from one to the other,
    so the net flow from a to b is c - residual[a][b], which is
    (residual[b][a] - residual[a][b]) / 2.  The flows come in edge-bit
    order, so for `kept = n._kept` they follow `n.edges`, and for a
    component `mpf._component_edges`.  The source side is a mask over the
    view's nodes: those the last search reached, which found no augmenting
    path.  Without a generator or a load nothing flows.
    """
    size = len(view.index) + 2
    source, sink = size - 2, size - 1
    big = sum(view.caps) + view.scale  # more than every edge together can carry

    residual = [[0] * size for _ in range(size)]
    ends = []
    for j, ((u, v), cap) in enumerate(zip(view.ends, view.caps)):
        if kept >> j & 1 and nodes >> u & 1:
            residual[u][v] += cap
            residual[v][u] += cap
            ends.append((u, v))
    gens, loads = view.gens & nodes, view.loads & nodes
    residual[source] = [big * (gens >> i & 1) for i in range(size)]
    for i in range(size - 2):
        residual[i][sink] = big * (loads >> i & 1)

    numbers = range(size)
    while True:
        parent = [-1] * size
        parent[source] = source
        queue = [source]
        for u in queue:
            row = residual[u]
            for v in numbers:
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
    side = sum(1 << i for i in range(size - 2) if parent[i] >= 0)
    # each arc sink -> l starts empty and gains what l -> sink carries
    return sum(residual[sink]), flows, side


def classical_max_flow(n: Network, *, witness: bool = False) -> Fraction | tuple[Fraction, int, int]:
    """Standard max flow from all generators to all loads, capacities only.

    It runs on n's integer view and the mask of n's edges in it
    (`Network._kept`), so a sub-network reads its root's tables.  With
    `witness`, return (value, flowing, side): `flowing` is a bitmask over
    the view's edges, its root's, of the edges the max flow uses, and
    `side` a bitmask over `n.node_names` of the source side of the
    minimal min cut, which holds every generator and no load and whose
    crossing edges add up to the value.
    """
    view, kept = n._view, n._kept
    value, flows, side = _integer_flow(view, kept, -1)
    value = Fraction(value, view.scale)
    if not witness:
        return value
    bits = [1 << j for j in range(kept.bit_length()) if kept >> j & 1]
    return value, sum([bit for bit, x in zip(bits, flows) if x]), side

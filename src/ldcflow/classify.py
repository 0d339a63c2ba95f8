"""Graph-class predicates: connectivity, trees, cacti, degrees.

Only the node-pair structure matters; susceptances and capacities do not.
Components, degrees and cacti leave out self-loops and edges to undeclared
nodes (`is_tree` counts every edge), and `is_cactus` counts a repeated
edge as a 2-cycle.  Empty and single-node networks count as trees by
convention so the predicates are total.
"""

from __future__ import annotations

from .network import Network, NodeId


def _neighbours(n: Network) -> dict[NodeId, list[NodeId]]:
    adj: dict[NodeId, list[NodeId]] = {v: [] for v in n.node_names}
    for e in n.edges:
        if e.a in adj and e.b in adj and e.a != e.b:
            adj[e.a].append(e.b)
            adj[e.b].append(e.a)
    return adj


def connected_components(n: Network) -> list[set[NodeId]]:
    """Components in order of their smallest node name."""
    adj = _neighbours(n)
    seen: set[NodeId] = set()
    out: list[set[NodeId]] = []
    for start in n.node_names:
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in comp:
                    comp.add(v)
                    stack.append(v)
        seen |= comp
        out.append(comp)
    return out


def is_connected(n: Network) -> bool:
    return len(connected_components(n)) <= 1


def is_tree(n: Network) -> bool:
    """Connected and acyclic.  The empty network is a tree."""
    if not n.node_names:
        return True
    if len(connected_components(n)) != 1:
        return False
    return len(n.edges) == len(n.node_names) - 1


def max_degree(n: Network) -> int:
    adj = _neighbours(n)
    return max((len(vs) for vs in adj.values()), default=0)


def _tables(n: Network) -> tuple[dict[NodeId, int], list[int], list[list[tuple[int, int]]], list[tuple[int, int]], int]:
    """n's integer tables, in edge bits 1 << j over `n.edges`.

    They are: the node index in `n.node_names` order; each node's
    incident-edge mask and its (edge bit, other node) pairs, which hold
    only the edges between two distinct declared nodes; each edge's end
    numbers (-1 for an undeclared node); and the mask of those edges.
    """
    index = {v: i for i, v in enumerate(n.node_names)}
    incident = [0] * len(index)
    adjacent: list[list[tuple[int, int]]] = [[] for _ in index]
    ends, proper = [], 0
    for j, e in enumerate(n.edges):
        a, b = index.get(e.a, -1), index.get(e.b, -1)
        ends.append((a, b))
        if min(a, b) >= 0 and a != b:
            proper |= 1 << j
            incident[a] |= 1 << j
            incident[b] |= 1 << j
            adjacent[a].append((1 << j, b))
            adjacent[b].append((1 << j, a))
    return index, incident, adjacent, ends, proper


def _forest_walk(tables, kept: int) -> tuple[int, int, int]:
    """(forest, crossed, crossed twice): edge masks of a BFS spanning forest of the kept edges.

    `tables` are `_tables(n)` and `kept` lies within their last mask.
    Each kept edge off the forest closes a fundamental cycle with the
    forest path between its ends; `crossed` holds the forest edges on at
    least one such cycle and the third mask those on two or more.  A
    forest edge on none is a bridge.
    """
    _, incident, adjacent, ends, _ = tables
    depth = [-1] * len(incident)
    parent = [0] * len(incident)
    up = [0] * len(incident)  # the forest edge from a node to its parent
    forest = 0
    for root, edges in enumerate(incident):
        if depth[root] >= 0 or not edges & kept:
            continue
        depth[root] = 0
        queue = [root]
        for u in queue:
            for bit, w in adjacent[u]:
                if bit & kept and depth[w] < 0:
                    depth[w], parent[w], up[w] = depth[u] + 1, u, bit
                    forest |= bit
                    queue.append(w)
    crossed = twice = 0
    closing = kept & ~forest
    while closing:
        bit = closing & -closing
        closing ^= bit
        a, b = ends[bit.bit_length() - 1]
        while a != b:
            if depth[a] < depth[b]:
                a, b = b, a
            twice |= crossed & up[a]
            crossed |= up[a]
            a = parent[a]
    return forest, crossed, twice


def is_cactus(n: Network) -> bool:
    """True when no edge lies on two distinct simple cycles.

    Each edge off a BFS spanning forest closes a fundamental cycle with the
    forest path between its ends (`_forest_walk`).  The network is a cactus
    exactly when no forest edge lies on two of them: every cycle is a sum
    of fundamental cycles, and a sum of edge-disjoint ones is a simple
    cycle only when it is one of them.  A second edge on a node pair
    closes a 2-cycle.
    """
    tables = _tables(n)
    return not _forest_walk(tables, tables[-1])[2]

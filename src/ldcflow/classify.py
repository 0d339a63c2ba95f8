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


def is_cactus(n: Network) -> bool:
    """True when no edge lies on two distinct simple cycles.

    Each edge off a BFS spanning forest closes a fundamental cycle with the
    forest path between its ends.  The network is a cactus exactly when no
    forest edge lies on two of them: every cycle is a sum of fundamental
    cycles, and a sum of edge-disjoint ones is a simple cycle only when it
    is one of them.  A second edge on a node pair closes a 2-cycle.
    """
    adj = _neighbours(n)
    parent: dict[NodeId, NodeId] = {}
    depth: dict[NodeId, int] = {}
    tree: set[tuple[NodeId, NodeId]] = set()  # forest edges as (smaller, larger) name pairs
    for root in n.node_names:
        if root not in depth:
            depth[root] = 0
            queue = [root]
            for u in queue:
                for v in adj[u]:
                    if v not in depth:
                        parent[v], depth[v] = u, depth[u] + 1
                        tree.add((min(u, v), max(u, v)))
                        queue.append(v)
    crossed: set[NodeId] = set()  # nodes whose forest edge lies on a fundamental cycle
    for u, vs in adj.items():
        for v in vs:
            if u < v and (u, v) in tree:
                tree.remove((u, v))  # a pair's first edge is its forest edge, any other closes a cycle
            elif u < v:
                a, b = u, v
                while a != b:
                    if depth[a] < depth[b]:
                        a, b = b, a
                    if a in crossed:
                        return False
                    crossed.add(a)
                    a = parent[a]
    return True

"""Graph-class predicates: connectivity, trees, cacti, degrees.

Only the node-pair structure matters here; susceptances and capacities are
ignored.  Empty and single-node networks count as trees by convention so
the predicates are total.
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


def _biconnected_edge_components(n: Network) -> list[list[tuple[NodeId, NodeId]]]:
    """Edge sets of the biconnected components (iterative Hopcroft-Tarjan)."""
    adj = _neighbours(n)
    disc: dict[NodeId, int] = {}
    low: dict[NodeId, int] = {}
    comps: list[list[tuple[NodeId, NodeId]]] = []
    edge_stack: list[tuple[NodeId, NodeId]] = []
    counter = 0

    for root in n.node_names:
        if root in disc:
            continue
        stack: list[tuple[NodeId, NodeId | None, int]] = [(root, None, 0)]
        disc[root] = low[root] = counter
        counter += 1
        while stack:
            u, parent, i = stack.pop()
            if i < len(adj[u]):
                stack.append((u, parent, i + 1))
                v = adj[u][i]
                if v not in disc:
                    edge_stack.append((u, v))
                    disc[v] = low[v] = counter
                    counter += 1
                    stack.append((v, u, 0))
                elif v != parent and disc[v] < disc[u]:
                    edge_stack.append((u, v))
                    low[u] = min(low[u], disc[v])
            elif stack:
                # u is fully explored; propagate low to its parent frame
                pu, pparent, _ = stack[-1]
                low[pu] = min(low[pu], low[u])
                if low[u] >= disc[pu]:
                    comp = []
                    while edge_stack and edge_stack[-1] != (pu, u):
                        comp.append(edge_stack.pop())
                    if edge_stack:
                        comp.append(edge_stack.pop())
                    if comp:
                        comps.append(comp)
    return comps


def is_cactus(n: Network) -> bool:
    """True when every biconnected component is a single edge or a simple cycle.

    Equivalently: no edge lies on two distinct simple cycles.
    """
    for comp in _biconnected_edge_components(n):
        if len(comp) <= 1:
            continue
        vertices = {v for pair in comp for v in pair}
        if len(comp) != len(vertices):
            return False
    return True

"""Graph-class predicates: connectivity, trees, cacti, degrees.

Only the node-pair structure matters; susceptances and capacities do not.
Empty and single-node networks count as trees by convention so the
predicates are total.  Each of them, and `connected_components`, refuses
an argument that is not a `Network` with `InvalidNetwork`.

Every predicate reads the network's integer view (`network._View`): node
numbers, and the edges of its root network as bits, of which
`Network._kept` marks the network's own.  A sub-network shares its
root's view, so a component walk on it builds no table and only tests
kept-edge bits.
"""

from __future__ import annotations

from typing import Iterator

from .network import Network, NodeId, _View, _require_network


def _components(view: _View, kept: int, starts: int) -> Iterator[tuple[list[int], int, int]]:
    """Each component of the nodes under the kept edges that holds a node of the mask `starts` (-1 for every node).

    In order of its smallest such node, each is (node numbers, node mask, edge mask).
    """
    seen, adjacent = 0, view.adjacent
    for start in range(len(adjacent)):
        if seen >> start & 1 or not starts >> start & 1:
            continue
        before, nodes, edges = seen, [start], 0
        seen |= 1 << start
        for u in nodes:
            for bit, w in adjacent[u]:
                if bit & kept:
                    edges |= bit
                    if not seen >> w & 1:
                        seen |= 1 << w
                        nodes.append(w)
        yield nodes, seen ^ before, edges


def connected_components(n: Network) -> list[set[NodeId]]:
    """Components in order of their smallest node name."""
    _require_network(n)
    names = n.node_names
    return [{names[i] for i in nodes} for nodes, _, _ in _components(n._view, n._kept, -1)]


def is_connected(n: Network) -> bool:
    return len(connected_components(n)) <= 1


def is_tree(n: Network) -> bool:
    """Connected and acyclic.  The empty network is a tree."""
    _require_network(n)
    if not n.node_names:
        return True
    if len(connected_components(n)) != 1:
        return False
    return len(n.edges) == len(n.node_names) - 1


def max_degree(n: Network) -> int:
    _require_network(n)
    return max(((x & n._kept).bit_count() for x in n._view.incident), default=0)


def _forest_walk(view: _View, kept: int) -> tuple[int, int, int]:
    """(forest, crossed, crossed twice): edge masks of a BFS spanning forest of the kept edges.

    Each kept edge off the forest closes a fundamental cycle with the
    forest path between its ends; `crossed` holds the forest edges on at
    least one such cycle and the third mask those on two or more.  A
    forest edge on none is a bridge.
    """
    incident, adjacent, ends = view.incident, view.adjacent, view.ends
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
    cycle only when it is one of them.
    """
    _require_network(n)
    return not _forest_walk(n._view, n._kept)[2]

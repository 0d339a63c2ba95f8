"""Maximum potential flow of a fixed-susceptance network.

The problem is a pure LP: choose phase angles, generations and loads
maximizing total generation subject to conservation at every node, the
power law on every edge (substituted into the conservation rows), and the
edge capacities.  One node per connected component is pinned to angle
zero, which removes the translation degeneracy without losing solutions.
`formulate_mpf` writes every row straight from the edges' numerators and
denominators as the integer row the program holds and the simplex
reads, with no `Fraction` arithmetic.

A component without both a generator and a load is solved in closed
form: its only feasible point is zero (susceptances are positive and a
pinned angle fixes the rest), so `solve_mpf` formulates only the
components that carry flow and needs no LP when none does.  The program
is block-diagonal across components and the simplex's every choice stays
within one block, so the vertex returned is the one the whole program
would give.  The solution is built from it on first read.

Trees never need the LP: absent cycles the angles carry no constraints of
their own, so any classical max flow can be replayed exactly by
reconstructing angles edge by edge.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable

from .classify import connected_components, is_tree
from .errors import MalformedProgram, NotATree, NotFixedSusceptance
from .lp import EQ, GE, LE, DeferredRecord, LinearProgram, LpStatus, solve_lp
from .maxflow import _classical_flow_detail
from .network import Network, NodeId, NodeRole, Solution, require_valid, zero_solution
from .rational import ONE, Rational, ZERO


class MpfOutcome(DeferredRecord):
    """MPF value and an optimal solution; `solve_mpf` builds the solution on first read."""

    __slots__ = ("value",)
    FIELDS = ("value", "solution")

    def __init__(self, value: Rational, solution: Solution):
        self._set(value=value, _last=solution, _build=None)

    solution = property(DeferredRecord.last)


def _th(v: NodeId) -> str:
    return f"th[{v}]"


def _gen(v: NodeId) -> str:
    return f"gen[{v}]"


def _load(v: NodeId) -> str:
    return f"load[{v}]"


def _require_fixed(n: Network) -> None:
    if not n.is_fixed():
        bad = n.facts_edges[0]
        raise NotFixedSusceptance(f"edge {bad} has an adjustable susceptance")


def pinned_nodes(n: Network, components: list[set[NodeId]] | None = None) -> set[NodeId]:
    """Smallest node name of each connected component (angle anchors).

    `components`, when given, must be exactly n's connected components;
    they are not checked.
    """
    return {min(comp) for comp in (connected_components(n) if components is None else components)}


def formulate_mpf(n: Network, components: list[set[NodeId]] | None = None) -> LinearProgram:
    """The MPF linear program: free angles, nonnegative gen/load variables.

    Each row is written as the integer row the program holds (see
    `LinearProgram`): a node's conservation row over the LCM of
    the denominators of its edges' susceptances, divided by its gcd, and
    an edge's two capacity rows over the LCM of its susceptance's and its
    capacity's denominators.
    `components`, when given, must be exactly n's connected components
    (they are not checked); the angle of each one's smallest node is
    pinned to zero (`pinned_nodes`).
    """
    _require_fixed(n)
    pins = pinned_nodes(n, components)
    names = n.node_names
    gens, loads = n.generators, n.loads
    angles = [_th(v) for v in names]
    variables = angles + [_gen(g) for g in gens] + [_load(l) for l in loads]
    lower: dict[str, Rational | None] = {th: ZERO if v in pins else None for v, th in zip(names, angles)}
    lower.update((name, ZERO) for name in variables[len(names) :])
    if len(lower) != len(variables):
        twice = next(name for name in variables if variables.count(name) > 1)
        raise MalformedProgram(f"variable {twice} declared twice")
    upper: dict[str, Rational | None] = dict.fromkeys(variables)
    for v in pins:
        upper[_th(v)] = ZERO

    col = {v: j for j, v in enumerate(names)}
    # a generator's own column holds -1, a load's +1
    unit = {g: (len(names) + i, -1) for i, g in enumerate(gens)}
    unit.update((l, (len(names) + len(gens) + i, 1)) for i, l in enumerate(loads))
    edges = [(col[e.a], col[e.b], e.s_min.numerator, e.s_min.denominator, e.cap) for e in n.edges]
    width = len(variables) + 2
    # net outflow at a picks up s*(th_b - th_a) and at b the mirror image (a
    # self-loop's four terms cancel), each row over the LCM of its susceptances'
    # denominators; the gcd below takes out any factor that was not needed
    dens = [1] * len(names)
    for a, b, _, d, _ in edges:
        if d != 1:
            dens[a] = math.lcm(dens[a], d)
            dens[b] = math.lcm(dens[b], d)
    rows = [[0] * width for _ in names]
    for a, b, num, d, _ in edges:
        ka, kb = num * (dens[a] // d), num * (dens[b] // d)
        ra, rb = rows[a], rows[b]
        ra[b] += ka
        ra[a] -= ka
        rb[a] += kb
        rb[b] -= kb
    roles = n.roles
    for v, row, den in zip(names, rows, dens):
        if roles[v] is not NodeRole.PLAIN:
            j, sign = unit[v]
            row[j] = sign * den
        row[-1] = den
    rows = [row if (g := math.gcd(*row)) == 1 else [x // g for x in row] for row in rows]
    rels = [EQ] * len(rows)

    # -cap <= s*(th_b - th_a) <= cap over the LCM of the two denominators, which
    # leaves the row reduced (see `lp._int_row`); a self-loop keeps only -s at th_a
    for a, b, num, d, cap in edges:
        den = math.lcm(d, cap.denominator)
        k = num * (den // d)
        rhs = cap.numerator * (den // cap.denominator)
        row = [0] * width
        row[b] = k
        row[a] = -k
        row[-2:] = rhs, den
        rows.append(row)
        rows.append(row[:-2] + [-rhs, den])
        rels += (LE, GE)

    return LinearProgram(variables, lower, upper, rows, rels, {_gen(g): ONE for g in gens})


def _solution_from_assignment(n: Network, assignment: dict[str, Rational]) -> Solution:
    """The solution an MPF vertex stands for; nodes it does not name stay at zero."""
    angle = {v: assignment.get(_th(v), ZERO) for v in n.node_names}
    return Solution(
        susceptance={e: e.s_min for e in n.edges},
        angle=angle,
        flow={e: e.s_min * (angle[e.b] - angle[e.a]) for e in n.edges},
        gen={v: assignment.get(_gen(v), ZERO) for v in n.node_names},
        load={v: assignment.get(_load(v), ZERO) for v in n.node_names},
    )


def solve_mpf(n: Network) -> MpfOutcome:
    """Exact MPF value and an optimal solution (never infeasible: zero flow works).

    A component without both a generator and a load carries no flow, so
    only the others go to the LP; the solution is built on first read.
    An invalid network raises `InvalidNetwork`.
    """
    require_valid(n)
    _require_fixed(n)
    comps = connected_components(n)
    gens, loads = set(n.generators), set(n.loads)
    flowing = [c for c in comps if not (c.isdisjoint(gens) or c.isdisjoint(loads))]
    if not flowing:
        return MpfOutcome.deferred(ZERO, build=partial(zero_solution, n))
    sub = n
    if len(flowing) < len(comps):
        keep = set().union(*flowing)
        sub = Network([(v, r) for v, r in n.nodes if v in keep], [e for e in n.edges if e.a in keep])
    result = solve_lp(formulate_mpf(sub, flowing))  # the flowing components are sub's components
    if result.status is not LpStatus.OPTIMAL:  # pragma: no cover - MPF is always bounded
        raise AssertionError(f"MPF solve ended {result.status}")
    return MpfOutcome.deferred(result.value, build=lambda: _solution_from_assignment(n, result.assignment))


def flow_cores(n: Network) -> Callable[[int], int]:
    """A map from a removed-edge bitmask over `n.edges` to its flow core.

    The core is the bitmask of the edges that can still carry flow: strip
    plain leaves until none is left (a plain leaf's edge carries nothing,
    and the angle it pins is its own), then keep the components that hold
    both a generator and a load (`solve_mpf` gives the others zero).  The
    MPF value of a sub-network is that of its core alone, and removing an
    edge outside the core leaves the core as it is.  The map works on ints
    only; n must be valid.
    """
    index = {v: i for i, v in enumerate(n.node_names)}
    incident = [0] * len(index)
    adjacent: list[list[tuple[int, int]]] = [[] for _ in index]
    for j, e in enumerate(n.edges):
        a, b = index[e.a], index[e.b]
        incident[a] |= 1 << j
        incident[b] |= 1 << j
        adjacent[a].append((1 << j, b))
        adjacent[b].append((1 << j, a))
    plain = [incident[index[v]] for v, role in n.nodes if role is NodeRole.PLAIN]
    gens = sum(1 << index[v] for v in n.generators)
    loads = sum(1 << index[v] for v in n.loads)
    everything = (1 << len(n.edges)) - 1

    def core(removed: int) -> int:
        kept = everything & ~removed
        stripped = True
        while stripped:
            stripped = False
            for x in plain:
                x &= kept
                if x and not x & (x - 1):  # a plain node with one edge left
                    kept ^= x
                    stripped = True
        flowing, seen = 0, 0
        for start, edges in enumerate(incident):
            if seen >> start & 1 or not edges & kept:
                continue
            nodes, comp, stack = 1 << start, 0, [start]
            while stack:
                for bit, w in adjacent[stack.pop()]:
                    if bit & kept:
                        comp |= bit
                        if not nodes >> w & 1:
                            nodes |= 1 << w
                            stack.append(w)
            seen |= nodes
            if nodes & gens and nodes & loads:
                flowing |= comp
        return flowing

    return core


def solve_tree(n: Network) -> MpfOutcome:
    """MPF of a tree without the LP: replay a classical max flow with angles."""
    require_valid(n)
    if not is_tree(n):
        raise NotATree("network is not a tree")
    _require_fixed(n)
    value, flows = _classical_flow_detail(n)

    adj: dict[NodeId, list] = {v: [] for v in n.node_names}
    for e in n.edges:
        adj[e.a].append(e)
        adj[e.b].append(e)
    angle: dict[NodeId, Rational] = {}
    for comp in connected_components(n):
        root = min(comp)
        angle[root] = ZERO
        stack = [root]
        while stack:
            u = stack.pop()
            for e in adj[u]:
                other = e.b if e.a == u else e.a
                if other in angle:
                    continue
                # power law: flow = s * (angle(b) - angle(a))
                if e.a == u:
                    angle[other] = angle[u] + flows[e] / e.s_min
                else:
                    angle[other] = angle[u] - flows[e] / e.s_min
                stack.append(other)

    net_out: dict[NodeId, Rational] = {v: ZERO for v in n.node_names}
    for e in n.edges:
        net_out[e.a] += flows[e]
        net_out[e.b] -= flows[e]
    sol = Solution(
        susceptance={e: e.s_min for e in n.edges},
        angle=angle,
        flow=dict(flows),
        gen={v: net_out[v] if n.role(v) is NodeRole.GENERATOR else ZERO for v in n.node_names},
        load={v: -net_out[v] if n.role(v) is NodeRole.LOAD else ZERO for v in n.node_names},
    )
    return MpfOutcome(value, sol)

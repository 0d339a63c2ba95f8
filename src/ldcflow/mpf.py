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
pinned angle fixes the rest).  So is a component with exactly one
generator g and one load l.  Conservation makes the injection t at g and
-t at l, and the pinned Laplacian then fixes the angles as t times phi,
the angles of a unit injection from g to l.  Every feasible point is
such a multiple, so the optimum t* = min over edges of cap/|s * dphi| is
unique, and the LP's vertex can only be that same point.

Trees never need the LP: absent cycles the angles carry no constraints
of their own, so MPF is the classical max flow, the least capacity that
cuts every generator from every load, and any max flow is an optimal
solution once its angles are reconstructed edge by edge.  `solve_mpf`
values any other tree component by that cut, found by an integer pass
over the tree (`_tree_cut`), and builds its solution on first read from
the integer max flow of `maxflow` (`_tree_flow`).

So the only LP `solve_mpf` runs is over the flowing components with a
cycle, and none when there is no such component.  The program is
block-diagonal across components and the simplex's every choice stays
within one block, so the solution returned is an optimal one: the LP's
vertex on components with a cycle, the unique optimum on one-pair
components and the replayed max flow on the other trees.  It is built
from the merged parts on first read.

One map serves the switching searches: `flow_cores` finds, on bitmasks,
the edges of a sub-network that can carry flow, and both searches value
each such core once through `solve_mpf`.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable

from .classify import connected_components
from .errors import MalformedProgram, NotFixedSusceptance
from .lp import EQ, GE, LE, DeferredRecord, LinearProgram, LpStatus, solve_lp
from .maxflow import _integer_flow
from .network import Edge, Network, NodeId, NodeRole, Solution, require_valid, zero_solution
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


def _one_pair(edges: list[Edge], comp: set[NodeId], g: NodeId, l: NodeId) -> tuple[Rational, Callable[[], dict[str, Rational]]]:
    """MPF of a component whose only generator is g and only load is l.

    `edges` are the component's.  The angles phi of a unit injection from
    g to l (smallest node pinned at zero, as `pinned_nodes` does) solve
    L phi = e_l - e_g, L the reduced Laplacian.  A = D * L is an integer
    matrix, D the LCM of the susceptances' denominators, and fraction-free
    elimination (Bareiss 1968) solves A x = e_l - e_g as the integer
    vector y = det(A) * x.  So phi = D * y / det, an edge's unit flow is
    s * D * dy / det, and the largest t with every |t * flow| <= cap is
    det/D times the least cap / |s * dy| over the edges with dy != 0 (an
    edge with dy = 0 carries nothing at any t), compared by
    cross-multiplication.  For that least ratio num/den the angles t * phi
    are num * y / den.  Returns the value and a builder of the vertex
    {th, gen, load}, so a caller that reads the value alone never makes it.
    """
    names = sorted(comp)
    index = {v: i for i, v in enumerate(names)}
    scale = math.lcm(*(e.s_min.denominator for e in edges))
    # D * L with the right-hand side e_l - e_g as its last column: net
    # outflow at v is -(L phi)_v, +1 at g and -1 at l (a self-loop cancels)
    lap = [[0] * (len(names) + 1) for _ in names]
    for e in edges:
        k = e.s_min.numerator * (scale // e.s_min.denominator)
        a, b = index[e.a], index[e.b]
        lap[a][a] += k
        lap[b][b] += k
        lap[a][b] -= k
        lap[b][a] -= k
    lap[index[g]][-1] = -1
    lap[index[l]][-1] = 1
    rows = [row[1:] for row in lap[1:]]  # names[0] is pinned at zero
    m = len(rows)
    # a connected component's reduced Laplacian is positive definite, so no
    # pivot is zero; each division below is exact
    prev = 1
    for i, pivot in enumerate(rows[:-1]):
        p = pivot[i]
        for row in rows[i + 1 :]:
            f = row[i]
            for j in range(i + 1, m + 1):
                row[j] = (p * row[j] - f * pivot[j]) // prev
            row[i] = 0
        prev = p
    det = rows[-1][-2]
    y = [0] * m
    for i in range(m - 1, -1, -1):
        row = rows[i]
        y[i] = (det * row[m] - sum(row[j] * y[j] for j in range(i + 1, m))) // row[i]
    phi = dict(zip(names, [0, *y]))

    # the least cap / |s * dy| as num/den; den = 0 stands for no bound, so an
    # edge with dy = 0 never becomes the least
    num, den = 1, 0
    for e in edges:
        n_e = e.cap.numerator * e.s_min.denominator
        d_e = e.cap.denominator * e.s_min.numerator * abs(phi[e.b] - phi[e.a])
        if n_e * den < num * d_e:
            num, den = n_e, d_e
    value = Rational(det * num, scale * den)

    def vertex() -> dict[str, Rational]:
        assignment = {_th(v): Rational(num * y_v, den) for v, y_v in phi.items()}
        assignment[_gen(g)] = assignment[_load(l)] = value
        return assignment

    return value, vertex


def _tree_cut(edges: list[Edge], roles: dict[NodeId, NodeRole]) -> Rational:
    """MPF of a tree component: the least capacity that cuts every generator from every load.

    `edges` are the component's, |V| - 1 of them.  Without a cycle the
    angles follow from any flow edge by edge, so MPF is the classical max
    flow, which is that least cut.  The capacities are scaled once by the
    LCM L of their denominators, as `maxflow._integer_flow` does.  Rooted
    at one end of the first edge, each node keeps the cheapest cut of its
    subtree with the node on the generator side and on the load side; a
    child sits on its parent's side for free or on the other side at its
    edge's capacity.  `big`, more than all capacities together, stands for
    a generator on the load side or a load on the generator side.
    """
    scale = math.lcm(*(e.cap.denominator for e in edges))
    adjacent: dict[NodeId, list[tuple[NodeId, int]]] = {}
    big = 1
    for e in edges:
        cap = e.cap.numerator * (scale // e.cap.denominator)
        big += cap
        adjacent.setdefault(e.a, []).append((e.b, cap))
        adjacent.setdefault(e.b, []).append((e.a, cap))
    root = edges[0].a
    parent = {root: (root, 0)}
    order = [root]
    for v in order:  # breadth first, so every node comes after its parent
        for w, cap in adjacent[v]:
            if w not in parent:
                parent[w] = (v, cap)
                order.append(w)
    gen_side = {v: big if roles[v] is NodeRole.LOAD else 0 for v in order}
    load_side = {v: big if roles[v] is NodeRole.GENERATOR else 0 for v in order}
    for v in reversed(order[1:]):
        up, cap = parent[v]
        g, l = gen_side[v], load_side[v]
        gen_side[up] += min(g, l + cap)
        load_side[up] += min(l, g + cap)
    return Rational(min(gen_side[root], load_side[root]), scale)


def _tree_flow(comp: set[NodeId], edges: list[Edge], gens: list[NodeId], loads: list[NodeId]) -> dict[str, Rational]:
    """The assignment {th, gen, load} of a tree component's classical max flow.

    `edges` are the component's, |V| - 1 of them, and `gens` and `loads`
    its generators and loads.  The integer max flow of `maxflow` gives
    each edge (a, b) its flow f, and the power law then fixes
    th[b] - th[a] = f / s.  Without a cycle one path leads to each node,
    so the angles follow edge by edge from the smallest node, pinned at
    zero as `pinned_nodes` does.  The flow's value is the tree's least
    cut (`_tree_cut`).
    """
    names = sorted(comp)
    _, scale, flows = _integer_flow(names, edges, gens, loads)
    adjacent: dict[NodeId, list[tuple[Edge, int]]] = {v: [] for v in names}
    net = dict.fromkeys(names, 0)  # net outflow, over scale
    for e, f in zip(edges, flows):
        adjacent[e.a].append((e, f))
        adjacent[e.b].append((e, f))
        net[e.a] += f
        net[e.b] -= f
    angle = {names[0]: ZERO}
    order = [names[0]]
    for v in order:  # breadth first, so each node's angle is set from a neighbour's
        for e, f in adjacent[v]:
            w = e.b if e.a == v else e.a
            if w not in angle:
                step = Rational(f * e.s_min.denominator, scale * e.s_min.numerator)
                angle[w] = angle[v] + step if w == e.b else angle[v] - step
                order.append(w)
    assignment = {_th(v): a for v, a in angle.items()}
    assignment.update((_gen(g), Rational(net[g], scale)) for g in gens)
    assignment.update((_load(l), Rational(-net[l], scale)) for l in loads)
    return assignment


def solve_mpf(n: Network) -> MpfOutcome:
    """Exact MPF value and an optimal solution (never infeasible: zero flow works).

    A component without both a generator and a load carries no flow.  A
    component with one generator g and one load l is solved in closed
    form (`_one_pair`): conservation makes every feasible point t times
    the angles of a unit injection from g to l, so its optimum is unique
    and is the vertex the LP would return.  Any other tree component is
    valued by its least generator/load cut (`_tree_cut`), and its
    solution is the integer max flow replayed with angles
    (`_tree_flow`), with no LP.  Only the other components, those with
    a cycle, go to the LP.  The solution, built on first read, is an
    optimal one: the LP's vertex on components with a cycle.  An invalid
    network raises `InvalidNetwork`.
    """
    require_valid(n)
    _require_fixed(n)
    roles = n.roles
    comps = connected_components(n)
    where = {v: i for i, comp in enumerate(comps) for v in comp}
    grouped: list[list[Edge]] = [[] for _ in comps]
    for e in n.edges:
        grouped[where[e.a]].append(e)
    value, vertices, cyclic, cyclic_edges = ZERO, [], [], []
    for comp, edges in zip(comps, grouped):
        gens = [v for v in comp if roles[v] is NodeRole.GENERATOR]
        loads = [v for v in comp if roles[v] is NodeRole.LOAD]
        if not gens or not loads:
            continue
        if len(gens) == len(loads) == 1:
            t, vertex = _one_pair(edges, comp, gens[0], loads[0])
            value += t
            vertices.append(vertex)
        elif len(edges) == len(comp) - 1:
            value += _tree_cut(edges, roles)
            vertices.append(partial(_tree_flow, comp, edges, gens, loads))
        else:
            cyclic.append(comp)
            cyclic_edges += edges
    if cyclic:
        sub = n
        if len(cyclic) < len(comps):
            keep = set().union(*cyclic)
            sub = Network([(v, r) for v, r in n.nodes if v in keep], cyclic_edges)
        result = solve_lp(formulate_mpf(sub, cyclic))  # cyclic are sub's components
        if result.status is not LpStatus.OPTIMAL:  # pragma: no cover - MPF is always bounded
            raise AssertionError(f"MPF solve ended {result.status}")
        value += result.value
        vertices.append(lambda: result.assignment)
    if not vertices:
        return MpfOutcome.deferred(ZERO, build=partial(zero_solution, n))

    def build() -> Solution:
        assignment: dict[str, Rational] = {}
        for vertex in vertices:
            assignment.update(vertex())
        return _solution_from_assignment(n, assignment)

    return MpfOutcome.deferred(value, build=build)


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

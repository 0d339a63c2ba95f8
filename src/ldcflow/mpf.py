"""Maximum potential flow of a fixed-susceptance network.

MPF maximizes total generation over phase angles, generations and loads,
subject to conservation at every node, the power law on every edge and
the edge capacities.  Fixing the smallest node of each connected
component at angle zero removes the translation degeneracy without
losing solutions, and then a component's angles are fixed by its
injections alone: the pinned Laplacian is positive definite, since a
network's susceptances are positive (`Network` refuses any other).  So
an edge's flow is a fixed linear function of the component's generations
and loads, its shift factors.

`_potentials` finds them: one fraction-free elimination of the reduced
Laplacian, with one right-hand side per injection pattern, that touches
only the rows with a non-zero in the pivot column.  `formulate_mpf`
takes one right-hand side per generator and load and writes a program
over the gen/load variables alone, all nonnegative: per edge the range
row |flow| <= cap as one integer row over the elimination's determinant
(an edge whose shift factors are all zero is left out, since it can
never bind), and per component the balance sum(gen) - sum(load) = 0 as
the range row |sum(gen) - sum(load)| <= 0.  Every right-hand side is
nonnegative, so the simplex starts from its slack basis, with no phase
1 and no free variable to eliminate.

A component without both a generator and a load is solved in closed
form: its only feasible point is zero.  So is a component with exactly
one generator g and one load l.  Conservation makes the injection t at g
and -t at l, and the angles are then t times phi, those of a unit
injection from g to l (`_potentials` with that one right-hand side).
Every feasible point is such a multiple, so the optimum
t* = min over edges of cap/|s * dphi| is unique, and any LP's vertex can
only be that same point.

Trees never need the LP: absent cycles the angles carry no constraints
of their own, so MPF is the classical max flow.  `solve_mpf` values any
other tree component by one integer max flow of `maxflow`, run on the
network's integer view over the component's nodes.

So the only LP `solve_mpf` runs is the terminal-space program of the
flowing components with a cycle, which `formulate_mpf` writes for those
components alone, and none when there is no such component; the
program is block-diagonal across components, and the simplex's every
choice stays within one block.  Each flowing component hands over its
part of an optimal solution: net injections, angles (smallest node at
zero) and flows.  Since the angles follow from the injections alone, a
part's angles are the `_potentials` solve of its own net injections
(`_part`): a tree's from its max flow, summed per node, and a cyclic
component's from the LP's gen/load vertex.  A one-pair component's
unit solve, made for its value, already is that solve, scaled by t.  A
part is the angles as integers over one denominator, the component's
edges and its net injections; `network._solution`, the one assembler of
solutions, makes the solution from the parts on first read, each part's
flows from the same integers as its angles, and nodes and edges no part
names stay at zero.  So reading a solution runs one `_potentials` per
flowing tree or cyclic component, and none for the value alone.

One map serves the switching searches: `core_maps(n)[0]` finds, on
bitmasks, the edges of a sub-network that can carry flow, and both
searches value each such core once through `solve_mpf`.  `core_maps`
gives that map together with one that finds the bridges of an edge set,
which branch-and-bound never removes; both work on the network's integer
view (`network._View`), built once per root network and shared by its
sub-networks, and the bridges come from the spanning-forest walk
`classify.is_cactus` makes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

from .classify import _components, _forest_walk, connected_components
from .errors import NotFixedSusceptance
from .lp import RANGE, Lazy, LinearProgram, LpResult, LpStatus, _reduced, solve_lp
from .maxflow import _integer_flow
from .network import Edge, Network, NodeId, Part, Solution, _solution
from .rational import ONE, Rational, ZERO


@dataclass(frozen=True)
class MpfOutcome:
    """MPF value and an optimal solution; from `solve_mpf` the solution is built on first read (`Lazy`)."""

    value: Rational
    solution: Solution = Lazy()

    __reduce__ = Lazy.reduce


def _gen(v: NodeId) -> str:
    return f"gen[{v}]"


def _load(v: NodeId) -> str:
    return f"load[{v}]"


def _require_fixed(n: Network) -> None:
    if not n.is_fixed():
        bad = n.facts_edges[0]
        raise NotFixedSusceptance(f"edge {bad} has an adjustable susceptance")


def pinned_nodes(n: Network) -> set[NodeId]:
    """Smallest node name of each connected component (angle anchors)."""
    return {min(comp) for comp in connected_components(n)}


def _component_edges(n: Network, components: list[set[NodeId]]) -> list[list[Edge]]:
    """The edges of each listed component of n, in n's edge order; other components' edges are skipped."""
    where = {v: i for i, comp in enumerate(components) for v in comp}
    grouped: list[list[Edge]] = [[] for _ in components]
    for e in n.edges:
        if e.a in where:
            grouped[where[e.a]].append(e)
    return grouped


def _potentials(names: list[NodeId], edges: list[Edge], injections: list[dict[NodeId, int]]) -> tuple[int, list[dict[NodeId, int]]]:
    """The angles of a connected component under each injection pattern, over one denominator.

    `names` are the component's nodes, sorted, and `edges` its edges; an
    injection maps nodes to integer net injections (a generation positive,
    a load negative).  Returns (det, y): the angle of v under pattern c is
    y[c][v] / det, with det > 0 and names[0] pinned at zero, as
    `pinned_nodes` does.

    Conservation makes the net outflow at v its injection p_v, and the
    outflow is -(L th)_v, L the Laplacian, so L_r th = -p over the other
    nodes, L_r the reduced Laplacian.  Scaled by the LCM D of the
    susceptances' denominators, A = D * L_r is an integer matrix, and
    fraction-free elimination (Bareiss 1968) of [A | -D * p] gives
    y = |det(A)| * th in integers, each division exact.  The elimination
    is sparse: a pivot step touches only the rows with a non-zero in the
    pivot column.  A row it skips would only be scaled by pivot / previous
    pivot, and such factors telescope, so a row keeps the step it was last
    brought up to date at and catches up by one exact division when it is
    next touched.  A network's susceptances are positive, so A is
    positive definite and every pivot, a leading principal minor of A, is
    positive.

    Back substitution reads each row's non-zeros right of the diagonal
    from one list, made when the row is final, for every pattern.  They
    sit exactly at the rows its pivot step touches: each entry of the
    eliminated matrix is a minor of A bordered by one row and one column,
    so it stays symmetric, and a row some steps behind differs from its
    up-to-date self by a positive factor.  Under a pattern, y is zero
    below the last row whose right-hand side is non-zero, so substitution
    starts there; a pattern at the pinned node alone gets zero angles with
    none.
    """
    # each node's row and column of A; names[0]'s is -1, since its row and column are dropped
    index = {v: i for i, v in enumerate(names, -1)}
    m = len(names) - 1
    width = m + len(injections)
    # each susceptance's (numerator, denominator), read once: two `Fraction` properties cost more than one call
    sus = [e.s_min.as_integer_ratio() for e in edges]
    scale = math.lcm(*[den for _, den in sus])
    # [A | -D * p] over the other nodes
    rows = [[0] * width for _ in range(m)]
    for e, (num, den) in zip(edges, sus):
        k = num if scale == 1 else num * (scale // den)
        a, b = index[e.a], index[e.b]
        rows[b][b] += k  # b sorts after a, so it is never names[0]
        if a >= 0:
            rows[a][a] += k
            rows[a][b] -= k
            rows[b][a] -= k
    for c, injection in enumerate(injections, m):
        for v, p in injection.items():
            i = index[v]
            if i >= 0:
                rows[i][c] = -scale * p
    pivots = [1]  # pivots[s + 1] is step s's pivot
    seen = [0] * m  # per row, the index into pivots of the step it was last brought up to date at
    tails = []  # per row, its final non-zeros right of the diagonal as (column, entry)
    for i in range(m):
        prow = rows[i]
        if seen[i] != i:
            up, down = pivots[i], pivots[seen[i]]
            prow = rows[i] = [x * up // down for x in prow]
        p = prow[i]
        tails.append(tail := [])
        for k in range(i + 1, m):
            row = rows[k]
            f = row[i]
            if f:
                down = pivots[seen[k]]
                for j in range(i + 1, width):
                    row[j] = (p * row[j] - f * prow[j]) // down
                row[i] = 0
                seen[k] = i + 1
                tail.append((k, prow[k]))
        pivots.append(p)
    det = pivots[-1]
    angles = []
    for c in range(m, width):
        # y = det * th, integral
        y = [0] * m
        top = next((i for i in range(m - 1, -1, -1) if rows[i][c]), -1)
        for i in range(top, -1, -1):
            s = det * rows[i][c]
            for j, a in tails[i]:
                s -= a * y[j]
            if s:
                y[i] = s // pivots[i + 1]
        angles.append(dict(zip(names, [0, *y])))
    return det, angles


def formulate_mpf(n: Network, components: list[set[NodeId]] | None = None) -> LinearProgram:
    """The MPF linear program in terminal space: nonnegative gen/load variables only.

    For each component holding a generator and a load, one
    `_potentials` elimination with one right-hand side per generator and
    load gives every edge's flow as a linear function of them.  Per such
    edge, in edge order, the program holds the range row |flow| <= cap,
    written once over the elimination's determinant as the integer row
    the program holds (see `LinearProgram`), reduced by its gcd; an edge
    whose flow is zero under every injection is left out.  Then comes the
    component's balance, the range row |sum(gen) - sum(load)| <= 0, also
    written for a component with terminals on one side only, which it
    pins at zero.  Every right-hand side is nonnegative, and the simplex
    holds each range row as one tableau row; `constraints` and the LP
    text read each as flow <= cap then -flow <= cap (balance <= 0 then
    -balance <= 0).  The objective is the total generation.

    `components`, when given, lists some of n's connected components (they
    are not checked), and the program covers those alone: it is the one
    of the network that holds just their nodes and edges.
    """
    _require_fixed(n)
    comps = connected_components(n) if components is None else components
    listed = set().union(*comps)
    gens = [g for g in n.generators if g in listed]
    loads = [l for l in n.loads if l in listed]
    variables = [_gen(g) for g in gens] + [_load(l) for l in loads]
    # each terminal's column, and its injection per unit of its variable
    unit = {g: (j, 1) for j, g in enumerate(gens)}
    unit.update((l, (len(gens) + j, -1)) for j, l in enumerate(loads))
    width = len(variables) + 2
    rows: list[list[int]] = []
    for comp, edges in zip(comps, _component_edges(n, comps)):
        names = sorted(comp)
        ends = [v for v in names if v in unit]
        terminals = [unit[v] for v in ends]
        if {sign for _, sign in terminals} == {1, -1}:
            det, y = _potentials(names, edges, [{v: unit[v][1]} for v in ends])
            for e in edges:
                s_num, s_den = e.s_min.as_integer_ratio()
                cap_num, cap_den = e.cap.as_integer_ratio()
                row = [0] * width
                for (j, _), y_c in zip(terminals, y):
                    row[j] = s_num * cap_den * (y_c[e.b] - y_c[e.a])
                if not any(row):
                    continue
                row[-2] = cap_num * s_den * det
                row[-1] = s_den * cap_den * det
                rows.append(_reduced(row))
        if terminals:
            balance = [0] * width
            balance[-1] = 1
            for j, sign in terminals:
                balance[j] = sign
            rows.append(balance)
    return LinearProgram(
        variables, dict.fromkeys(variables, ZERO), dict.fromkeys(variables), rows, [RANGE] * len(rows), {_gen(g): ONE for g in gens}
    )


def _part(names: list[NodeId], edges: list[Edge], injection: dict[NodeId, int], den: int) -> Part:
    """A flowing component's part under the net injections injection / den, its angles from one `_potentials` solve."""
    det, (y,) = _potentials(names, edges, [injection])
    return edges, y, det * den, {v: Rational(p, den) for v, p in injection.items()}


def _tree_part(comp: set[NodeId], edges: list[Edge], scale: int, flows: list[int]) -> Part:
    """A tree component's part under its max flow, each edge (a, b) carrying f / scale: each node's net outflow is its injection."""
    names = sorted(comp)
    net = dict.fromkeys(names, 0)
    for e, f in zip(edges, flows):
        net[e.a] += f
        net[e.b] -= f
    return _part(names, edges, net, scale)


def _lp_part(comp: set[NodeId], edges: list[Edge], gens: list[NodeId], loads: list[NodeId], result: LpResult) -> Part:
    """A cyclic component's part at the terminal program's optimal vertex, its injections over their LCM."""
    a = result.assignment
    xs = [(v, a[_gen(v)]) for v in gens] + [(v, -a[_load(v)]) for v in loads]
    den = math.lcm(*(x.denominator for _, x in xs))
    return _part(sorted(comp), edges, {v: x.numerator * (den // x.denominator) for v, x in xs}, den)


def _one_pair(edges: list[Edge], comp: set[NodeId], g: NodeId, l: NodeId) -> tuple[Rational, Callable[[], Part]]:
    """MPF of a component whose only generator is g and only load is l.

    `edges` are the component's.  `_potentials` gives the angles
    phi = y / det of a unit injection from g to l, so an edge's unit flow
    is s * dy / det, and the largest t with every |t * flow| <= cap is
    det times the least cap / |s * dy| over the edges with dy != 0 (an
    edge with dy = 0 carries nothing at any t), compared by
    cross-multiplication.  For that least ratio num/least the angles
    t * phi are num * y / least, and the flows follow from them.  Returns
    the value and a builder of the part, so a caller that reads the value
    alone never makes it.
    """
    det, (y,) = _potentials(sorted(comp), edges, [{g: 1, l: -1}])
    # the least cap / |s * dy| as num/least; least = 0 stands for no bound
    num, least = 1, 0
    for e in edges:
        dy = y[e.b] - y[e.a]
        if dy:
            (cap_num, cap_den), (s_num, s_den) = e.cap.as_integer_ratio(), e.s_min.as_integer_ratio()
            n_e = cap_num * s_den
            d_e = cap_den * s_num * abs(dy)
            if n_e * least < num * d_e:
                num, least = n_e, d_e
    value = Rational(det * num, least)
    return value, lambda: (edges, {v: num * y_v for v, y_v in y.items()}, least, {g: value, l: -value})


def solve_mpf(n: Network) -> MpfOutcome:
    """Exact MPF value and an optimal solution (never infeasible: zero flow works).

    A component without both a generator and a load carries no flow.  A
    component with one generator g and one load l is solved in closed
    form (`_one_pair`): conservation makes every feasible point t times
    the angles of a unit injection from g to l, so its optimum is unique
    and is the vertex the LP would return.  Any other tree component is
    valued by one integer max flow (`maxflow._integer_flow`) on n's integer
    view, over the component's nodes, with no LP.
    Only the other components, those with a cycle, go to the LP, as one
    terminal-space program (`formulate_mpf`).  Each component hands over
    its part of the solution, built from the parts on first read, and it
    is an optimal one: the net injections of the tree's max flow or of
    the LP's gen/load vertex, with the angles of one `_potentials` solve
    of them (`_part`).  Only the components that hold both a generator
    and a load are grouped into their edges; each one's terminals are
    read off `n.generators` and `n.loads`, and a single part's value is
    the total as it is.
    """
    _require_fixed(n)
    comps = connected_components(n)
    flowing = []  # (component, its generators, its loads) for those holding both
    for comp in comps:
        gens = [v for v in n.generators if v in comp]
        if gens:
            loads = [v for v in n.loads if v in comp]
            if loads:
                flowing.append((comp, gens, loads))
    values, parts, cyclic = [], [], []
    for (comp, gens, loads), edges in zip(flowing, _component_edges(n, [comp for comp, _, _ in flowing])):
        if len(gens) == len(loads) == 1:
            t, part = _one_pair(edges, comp, gens[0], loads[0])
            values.append(t)
            parts.append(part)
        elif len(edges) == len(comp) - 1:
            view = n._view
            t, flows, _ = _integer_flow(view, n._kept, sum(1 << view.index[v] for v in comp))
            values.append(Rational(t, view.scale))
            parts.append(partial(_tree_part, comp, edges, view.scale, flows))
        else:
            cyclic.append((comp, edges, gens, loads))
    if cyclic:
        result = solve_lp(formulate_mpf(n, [comp for comp, *_ in cyclic]))
        if result.status is not LpStatus.OPTIMAL:  # pragma: no cover - MPF is always bounded
            raise AssertionError(f"MPF solve ended {result.status}")
        values.append(result.value)
        parts += [partial(_lp_part, *component, result) for component in cyclic]
    # the first part's value as it is: one part, the common case, takes no Fraction add
    value = sum(values[1:], values[0]) if values else ZERO
    return MpfOutcome(value, Lazy(lambda: _solution(n, [part() for part in parts])))


def core_maps(n: Network) -> tuple[Callable[[int], int], Callable[[int], int]]:
    """A map from a removed-edge bitmask to its flow core, and one from a kept-edge bitmask to its bridges, all over n's root's edges.

    The core is the bitmask of the edges that can still carry flow: strip
    plain leaves until none is left (a plain leaf's edge carries nothing,
    and the angle it pins is its own), then keep the components that hold
    both a generator and a load (`solve_mpf` gives the others zero).  The
    MPF value of a sub-network is that of its core alone, and removing an
    edge outside the core leaves the core as it is.

    A bridge is an edge whose removal adds a component: a forest edge that
    no fundamental cycle crosses in `classify._forest_walk`, the walk
    `classify.is_cactus` makes.  Removing a bridge never raises the MPF
    value: shifting the angles on one side lets it carry nothing.  Both
    maps work on ints only, over n's integer view (`network._View`), whose
    edge bits are its root's; a core holds only edges n holds.
    """
    view, everything = n._view, n._kept
    plain = [x for i, x in enumerate(view.incident) if view.plain >> i & 1]

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
        flowing = 0
        for _, nodes, edges in _components(view, kept, view.gens):
            if nodes & view.loads:
                flowing |= edges
        return flowing

    def bridges(kept: int) -> int:
        forest, crossed, _ = _forest_walk(view, kept)
        return forest & ~crossed

    return core, bridges

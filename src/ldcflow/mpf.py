"""Maximum potential flow of a fixed-susceptance network.

MPF maximizes total generation over phase angles, generations and loads,
subject to conservation at every node, the power law on every edge and
the edge capacities.  Fixing the smallest node of each connected
component at angle zero removes the translation degeneracy without
losing solutions, and then a component's angles are fixed by its
injections alone: the pinned Laplacian is positive definite, since a
valid network's susceptances are positive (`solve_mpf` and
`formulate_mpf` validate first).  So an edge's flow is a fixed linear
function of the component's generations and loads, its shift factors.

`_potentials` finds them: one fraction-free elimination of the reduced
Laplacian, with one right-hand side per injection pattern, that touches
only the rows with a non-zero in the pivot column.  `formulate_mpf`
takes one right-hand side per generator and load and writes a program
over the gen/load variables alone, all nonnegative: per edge
+-flow <= cap as integer rows over the elimination's determinant (an
edge whose shift factors are all zero is left out, since it can never
bind), and per component the balance sum(gen) - sum(load) = 0 as two
<= 0 rows.  Every right-hand side is nonnegative, so the simplex starts
from its slack basis, with no phase 1 and no free variable to
eliminate.

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
other tree component by one integer max flow of `maxflow`.

So the only LP `solve_mpf` runs is the terminal-space program of the
flowing components with a cycle, which `formulate_mpf` writes for those
components alone, and none when there is no such component; the
program is block-diagonal across components, and the simplex's every
choice stays within one block.  Each component hands
over its part of an optimal solution: net injections, angles (smallest
node at zero) and flows, from the elimination its value already made or
from none.  The LP's vertex times the shift factors `formulate_mpf`
computed (`shift=True`) gives a cyclic component's angles; a one-pair
component scales its unit solve; a tree's angles are one walk from its
pinned node along the max flow, th_b = th_a + f / s.  Each part's flows
come from the same integers as its angles, and no reading of a solution
runs `_potentials`.  The solution is built from the parts on first read;
nodes and edges no part names stay at zero.

One map serves the switching searches: `core_maps(n)[0]` finds, on
bitmasks, the edges of a sub-network that can carry flow, and both
searches value each such core once through `solve_mpf`.  `core_maps`
gives that map together with one that finds the bridges of an edge set,
which branch-and-bound never removes; both work on the integer tables of
`classify._tables`, and the bridges come from the spanning-forest walk
`classify.is_cactus` makes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from operator import mul
from typing import Callable

from .classify import _forest_walk, _tables, connected_components
from .errors import NotFixedSusceptance
from .lp import LE, Lazy, LinearProgram, LpResult, LpStatus, _reduced, solve_lp
from .maxflow import _integer_flow
from .network import Edge, Network, NodeId, NodeRole, Solution, require_valid
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


# a component's shift factors (det, y): y maps each terminal to its unit injection's angles, over det
Shift = tuple[int, dict[NodeId, dict[NodeId, int]]]


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
    next touched.  A valid network's susceptances are positive, so A is
    positive definite and every pivot, a leading principal minor of A, is
    positive.
    """
    index = {v: i for i, v in enumerate(names)}
    m = len(names) - 1
    scale = math.lcm(*(e.s_min.denominator for e in edges))
    # [A | -D * p] over all nodes; names[0]'s row and column are dropped below
    lap = [[0] * (m + 1 + len(injections)) for _ in names]
    for e in edges:
        k = e.s_min.numerator * (scale // e.s_min.denominator)
        a, b = index[e.a], index[e.b]
        lap[a][a] += k
        lap[b][b] += k
        lap[a][b] -= k
        lap[b][a] -= k
    for c, injection in enumerate(injections, m + 1):
        for v, p in injection.items():
            lap[index[v]][c] = -scale * p
    rows = [row[1:] for row in lap[1:]]
    width = m + len(injections)
    pivots = [1]  # pivots[s + 1] is step s's pivot
    seen = [0] * m  # per row, the index into pivots of the step it was last brought up to date at
    for i in range(m):
        prow = rows[i]
        if seen[i] != i:
            up, down = pivots[i], pivots[seen[i]]
            prow = rows[i] = [x * up // down for x in prow]
        p = prow[i]
        for k in range(i + 1, m):
            row = rows[k]
            f = row[i]
            if f:
                down = pivots[seen[k]]
                for j in range(i + 1, width):
                    row[j] = (p * row[j] - f * prow[j]) // down
                row[i] = 0
                seen[k] = i + 1
        pivots.append(p)
    det = pivots[-1]
    # back substitution, one injection pattern at a time: det * th is integral
    columns = []
    for c in range(m, width):
        y = [0] * m
        for i in range(m - 1, -1, -1):
            row = rows[i]
            y[i] = (det * row[c] - sum(map(mul, row[i + 1 : m], y[i + 1 :]))) // row[i]
        columns.append(y)
    return det, [dict(zip(names, [0, *y])) for y in columns]


def formulate_mpf(n: Network, components: list[set[NodeId]] | None = None, *, shift: bool = False) -> LinearProgram | tuple[LinearProgram, list[Shift | None]]:
    """The MPF linear program in terminal space: nonnegative gen/load variables only.

    For each component holding a generator and a load, one
    `_potentials` elimination with one right-hand side per generator and
    load gives every edge's flow as a linear function of them.  Per such
    edge, in edge order, the program holds flow <= cap and -flow <= cap,
    written over the elimination's determinant as the integer rows the
    program holds (see `LinearProgram`), reduced by their gcd; an edge
    whose flow is zero under every injection is left out.  Then come the
    component's balance rows sum(gen) - sum(load) <= 0 and its negation,
    also written for a component with terminals on one side only, which
    they pin at zero.  Every row is <= with a nonnegative right-hand side,
    and each is followed by its exact negation, so the simplex holds every
    pair as one range row.  The objective is the total generation.

    `components`, when given, lists some of n's connected components (they
    are not checked), and the program covers those alone: it is the one
    of the network that holds just their nodes and edges.  With `shift`,
    return (program, shifts): per listed component, in order, its shift
    factors (det, y), y mapping each terminal to the angles of a unit
    injection there (a load's is -1) as `_potentials` gives them, or None
    for a component without both a generator and a load.  An invalid
    network raises `InvalidNetwork`.
    """
    require_valid(n)
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
    shifts: list[Shift | None] = []
    for comp, edges in zip(comps, _component_edges(n, comps)):
        names = sorted(comp)
        ends = [v for v in names if v in unit]
        terminals = [unit[v] for v in ends]
        factors = None
        if {sign for _, sign in terminals} == {1, -1}:
            det, y = _potentials(names, edges, [{v: unit[v][1]} for v in ends])
            factors = det, dict(zip(ends, y))
            for e in edges:
                k = e.s_min.numerator * e.cap.denominator
                row = [0] * width
                for (j, _), y_c in zip(terminals, y):
                    row[j] = k * (y_c[e.b] - y_c[e.a])
                if not any(row):
                    continue
                row[-2] = e.cap.numerator * e.s_min.denominator * det
                row[-1] = e.s_min.denominator * e.cap.denominator * det
                row = _reduced(row)
                rows += (row, [-x for x in row[:-2]] + row[-2:])
        shifts.append(factors)
        if terminals:
            balance = [0] * width
            for j, sign in terminals:
                balance[j] = sign
            balance[-1] = 1
            rows += (balance, [-x for x in balance[:-1]] + [1])
    p = LinearProgram(
        variables, dict.fromkeys(variables, ZERO), dict.fromkeys(variables), rows, [LE] * len(rows), {_gen(g): ONE for g in gens}
    )
    return (p, shifts) if shift else p


NodeValues = dict[NodeId, Rational]
Part = tuple[NodeValues, NodeValues, dict[Edge, Rational]]  # a component's (angles, net injections, flows)


def _part(edges: list[Edge], y: dict[NodeId, int], den: int, injection: NodeValues) -> Part:
    """The (angles, injection, flows) part of a component whose angles are y / den: an edge's flow is s * (y_b - y_a) / den."""
    angles = {v: Rational(y_v, den) for v, y_v in y.items()}
    flows = {e: Rational(e.s_min.numerator * (y[e.b] - y[e.a]), e.s_min.denominator * den) for e in edges}
    return angles, injection, flows


def _tree_part(names: list[NodeId], edges: list[Edge], scale: int, flows: list[int]) -> Part:
    """A tree component's part under its max flow, each edge (a, b) carrying f / scale.

    One walk from names[0], pinned at zero, fixes the angles: an edge's
    flow is s * (th_b - th_a), so th_b = th_a + f / (scale * s).  Over
    scale * M, M the LCM of the susceptances' numerators, every step is
    the integer f * den(s) * (M / num(s)).
    """
    m = math.lcm(*(e.s_min.numerator for e in edges))
    steps: dict[NodeId, list[tuple[NodeId, int]]] = {v: [] for v in names}
    net = dict.fromkeys(names, 0)
    for e, f in zip(edges, flows):
        step = f * e.s_min.denominator * (m // e.s_min.numerator)
        steps[e.a].append((e.b, step))
        steps[e.b].append((e.a, -step))
        net[e.a] += f
        net[e.b] -= f
    y = {names[0]: 0}
    stack = [names[0]]
    while stack:
        u = stack.pop()
        for w, step in steps[u]:
            if w not in y:
                y[w] = y[u] + step
                stack.append(w)
    angles = {v: Rational(y_v, scale * m) for v, y_v in y.items()}
    return angles, {v: Rational(x, scale) for v, x in net.items() if x}, {e: Rational(f, scale) for e, f in zip(edges, flows)}


def _lp_part(edges: list[Edge], gens: list[NodeId], loads: list[NodeId], shift: Shift, result: LpResult) -> Part:
    """A cyclic component's part at the terminal program's optimal vertex.

    Its angles are the sum over terminals of the terminal's variable
    times its shift factors y / det (`formulate_mpf`), summed in integers
    over det times the LCM of the variables' denominators.
    """
    det, y = shift
    a = result.assignment
    xs = [(a[_gen(v)], y[v]) for v in gens] + [(a[_load(v)], y[v]) for v in loads]
    scale = math.lcm(*(x.denominator for x, _ in xs))
    total = dict.fromkeys(y[gens[0]], 0)
    for x, y_v in xs:
        if x:
            k = x.numerator * (scale // x.denominator)
            for u, y_u in y_v.items():
                total[u] += k * y_u
    injection = {v: a[_gen(v)] for v in gens}
    injection.update((v, -a[_load(v)]) for v in loads)
    return _part(edges, total, det * scale, injection)


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
    # the least cap / |s * dy| as num/least; least = 0 stands for no bound, so
    # an edge with dy = 0 never becomes the least
    num, least = 1, 0
    for e in edges:
        n_e = e.cap.numerator * e.s_min.denominator
        d_e = e.cap.denominator * e.s_min.numerator * abs(y[e.b] - y[e.a])
        if n_e * least < num * d_e:
            num, least = n_e, d_e
    value = Rational(det * num, least)
    return value, lambda: _part(edges, {v: num * y_v for v, y_v in y.items()}, least, {g: value, l: -value})


def _solution(n: Network, parts: list[Callable[[], Part]]) -> Solution:
    """The solution the components' parts make up; nodes and edges no part names stay at zero.

    A positive net injection is a generation, a negative one a load (read
    off the numerator's sign, which is cheaper than a `Fraction` comparison).
    """
    named: NodeValues = {}
    injection: NodeValues = {}
    flow: dict[Edge, Rational] = {}
    for part in parts:
        a, p, f = part()
        named.update(a)
        injection.update(p)
        flow.update(f)
    names = n.node_names
    p = [injection.get(v, ZERO) for v in names]
    return Solution(
        susceptance={e: e.s_min for e in n.edges},
        angle={v: named.get(v, ZERO) for v in names},
        flow={e: flow.get(e, ZERO) for e in n.edges},
        gen={v: x if x.numerator > 0 else ZERO for v, x in zip(names, p)},
        load={v: -x if x.numerator < 0 else ZERO for v, x in zip(names, p)},
    )


def solve_mpf(n: Network) -> MpfOutcome:
    """Exact MPF value and an optimal solution (never infeasible: zero flow works).

    A component without both a generator and a load carries no flow.  A
    component with one generator g and one load l is solved in closed
    form (`_one_pair`): conservation makes every feasible point t times
    the angles of a unit injection from g to l, so its optimum is unique
    and is the vertex the LP would return.  Any other tree component is
    valued by one integer max flow (`maxflow._integer_flow`), with no LP.
    Only the other components, those with a cycle, go to the LP, as one
    terminal-space program (`formulate_mpf`).  Each component hands over
    its part of the solution, built from the parts on first read, and it
    is an optimal one: on a tree the max flow's, with the angles walked
    from its pinned node; on a component with a cycle the LP's gen/load
    vertex, with the angles of the program's own shift factors.  An
    invalid network raises `InvalidNetwork`.
    """
    require_valid(n)
    _require_fixed(n)
    roles = n.roles
    comps = connected_components(n)
    value, parts, cyclic = ZERO, [], []
    for comp, edges in zip(comps, _component_edges(n, comps)):
        gens = [v for v in comp if roles[v] is NodeRole.GENERATOR]
        loads = [v for v in comp if roles[v] is NodeRole.LOAD]
        if not gens or not loads:
            continue
        if len(gens) == len(loads) == 1:
            t, part = _one_pair(edges, comp, gens[0], loads[0])
            value += t
            parts.append(part)
        elif len(edges) == len(comp) - 1:
            names = sorted(comp)
            t, scale, flows, _ = _integer_flow(names, edges, gens, loads)
            value += Rational(t, scale)
            parts.append(partial(_tree_part, names, edges, scale, flows))
        else:
            cyclic.append((comp, edges, gens, loads))
    if cyclic:
        p, shifts = formulate_mpf(n, [comp for comp, *_ in cyclic], shift=True)
        result = solve_lp(p)
        if result.status is not LpStatus.OPTIMAL:  # pragma: no cover - MPF is always bounded
            raise AssertionError(f"MPF solve ended {result.status}")
        value += result.value
        parts += [partial(_lp_part, edges, gens, loads, shift, result) for (_, edges, gens, loads), shift in zip(cyclic, shifts)]
    return MpfOutcome(value, Lazy(partial(_solution, n, parts)))


def core_maps(n: Network) -> tuple[Callable[[int], int], Callable[[int], int]]:
    """A map from a removed-edge bitmask over `n.edges` to its flow core, and one from a kept-edge bitmask to its bridges.

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
    maps work on ints only, over the tables of `classify._tables`; n must
    be valid.
    """
    tables = _tables(n)
    index, incident, adjacent, _, everything = tables
    plain = [incident[index[v]] for v, role in n.nodes if role is NodeRole.PLAIN]
    gens = sum(1 << index[v] for v in n.generators)
    loads = sum(1 << index[v] for v in n.loads)

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

    def bridges(kept: int) -> int:
        forest, crossed, _ = _forest_walk(tables, kept)
        return forest & ~crossed

    return core, bridges

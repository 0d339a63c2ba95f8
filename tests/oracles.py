"""Independent reference implementations used only to check the library.

Everything here is deliberately brute force and shares no code with the
solvers it cross-checks: the LP oracle enumerates constraint-intersection
vertices, the min-cut oracle enumerates source-side node sets, the
cactus oracle enumerates the edge sets of simple cycles, and the
combinatorial oracles enumerate subsets/permutations.  The one exception
is `reference_mpf_program`, the MPF program in angle space built
constraint by constraint over `Fraction`s through `LinearProgram`'s public
methods, whose optimum `solve_mpf` must reach; `reference_terminal_program`,
the same problem over generations and loads alone, with the shift factors
found by `gauss_solve`, which the integer-row builder `formulate_mpf` must
reproduce exactly; `reference_integer_flow`, Edmonds-Karp on a residual
dict keyed by node pairs, whose flows `maxflow._integer_flow` must return
exactly; `reference_standard_lp`, the full-width simplex over integer rows
that the condensed tableau of `solve_lp` replaced, whose status, value and
vertex `solve_lp` must return exactly on standard-form programs;
`reference_general_lp`, the presolve and two-phase simplex that `solve_lp`
ran on every other program before it took standard form only, built on
`lp`'s reader and row helpers (`_read_program`, `_int_row`, `_reduced`,
`_support`, `_pivot_row`, `_eliminate`), which solves the general
programs `solve_lp` refuses (the angle-space `reference_mpf_program`
among them) as `solve_lp` once did, and must return the status, value
and point of a standard-form program padded by a variable fixed at 0
that `solve_lp` returns for the program; and
`msf_by_every_mask` calls `solve_mpf` on every
sub-network, so that it checks the switching searches and nothing they
skip, and `optimal_sets_by_every_mask` does so on every sub-network
built from scratch and keeps each one of the largest value;
`reference_msf_bnb` is the branch-and-bound that runs a max flow on
every child core it meets first, whose solves `msf._solve_msf_bnb` must
repeat in the same order with no more max flows; `bridges_by_removal` finds bridges by deleting each edge in turn
and counting components.  `reference_rat` (a regular-expression match, then `Fraction(text)`)
and `reference_validate_solution` (every check in `Fraction`s) are the
string parser and the solution check that the integer versions in
`rational` and `network` replaced, and must agree with exactly, errors
and violation texts included.  `reference_validate_network` is the
public structural check of a built network that `Network` construction
replaced, run on the records instead: construction must refuse exactly
the records it reports on, with an equal report.  `reference_decode_exact_cover` and
`reference_decode_subset_sum` encode the instance again and read each
port's flows edge by edge off the encoded network; the decoders in
`reductions`, which read the outcome alone, must return the same
certificate or raise the same error with the same message.
`reference_edge_map_in` and `reference_switch_set_in` are the two
edge-record loops that `serialize`'s one reader replaced, each with its
own resolution and listed-twice check over `serialize`'s record and
value checks; the readers on top of it must return the same map or set,
or raise the same error with the same message.
`reference_zero_solution` and `reference_witness_tree` write out each
map of a solution as `zero_solution` and `witness_tree` did before both
went through `network`'s one assembler; those must return equal solutions.
`expanded` writes each declared range row of a program out as the two
<= rows it stands for, the form the LP oracles read; and
`reference_potentials` is the back substitution `mpf._potentials` ran one
pattern at a time over whole row slices, whose determinant and angles it
must return exactly.  `reference_tree_part` (a walk from the pinned node
along a tree's max flow) and `reference_lp_part` (the LP vertex times the
shift factors of unit injections at the terminals) are the two angle
constructions that `mpf` replaced by one `_potentials` solve of a
component's net injections; the solutions built from either must be equal.
"""

from __future__ import annotations

import math
import re
from collections import Counter, deque
from fractions import Fraction
from functools import partial
from itertools import combinations, permutations
from operator import mul

from ldcflow import lp
from ldcflow.lp import Lazy, LinearProgram, LpResult, LpStatus
from ldcflow.maxflow import classical_max_flow
from ldcflow.mpf import MpfOutcome, _require_fixed, core_maps, solve_mpf
from ldcflow.network import Edge, Network, NodeRole, Part, Solution, SwitchSet, ValidationReport, Violation, subnetwork, zero_solution
from ldcflow.rational import ONE, Rational, ZERO, rat_str
from ldcflow.classify import connected_components
from ldcflow.errors import DecodingFailed, InvalidInstance, NotACertificate, NotOptimal
from ldcflow.mff import MffOutcome
from ldcflow.msf import MsfOutcome
from ldcflow.reductions import (
    KIND_CACTUS_MFF,
    KIND_CACTUS_MSF,
    KIND_EXACT_COVER_MFF,
    KIND_EXACT_COVER_MSF,
    KIND_TREE,
    SubsetSumInstance,
    _check_exact_cover,
    _check_subset_sum,
    encode_exact_cover_mff,
    encode_exact_cover_msf,
    encode_subset_sum_cactus_mff,
    encode_subset_sum_cactus_msf,
    encode_subset_sum_tree,
)
from ldcflow.serialize import ByPair, Seen, _edge_in, _edge_of, _rat_field, _rat_in


def gauss_solve(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Solve a square rational system; None when singular."""
    n = len(matrix)
    a = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        inv = Fraction(1) / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


def expanded(p: LinearProgram) -> LinearProgram:
    """p with each range row written out as the two <= rows it stands for, c.x <= rhs and then -c.x <= rhs."""
    rows: list[list[int]] = []
    rels: list[str] = []
    for row, rel in zip(p.rows, p.rels):
        if rel == lp.RANGE:
            rows += [row[:], [-x for x in row[:-2]] + row[-2:]]
            rels += ["<=", "<="]
        else:
            rows.append(row[:])
            rels.append(rel)
    return LinearProgram(list(p.variables), dict(p.lower), dict(p.upper), rows, rels, dict(p.objective))


def lp_vertex_oracle(p: LinearProgram) -> tuple[str, Fraction | None]:
    """Feasible maximum over all vertices of the constraint arrangement.

    Sound for programs whose feasible region is bounded (e.g. every
    variable boxed) or whose optimum lies at a vertex of the arrangement.
    Returns ("optimal", value) or ("infeasible", None).
    """
    variables = list(p.variables)
    n = len(variables)
    idx = {v: i for i, v in enumerate(variables)}

    rows: list[tuple[list[Fraction], str, Fraction]] = []
    for con in p.constraints:
        coeffs = [Fraction(0)] * n
        for v, c in con.coeffs.items():
            coeffs[idx[v]] += Fraction(c)
        rows.append((coeffs, con.rel, Fraction(con.rhs)))
    for v in variables:
        unit = [Fraction(0)] * n
        unit[idx[v]] = Fraction(1)
        if p.lower[v] is not None:
            rows.append((unit[:], ">=", Fraction(p.lower[v])))
        if p.upper[v] is not None:
            rows.append((unit[:], "<=", Fraction(p.upper[v])))

    def feasible(x: list[Fraction]) -> bool:
        for coeffs, rel, rhs in rows:
            lhs = sum(c * xi for c, xi in zip(coeffs, x))
            if rel == "<=" and lhs > rhs:
                return False
            if rel == ">=" and lhs < rhs:
                return False
            if rel == "=" and lhs != rhs:
                return False
        return True

    best: Fraction | None = None
    for subset in combinations(range(len(rows)), n):
        matrix = [rows[i][0] for i in subset]
        rhs = [rows[i][2] for i in subset]
        x = gauss_solve(matrix, rhs)
        if x is None or not feasible(x):
            continue
        value = sum(Fraction(c) * x[idx[v]] for v, c in p.objective.items())
        if best is None or value > best:
            best = value
    return ("infeasible", None) if best is None else ("optimal", best)


def reference_integer_flow(names, edges, generators, loads) -> tuple[int, int, list[int]]:
    """`maxflow._integer_flow` on a residual dict keyed by node-index pairs.

    The same numbering (`names`, then the source and the sink), merged
    parallel arcs and scan order (neighbours sorted by index, each BFS
    stopped after the node that gave the sink its parent), so it finds the
    same augmenting paths and must return the same (value, scale, flows).
    """
    if not (generators and loads and edges):
        return 0, 1, [0] * len(edges)
    index = {name: i for i, name in enumerate(names)}
    source, sink = len(index), len(index) + 1
    scale = math.lcm(*(e.cap.denominator for e in edges))
    caps = [e.cap.numerator * (scale // e.cap.denominator) for e in edges]
    big = sum(caps) + scale
    arcs: dict[tuple[int, int], int] = {}
    for e, cap in zip(edges, caps):
        u, v = index[e.a], index[e.b]
        arcs[(u, v)] = arcs.get((u, v), 0) + cap
        arcs[(v, u)] = arcs.get((v, u), 0) + cap
    for g in generators:
        arcs[(source, index[g])] = big
    for l in loads:
        arcs[(index[l], sink)] = big

    residual = dict(arcs)
    adj: dict[int, list[int]] = {i: [] for i in range(len(index) + 2)}
    for (u, v) in arcs:
        adj[u].append(v)
        if (v, u) not in arcs:
            residual[(v, u)] = 0
            adj[v].append(u)
    for u in adj:
        adj[u].sort()
    while True:
        parent: dict[int, int] = {source: source}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for v in adj[u]:
                if v not in parent and residual[(u, v)] > 0:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            break
        bottleneck = None
        v = sink
        while v != source:
            u = parent[v]
            r = residual[(u, v)]
            bottleneck = r if bottleneck is None or r < bottleneck else bottleneck
            v = u
        v = sink
        while v != source:
            u = parent[v]
            residual[(u, v)] -= bottleneck
            residual[(v, u)] += bottleneck
            v = u

    flow = {arc: arcs[arc] - residual[arc] for arc in arcs}
    value = sum(flow[(source, index[g])] for g in generators)
    return value, scale, [flow[(index[e.a], index[e.b])] for e in edges]


# The full-width integer-row simplex `solve_lp` ran on standard-form programs
# before its tableau was condensed to the nonbasic columns: every row carries
# a column per variable and per slack, the basic ones included.


def _reduced(row: list[int]) -> list[int]:
    g = math.gcd(*row)
    return row if g == 1 else [x // g for x in row]


def _support(row: list[int]) -> list[int]:
    """Non-zero positions among the columns and the rhs (the denominator excluded)."""
    return [k for k in range(len(row) - 1) if row[k]]


def _pivot_row(row: list[int], j: int) -> list[int]:
    """The row divided by its entry at j: the same integers over that entry, made positive."""
    p = row[j]
    return _reduced(row[:-1] + [p] if p > 0 else [-x for x in row[:-1]] + [-p])


def _eliminate(row: list[int], prow: list[int], support: list[int], j: int) -> list[int]:
    """row - (row_j / prow_j) * prow, for a pivot row whose entry at j is its denominator.

    Over the common denominator den(row) * prow_j this is
    prow_j * row - row_j * prow; both factors are first divided by their
    gcd, and when prow_j divides row_j only the pivot row's support moves.
    """
    g = math.gcd(prow[j], row[j])
    p, f = prow[j] // g, row[j] // g
    if p != 1:
        row = [p * x for x in row]
    for k in support:
        row[k] -= f * prow[k]
    return _reduced(row)


def _pivot(T: list[list[int]], Z: list[int], basis: list[int], r: int, j: int) -> None:
    T[r] = prow = _pivot_row(T[r], j)
    support = _support(prow)
    for i, row in enumerate(T):
        if i != r and row[j]:
            T[i] = _eliminate(row, prow, support, j)
    if Z[j]:
        Z[:] = _eliminate(Z, prow, support, j)
    basis[r] = j


def _simplex(T: list[list[int]], Z: list[int], basis: list[int], ncols: int) -> str:
    """Bland-rule simplex on an already-feasible tableau; returns a status."""
    while True:
        enter = next((j for j in range(ncols) if Z[j] > 0), -1)
        if enter < 0:
            return "optimal"
        leave = -1
        for i, row in enumerate(T):
            t = row[enter]
            if t <= 0:
                continue
            if leave < 0:
                leave = i
                continue
            # rhs_i / t against the best ratio so far, cross-multiplied (both t > 0)
            a, b = row[-2] * T[leave][enter], T[leave][-2] * t
            if a < b or (a == b and basis[i] < basis[leave]):
                leave = i
        if leave < 0:
            return "unbounded"
        _pivot(T, Z, basis, leave, enter)


def _slack_tableau(rows: list[list[int]], obj: list[int], nvars: int):
    """The starting tableau of a standard-form program: every row <= with rhs >= 0, every variable in [0, inf).

    Each row gets its own slack column, basic at the row's denominator
    (the integer form of 1), so the slack basis is feasible and phase 1
    has nothing to do.  This is the tableau the presolve builds for such
    a program, except that a row without a coefficient is kept: its slack
    stays basic and no pivot touches it, so every pivot is the same.
    """
    m = len(rows)
    T = []
    for i, row in enumerate(rows):
        t = row[:nvars] + [0] * m + row[-2:]
        t[nvars + i] = row[-1]
        T.append(t)
    Z = obj[:nvars] + [0] * (m + 2)
    Z[-1] = obj[-1]
    return T, Z, list(range(nvars, nvars + m)), {j: [(j, 1)] for j in range(nvars)}, {}, []


def reference_standard_lp(p: LinearProgram) -> tuple[str, Fraction | None, dict | None]:
    """(status, value, vertex) of a standard-form program by the full-width simplex above.

    The program must hold only <= rows with nonnegative right-hand sides
    over variables in [0, inf).  The vertex maps every variable, in
    declaration order, to its basic value or 0; `solve_lp` must return the
    same status, value and vertex items in the same order.
    """
    p = expanded(p)
    names = p.variables
    assert all(p.lower[v] == 0 and p.upper[v] is None for v in names) and set(p.rels) <= {"<="}
    objective = {names.index(v): Fraction(c) for v, c in p.objective.items()}
    obj = [0] * (len(names) + 2)
    obj[-1] = den = math.lcm(*(c.denominator for c in objective.values()))
    for j, c in objective.items():
        obj[j] = c.numerator * (den // c.denominator)
    T, Z, basis, *_ = _slack_tableau(p.rows, obj, len(names))
    if _simplex(T, Z, basis, len(Z) - 2) == "unbounded":
        return "unbounded", None, None
    row_of = {b: i for i, b in enumerate(basis)}
    x = [Fraction(T[row_of[j]][-2], T[row_of[j]][-1]) if j in row_of else Fraction(0) for j in range(len(names))]
    return "optimal", sum((c * x[j] for j, c in objective.items()), Fraction(0)), dict(zip(names, x))


# The general route `solve_lp` ran on every program not in standard form
# before it was narrowed to standard form, on `lp`'s reader and row helpers.

_FLIP = {"<=": ">=", ">=": "<=", "=": "="}


def _substitute(row: list[int], shift: dict[int, Fraction], var_cols: dict[int, list[tuple[int, int]]], ncols: int) -> list[int]:
    """The row over ncols columns after x_j = shift[j] + the sum of sign * column over var_cols[j].

    Every c_j * shift[j] moves into the rhs, over the LCM of the
    denominators of the shifts the row meets; c_j goes to each column of
    x_j with its sign.  A variable without a column (a fixed one) leaves
    the row, so the row is reduced again.
    """
    hits = [j for j in shift if row[j]]
    m = math.lcm(*(shift[j].denominator for j in hits))
    rhs = row[-2] * m
    for j in hits:
        x = shift[j]
        rhs -= row[j] * x.numerator * (m // x.denominator)
    out = [0] * ncols
    for j, cols in var_cols.items():
        if row[j]:
            for col, sign in cols:
                out[col] = row[j] * m * sign
    return lp._reduced(out + [rhs, row[-1] * m])


def _solved_for(row: list[int], j: int) -> list[int]:
    """The row solved for its variable at j, x_j = (rhs - the rest) / row[j]: the same integers over row[j], made positive, with 0 at j."""
    p = row[j]
    out = row[:-1] + [p]
    out[j] = 0
    return lp._reduced(out if p > 0 else [-x for x in out])


def _general_pivot(T: list[list[int]], objs: list[list[int]], basis: list[int], nonbasic: list[int], r: int, s: int) -> None:
    """`lp._pivot`, carrying every objective row of `objs`."""
    T[r] = prow = lp._pivot_row(T[r], s)
    support = lp._support(prow)
    for i, row in enumerate(T):
        if i != r and row[s]:
            T[i] = lp._eliminate(row, prow, support, s)
    for Z in objs:
        if Z[s]:
            Z[:] = lp._eliminate(Z, prow, support, s)
    basis[r], nonbasic[s] = nonbasic[s], basis[r]


def _general_simplex(T: list[list[int]], objs: list[list[int]], basis: list[int], nonbasic: list[int]) -> str:
    """`lp._simplex` without range pairs, priced by objs[0]; every row of `objs` is pivoted in place.  Returns a status."""
    Z = objs[0]
    while True:
        enter = min((s for s in range(len(nonbasic)) if Z[s] > 0), key=nonbasic.__getitem__, default=-1)
        if enter < 0:
            return "optimal"
        leave, num, den, name = -1, 0, 1, -1
        for i, row in enumerate(T):
            t = row[enter]
            # row[-2] / t against the least ratio so far, cross-multiplied (both t, den > 0)
            if t > 0 and (name < 0 or (c := row[-2] * den - num * t) < 0 or (c == 0 and basis[i] < name)):
                leave, num, den, name = i, row[-2], t, basis[i]
        if leave < 0:
            return "unbounded"
        _general_pivot(T, objs, basis, nonbasic, leave, enter)


def _presolve(rows: list[list[int]], rels: list[str], lower: list[Fraction | None], upper: list[Fraction | None], obj: list[int]):
    """Eliminate, substitute and run phase 1 on a general program; None if it is infeasible.

    `rows` are copies of the program's rows, which are updated in place,
    and `obj` is the objective's integer row.  Phase 1 runs over the
    structural and surplus columns, with each row's slack or artificial
    basic, and carries phase 2's objective row along.  Returns a feasible
    tableau and phase 2's objective row, with what the read-back needs:
    (T, Z, basis, nonbasic, var_cols, shift, eliminated).  Every variable
    that is not eliminated is x_j = shift_j + the sum of sign * y over its
    (label, sign) pairs var_cols[j]: none for a fixed variable, two for a
    free one.  shift holds the nonzero shifts; eliminated lists (variable,
    row solved for it) in elimination order.
    """
    nvars = len(lower)
    rels = list(rels)

    # Gaussian elimination of free variables through equality rows: the first
    # equality row holding a free variable, and in it the first such variable.
    free = [j for j in range(nvars) if lower[j] is None and upper[j] is None]
    eliminated: list[tuple[int, list[int]]] = []
    while True:
        found = next(
            ((i, j) for i, row in enumerate(rows) if rels[i] == "=" for j in free if row[j]),
            None,
        )
        if found is None:
            break
        i, j = found
        prow = _solved_for(rows.pop(i), j)
        del rels[i]
        support = lp._support(prow)
        for k, row in enumerate(rows):
            if row[j]:
                rows[k] = lp._eliminate(row, prow, support, j)
        if obj[j]:
            obj = lp._eliminate(obj, prow, support, j)
        eliminated.append((j, prow))

    # One substitution for every variable left, x = shift + the sum of sign * y
    # over nonnegative columns y; a boxed variable's upper bound becomes a row.
    gone = {j for j, _ in eliminated}
    var_cols: dict[int, list[tuple[int, int]]] = {}
    shift: dict[int, Fraction] = {}
    ncols = 0
    for j in range(nvars):
        if j in gone:
            continue
        lo, hi = lower[j], upper[j]
        if lo is None and hi is None:
            signs = (1, -1)
        elif lo == hi:  # fixed
            signs = ()
        elif lo is None:
            signs = (-1,)
        else:
            signs = (1,)
            if hi is not None:
                rows.append(lp._int_row({j: Fraction(1)}, hi, nvars))
                rels.append("<=")
        var_cols[j] = [(ncols + k, sign) for k, sign in enumerate(signs)]
        ncols += len(signs)
        if s := (hi if lo is None else lo):  # None for a free variable
            shift[j] = s

    # Constant rows are either trivially satisfied or witness infeasibility;
    # the others get nonnegative right-hand sides.
    std: list[tuple[list[int], str]] = []
    for row, rel in zip(rows, rels):
        row = _substitute(row, shift, var_cols, ncols)
        rhs = row[-2]  # over a positive denominator
        if not any(row[:ncols]):
            if not (rhs == 0 if rel == "=" else rhs >= 0 if rel == "<=" else rhs <= 0):
                return None
        elif rhs < 0:
            std.append(([-x for x in row[:-1]] + [row[-1]], _FLIP[rel]))
        else:
            std.append((row, rel))

    # Labels: structural columns, then slack/surplus columns in row order, then
    # artificials.  The rows' columns are the structural and surplus labels.
    surplus = [0] * sum(1 for _, rel in std if rel == ">=")
    width = ncols + len(surplus)
    first_art = ncols + sum(1 for _, rel in std if rel != "=")
    nonbasic = list(range(ncols))
    T: list[list[int]] = []
    basis: list[int] = []
    slack_at, art_at = ncols, first_art
    z1_rows: list[list[int]] = []
    for row, rel in std:
        t = row[:ncols] + surplus + row[ncols:]
        if rel == "<=":
            basis.append(slack_at)
        else:
            if rel == ">=":
                t[len(nonbasic)] = -t[-1]
                nonbasic.append(slack_at)
            z1_rows.append(t)
            basis.append(art_at)
            art_at += 1
        slack_at += rel != "="
        T.append(t)

    Z2 = _substitute(obj, shift, var_cols, width)
    if z1_rows:
        # Phase-1 objective: minus the artificials, over the nonbasic columns the sum of their rows.
        m = math.lcm(*(t[-1] for t in z1_rows))
        Z1 = lp._reduced([sum(m // t[-1] * t[k] for t in z1_rows) for k in range(width + 1)] + [m])
        status = _general_simplex(T, [Z1, Z2], basis, nonbasic)
        assert status == "optimal"  # phase 1 is bounded below by 0
        if Z1[-2] > 0:  # the artificials' sum stays positive
            return None
        # pivot leftover artificials out of the basis, dropping redundant rows
        keep: list[int] = []
        for i in range(len(T)):
            if basis[i] < first_art:
                keep.append(i)
                continue
            s = min((s for s, b in enumerate(nonbasic) if b < first_art and T[i][s]), key=nonbasic.__getitem__, default=-1)
            if s < 0:
                continue  # redundant row
            _general_pivot(T, [Z2], basis, nonbasic, i, s)
            keep.append(i)
        cols = [s for s, b in enumerate(nonbasic) if b < first_art]
        T = [lp._reduced([T[i][s] for s in cols] + T[i][-2:]) for i in keep]
        Z2 = lp._reduced([Z2[s] for s in cols] + Z2[-2:])
        basis = [basis[i] for i in keep]
        nonbasic = [nonbasic[s] for s in cols]
    return T, Z2, basis, nonbasic, var_cols, shift, eliminated


def in_standard_form(p: LinearProgram) -> bool:
    """Whether `solve_lp` takes p: only <= rows with nonnegative right-hand sides, every variable in [0, inf)."""
    p = expanded(p)
    return all(rel == "<=" for rel in p.rels) and all(row[-2] >= 0 for row in p.rows) and all(p.lower[v] == 0 and p.upper[v] is None for v in p.variables)


def reference_general_lp(p: LinearProgram) -> LpResult:
    """Status, optimal value and an optimal point of any program, by the presolve and two-phase simplex above.

    The presolve first eliminates free variables through equality rows (a
    fraction-free Gaussian step: the first equality row holding a free
    variable, and in it the first such variable in declaration order).
    Then every variable left gets one substitution x = shift + the sum of
    sign * y over its nonnegative columns y: a fixed variable is its
    value, with no column; a lower-bounded or boxed one is lo + y; an
    upper-only one is hi - y; a free one is y' - y''.  A boxed variable's
    upper bound becomes a row.  One pass over the rows substitutes each
    (`_substitute`: the shifts fold into the rhs over the LCM of their
    denominators), drops or refutes the rows left without a coefficient,
    and flips negative right-hand sides.  The objective row is substituted
    as every row, so the shifts fold into its rhs, and the value is minus
    its rhs at the optimum.  Phase 1 runs when a row needs an artificial;
    phase 2 prices by the objective.  Every variable left is read back by
    its substitution, then the eliminated ones from their stored rows.

    Every substitution but the split of a free variable is an affine
    bijection of the feasible region, so vertices map to vertices.  The
    point is a vertex unless a free variable is left after the
    eliminations: when both its split columns end nonbasic the point need
    not be one (maximize y subject to y <= 1 and x - y <= 0, x free,
    y >= 0, returns x = 0, y = 1; the optimal vertex is x = y = 1).
    """
    objective, lower, upper = lp._read_program(p)
    p = expanded(p)
    names = p.variables
    obj = lp._int_row(dict(objective), ZERO, len(names))
    tableau = _presolve([row[:] for row in p.rows], p.rels, lower, upper, obj)
    if tableau is None:
        return LpResult(LpStatus.INFEASIBLE)
    T, Z, basis, nonbasic, var_cols, shift, eliminated = tableau
    if _general_simplex(T, [Z], basis, nonbasic) == "unbounded":
        return LpResult(LpStatus.UNBOUNDED)
    row_of = {b: i for i, b in enumerate(basis)}
    value_of = {}
    for j, cols in var_cols.items():
        x = shift.get(j, ZERO)
        for col, sign in cols:
            if (i := row_of.get(col)) is not None:
                x += Fraction(sign * T[i][-2], T[i][-1])
        value_of[j] = x
    for j, prow in reversed(eliminated):
        rest = sum((prow[k] * value_of[k] for k in range(len(names)) if prow[k]), ZERO)
        value_of[j] = Fraction(prow[-2] - rest, prow[-1])
    return LpResult(LpStatus.OPTIMAL, Fraction(-Z[-2], Z[-1]), {v: value_of[j] for j, v in enumerate(names)})


def min_cut_value(n: Network) -> Fraction:
    """Smallest capacity of an edge cut separating every generator from every load.

    The source side holds all generators and any subset of the plain
    nodes; an edge counts when its endpoints lie on different sides.  By
    max-flow/min-cut this is the classical max flow.
    """
    if not n.generators or not n.loads:
        return Fraction(0)
    plain = [v for v in n.node_names if n.role(v) is NodeRole.PLAIN]
    best: Fraction | None = None
    for r in range(len(plain) + 1):
        for chosen in combinations(plain, r):
            side = set(n.generators).union(chosen)
            cut = sum((e.cap for e in n.edges if (e.a in side) != (e.b in side)), Fraction(0))
            if best is None or cut < best:
                best = cut
    return best


def msf_by_every_mask(n: Network) -> tuple[Fraction, frozenset, Solution]:
    """Maximum switching flow by solving MPF on all 2^|E| sub-networks.

    Returns the largest value, the switch set of smallest switch key
    (fewest edges, then its sorted edge tuple) among those attaining it,
    and that sub-network's MPF solution.
    """
    best = None
    for mask in range(1 << len(n.edges)):
        removed = tuple(sorted(e for i, e in enumerate(n.edges) if mask >> i & 1))
        key = len(removed), removed
        out = solve_mpf(subnetwork(n, removed))
        if best is None or out.value > best[0] or (out.value == best[0] and key < best[1]):
            best = out.value, key, out
    value, (_, removed), out = best
    return value, frozenset(removed), out.solution


def optimal_sets_by_every_mask(n: Network) -> list[tuple[SwitchSet, MpfOutcome]]:
    """Every switch set whose sub-network's MPF value is the largest over all 2^|E|, with its outcome.

    Each sub-network is built from scratch, `Network(n.nodes, kept)`, and
    solved by `solve_mpf`: no flow core, no shared value and no winner
    selection.  The sets come in switch-key order, fewest edges first and
    then the sorted edge tuple.
    """
    outcomes = []
    for mask in range(1 << len(n.edges)):
        removed = tuple(sorted(e for i, e in enumerate(n.edges) if mask >> i & 1))
        kept = [e for i, e in enumerate(n.edges) if not mask >> i & 1]
        outcomes.append(((len(removed), removed), solve_mpf(Network(n.nodes, kept))))
    best = max(out.value for _, out in outcomes)
    return [(frozenset(removed), out) for (_, removed), out in sorted(outcomes, key=lambda pair: pair[0]) if out.value == best]


def reference_msf_bnb(n: Network, threshold: Rational | None) -> tuple[MpfOutcome, tuple[Edge, ...]]:
    """Branch-and-bound over switch sets one size at a time: the incumbent's MPF outcome and removed-set.

    Each level holds the nodes of one size that may still have children.
    A node's children add one edge past its last, in increasing index, and
    the levels keep their parents' order, so switch sets are visited in
    switch-key order (`n.edges` is sorted).  With `threshold` set, the
    search stops as soon as the incumbent proves the decision and prunes
    anything that cannot reach the threshold; when the root's classical
    bound is below the threshold, no LP is solved and the zero flow is
    returned.  No solution is built until it is read, so a decision builds
    none.

    Every incumbent's key is smaller than that of any set met later, so a
    child whose bound equals the incumbent's value cannot win and is
    pruned.  A child's bound is never above its parent's, so once a node's
    own bound (`limit`) can no longer win, neither can any of its
    remaining children, and the node stops.

    A child is created only when its new edge lies in its parent's flow
    core (`core_maps`) and is not a bridge of the core's edges.  An edge
    outside the core carries nothing, and removing a bridge never raises
    MPF; both stay so as more edges are removed.  So a set whose sorted
    prefix adds such an edge is no better than the set without that edge,
    which has a smaller key, and the winner, the optimal set of smallest
    key, is inclusion-minimal: every prefix of it is created.  A pruned
    child takes no core, sub-network, bound or solve.

    Both the MPF value and the classical bound are the core's.  Each core
    is bounded once, when it is first met, and solved right then if its
    bound does not prune it; a core met again is neither bounded nor
    solved again.  Its value was first reached at a removed-set the search
    visited earlier, so it cannot beat the incumbent, whose solution
    therefore comes from its own solve; and if its bound pruned it once,
    it prunes it again.
    """
    _require_fixed(n)
    edges = n._view.edges  # the core map's bits are the root's edges
    core_of, bridges_of = core_maps(n)
    root_core = core_of(0)
    bounds: dict[int, Rational] = {root_core: classical_max_flow(n)}
    if threshold is not None and bounds[root_core] < threshold:
        # no sub-network reaches the threshold; the zero flow is feasible
        return MpfOutcome(ZERO, Lazy(partial(zero_solution, n))), ()
    best, best_removed = solve_mpf(n), ()

    def promising(bound: Rational) -> bool:
        """Can a sub-network bounded by `bound` still change the answer?"""
        if threshold is not None:
            return best.value < threshold <= bound
        return bound > best.value

    # (removed-set, its mask, the index its children start at, its core, its bound)
    level = [((), 0, 0, root_core, bounds[root_core])]
    while level:
        children = []
        for removed, mask, start, core, limit in level:
            free = core >> start << start
            if free and promising(limit):
                free &= ~bridges_of(core)
            while free and promising(limit):
                bit = free & -free
                free ^= bit
                child, child_mask = removed + (edges[bit.bit_length() - 1],), mask | bit
                child_core = core_of(child_mask)
                bound = bounds.get(child_core)
                first = bound is None
                if first:
                    sub = subnetwork(n, child)
                    bound = bounds[child_core] = classical_max_flow(sub)
                if promising(bound):
                    if first:
                        out = solve_mpf(sub)
                        if out.value > best.value:  # a tie never wins: the incumbent's key is smaller
                            best, best_removed = out, child
                    children.append((child, child_mask, bit.bit_length(), child_core, bound))
        level = children
    return best, best_removed


def bridges_by_removal(n: Network, kept: frozenset) -> frozenset:
    """The edges of `kept` whose removal adds a component to n's nodes joined by `kept`."""
    count = len(connected_components(Network(n.nodes, kept)))
    return frozenset(e for e in kept if len(connected_components(Network(n.nodes, kept - {e}))) > count)


def simple_cycles(pairs: list[tuple[str, str]]) -> list[frozenset[tuple[str, str]]]:
    """Every simple cycle of a simple graph, as its edge set: the connected edge subsets in which every vertex has degree 2.

    Exponential in the number of edges; meant for at most about 9.
    """
    cycles = []
    for r in range(3, len(pairs) + 1):
        for subset in combinations(pairs, r):
            degree = Counter(v for pair in subset for v in pair)
            if any(d != 2 for d in degree.values()):
                continue
            # a 2-regular edge set is disjoint cycles on r vertices; grow the one through the first edge
            reached, grown = set(subset[0]), True
            while grown:
                grown = False
                for a, b in subset:
                    if (a in reached) != (b in reached):
                        reached |= {a, b}
                        grown = True
            if len(reached) == r:
                cycles.append(frozenset(subset))
    return cycles


def is_cactus_by_cycles(n: Network) -> bool:
    """True when no edge of n lies on two distinct simple cycles."""
    covered: set[tuple[str, str]] = set()
    for cycle in simple_cycles([e.pair for e in n.edges]):
        if covered & cycle:
            return False
        covered |= cycle
    return True


def subset_sum_solvable(values, target) -> bool:
    items = list(values)
    for r in range(len(items) + 1):
        for combo in combinations(items, r):
            if sum(combo) == target:
                return True
    return False


def exact_cover_exists(universe, sets) -> bool:
    universe = set(universe)
    family = [frozenset(x) for x in sets]
    for r in range(len(family) + 1):
        for combo in combinations(family, r):
            total = sum(len(x) for x in combo)
            union = frozenset().union(*combo) if combo else frozenset()
            if total == len(union) and union == universe:
                return True
    return False


def hamiltonian_path_exists(nodes, edges, a, b) -> bool:
    eset = {frozenset(e) for e in edges}
    middle = [v for v in nodes if v not in (a, b)]
    for perm in permutations(middle):
        path = [a, *perm, b]
        if all(frozenset(step) in eset for step in zip(path, path[1:])):
            return True
    return False


def reference_mpf_program(n: Network) -> LinearProgram:
    """The MPF program of a fixed-susceptance network, built over `Fraction`s.

    Angles are free except the smallest node of each component, pinned at
    zero; gen/load are nonnegative.  One conservation row per node (a
    neighbour reached by several edges gets their sum, zero sums are left
    out, a self-loop's terms cancel), then the two capacity rows of each
    edge in edge order.
    """
    pins = {min(comp) for comp in connected_components(n)}
    th = {v: f"th[{v}]" for v in n.node_names}
    p = LinearProgram()
    for v in n.node_names:
        if v in pins:
            p.add_variable(th[v], lower=Fraction(0), upper=Fraction(0))
        else:
            p.add_variable(th[v])
    for g in n.generators:
        p.add_variable(f"gen[{g}]", lower=Fraction(0))
    for l in n.loads:
        p.add_variable(f"load[{l}]", lower=Fraction(0))

    for v in n.node_names:
        coeffs: dict[str, Fraction] = {}
        total = Fraction(0)
        for e in [e for e in n.edges if v in e.pair]:
            other = e.b if e.a == v else e.a
            if other == v:
                continue
            coeffs[th[other]] = coeffs.get(th[other], Fraction(0)) + e.s_min
            total += e.s_min
        coeffs = {name: c for name, c in coeffs.items() if c}
        if total:
            coeffs[th[v]] = -total
        if n.role(v) is NodeRole.GENERATOR:
            coeffs[f"gen[{v}]"] = Fraction(-1)
        if n.role(v) is NodeRole.LOAD:
            coeffs[f"load[{v}]"] = Fraction(1)
        p.add_constraint(coeffs, "=", Fraction(0))

    for e in n.edges:
        flow = {th[e.b]: e.s_min, th[e.a]: -e.s_min}
        p.add_constraint(flow, "<=", e.cap)
        p.add_constraint(flow, ">=", -e.cap)

    p.set_objective({f"gen[{g}]": Fraction(1) for g in n.generators})
    return p


def reference_terminal_program(n: Network, declared: bool = True) -> LinearProgram | None:
    """The MPF program of a fixed-susceptance network over its gen/load variables, built over `Fraction`s.

    Per component with a generator or a load, in `connected_components`
    order: when it holds both, the angles of a unit of each terminal's
    variable (a generation injects +1, a load -1) solve L_r th = -p over
    the component's nodes but its smallest, pinned at zero, L_r the
    reduced Laplacian; then each edge with a non-zero flow under some
    terminal gets the range row |flow| <= cap, in edge order.  Then the
    component's balance, the range row |sum(gen) - sum(load)| <= 0.
    Without `declared`, each range row is written as two <= rows instead,
    the row and its negation, as `formulate_mpf` wrote them before range
    rows were declared.  Returns None when `gauss_solve` finds some such
    L_r singular.
    """

    def limit(coeffs: dict[str, Fraction], rhs: Fraction) -> None:
        if declared:
            p.add_constraint(coeffs, lp.RANGE, rhs)
        else:
            p.add_constraint(coeffs, "<=", rhs)
            p.add_constraint({name: -c for name, c in coeffs.items()}, "<=", rhs)

    p = LinearProgram()
    for g in n.generators:
        p.add_variable(f"gen[{g}]", lower=Fraction(0))
    for l in n.loads:
        p.add_variable(f"load[{l}]", lower=Fraction(0))
    unit = {g: (f"gen[{g}]", Fraction(1)) for g in n.generators}
    unit.update((l, (f"load[{l}]", Fraction(-1))) for l in n.loads)
    for comp in connected_components(n):
        names = sorted(comp)
        terminals = [v for v in names if v in unit]
        if not terminals:
            continue
        edges = [e for e in n.edges if e.a in comp]
        if {unit[v][1] for v in terminals} == {1, -1}:
            rest = names[1:]
            laplacian = [[Fraction(0)] * len(rest) for _ in rest]
            for e in edges:
                for u, w in ((e.a, e.b), (e.b, e.a)):
                    if u in rest:
                        i = rest.index(u)
                        laplacian[i][i] += e.s_min
                        if w in rest:
                            laplacian[i][rest.index(w)] -= e.s_min
            angles = {}
            for v in terminals:
                rhs = [-unit[v][1] if u == v else Fraction(0) for u in rest]
                th = gauss_solve(laplacian, rhs)
                if th is None:
                    return None
                angles[v] = dict(zip(rest, th), **{names[0]: Fraction(0)})
            for e in edges:
                flow = {unit[v][0]: e.s_min * (angles[v][e.b] - angles[v][e.a]) for v in terminals}
                flow = {name: c for name, c in flow.items() if c}
                if flow:
                    limit(flow, e.cap)
        limit({unit[v][0]: unit[v][1] for v in terminals}, Fraction(0))

    p.set_objective({f"gen[{g}]": Fraction(1) for g in n.generators})
    return p


def reference_potentials(names: list[str], edges: list[Edge], injections: list[dict[str, int]]) -> tuple[int, list[dict[str, int]]]:
    """`mpf._potentials` with its back substitution run one pattern at a time over whole row slices.

    The same sparse fraction-free elimination of [A | -D * p]; then, per
    pattern, every row from the last up solved for its y against the
    slice of the row right of its diagonal, zeros included.
    """
    index = {v: i for i, v in enumerate(names, -1)}
    m = len(names) - 1
    width = m + len(injections)
    sus = [e.s_min.as_integer_ratio() for e in edges]
    scale = math.lcm(*[den for _, den in sus])
    rows = [[0] * width for _ in range(m)]
    for e, (num, den) in zip(edges, sus):
        k = num if scale == 1 else num * (scale // den)
        a, b = index[e.a], index[e.b]
        rows[b][b] += k
        if a >= 0:
            rows[a][a] += k
            rows[a][b] -= k
            rows[b][a] -= k
    for c, injection in enumerate(injections, m):
        for v, p in injection.items():
            i = index[v]
            if i >= 0:
                rows[i][c] = -scale * p
    pivots = [1]
    seen = [0] * m
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
    columns = []
    for c in range(m, width):
        y = [0] * m
        for i in range(m - 1, -1, -1):
            row = rows[i]
            y[i] = (det * row[c] - sum(map(mul, row[i + 1 : m], y[i + 1 :]))) // row[i]
        columns.append(y)
    return det, [dict(zip(names, [0, *y])) for y in columns]


def reference_tree_part(names: list[str], edges: list[Edge], scale: int, flows: list[int]) -> Part:
    """A tree component's part under its max flow, each edge (a, b) carrying f / scale, by one walk from names[0].

    An edge's flow is s * (th_b - th_a), so th_b = th_a + f / (scale * s).
    Over scale * M, M the LCM of the susceptances' numerators, every step
    is the integer f * den(s) * (M / num(s)).
    """
    m = math.lcm(*(e.s_min.numerator for e in edges))
    steps: dict[str, list[tuple[str, int]]] = {v: [] for v in names}
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
    return edges, y, scale * m, {v: Rational(x, scale) for v, x in net.items() if x}


def reference_lp_part(names: list[str], edges: list[Edge], gens: list[str], loads: list[str], result: LpResult) -> Part:
    """A cyclic component's part at the terminal program's vertex: the sum over terminals of its variable times its shift factors.

    The shift factors y / det are the angles of a unit injection at each
    terminal (a load's is -1), from `reference_potentials`; the sum is
    taken in integers over det times the LCM of the variables' denominators.
    """
    det, angles = reference_potentials(names, edges, [{v: 1} for v in gens] + [{v: -1} for v in loads])
    a = result.assignment
    xs = [(a[f"gen[{v}]"], y_v) for v, y_v in zip(gens, angles)] + [(a[f"load[{v}]"], y_v) for v, y_v in zip(loads, angles[len(gens) :])]
    scale = math.lcm(*(x.denominator for x, _ in xs))
    total = dict.fromkeys(names, 0)
    for x, y_v in xs:
        if x:
            k = x.numerator * (scale // x.denominator)
            for u, y_u in y_v.items():
                total[u] += k * y_u
    injection = {v: a[f"gen[{v}]"] for v in gens}
    injection.update((v, -a[f"load[{v}]"]) for v in loads)
    return edges, total, det * scale, injection


# an optional sign, then ASCII digits with either "/q" or one decimal point
_REFERENCE_RATIONAL = re.compile(r"[+-]?(?:[0-9]+(?:/[0-9]+|\.[0-9]*)?|\.[0-9]+)")


def reference_rat(value: int | str | Fraction) -> Fraction:
    """Parse a rational from an int, a Fraction, or a string.

    Accepted strings, after surrounding whitespace is stripped: an
    optional sign, then ASCII digits with either "/q" ("7/3", "-3") or one
    decimal point ("6.1", which parses exactly to 61/10).  Anything else
    raises ValueError: a zero denominator ("1/0"), and also the exponents
    ("1e9999999" would take minutes to expand), underscores and
    non-ASCII digits that `Fraction` itself would accept.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (float, bool)):  # bool refused as float is, since the contract change that made `rat` refuse it
        raise TypeError(f"refusing {type(value).__name__} {value!r}: pass an int or a string")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if not _REFERENCE_RATIONAL.fullmatch(text):
            raise ValueError(f"not a rational: {value!r} (expected p/q, an integer or a decimal)")
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"cannot interpret {value!r} as a rational")


def reference_validate_solution(n: Network, sol: Solution) -> ValidationReport:
    """Check a claimed solution with exact arithmetic.

    Verifies, in order: map domains, conservation at every node, the
    power law and both bound families on every edge, and the role/sign
    constraints on generation and load.
    """
    out: list[Violation] = []
    nodes = set(n.node_names)
    edges = set(n.edges)

    for label, mapping, expect in (
        ("susceptance", sol.susceptance, edges),
        ("flow", sol.flow, edges),
        ("angle", sol.angle, nodes),
        ("gen", sol.gen, nodes),
        ("load", sol.load, nodes),
    ):
        got = set(mapping)
        for missing in sorted(expect - got, key=str):
            out.append(Violation("Structural", str(missing), f"{label} entry missing"))
        for extra in sorted(got - expect, key=str):
            out.append(Violation("Structural", str(extra), f"{label} entry for unknown {'edge' if expect is edges else 'node'}"))
    for e in n.edges:
        for endpoint in (e.a, e.b):
            if endpoint not in nodes:
                out.append(Violation("Structural", f"{e.a}--{e.b}", f"endpoint {endpoint} is not a declared node"))
    if out:
        return ValidationReport(tuple(out))

    net = dict.fromkeys(n.node_names, ZERO)  # outflow - inflow
    for e in n.edges:
        net[e.a] += sol.flow[e]
        net[e.b] -= sol.flow[e]
    for v, x in net.items():
        if x != sol.gen[v] - sol.load[v]:
            out.append(Violation("Kirchhoff", v, f"outflow - inflow = {rat_str(x)} but gen - load = {rat_str(sol.gen[v] - sol.load[v])}"))

    for e in n.edges:
        loc = f"{e.a}--{e.b}"
        s = sol.susceptance[e]
        expected = s * (sol.angle[e.b] - sol.angle[e.a])
        if sol.flow[e] != expected:
            out.append(Violation("PowerLaw", loc, f"flow {rat_str(sol.flow[e])} != susceptance * angle difference {rat_str(expected)}"))
        if not (e.s_min <= s <= e.s_max):
            out.append(Violation("SusceptanceBound", loc, f"susceptance {rat_str(s)} outside [{rat_str(e.s_min)}, {rat_str(e.s_max)}]"))
        if abs(sol.flow[e]) > e.cap:
            out.append(Violation("CapacityBound", loc, f"|flow| = {rat_str(abs(sol.flow[e]))} exceeds capacity {rat_str(e.cap)}"))

    for v in n.node_names:
        role = n.role(v)
        if sol.gen[v] < 0:
            out.append(Violation("RoleBound", v, "negative generation"))
        if sol.load[v] < 0:
            out.append(Violation("RoleBound", v, "negative load"))
        if role is not NodeRole.GENERATOR and sol.gen[v] != 0:
            out.append(Violation("RoleBound", v, "generation at a non-generator"))
        if role is not NodeRole.LOAD and sol.load[v] != 0:
            out.append(Violation("RoleBound", v, "load at a non-load"))

    return ValidationReport(tuple(out))


def reference_validate_network(nodes: list[tuple[str, NodeRole]], edges: list[Edge]) -> ValidationReport:
    """Report every structural defect of well-typed records, as the public check `Network` construction replaced did.

    The records are first sorted as that check met them in a built
    network: nodes by name and then role name, edges in `Edge` order.
    The defects are an empty name, a node declared more than once, a
    self-loop, a second edge on a node pair (found through a set of the
    pairs seen), an undeclared endpoint, a susceptance interval not
    within the positive reals and a capacity that is not positive.
    """
    out: list[Violation] = []
    names = set()
    for name, _ in sorted(nodes, key=lambda node: (node[0], node[1].value)):
        if not name:
            out.append(Violation("Structural", repr(name), "empty node name"))
        if name in names:
            out.append(Violation("Structural", name, "node declared more than once"))
        names.add(name)
    seen_pairs: set[tuple[str, str]] = set()
    for e in sorted(edges):
        a, b, s_min, s_max, cap = e.a, e.b, e.s_min, e.s_max, e.cap
        repeated = (a, b) in seen_pairs
        seen_pairs.add((a, b))
        loc = f"{a}--{b}"
        if a == b:
            out.append(Violation("Structural", loc, "self-loop"))
        if repeated:
            out.append(Violation("Structural", loc, "second edge on the same node pair"))
        for endpoint in (a, b):
            if endpoint not in names:
                out.append(Violation("Structural", loc, f"endpoint {endpoint} is not a declared node"))
        if not (0 < s_min <= s_max):
            out.append(Violation("Structural", loc, f"susceptance interval [{rat_str(s_min)}, {rat_str(s_max)}] is not within the positive reals"))
        if not cap > 0:
            out.append(Violation("Structural", loc, f"capacity {rat_str(cap)} is not positive"))
    return ValidationReport(tuple(out))


def _reference_port_outflows(enc, sol: Solution, port: str, prefix: str) -> dict[Edge, Rational]:
    """Signed flow out of `port` on its glue edges (gadget edges excluded)."""
    out = {}
    for e in [e for e in enc.network.edges if port in e.pair]:
        other = e.b if e.a == port else e.a
        if other.startswith(prefix):
            continue
        if e not in sol.flow:  # switched away
            continue
        out[e] = sol.flow[e] if e.a == port else -sol.flow[e]
    return out


def reference_decode_exact_cover(outcome, inst) -> tuple[tuple[str, str, str], ...]:
    """The exact cover an optimal outcome shows, read against the instance encoded again."""
    _check_exact_cover(inst)
    kind = KIND_EXACT_COVER_MFF if isinstance(outcome, MffOutcome) else KIND_EXACT_COVER_MSF
    enc = encode_exact_cover_mff(inst) if kind == KIND_EXACT_COVER_MFF else encode_exact_cover_msf(inst)
    if outcome.value != enc.predicted_value:
        raise NotOptimal(f"outcome value {outcome.value} is below the predicted {enc.predicted_value}")
    cover = []
    for i, X in enumerate(inst.sets, start=1):
        flows = _reference_port_outflows(enc, outcome.solution, f"v{i}", f"X{i}.")
        if all(f == 1 for f in flows.values()) and len(flows) == 3:
            cover.append(X)
    counts = {x: 0 for x in inst.universe}
    for X in cover:
        for x in X:
            counts[x] += 1
    if any(c != 1 for c in counts.values()):
        raise DecodingFailed(f"active sets do not cover every element exactly once: {counts}")
    return tuple(cover)


def reference_decode_subset_sum(outcome, inst, kind: str) -> set[int]:
    """The subset an optimal outcome shows, read against the instance encoded again."""
    _check_subset_sum(inst)
    if kind == KIND_TREE:
        if not isinstance(outcome, MsfOutcome):
            raise DecodingFailed("the tree encoding is a switching instance: decode it from an MSF outcome")
        enc = encode_subset_sum_tree(inst)
        if outcome.value != enc.predicted_value:
            raise NotOptimal(f"outcome value {outcome.value} is below the predicted {enc.predicted_value}")
        switched_pairs = {e.pair for e in outcome.switched}
        chosen = {
            inst.values[i - 2]
            for i in range(2, len(inst.values) + 2)
            if tuple(sorted(("p", f"a{i}"))) not in switched_pairs
        }
    elif kind in (KIND_CACTUS_MSF, KIND_CACTUS_MFF):
        enc = encode_subset_sum_cactus_msf(inst) if kind == KIND_CACTUS_MSF else encode_subset_sum_cactus_mff(inst)
        if outcome.value != enc.predicted_value:
            raise NotOptimal(f"outcome value {outcome.value} is below the predicted {enc.predicted_value}")
        chosen = set()
        for i, x in enumerate(inst.values, start=1):
            outflows = _reference_port_outflows(enc, outcome.solution, f"v{i}", f"X{i}.")
            if sum(outflows.values(), ZERO) == x:
                chosen.add(x)
    else:
        raise InvalidInstance(f"unknown subset-sum encoding kind {kind!r}")
    if sum(chosen) != inst.target:
        raise DecodingFailed(f"extracted subset {sorted(chosen)} does not sum to {inst.target}")
    return chosen


def reference_edge_map_in(records: list, where: str, by_pair: ByPair, seen: Seen) -> dict[Edge, Rational]:
    """The map the records give; a record that names an edge an earlier one named raises a ValueError."""
    out = {}
    for i, rec in enumerate(records):
        e = _edge_of(rec, by_pair)
        r = None if e is None else _rat_in(rec.get("value"), seen)
        if r is not None:
            size = len(out)
            out[e] = r
            if len(out) > size:
                continue
        at = f"{where}[{i}]"
        e = _edge_in(rec, at, by_pair)
        if e in out:
            raise ValueError(f"{at}: edge {e.a}--{e.b} listed twice")
        out[e] = _rat_field(rec, "value", at, seen)
    return out


def reference_switch_set_in(records: list, by_pair: ByPair) -> SwitchSet:
    """The set the records give; a record that names an edge an earlier one named raises a ValueError."""
    switched = set()
    for i, rec in enumerate(records):
        e = _edge_of(rec, by_pair)
        if e is not None:
            size = len(switched)
            switched.add(e)
            if len(switched) > size:
                continue
        at = f"outcome.switched[{i}]"
        e = _edge_in(rec, at, by_pair)
        if e in switched:
            raise ValueError(f"{at}: edge {e.a}--{e.b} listed twice")
        switched.add(e)
    return frozenset(switched)


def reference_zero_solution(n: Network) -> Solution:
    """The all-zero state, each map written out, as `zero_solution` built it before it went through the assembler."""
    return Solution(
        susceptance={e: e.s_min for e in n.edges},
        angle={v: ZERO for v in n.node_names},
        flow={e: ZERO for e in n.edges},
        gen={v: ZERO for v in n.node_names},
        load={v: ZERO for v in n.node_names},
    )


def reference_witness_tree(inst: SubsetSumInstance, chosen: set[int]) -> tuple[SwitchSet, Solution]:
    """The tree encoding's witness with its susceptance, flow, gen and load maps written out, as `witness_tree` built it."""
    _check_subset_sum(inst)
    if sum(chosen) != inst.target or not chosen <= set(inst.values):
        raise NotACertificate(f"{sorted(chosen)} does not certify target {inst.target}")
    enc = encode_subset_sum_tree(inst)
    net = enc.network
    n = len(inst.values) + 1
    m = sum(inst.values) - 1
    w = inst.target

    by_pair = {e.pair: e for e in net.edges}
    switched = frozenset(
        by_pair[tuple(sorted(("p", f"a{i}")))]
        for i in range(2, n + 1)
        if inst.values[i - 2] not in chosen
    )
    sub = subnetwork(net, switched)

    angle: dict[str, Rational] = {
        "g": ZERO,
        "g1": Fraction(1, 2),
        f"g{n + 1}": Fraction(n + 1, 2),
        "p": ONE,
        "l1": Fraction(2),
        f"l{n + 1}": Fraction(n + 2 + m),
    }
    for i in range(1, n + 2):
        angle[f"a{i}"] = Fraction(i)
    for i in range(2, n + 1):
        a_i = inst.values[i - 2]
        angle[f"l{i}"] = Fraction(i + a_i) if a_i in chosen else Fraction(i)

    flow = {e: e.s_min * (angle[e.b] - angle[e.a]) for e in sub.edges}
    gen = {v: ZERO for v in sub.node_names}
    gen["g"] = Fraction(m + 2 + w)
    load = {v: ZERO for v in sub.node_names}
    load["l1"] = ONE
    load[f"l{n + 1}"] = Fraction(m + 1)
    for i in range(2, n + 1):
        a_i = inst.values[i - 2]
        load[f"l{i}"] = Fraction(a_i) if a_i in chosen else ZERO

    sol = Solution(
        susceptance={e: e.s_min for e in sub.edges},
        angle=angle,
        flow=flow,
        gen=gen,
        load=load,
    )
    return switched, sol

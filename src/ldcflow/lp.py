"""Exact rational linear programming (maximization).

The solver is a two-phase simplex with Bland's anti-cycling rule on a
condensed tableau, run entirely over exact rationals: the optimum it
reports is the true optimum, and the returned assignment is an optimal
point of the feasible region.  For a program in standard form (below;
every program `solve_mpf` sends) that point is a vertex.  On the general
route it is a vertex unless a free variable is left after the presolve's
eliminations: such a variable is split into two nonnegative columns, and
when both end nonbasic the point need not be a vertex (maximize y
subject to y <= 1 and x - y <= 0, x free, y >= 0, returns x = 0, y = 1;
the optimal vertex is x = y = 1).  Determinism is part of the contract
-- variable order, pivot selection and presolve order are all fixed --
so repeated solves of the same program return identical results.

Everything between reading the program and building the returned
assignment runs on integer rows (Edmonds 1967; Bareiss 1968): each
constraint, the objective and every tableau row is a list of Python ints
[c_0, ..., c_{n-1}, rhs, den] standing for the rationals c_j/den and
rhs/den, with den > 0 and the whole list divided by its gcd.  A tableau
row holds only the nonbasic columns (Tucker's condensed form; Chvatal
1983, ch. 2); two label lists, `basis` and `nonbasic`, name the
variables of the rows and of the columns.

A `LinearProgram` holds its constraints as such rows over its declared
variables: `add_constraint` writes one, and `mpf.formulate_mpf` writes
every MPF program's rows itself, over generations and loads only.
`solve_lp` and `write_lp_text` check every program the same way first
(`_read_program`): variable names, objective, bound entries, bounds, and
each row's width, denominator (a positive int) and relation.  A program
in standard form -- only <= rows with nonnegative right-hand sides,
every variable in [0, inf) -- then goes straight to its slack-basis
tableau (`_slack_tableau`), its own rows with each range pair folded
(below), as every MPF program does: the presolve would build that same
tableau, unfolded, and skip phase 1, so the pivots and the vertex are
the same.
Every other program goes through the presolve (`_presolve`), and both
routes end in the same phase 2 and value and assignment code (`_optimum`).
The presolve first eliminates free variables through equality rows (a
fraction-free Gaussian step: the first equality row holding a free
variable, and in it the first such variable in declaration order).  Then
every variable left gets one substitution x = shift + the sum of
sign * y over its nonnegative columns y: a fixed variable is its value,
with no column; a lower-bounded or boxed one is lo + y; an upper-only
one is hi - y; a free one is y' - y''.  A boxed variable's upper bound
becomes a row.  One pass over the rows substitutes each (`_substitute`:
the shifts fold into the rhs over the LCM of their denominators), drops
or refutes the rows left without a coefficient, and flips negative
right-hand sides.  Every substitution but the split of a free variable
is an affine bijection of the feasible region, so vertices map to
vertices: `_optimum` reads every variable left back by its substitution,
then the eliminated ones from their stored pivot rows.

A pivot swaps two labels: the pivot row is solved for the entering
variable, whose column the leaving one takes at the row's old
denominator, and every other row with a non-zero there has the entering
variable substituted out by cross-multiplication, touching only the
pivot row's non-zero columns.  Bland's rule enters the smallest label
with a positive reduced cost and breaks ratio-test ties by the smallest
basic label; every test compares integers.  A basic column of a
full-width tableau holds its row's denominator in its own row and 0 in
every other, so the condensed rows hold the same integers, and the
rationals are those a `Fraction` presolve and tableau would hold: every
choice is the same.

A standard-form row followed by its exact negation -- the same
denominator, every coefficient negated -- is one range row (Koberstein
2005 treats bounded variables so).  Every MPF edge pair and balance pair
is one; a balance pair has width 0.  Its two slacks add up to the pair's
width w, the sum of the right-hand sides over their denominator, so the
tableau keeps one row for both, under one of the two labels; the other
slack's row is its complement: negated coefficients, rhs w - rhs.  At
most one slack of a pair is ever nonbasic, since s+ + s- = w among
nonbasic columns would make the basis singular; so a pair is either one
kept row standing for two basic slacks, or one column whose partner is
basic in the implied row partner = w - column.  An elimination is
linear, so a kept row and its partner's stay complements through every
pivot; and when a range column enters at another row, that row becomes
the pair's kept row under the column's label.  `_simplex` sees every
row the full-width tableau would hold, compared by integer
cross-multiplication:
- a kept row whose entry is positive leaves at 0 under its own label;
- one whose entry is negative leaves at w under its partner's label: its
  partner's row has the positive entry and rhs w - rhs, so the row is
  complemented and then pivoted;
- an entering range column meets its partner's implied row at ratio w:
  when that is the least, the column flips to its partner (each row's
  column is complemented, its rhs lowered by entry * w) with no
  elimination, as the full-width pivot on that row would leave it.
So the candidates, their ratios and their labels are the full-width
Bland simplex's, and every pivot and the vertex are the same; only the
second row of each pair is never held or eliminated.

The presolve substitutes the objective row as every row, so the shifts
fold into its rhs, and pivots carry it: at the optimum it is minus the
value (the dictionary's constant; Chvatal 1983, ch. 2).  The vertex, in
declaration order, is `LpResult.assignment`, a `Lazy` field built on its
first read, so a caller that compares values never pays for it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import MISSING, dataclass, field, fields
from fractions import Fraction
from operator import add
from typing import Any, Callable

from .errors import MalformedProgram
from .rational import ONE, ZERO, Rational, decimal_str, is_decimal_exact, rat, rat_str

VarId = str

LE, EQ, GE = "<=", "=", ">="


@dataclass
class Constraint:
    coeffs: dict[VarId, Rational]
    rel: str
    rhs: Rational


@dataclass
class LinearProgram:
    """Maximize `objective` subject to linear constraints and variable bounds.

    Bounds of None mean unbounded on that side; variables are free by
    default and must be given explicit bounds where intended.

    The constraints are held as reduced integer rows
    [c_0, ..., c_{n-1}, rhs, den] over `variables` (den > 0, the gcd of
    the whole list 1), `rels[i]` being the relation of `rows[i]`; that is
    the form `solve_lp` reads.  `constraints` is a view of them as a
    `Constraint` list, built on each read, that leaves out zero
    coefficients and lists the others in declaration order; it checks the
    rows first (`_check_rows`).
    """

    variables: list[VarId] = field(default_factory=list)
    lower: dict[VarId, Rational | None] = field(default_factory=dict)
    upper: dict[VarId, Rational | None] = field(default_factory=dict)
    rows: list[list[int]] = field(default_factory=list)
    rels: list[str] = field(default_factory=list)
    objective: dict[VarId, Rational] = field(default_factory=dict)

    @property
    def constraints(self) -> list[Constraint]:
        names = self.variables
        _check_rows(self.rows, self.rels, len(names))
        return [
            Constraint({v: Fraction(c, row[-1]) for v, c in zip(names, row) if c}, rel, Fraction(row[-2], row[-1]))
            for row, rel in zip(self.rows, self.rels)
        ]

    def add_variable(self, name: VarId, lower: Rational | None = None, upper: Rational | None = None) -> VarId:
        if name in self.lower:
            raise MalformedProgram(f"variable {name} declared twice")
        self.variables.append(name)
        self.lower[name] = lower
        self.upper[name] = upper
        for row in self.rows:
            row.insert(-2, 0)
        return name

    def add_constraint(self, coeffs: dict[VarId, Rational], rel: str, rhs: Rational) -> None:
        if rel not in (LE, EQ, GE):
            raise MalformedProgram(f"unknown relation {rel!r}")
        index = {v: j for j, v in enumerate(self.variables)}
        for v in coeffs:
            if v not in index:
                raise MalformedProgram(f"constraint references undeclared variable {v}")
        self.rows.append(_int_row({index[v]: rat(c) for v, c in coeffs.items()}, rat(rhs), len(self.variables)))
        self.rels.append(rel)

    def set_objective(self, coeffs: dict[VarId, Rational]) -> None:
        self.objective = dict(coeffs)


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class Lazy:
    """A frozen dataclass field, `name: T = Lazy()` (or `Lazy(default=d)`), whose value may be built on first read.

    A value `Lazy(build)`, kept under `_name` so that no record needs a
    `__dict__`, becomes `build()` on the field's first read.  Equality,
    hashing, repr and pickling (by `__reduce__ = Lazy.reduce`: a builder
    may hold lambdas) read every field, as in the record built eagerly.
    """

    def __init__(self, build: Callable[[], Any] | None = None, *, default: Any = MISSING):
        self.build, self.default = build, default

    def __set_name__(self, owner: type, name: str) -> None:
        self.name, self.key = name, "_" + name

    def __get__(self, record, owner=None):
        if record is None:  # dataclasses reads the default here; AttributeError means none
            if self.default is MISSING:
                raise AttributeError(self.name)
            return self.default
        value = getattr(record, self.key)
        if type(value) is Lazy:
            object.__setattr__(record, self.key, value := value.build())
        return value

    def __set__(self, record, value) -> None:
        object.__setattr__(record, self.key, value)

    @staticmethod
    def reduce(record) -> tuple:
        return type(record), tuple(getattr(record, f.name) for f in fields(record))


@dataclass(frozen=True)
class LpResult:
    """Status, optimal value and an optimal assignment of one solve; from `solve_lp` the assignment is built on first read.

    The assignment is a vertex for a program in standard form; the module
    docstring says when the general route's may not be.
    """

    status: LpStatus
    value: Rational | None = None
    assignment: dict[VarId, Rational] | None = Lazy(default=None)

    __reduce__ = Lazy.reduce


# ---------------------------------------------------------------------------
# Integer rows: [c_0, ..., c_{n-1}, rhs, den] meaning c_j/den, rhs/den.
# ---------------------------------------------------------------------------


def _int_row(cols: dict[int, Rational], rhs: Rational, width: int) -> list[int]:
    """Integer row of a sparse rational row, scaled by the LCM of its denominators.

    No further reduction is needed: for every prime of the LCM some entry
    keeps its whole power in the denominator, so its scaled numerator is
    coprime to that prime.
    """
    den = math.lcm(rhs.denominator, *(c.denominator for c in cols.values()))
    row = [0] * (width + 2)
    for j, c in cols.items():
        row[j] = c.numerator * (den // c.denominator)
    row[-2] = rhs.numerator * (den // rhs.denominator)
    row[-1] = den
    return row


def _reduced(row: list[int]) -> list[int]:
    g = math.gcd(*row)
    return row if g == 1 else [x // g for x in row]


def _support(row: list[int]) -> list[int]:
    """Non-zero positions among the columns and the rhs (the denominator excluded)."""
    return [k for k in range(len(row) - 1) if row[k]]


def _substitute(row: list[int], shift: dict[int, Rational], var_cols: dict[int, list[tuple[int, int]]], ncols: int) -> list[int]:
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
    return _reduced(out + [rhs, row[-1] * m])


def _pivot_row(row: list[int], j: int, entry: int) -> list[int]:
    """The row solved for its variable at j: the same integers over row[j], made positive, with `entry` at j."""
    p = row[j]
    out = row[:-1] + [p]
    out[j] = entry
    return _reduced(out if p > 0 else [-x for x in out])


def _eliminate(row: list[int], prow: list[int], support: list[int], j: int) -> list[int]:
    """The row with its variable at j substituted out by `prow`, a row solved for that variable.

    Over den(row) * den(prow) this is den(prow) * row - row_j * prow, both
    factors first divided by their gcd, with column j starting from 0 (so
    it takes -row_j * prow_j); only the pivot row's support moves.
    """
    g = math.gcd(prow[-1], row[j])
    p, f = prow[-1] // g, row[j] // g
    out = [p * x for x in row] if p != 1 else row[:]
    out[j] = 0
    for k in support:
        out[k] -= f * prow[k]
    return _reduced(out)


def _pivot(T: list[list[int]], objs: list[list[int]], basis: list[int], nonbasic: list[int], r: int, s: int) -> None:
    """Swap the labels basis[r] and nonbasic[s]: solve row r for the entering variable, substitute it out of the rest."""
    row = T[r]
    T[r] = prow = _pivot_row(row, s, row[-1])
    support = _support(prow)
    for i, row in enumerate(T):
        if i != r and row[s]:
            T[i] = _eliminate(row, prow, support, s)
    for Z in objs:
        if Z[s]:
            Z[:] = _eliminate(Z, prow, support, s)
    basis[r], nonbasic[s] = nonbasic[s], basis[r]


def _complement_row(row: list[int], wn: int, wd: int) -> list[int]:
    """The row of a range pair's other slack, w - (this one), w = wn/wd: negated coefficients, rhs w - rhs."""
    den = row[-1]
    return _reduced([-x * wd for x in row[:-2]] + [wn * den - row[-2] * wd, den * wd])


def _complement_column(row: list[int], s: int, wn: int, wd: int) -> list[int]:
    """The row with its column at s, a range slack y, taken over by the partner w - y, w = wn/wd: that entry negated, the rhs lowered by entry * w."""
    out = [x * wd for x in row] if wd != 1 else row[:]
    out[s] = -out[s]
    out[-2] -= row[s] * wn
    return _reduced(out)


def _simplex(T: list[list[int]], objs: list[list[int]], basis: list[int], nonbasic: list[int], ranges: Ranges) -> str:
    """Bland-rule simplex on a feasible tableau, priced by objs[0]; every row of `objs` is pivoted in place.  Returns a status.

    `ranges` names the labels of the range pairs (see `_slack_tableau`):
    a row basic on one of them stands for its partner's row too, and a
    column that is one of them meets its partner's bound, so each takes
    part in the ratio test as the full-width tableau's rows would.
    """
    Z = objs[0]
    while True:
        enter = min((s for s in range(len(nonbasic)) if Z[s] > 0), key=nonbasic.__getitem__, default=-1)
        if enter < 0:
            return "optimal"
        # the least ratio num/den (den > 0), its label, its row (-1 for the column's
        # own bound) and whether that row leaves under its partner's label
        leave, num, den, name, under = -1, 0, 1, -1, False
        if bound := ranges.get(nonbasic[enter]):
            name, num, den = bound
        for i, row in enumerate(T):
            t = row[enter]
            if t > 0:
                a, b, label, partner = row[-2], t, basis[i], False
            elif t and (pair := ranges.get(basis[i])):
                label, wn, wd = pair  # the partner's row: coefficients negated, rhs w - rhs
                a, b, partner = wn * row[-1] - row[-2] * wd, -t * wd, True
            else:
                continue
            # a / b against the least ratio so far, cross-multiplied (both b > 0)
            if name < 0 or (c := a * den - num * b) < 0 or (c == 0 and label < name):
                leave, num, den, name, under = i, a, b, label, partner
        if name < 0:
            return "unbounded"
        if leave < 0:  # a bound flip: the column's partner takes its place
            _, wn, wd = bound
            for i, row in enumerate(T):
                if row[enter]:
                    T[i] = _complement_column(row, enter, wn, wd)
            for z in objs:
                if z[enter]:
                    z[:] = _complement_column(z, enter, wn, wd)
            nonbasic[enter] = name
            continue
        if under:
            _, wn, wd = ranges[name]
            T[leave] = _complement_row(T[leave], wn, wd)
            basis[leave] = name
        _pivot(T, objs, basis, nonbasic, leave, enter)


_FLIP = {LE: GE, GE: LE, EQ: EQ}

# A feasible tableau and phase 2's objective row, with what `_optimum` needs to
# read the vertex back: (T, Z, basis, nonbasic, var_cols, shift, eliminated).
# Every variable that is not eliminated is x_j = shift_j + the sum of sign * y
# over its (label, sign) pairs var_cols[j]: none for a fixed variable, two for
# a free one.  shift holds the nonzero shifts; eliminated lists (variable, row
# solved for it) in elimination order.
Tableau = tuple[
    list[list[int]], list[int], list[int], list[int], dict[int, list[tuple[int, int]]], dict[int, Rational], list[tuple[int, list[int]]]
]
# Each label of a range pair: (its partner's label, the pair's width as numerator and denominator).
Ranges = dict[int, tuple[int, int, int]]


def _slack_tableau(rows: list[list[int]], obj: list[int], nvars: int) -> tuple[Tableau, Ranges]:
    """The starting tableau of a standard-form program, and its range pairs: every row <= with rhs >= 0, every variable in [0, inf).

    The program's rows are its rows as they stand: the variables (labels 0
    to nvars - 1) are nonbasic and row i's slack (label nvars + i) basic,
    so phase 1 has nothing to do.  The presolve builds this tableau for
    such a program, except that it drops a row without a coefficient, whose
    slack stays basic here and no pivot touches, so every pivot is the same.

    A row followed by its exact negation (the same denominator, negated
    coefficients) becomes one range row, kept under its own slack's label:
    the two slacks add up to w, the sum of the rows' right-hand sides over
    their denominator.  `ranges` maps each of the two labels to (the other
    label, w's numerator, w's denominator).
    """
    T: list[list[int]] = []
    basis: list[int] = []
    ranges: Ranges = {}
    last = None  # the row before, when it is not yet in a pair
    for label, row in enumerate(rows, nvars):
        if last is not None and row[-1] == last[-1] and not any(map(add, row[:-2], last[:-2])):
            w = row[-2] + last[-2]
            g = math.gcd(w, row[-1])
            ranges[label - 1] = (label, w // g, row[-1] // g)
            ranges[label] = (label - 1, w // g, row[-1] // g)
            last = None
        else:
            T.append(row)
            basis.append(label)
            last = row
    return (T, obj, basis, list(range(nvars)), {j: [(j, 1)] for j in range(nvars)}, {}, []), ranges


def _presolve(rows: list[list[int]], rels: list[str], lower: list[Rational | None], upper: list[Rational | None], obj: list[int]) -> Tableau | None:
    """Eliminate, substitute and run phase 1 on a general program; None if it is infeasible.

    `rows` are copies of the program's rows, which are updated in place,
    and `obj` is the objective's integer row.  Phase 1 runs over the
    structural and surplus columns, with each row's slack or artificial
    basic, and carries phase 2's objective row along.
    """
    nvars = len(lower)
    rels = list(rels)

    # Gaussian elimination of free variables through equality rows: the first
    # equality row holding a free variable, and in it the first such variable.
    free = [j for j in range(nvars) if lower[j] is None and upper[j] is None]
    eliminated: list[tuple[int, list[int]]] = []
    while True:
        found = next(
            ((i, j) for i, row in enumerate(rows) if rels[i] == EQ for j in free if row[j]),
            None,
        )
        if found is None:
            break
        i, j = found
        prow = _pivot_row(rows.pop(i), j, 0)  # x_j = (rhs - the rest) / den
        del rels[i]
        support = _support(prow)
        for k, row in enumerate(rows):
            if row[j]:
                rows[k] = _eliminate(row, prow, support, j)
        if obj[j]:
            obj = _eliminate(obj, prow, support, j)
        eliminated.append((j, prow))

    # One substitution for every variable left, x = shift + the sum of sign * y
    # over nonnegative columns y; a boxed variable's upper bound becomes a row.
    gone = {j for j, _ in eliminated}
    var_cols: dict[int, list[tuple[int, int]]] = {}
    shift: dict[int, Rational] = {}
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
                rows.append(_int_row({j: ONE}, hi, nvars))
                rels.append(LE)
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
            if not (rhs == 0 if rel == EQ else rhs >= 0 if rel == LE else rhs <= 0):
                return None
        elif rhs < 0:
            std.append(([-x for x in row[:-1]] + [row[-1]], _FLIP[rel]))
        else:
            std.append((row, rel))

    # Labels: structural columns, then slack/surplus columns in row order, then
    # artificials.  The rows' columns are the structural and surplus labels.
    surplus = [0] * sum(1 for _, rel in std if rel == GE)
    width = ncols + len(surplus)
    first_art = ncols + sum(1 for _, rel in std if rel != EQ)
    nonbasic = list(range(ncols))
    T: list[list[int]] = []
    basis: list[int] = []
    slack_at, art_at = ncols, first_art
    z1_rows: list[list[int]] = []
    for row, rel in std:
        t = row[:ncols] + surplus + row[ncols:]
        if rel == LE:
            basis.append(slack_at)
        else:
            if rel == GE:
                t[len(nonbasic)] = -t[-1]
                nonbasic.append(slack_at)
            z1_rows.append(t)
            basis.append(art_at)
            art_at += 1
        slack_at += rel != EQ
        T.append(t)

    Z2 = _substitute(obj, shift, var_cols, width)
    if z1_rows:
        # Phase-1 objective: minus the artificials, over the nonbasic columns the sum of their rows.
        m = math.lcm(*(t[-1] for t in z1_rows))
        Z1 = _reduced([sum(m // t[-1] * t[k] for t in z1_rows) for k in range(width + 1)] + [m])
        status = _simplex(T, [Z1, Z2], basis, nonbasic, {})
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
            _pivot(T, [Z2], basis, nonbasic, i, s)
            keep.append(i)
        cols = [s for s, b in enumerate(nonbasic) if b < first_art]
        T = [_reduced([T[i][s] for s in cols] + T[i][-2:]) for i in keep]
        Z2 = _reduced([Z2[s] for s in cols] + Z2[-2:])
        basis = [basis[i] for i in keep]
        nonbasic = [nonbasic[s] for s in cols]
    return T, Z2, basis, nonbasic, var_cols, shift, eliminated


def _optimum(tableau: Tableau, ranges: Ranges, names: list[VarId]) -> LpResult:
    """Phase 2 from a feasible tableau; the value is minus the objective row's rhs, and the assignment is built on first read."""
    T, Z, basis, nonbasic, var_cols, shift, eliminated = tableau
    if _simplex(T, [Z], basis, nonbasic, ranges) == "unbounded":
        return LpResult(LpStatus.UNBOUNDED)

    def vertex() -> dict[VarId, Fraction]:
        """Every variable left by its substitution over the basic label values, then the eliminated ones; in declaration order."""
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
        return {v: value_of[j] for j, v in enumerate(names)}

    return LpResult(LpStatus.OPTIMAL, Fraction(-Z[-2], Z[-1]), Lazy(vertex))


def _check_rows(rows: list[list[int]], rels: list[str], nvars: int) -> None:
    """Raise `MalformedProgram` unless each row has a relation and is nvars + 2 ints wide over a positive denominator."""
    if len(rels) != len(rows):
        raise MalformedProgram(f"{len(rows)} constraint rows but {len(rels)} relations")
    for row, rel in zip(rows, rels):
        if len(row) != nvars + 2:
            raise MalformedProgram(f"a constraint row has {len(row) - 2} columns for {nvars} variables")
        if type(row[-1]) is not int or row[-1] <= 0:
            raise MalformedProgram(f"a constraint row has denominator {row[-1]!r}, not a positive int")
        if rel not in (LE, EQ, GE):
            raise MalformedProgram(f"unknown relation {rel!r}")


def _read_program(p: LinearProgram) -> tuple[list[tuple[int, Rational]], list[Rational | None], list[Rational | None], bool]:
    """p's objective as (column, coefficient) pairs, its lower and upper bounds, and whether it is in standard form.

    Standard form is <= rows with nonnegative right-hand sides over
    variables in [0, inf).  A program `solve_lp` cannot read raises
    `MalformedProgram`.
    """
    names = p.variables
    nvars = len(names)
    index = {v: j for j, v in enumerate(names)}
    if len(index) != nvars:
        raise MalformedProgram("duplicate variable names")
    objective = []
    for v, c in p.objective.items():
        if v not in index:
            raise MalformedProgram(f"objective references undeclared variable {v}")
        objective.append((index[v], rat(c)))

    lower: list[Rational | None] = []
    upper: list[Rational | None] = []
    for v in names:
        try:
            lo, hi = p.lower[v], p.upper[v]
        except KeyError:
            raise MalformedProgram(f"variable {v} has no {'lower' if v not in p.lower else 'upper'} bound entry") from None
        lo = None if lo is None else rat(lo)
        hi = None if hi is None else rat(hi)
        if lo is not None and hi is not None and hi < lo:
            raise MalformedProgram(f"inverted bounds on {v}: [{lo}, {hi}]")
        lower.append(lo)
        upper.append(hi)

    rows = p.rows
    _check_rows(rows, p.rels, nvars)
    standard = p.rels.count(LE) == len(rows) and all(row[-2] >= 0 for row in rows) and all(lo == 0 and hi is None for lo, hi in zip(lower, upper))
    return objective, lower, upper, standard


def solve_lp(p: LinearProgram) -> LpResult:
    """Exact optimum of a maximization program; see the module docstring."""
    objective, lower, upper, standard = _read_program(p)
    names = p.variables
    obj = _int_row(dict(objective), ZERO, len(names))
    if standard:
        return _optimum(*_slack_tableau(p.rows, obj, len(names)), names)
    tableau = _presolve([row[:] for row in p.rows], p.rels, lower, upper, obj)
    if tableau is None:
        return LpResult(LpStatus.INFEASIBLE)
    return _optimum(tableau, {}, names)


# ---------------------------------------------------------------------------
# Textual export ("CPLEX LP" style): Maximize / Subject To / Bounds / End.
# ---------------------------------------------------------------------------


def _decimal(r: Rational, note: str, notes: list[str]) -> str:
    """r as a decimal, truncated to 12 places when it has no finite one; then a comment `exact {note}: p/q` goes to notes."""
    if not is_decimal_exact(r):
        notes.append(f"\\ exact {note}: {rat_str(r)}")
    return decimal_str(r)


def _expr_str(coeffs: dict[VarId, Rational], order: list[VarId], where: str, notes: list[str]) -> str:
    parts: list[str] = []
    for v in order:
        c = coeffs.get(v)
        if not c:
            continue
        mag = _decimal(c, f"{where} {v}", notes).lstrip("-")
        sign = "-" if c < 0 else "+"
        term = v if mag == "1" else f"{mag} {v}"
        parts.append(f"{sign} {term}")
    if not parts:
        return "0 " + (order[0] if order else "x")
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else text


def write_lp_text(p: LinearProgram, *, binaries: list[VarId] | None = None, comments: list[str] | None = None) -> str:
    """Render a program in the conventional LP text format.

    Rationals print as decimals when exact; otherwise a truncated decimal
    is emitted and the exact p/q value is preserved in a comment line.
    Numbers are read as `solve_lp` reads them, and a program `solve_lp`
    would refuse raises `MalformedProgram`.
    """
    objective, lower, upper, _ = _read_program(p)
    names = p.variables
    binaries = binaries or []
    out: list[str] = [f"\\ {line}" for line in (comments or [])]
    notes: list[str] = []
    expr = _expr_str({names[j]: c for j, c in objective}, names, "obj coefficient", notes)
    out += ["Maximize", f" obj: {expr}", *notes, "Subject To"]
    for i, con in enumerate(p.constraints):
        notes = []
        expr = _expr_str(con.coeffs, names, f"coefficient in c{i}:", notes)
        rhs = _decimal(con.rhs, f"rhs of c{i}", notes)
        out += [f" c{i}: {expr} {con.rel} {rhs}", *notes]
    out.append("Bounds")
    binary_set = set(binaries)
    for j, v in enumerate(names):
        if v in binary_set:
            continue
        lo, hi, notes = lower[j], upper[j], []
        if lo is None and hi is None:
            out.append(f" {v} free")
        elif lo == hi:
            out.append(f" {v} = {_decimal(lo, f'value of {v}', notes)}")
        else:
            lo_s = "-inf" if lo is None else _decimal(lo, f"lower bound of {v}", notes)
            hi_s = "+inf" if hi is None else _decimal(hi, f"upper bound of {v}", notes)
            out.append(f" {lo_s} <= {v} <= {hi_s}")
        out += notes
    if binaries:
        out.append("Binary")
        out.append(" " + " ".join(binaries))
    out.append("End")
    return "\n".join(out) + "\n"

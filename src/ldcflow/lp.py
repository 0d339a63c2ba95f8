"""Exact rational linear programming (maximization) over programs in standard form.

`solve_lp` takes a program in standard form -- only <= rows with
nonnegative right-hand sides, every variable in [0, inf); every program
`solve_mpf` sends is one -- and refuses any other with
`MalformedProgram`, naming the first variable bound or the first row (by
index) that is out of form.  Its slack basis is feasible, so the solver
is the simplex with Bland's anti-cycling rule from that basis, on a
condensed tableau, run entirely over exact rationals: the optimum it
reports is the true optimum, and the returned assignment is an optimal
vertex.  Determinism is part of the contract -- variable order and pivot
selection are fixed -- so repeated solves of the same program return
identical results.

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
every MPF program's rows itself, over generations and loads only.  A row
may be a range row (relation `RANGE`): |c.x| <= rhs/den, held once, and
read everywhere outside the simplex as the two rows c.x <= rhs/den and
-c.x <= rhs/den, in that order.  A program may also hold free, boxed and
fixed variables and = and >= rows, which `write_lp_text` renders (the
switching MILP export needs them) and `solve_lp` refuses.  Both check
every program the same way first (`_read_program`): variable names,
objective, bound entries, bounds, and each row's width, denominator (a
positive int) and relation.  `solve_lp` then checks standard form
(`_check_standard`) and starts from the slack-basis tableau
(`_slack_tableau`): the program's own rows, a range row holding one row
for its two slacks (below).

A pivot swaps two labels: the pivot row is solved for the entering
variable, whose column the leaving one takes at the row's old
denominator, and every other row with a non-zero there has the entering
variable substituted out by cross-multiplication, touching only the
pivot row's non-zero columns.  Bland's rule enters the smallest label
with a positive reduced cost and breaks ratio-test ties by the smallest
basic label; every test compares integers.  A basic column of a
full-width tableau holds its row's denominator in its own row and 0 in
every other, so the condensed rows hold the same integers, and the
rationals are those a full-width `Fraction` tableau would hold: every
choice is the same.

A range row is declared, never detected (Koberstein 2005 treats bounded
variables so).  Every MPF edge row and balance row is one; a balance row
has width 0.  Its two slacks, labelled as the slacks of the two rows it
stands for, add up to the pair's width w = 2 * rhs / den, so the tableau
keeps one row for both, under one of the two labels; the other slack's
row is its complement: negated coefficients, rhs w - rhs.  At most one
slack of a pair is ever nonbasic, since s+ + s- = w among nonbasic
columns would make the basis singular; so a pair is either one kept row
standing for two basic slacks, or one column whose partner is basic in
the implied row partner = w - column.  An elimination is linear, so a
kept row and its partner's stay complements through every pivot; and
when a range column enters at another row, that row becomes the pair's
kept row under the column's label.  `_simplex` sees every row the full-width tableau
would hold, compared by integer cross-multiplication:
- a kept row whose entry is positive leaves at 0 under its own label;
- one whose entry is negative leaves at w under its partner's label: its
  partner's row has the positive entry and rhs w - rhs, so the row is
  complemented and then pivoted;
- an entering range column meets its partner's implied row at ratio w:
  when that is the least, the column flips to its partner (each row's
  column is complemented, its rhs lowered by entry * w) with no
  elimination, as the full-width pivot on that row would leave it.
So the candidates, their ratios and their labels are the full-width
Bland simplex's on the two rows, and every pivot and the vertex are the
same; only the second row of each pair is never held or eliminated.  A
program that lists a row and its negation as two rows gets the same
results: it is the full-width tableau of the pair.

Pivots carry the objective row as every row: at the optimum its rhs is
minus the value (the dictionary's constant; Chvatal 1983, ch. 2).  The
vertex, in declaration order, is `LpResult.assignment`, a `Lazy` field
built on its first read, so a caller that compares values never pays
for it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import MISSING, dataclass, field, fields
from fractions import Fraction
from typing import Any, Callable

from .errors import MalformedProgram
from .rational import ZERO, Rational, decimal_str, is_decimal_exact, rat, rat_str

VarId = str

LE, EQ, GE = "<=", "=", ">="
RANGE = "|<=|"  # |c.x| <= rhs: the rows c.x <= rhs and -c.x <= rhs


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
    coefficients and lists the others in declaration order, a range row
    as its two <= rows; it checks the rows first (`_check_rows`).
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
        out = []
        for row, rel in zip(self.rows, self.rels):
            coeffs = {v: Fraction(c, row[-1]) for v, c in zip(names, row) if c}
            rhs = Fraction(row[-2], row[-1])
            out.append(Constraint(coeffs, LE if rel == RANGE else rel, rhs))
            if rel == RANGE:  # and its negation: a range row reads as its two <= rows
                out.append(Constraint({v: -c for v, c in coeffs.items()}, LE, rhs))
        return out

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
        if rel not in (LE, EQ, GE, RANGE):
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
    """Status, optimal value and an optimal assignment of one solve; from `solve_lp` the assignment is a vertex, built on first read."""

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


def _pivot_row(row: list[int], j: int) -> list[int]:
    """The row solved for its variable at j, whose column the leaving variable takes: the same integers over row[j], made positive, with the old denominator at j."""
    p = row[j]
    out = row[:-1] + [p]
    out[j] = row[-1]
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


def _pivot(T: list[list[int]], Z: list[int], basis: list[int], nonbasic: list[int], r: int, s: int) -> None:
    """Swap the labels basis[r] and nonbasic[s]: solve row r for the entering variable, substitute it out of the rest and of Z."""
    T[r] = prow = _pivot_row(T[r], s)
    support = _support(prow)
    for i, row in enumerate(T):
        if i != r and row[s]:
            T[i] = _eliminate(row, prow, support, s)
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


def _simplex(T: list[list[int]], Z: list[int], basis: list[int], nonbasic: list[int], ranges: Ranges) -> str:
    """Bland-rule simplex on a feasible tableau, priced by the objective row Z, which is pivoted in place.  Returns a status.

    `ranges` names the labels of the range pairs (see `_slack_tableau`):
    a row basic on one of them stands for its partner's row too, and a
    column that is one of them meets its partner's bound, so each takes
    part in the ratio test as the full-width tableau's rows would.
    """
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
            if Z[enter]:
                Z[:] = _complement_column(Z, enter, wn, wd)
            nonbasic[enter] = name
            continue
        if under:
            _, wn, wd = ranges[name]
            T[leave] = _complement_row(T[leave], wn, wd)
            basis[leave] = name
        _pivot(T, Z, basis, nonbasic, leave, enter)


# Each label of a range pair: (its partner's label, the pair's width as numerator and denominator).
Ranges = dict[int, tuple[int, int, int]]


def _slack_tableau(rows: list[list[int]], rels: list[str], nvars: int) -> tuple[list[list[int]], list[int], Ranges]:
    """The starting tableau of a program in standard form, its basic labels and its range pairs.

    The program's rows are its rows as they stand: the variables (labels 0
    to nvars - 1) are nonbasic and each row's slack basic, at the row's
    right-hand side, which standard form makes nonnegative: so the slack
    basis is feasible.  Slacks are labelled from nvars on in row order, a
    range row taking two labels, those of the two rows it stands for: the
    row is kept under the first, and the two slacks add up to
    w = 2 * rhs / den.  `ranges` maps each of the two labels to (the other
    label, w's numerator, w's denominator).
    """
    basis: list[int] = []
    ranges: Ranges = {}
    label = nvars
    for row, rel in zip(rows, rels):
        basis.append(label)
        if rel == RANGE:
            g = math.gcd(2 * row[-2], row[-1])
            width = 2 * row[-2] // g, row[-1] // g
            ranges[label] = (label + 1, *width)
            ranges[label + 1] = (label, *width)
            label += 1
        label += 1
    return list(rows), basis, ranges


def _check_rows(rows: list[list[int]], rels: list[str], nvars: int) -> None:
    """Raise `MalformedProgram` unless each row has a relation and is nvars + 2 ints wide over a positive denominator."""
    if len(rels) != len(rows):
        raise MalformedProgram(f"{len(rows)} constraint rows but {len(rels)} relations")
    for row, rel in zip(rows, rels):
        if len(row) != nvars + 2:
            raise MalformedProgram(f"a constraint row has {len(row) - 2} columns for {nvars} variables")
        if type(row[-1]) is not int or row[-1] <= 0:
            raise MalformedProgram(f"a constraint row has denominator {row[-1]!r}, not a positive int")
        if rel not in (LE, EQ, GE, RANGE):
            raise MalformedProgram(f"unknown relation {rel!r}")


def _read_program(p: LinearProgram) -> tuple[list[tuple[int, Rational]], list[Rational | None], list[Rational | None]]:
    """p's objective as (column, coefficient) pairs, and its lower and upper bounds; a program that cannot be read raises `MalformedProgram`."""
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

    _check_rows(p.rows, p.rels, nvars)
    return objective, lower, upper


_STANDARD = "solve_lp takes only <= rows with nonnegative right-hand sides over variables in [0, +inf)"


def _check_standard(p: LinearProgram, lower: list[Rational | None], upper: list[Rational | None]) -> None:
    """Raise `MalformedProgram` naming the first variable bound, then the first row (numbered as `write_lp_text` numbers it), that is out of standard form."""
    for v, lo, hi in zip(p.variables, lower, upper):
        if lo != 0:
            raise MalformedProgram(f"variable {v} has lower bound {'-inf' if lo is None else lo}, not 0; {_STANDARD}")
        if hi is not None:
            raise MalformedProgram(f"variable {v} has upper bound {hi}, not +inf; {_STANDARD}")
    for i, (row, rel) in enumerate(zip(p.rows, p.rels)):
        if rel in (LE, RANGE) and row[-2] >= 0:
            continue
        name = f"c{i + p.rels[:i].count(RANGE)}"  # a range row before row i counts twice
        if rel not in (LE, RANGE):
            raise MalformedProgram(f"row {name} is a {rel} row; {_STANDARD}")
        raise MalformedProgram(f"row {name} has right-hand side {Fraction(row[-2], row[-1])}; {_STANDARD}")


def solve_lp(p: LinearProgram) -> LpResult:
    """Exact optimum of a maximization program in standard form; see the module docstring.

    A program that cannot be read, or one out of standard form, raises
    `MalformedProgram`.
    """
    objective, lower, upper = _read_program(p)
    _check_standard(p, lower, upper)
    names = p.variables
    Z = _int_row(dict(objective), ZERO, len(names))
    T, basis, ranges = _slack_tableau(p.rows, p.rels, len(names))
    if _simplex(T, Z, basis, list(range(len(names))), ranges) == "unbounded":
        return LpResult(LpStatus.UNBOUNDED)

    def vertex() -> dict[VarId, Fraction]:
        """Each variable's value in its basic row, or 0 where it is nonbasic; in declaration order."""
        row_of = {b: i for i, b in enumerate(basis)}
        return {v: ZERO if (i := row_of.get(j)) is None else Fraction(T[i][-2], T[i][-1]) for j, v in enumerate(names)}

    return LpResult(LpStatus.OPTIMAL, Fraction(-Z[-2], Z[-1]), Lazy(vertex))


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
    Numbers are read as `solve_lp` reads them, and a program that cannot
    be read raises `MalformedProgram`; a program out of standard form,
    which `solve_lp` refuses, is rendered.
    """
    objective, lower, upper = _read_program(p)
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

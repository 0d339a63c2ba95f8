"""Exact rational linear programming (maximization).

The solver is a two-phase dense-tableau simplex with Bland's anti-cycling
rule, run entirely over exact rationals: the optimum it reports is the
true optimum, and the returned assignment is a vertex of the feasible
region.  Determinism is part of the contract -- variable order, pivot
selection and presolve order are all fixed -- so repeated solves of the
same program return identical results.

Everything between reading the program and building the returned
assignment runs on integer rows (Edmonds 1967; Bareiss 1968): each
constraint, the objective and every tableau row is a list of Python ints
[c_0, ..., c_{n-1}, rhs, den] standing for the rationals c_j/den and
rhs/den, with den > 0 and the whole list divided by its gcd.

A `LinearProgram` holds its constraints as such rows over its declared
variables: `add_constraint` writes one, and `mpf.formulate_mpf` writes
every MPF program's rows itself.  The presolve starts from a copy of
them.  Variables fixed by their bounds fold into each row's rhs in one
pass, over the LCM of the fixed values' denominators.  Bounds are
compared through numerators and denominators, not as `Fraction`s.  Free
variables are then eliminated through equality rows (a fraction-free
Gaussian step: the first equality row holding a free variable, and in it
the first such variable in declaration order).  Bounds become nonnegative
columns through x = sign*y + shift, and free variables that survive are
split into differences of nonnegatives.  These are affine bijections of
the feasible region, so vertices map to vertices; eliminated variables
are recovered from their stored pivot rows.

The tableau pivots by cross-multiplication instead of division, touches
only rows with a non-zero in the pivot column and, within them, only the
pivot row's non-zero columns; the ratio test and every sign test compare
integers.  The rationals throughout are the ones a `Fraction` presolve and
tableau would hold, so every choice, Bland's rule included, is the same.

Only the optimal value is computed before `solve_lp` returns, from the
objective's variables alone.  The vertex (`LpResult.assignment`: basic
column values, then the eliminated variables by back-substitution) is
built on its first read, so a caller that compares values never pays for
it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import FrozenInstanceError, dataclass, field
from fractions import Fraction

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
    coefficients and lists the others in declaration order.
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


class DeferredRecord:
    """An immutable record whose last field may be built on its first read.

    A subclass names its fields in `FIELDS`, keeps the leading ones in
    slots and exposes the last one as `property(DeferredRecord.last)`.
    `deferred(*leading, build=f)` makes a record whose last field is
    `f()`, called once, on first read.  Equality, hashing, repr and
    pickling read every field, so a deferred record behaves like the
    frozen dataclass it stands for, built eagerly.
    """

    __slots__ = ("_last", "_build")
    FIELDS: tuple[str, ...] = ()

    @classmethod
    def deferred(cls, *leading, build):
        record = cls(*leading, None)
        object.__setattr__(record, "_build", build)
        return record

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def last(self):
        if self._build is not None:
            self._set(_last=self._build(), _build=None)
        return self._last

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.FIELDS)

    def __eq__(self, other):
        return self._fields() == other._fields() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.FIELDS, self._fields()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return (type(self), self._fields())

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class LpResult(DeferredRecord):
    """Status, optimal value and optimal vertex of one solve; `solve_lp` builds the vertex on first read."""

    __slots__ = ("status", "value")
    FIELDS = ("status", "value", "assignment")

    def __init__(self, status: LpStatus, value: Rational | None = None, assignment: dict[VarId, Rational] | None = None):
        self._set(status=status, value=value, _last=assignment, _build=None)

    assignment = property(DeferredRecord.last)


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


def _fold(row: list[int], values: dict[int, Rational], drop: bool) -> list[int]:
    """The row after x_j = y_j + values[j]: every c_j * values[j] moves into the rhs.

    The row is scaled once by the LCM of the denominators of the values
    it meets.  With `drop` the columns are zeroed (fixed variables);
    otherwise they stay as the coefficients of y_j (bound shifts).
    """
    hits = [j for j in values if row[j]]
    if not hits:
        return row
    m = math.lcm(*(values[j].denominator for j in hits))
    rhs = row[-2] * m
    for j in hits:
        x = values[j]
        rhs -= row[j] * x.numerator * (m // x.denominator)
    out = [c * m for c in row[:-2]] if m != 1 else row[:-2]
    if drop:
        for j in hits:
            out[j] = 0
    out += [rhs, row[-1] * m]
    return _reduced(out)


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


_FLIP = {LE: GE, GE: LE, EQ: EQ}


def solve_lp(p: LinearProgram) -> LpResult:
    """Exact optimum of a maximization program; see the module docstring."""
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

    # Bounds, compared through numerators over positive denominators.
    lower: list[Rational | None] = []
    upper: list[Rational | None] = []
    fixed: dict[int, Rational] = {}
    for j, v in enumerate(names):
        lo, hi = p.lower[v], p.upper[v]
        if lo is not None:
            lo = rat(lo)
            if hi is not None:
                hi = rat(hi)
                gap = hi.numerator * lo.denominator - lo.numerator * hi.denominator
                if gap < 0:
                    raise MalformedProgram(f"inverted bounds on {v}: [{lo}, {hi}]")
                if gap == 0:
                    fixed[j] = lo
        elif hi is not None:
            hi = rat(hi)
        lower.append(lo)
        upper.append(hi)

    # Rows over the variables, with the variables fixed by their bounds folded in;
    # each row is copied, since the presolve updates rows in place.
    rows = []
    for row in p.rows:
        if len(row) != nvars + 2:
            raise MalformedProgram(f"a constraint row has {len(row) - 2} columns for {nvars} variables")
        rows.append(_fold(row[:], fixed, True))
    rels = list(p.rels)
    if len(rels) != len(rows):
        raise MalformedProgram(f"{len(rows)} constraint rows but {len(rels)} relations")
    obj = _int_row(dict(objective), ZERO, nvars)
    for j in fixed:
        obj[j] = 0

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
        prow = _pivot_row(rows.pop(i), j)
        del rels[i]
        support = _support(prow)
        for k, row in enumerate(rows):
            if row[j]:
                rows[k] = _eliminate(row, prow, support, j)
        if obj[j]:
            obj = _eliminate(obj, prow, support, j)
        eliminated.append((j, prow))

    # Constant rows are either trivially satisfied or witness infeasibility.
    kept = []
    for row, rel in zip(rows, rels):
        if any(row[:nvars]):
            kept.append((row, rel))
            continue
        rhs = row[-2]  # over a positive denominator
        if not (rhs == 0 if rel == EQ else rhs >= 0 if rel == LE else rhs <= 0):
            return LpResult(LpStatus.INFEASIBLE)

    # Map each live variable onto nonnegative columns: x = sign*y + shift.
    eliminated_vars = {j for j, _ in eliminated}
    gone = eliminated_vars.union(fixed)
    live = [j for j in range(nvars) if j not in gone]
    var_cols: dict[int, list[tuple[int, int]]] = {}  # (column, sign); free variables get two
    shift: dict[int, Rational] = {}
    ncols = 0
    for j in live:
        lo, hi = lower[j], upper[j]
        if lo is None and hi is None:
            var_cols[j] = [(ncols, 1), (ncols + 1, -1)]
            ncols += 2
            continue
        var_cols[j] = [(ncols, 1 if lo is not None else -1)]
        ncols += 1
        if lo is None:
            shift[j] = hi
        else:
            shift[j] = lo
            if hi is not None:
                kept.append((_int_row({j: ONE}, hi, nvars), LE))
    shift = {j: s for j, s in shift.items() if s}

    std: list[tuple[list[int], str]] = []
    for row, rel in kept:
        row = _fold(row, shift, False)
        if row[-2] < 0:
            row = [-x for x in row[:-1]] + [row[-1]]
            rel = _FLIP[rel]
        std.append((row, rel))

    def to_columns(row: list[int], width: int) -> list[int]:
        out = [0] * (width + 2)
        for j in live:
            if row[j]:
                for col, sign in var_cols[j]:
                    out[col] = row[j] if sign > 0 else -row[j]
        out[-2], out[-1] = row[-2], row[-1]
        return out

    # Tableau layout: structural columns, slack/surplus columns, artificials.
    n_struct = ncols
    n_slack = sum(1 for _, rel in std if rel != EQ)
    n_art = sum(1 for _, rel in std if rel != LE)
    width = n_struct + n_slack + n_art
    T: list[list[int]] = []
    basis: list[int] = []
    slack_at = n_struct
    art_at = n_struct + n_slack
    # Phase-1 objective: minus the artificials plus every row they are basic in,
    # which cancels the artificial columns themselves.
    z1_rows: list[list[int]] = []
    for row, rel in std:
        # column mapping keeps each entry up to sign, so the row stays reduced
        t = to_columns(row, width)
        den = t[-1]
        if rel == LE:
            t[slack_at] = den
            basis.append(slack_at)
            slack_at += 1
        else:
            if rel == GE:
                t[slack_at] = -den
                slack_at += 1
            z1_rows.append(t[:])
            t[art_at] = den
            basis.append(art_at)
            art_at += 1
        T.append(t)

    if n_art:
        Z1 = [0] * (width + 2)
        Z1[-1] = m = math.lcm(*(t[-1] for t in z1_rows))
        for t in z1_rows:
            f = m // t[-1]
            for k in _support(t):
                Z1[k] += f * t[k]
        Z1 = _reduced(Z1)
        status = _simplex(T, Z1, basis, width)
        assert status == "optimal"  # phase 1 is bounded below by 0
        if Z1[-2] > 0:  # the artificials' sum stays positive
            return LpResult(LpStatus.INFEASIBLE)
        # pivot leftover artificials out of the basis, dropping redundant rows
        keep: list[int] = []
        for i in range(len(T)):
            if basis[i] < n_struct + n_slack:
                keep.append(i)
                continue
            j = next((j for j in range(n_struct + n_slack) if T[i][j] != 0), None)
            if j is None:
                continue  # redundant row
            _pivot(T, Z1, basis, i, j)
            keep.append(i)
        width = n_struct + n_slack
        T = [_reduced(T[i][:width] + T[i][-2:]) for i in keep]
        basis = [basis[i] for i in keep]

    obj[-2] = 0  # the objective's constant term plays no part in the optimum
    Z2 = _reduced(to_columns(obj, width))
    for i, b in enumerate(basis):
        if Z2[b]:
            Z2 = _eliminate(Z2, T[i], _support(T[i]), b)
    status = _simplex(T, Z2, basis, width)
    if status == "unbounded":
        return LpResult(LpStatus.UNBOUNDED)

    # Back to rationals: basic column values, then live, eliminated and fixed variables.
    row_of = {b: i for i, b in enumerate(basis)}

    def column(col: int) -> Fraction:
        i = row_of.get(col)
        return ZERO if i is None else Fraction(T[i][-2], T[i][-1])

    def live_value(j: int) -> Fraction:
        cols = var_cols[j]
        if len(cols) == 2:
            return column(cols[0][0]) - column(cols[1][0])
        col, sign = cols[0]
        return shift.get(j, ZERO) + (column(col) if sign > 0 else -column(col))

    def vertex() -> dict[VarId, Fraction]:
        value_of = {j: live_value(j) for j in live}
        for j, prow in reversed(eliminated):
            rest = sum((prow[k] * value_of[k] for k in range(nvars) if prow[k] and k != j), ZERO)
            value_of[j] = Fraction(prow[-2] - rest, prow[-1])
        value_of.update(fixed)
        return {names[j]: x for j, x in value_of.items()}

    # The value needs only the objective's variables; an eliminated one needs the whole vertex.
    if any(j in eliminated_vars for j, _ in objective):
        assignment = vertex()
        value = sum((c * assignment[names[j]] for j, c in objective), ZERO)
        return LpResult(LpStatus.OPTIMAL, value, assignment)
    value = sum((c * (fixed[j] if j in fixed else live_value(j)) for j, c in objective), ZERO)
    return LpResult.deferred(LpStatus.OPTIMAL, value, build=vertex)


# ---------------------------------------------------------------------------
# Textual export ("CPLEX LP" style): Maximize / Subject To / Bounds / End.
# ---------------------------------------------------------------------------


def _coef_str(c: Rational) -> tuple[str, bool]:
    """Decimal rendering plus a flag telling whether it is exact."""
    if is_decimal_exact(c):
        return decimal_str(c), True
    return decimal_str(c, 12), False


def _expr_str(coeffs: dict[VarId, Rational], order: list[VarId]) -> tuple[str, list[str]]:
    parts: list[str] = []
    notes: list[str] = []
    for v in order:
        if v not in coeffs or coeffs[v] == 0:
            continue
        c = coeffs[v]
        mag, exact = _coef_str(abs(c))
        if not exact:
            notes.append(f"{v}: {rat_str(c)}")
        sign = "-" if c < 0 else "+"
        term = v if mag == "1" else f"{mag} {v}"
        parts.append(f"{sign} {term}")
    if not parts:
        return "0 " + (order[0] if order else "x"), notes
    text = " ".join(parts)
    return (text[2:] if text.startswith("+ ") else text), notes


def write_lp_text(p: LinearProgram, *, binaries: list[VarId] | None = None, comments: list[str] | None = None) -> str:
    """Render a program in the conventional LP text format.

    Rationals print as decimals when exact; otherwise a truncated decimal
    is emitted and the exact p/q value is preserved in a comment line.
    """
    binaries = binaries or []
    out: list[str] = [f"\\ {line}" for line in (comments or [])]
    expr, notes = _expr_str(p.objective, p.variables)
    out += ["Maximize", f" obj: {expr}"]
    for note in notes:
        out.append(f"\\ exact obj coefficient {note}")
    out.append("Subject To")
    for i, con in enumerate(p.constraints):
        expr, notes = _expr_str(con.coeffs, p.variables)
        rel = con.rel if con.rel != EQ else "="
        rhs, rhs_exact = _coef_str(con.rhs)
        out.append(f" c{i}: {expr} {rel} {rhs}")
        for note in notes:
            out.append(f"\\ exact coefficient in c{i}: {note}")
        if not rhs_exact:
            out.append(f"\\ exact rhs of c{i}: {rat_str(con.rhs)}")
    out.append("Bounds")
    binary_set = set(binaries)
    for v in p.variables:
        if v in binary_set:
            continue
        lo, hi = p.lower[v], p.upper[v]
        if lo is None and hi is None:
            out.append(f" {v} free")
        elif lo is not None and hi is not None and lo == hi:
            val, _ = _coef_str(lo)
            out.append(f" {v} = {val}")
        else:
            lo_s = "-inf" if lo is None else _coef_str(lo)[0]
            hi_s = "+inf" if hi is None else _coef_str(hi)[0]
            out.append(f" {lo_s} <= {v} <= {hi_s}")
            for bound, tag in ((lo, "lower"), (hi, "upper")):
                if bound is not None and not is_decimal_exact(bound):
                    out.append(f"\\ exact {tag} bound of {v}: {rat_str(bound)}")
    if binaries:
        out.append("Binary")
        out.append(" " + " ".join(binaries))
    out.append("End")
    return "\n".join(out) + "\n"

"""Exact rational linear programming (maximization).

The solver is a two-phase dense-tableau simplex with Bland's anti-cycling
rule, run entirely over exact rationals: the optimum it reports is the
true optimum, and the returned assignment is a vertex of the feasible
region.  Determinism is part of the contract -- variable order, pivot
selection and presolve order are all fixed -- so repeated solves of the
same program return identical results.

Before the simplex runs, an exact presolve over `Fraction` substitutes
variables fixed by their bounds and eliminates free variables through
equality rows (a Gaussian step); free variables that survive presolve are
split into differences of nonnegatives.  Both transformations are affine
bijections of the feasible region, so vertices map to vertices.

The tableau itself is integer-preserving (Edmonds 1967; Bareiss 1968):
each row, objective rows included, is a list of Python ints
[c_0, ..., c_{n-1}, rhs, den] standing for the rationals c_j/den and
rhs/den, with den > 0 and the whole list divided by its gcd.  A pivot
cross-multiplies instead of dividing, touches only rows with a non-zero
in the pivot column and, within them, only the pivot row's non-zero
columns; the ratio test and every sign test compare integers.  The
rationals are the ones a `Fraction` tableau would hold, so Bland's rule
makes exactly the same choices.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
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
    """

    variables: list[VarId] = field(default_factory=list)
    lower: dict[VarId, Rational | None] = field(default_factory=dict)
    upper: dict[VarId, Rational | None] = field(default_factory=dict)
    constraints: list[Constraint] = field(default_factory=list)
    objective: dict[VarId, Rational] = field(default_factory=dict)

    def add_variable(self, name: VarId, lower: Rational | None = None, upper: Rational | None = None) -> VarId:
        if name in self.lower:
            raise MalformedProgram(f"variable {name} declared twice")
        self.variables.append(name)
        self.lower[name] = lower
        self.upper[name] = upper
        return name

    def add_constraint(self, coeffs: dict[VarId, Rational], rel: str, rhs: Rational) -> None:
        if rel not in (LE, EQ, GE):
            raise MalformedProgram(f"unknown relation {rel!r}")
        self.constraints.append(Constraint(dict(coeffs), rel, rhs))

    def set_objective(self, coeffs: dict[VarId, Rational]) -> None:
        self.objective = dict(coeffs)


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpResult:
    status: LpStatus
    value: Rational | None = None
    assignment: dict[VarId, Rational] | None = None


class _Row:
    __slots__ = ("coeffs", "rel", "rhs")

    def __init__(self, coeffs, rel, rhs):
        self.coeffs = coeffs  # dict[VarId, Fraction], zero entries absent
        self.rel = rel
        self.rhs = rhs

    def add_term(self, v, c):
        nv = self.coeffs.get(v, 0) + c
        if nv == 0:
            self.coeffs.pop(v, None)
        else:
            self.coeffs[v] = nv


def _validate(p: LinearProgram) -> None:
    declared = set(p.variables)
    if len(declared) != len(p.variables):
        raise MalformedProgram("duplicate variable names")
    for c in p.constraints:
        for v in c.coeffs:
            if v not in declared:
                raise MalformedProgram(f"constraint references undeclared variable {v}")
    for v in p.objective:
        if v not in declared:
            raise MalformedProgram(f"objective references undeclared variable {v}")
    for v in p.variables:
        lo, hi = p.lower[v], p.upper[v]
        if lo is not None and hi is not None and lo > hi:
            raise MalformedProgram(f"inverted bounds on {v}: [{lo}, {hi}]")


def _substitute(rows: list[_Row], obj: dict, var: VarId, expr: dict, const) -> None:
    """Replace var by (const + expr) in all rows and the objective."""
    for row in rows:
        f = row.coeffs.pop(var, None)
        if f is not None:
            row.rhs -= f * const
            for v, cv in expr.items():
                row.add_term(v, f * cv)
    f = obj.pop(var, None)
    if f is not None:
        for v, cv in expr.items():
            nv = obj.get(v, 0) + f * cv
            if nv == 0:
                obj.pop(v, None)
            else:
                obj[v] = nv


# ---------------------------------------------------------------------------
# Integer tableau rows: [c_0, ..., c_{n-1}, rhs, den] meaning c_j/den, rhs/den.
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
    prow = T[r]
    p = prow[j]
    # divided by its entry at j, the row keeps its integers over that entry (made positive)
    prow = prow[:-1] + [p] if p > 0 else [-x for x in prow[:-1]] + [-p]
    T[r] = prow = _reduced(prow)
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


def solve_lp(p: LinearProgram) -> LpResult:
    """Exact optimum of a maximization program; see the module docstring."""
    _validate(p)

    lower = {v: None if p.lower[v] is None else rat(p.lower[v]) for v in p.variables}
    upper = {v: None if p.upper[v] is None else rat(p.upper[v]) for v in p.variables}
    rows = [
        _Row({v: rat(c) for v, c in con.coeffs.items() if c != 0}, con.rel, rat(con.rhs))
        for con in p.constraints
    ]
    obj = {v: rat(c) for v, c in p.objective.items() if c != 0}

    # Variables fixed by their bounds become constants.
    fixed: dict[VarId, Fraction] = {}
    live: list[VarId] = []
    for v in p.variables:
        if lower[v] is not None and lower[v] == upper[v]:
            fixed[v] = lower[v]
            _substitute(rows, obj, v, {}, lower[v])
        else:
            live.append(v)

    # Gaussian elimination of free variables through equality rows.
    live_set = set(live)
    free = {v for v in live if lower[v] is None and upper[v] is None}
    eliminated: list[tuple[VarId, dict, Fraction]] = []
    progress = True
    while progress:
        progress = False
        for ri, row in enumerate(rows):
            if row.rel != EQ:
                continue
            var = next((v for v in live if v in free and v in live_set and v in row.coeffs), None)
            if var is None:
                continue
            del rows[ri]
            c = row.coeffs.pop(var)
            expr = {v: -cv / c for v, cv in row.coeffs.items()}
            const = row.rhs / c
            _substitute(rows, obj, var, expr, const)
            eliminated.append((var, expr, const))
            live_set.discard(var)
            progress = True
            break

    # Constant rows are either trivially satisfied or witness infeasibility.
    remaining_rows: list[_Row] = []
    for row in rows:
        if row.coeffs:
            remaining_rows.append(row)
            continue
        sat = (row.rhs == 0) if row.rel == EQ else (row.rhs >= 0 if row.rel == LE else row.rhs <= 0)
        if not sat:
            return LpResult(LpStatus.INFEASIBLE)
    rows = remaining_rows

    # Map each live variable onto nonnegative columns.
    col_names: list[tuple[VarId, int]] = []  # (var, +1/-1) ; split vars get two entries
    col_shift: list[Fraction] = []  # x = sign*y + shift
    var_cols: dict[VarId, list[int]] = {}
    extra_rows: list[_Row] = []
    for v in live:
        if v not in live_set:
            continue
        lo, hi = lower[v], upper[v]
        if lo is None and hi is None:
            var_cols[v] = [len(col_names), len(col_names) + 1]
            col_names.extend([(v, 1), (v, -1)])
            col_shift.extend([ZERO, ZERO])
        elif lo is None:
            var_cols[v] = [len(col_names)]
            col_names.append((v, -1))
            col_shift.append(hi)
        else:
            var_cols[v] = [len(col_names)]
            col_names.append((v, 1))
            col_shift.append(lo)
            if hi is not None:
                extra_rows.append(_Row({v: ONE}, LE, hi))

    def to_columns(coeffs: dict) -> dict[int, Fraction]:
        out: dict[int, Fraction] = {}
        for v, c in coeffs.items():
            for idx in var_cols[v]:
                _, sign = col_names[idx]
                cc = c if sign > 0 else -c
                out[idx] = out.get(idx, 0) + cc
        return out

    n_struct = len(col_names)
    std_rows: list[tuple[dict[int, Fraction], str, Fraction]] = []
    for row in rows + extra_rows:
        cols = to_columns(row.coeffs)
        rhs = row.rhs
        # substituting x = sign*y + shift moves c*shift to the rhs
        for v, c in row.coeffs.items():
            for idx in var_cols[v]:
                rhs -= c * col_shift[idx]
        rel = row.rel
        if rhs < 0:
            cols = {j: -c for j, c in cols.items()}
            rhs = -rhs
            rel = {LE: GE, GE: LE, EQ: EQ}[rel]
        std_rows.append((cols, rel, rhs))

    obj_cols = to_columns(obj)

    # Tableau layout: structural columns, slack/surplus columns, artificials.
    n_slack = sum(1 for _, rel, _ in std_rows if rel != EQ)
    n_art = sum(1 for _, rel, _ in std_rows if rel != LE)
    width = n_struct + n_slack + n_art
    T: list[list[int]] = []
    basis: list[int] = []
    slack_at = n_struct
    art_at = n_struct + n_slack
    # Phase-1 objective: minus the artificials plus every row they are basic in,
    # which cancels the artificial columns themselves.
    z1: dict[int, Fraction] = {}
    z1_rhs = ZERO
    for cols, rel, rhs in std_rows:
        if rel == LE:
            cols[slack_at] = 1
            basis.append(slack_at)
            slack_at += 1
        else:
            if rel == GE:
                cols[slack_at] = -1
                slack_at += 1
            for j, c in cols.items():
                z1[j] = z1.get(j, 0) + c
            z1_rhs += rhs
            cols[art_at] = 1
            basis.append(art_at)
            art_at += 1
        T.append(_int_row(cols, rhs, width))

    if n_art:
        Z1 = _int_row(z1, z1_rhs, width)
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

    Z2 = _int_row(obj_cols, ZERO, width)
    for i, b in enumerate(basis):
        if Z2[b]:
            Z2 = _eliminate(Z2, T[i], _support(T[i]), b)
    status = _simplex(T, Z2, basis, width)
    if status == "unbounded":
        return LpResult(LpStatus.UNBOUNDED)

    col_val = [ZERO] * width
    for i, b in enumerate(basis):
        col_val[b] = Fraction(T[i][-2], T[i][-1])

    assignment: dict[VarId, Fraction] = {}
    for v in live:
        if v not in live_set:
            continue
        idxs = var_cols[v]
        if len(idxs) == 2:
            val = col_val[idxs[0]] - col_val[idxs[1]]
        else:
            idx = idxs[0]
            _, sign = col_names[idx]
            val = col_shift[idx] + (col_val[idx] if sign > 0 else -col_val[idx])
        assignment[v] = val
    for var, expr, const in reversed(eliminated):
        assignment[var] = const + sum((cv * assignment[v] for v, cv in expr.items()), ZERO)
    assignment.update(fixed)

    value = sum((rat(c) * assignment[v] for v, c in p.objective.items()), ZERO)
    return LpResult(LpStatus.OPTIMAL, value, assignment)


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

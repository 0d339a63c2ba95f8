"""`solve_lp` on programs in standard form, and the general route beside it.

`solve_lp` takes standard form only and refuses every other program.
`oracles.reference_general_lp`, the presolve and two-phase simplex it
once ran on those, solves the general programs other tests need (the
angle-space MPF program among them); its own tests (boxed, free and
fixed variables, = and >= rows, the presolve's eliminations,
substitutions and flips, phase 1) are here too.
"""

import hashlib
import itertools
import json
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_boxed_lp, random_ldc_network, random_standard_lp
from ldcflow import lp, serialize
from ldcflow.errors import MalformedProgram
from ldcflow.gadgets import Polarity, gfch, gsch
from ldcflow.lp import LinearProgram, LpStatus, solve_lp, write_lp_text
from ldcflow.mff import pin_susceptances, solve_mff_grid
from ldcflow.mpf import formulate_mpf
from ldcflow.msf import solve_msf_bnb, solve_msf_exhaustive
from ldcflow.network import Network, NodeRole, facts_edge, fixed_edge, network_sum, subnetwork
from ldcflow.rational import rat_str
from ldcflow.reductions import ExactCover3Instance, encode_exact_cover_mff
from oracles import _presolve, _substitute, expanded, in_standard_form, lp_vertex_oracle, reference_general_lp, reference_mpf_program, reference_standard_lp


def boxed(name, lo, hi, p):
    p.add_variable(name, lower=F(lo), upper=F(hi))


def test_single_boxed_variable():
    p = LinearProgram()
    p.add_variable("x", lower=F(0), upper=F(4))
    p.set_objective({"x": F(1)})
    r = reference_general_lp(p)
    assert r.status is LpStatus.OPTIMAL and r.value == 4


def test_gadget_angle_program_reaches_three():
    # the two-variable angle relaxation of the 3-node switching gadget
    p = LinearProgram()
    p.add_variable("tv")
    p.add_variable("tl")
    p.add_constraint({"tv": F(1)}, "<=", F(1))
    p.add_constraint({"tl": F(1)}, "<=", F(2))
    p.add_constraint({"tl": F(1), "tv": F(-1)}, "<=", F(1))
    p.add_constraint({"tv": F(1), "tl": F(-1)}, "<=", F(1))
    p.add_constraint({"tv": F(2), "tl": F(-1)}, ">=", F(0))
    p.add_constraint({"tl": F(2), "tv": F(-1)}, ">=", F(0))
    p.set_objective({"tv": F(1), "tl": F(1)})
    r = reference_general_lp(p)
    assert r.status is LpStatus.OPTIMAL and r.value == 3
    status, value = lp_vertex_oracle(p)
    assert (status, value) == ("optimal", F(3))


def test_infeasible_detected():
    p = LinearProgram()
    p.add_variable("x", lower=F(0))
    p.add_constraint({"x": F(1)}, "<=", F(-1))
    assert reference_general_lp(p).status is LpStatus.INFEASIBLE


def test_unbounded_detected():
    p = LinearProgram()
    p.add_variable("x", lower=F(0))
    p.set_objective({"x": F(1)})
    assert solve_lp(p).status is LpStatus.UNBOUNDED


def test_free_variable_unbounded_both_ways():
    p = LinearProgram()
    p.add_variable("x")
    p.set_objective({"x": F(-1)})
    assert reference_general_lp(p).status is LpStatus.UNBOUNDED


def test_optimal_assignment_satisfies_constraints_exactly():
    p = LinearProgram()
    p.add_variable("x", lower=F(0))
    p.add_variable("y", lower=F(0))
    p.add_constraint({"x": F(3), "y": F(7)}, "<=", F(1))
    p.set_objective({"x": F(1), "y": F(1)})
    r = solve_lp(p)
    x, y = r.assignment["x"], r.assignment["y"]
    assert 3 * x + 7 * y <= 1 and x >= 0 and y >= 0
    assert x + y == r.value == F(1, 3)


def test_undeclared_variable_rejected():
    p = LinearProgram()
    p.add_variable("x", lower=F(0))
    with pytest.raises(MalformedProgram):
        p.add_constraint({"nope": F(1)}, "<=", F(1))


@pytest.mark.parametrize(
    "rows, rels",
    [([[1, 1, 1]], []), ([[1, 1, 1], [1, 0, 1, 1]], ["<=", "<="]), ([[1, 1]], ["<="])],
    ids=["relation missing", "row too wide", "row too narrow"],
)
def test_rows_that_do_not_fit_the_program_are_rejected(rows, rels):
    p = LinearProgram(["x"], {"x": F(0)}, {"x": None}, rows, rels, {"x": F(1)})
    with pytest.raises(MalformedProgram):
        solve_lp(p)


@pytest.mark.parametrize(
    "rows, rels, objective, message",
    [
        ([[1, 1, -1], [1, 5, 1]], ["<=", "<="], F(-1), "denominator -1"),
        ([[1, 3, 0]], ["<="], F(1), "denominator 0"),
        ([[1, 3, F(1)]], ["<="], F(1), r"denominator Fraction\(1, 1\)"),
        ([[1, 3, 1]], ["<"], F(-1), "unknown relation '<'"),
        ([[1, 3, 1]], ["=="], F(-1), "unknown relation '=='"),
        ([[1, 3, 1]], ["le"], F(-1), "unknown relation 'le'"),
    ],
    ids=["negative denominator", "zero denominator", "Fraction denominator", "<", "==", "le"],
)
def test_a_row_with_a_bad_denominator_or_relation_is_rejected(rows, rels, objective, message):
    # Read as they stand, the first program (whose `constraints` say -x <= -1)
    # was OPTIMAL 0 at x = 0, the second OPTIMAL 3 where `constraints` divides
    # by zero, and each unknown relation was taken for "=" (x = 3, value -3).
    p = LinearProgram(["x"], {"x": F(0)}, {"x": None}, rows, rels, {"x": objective})
    with pytest.raises(MalformedProgram, match=message):
        solve_lp(p)


@pytest.mark.parametrize("missing", ["lower", "upper"])
def test_a_variable_without_a_bound_entry_is_rejected(missing):
    bounds = {"lower": {"x": F(0), "y": None}, "upper": {"x": None, "y": None}}
    del bounds[missing]["y"]
    p = LinearProgram(["x", "y"], bounds["lower"], bounds["upper"], [[1, 1, 1, 1]], ["<="], {"x": F(1)})
    with pytest.raises(MalformedProgram, match=f"variable y has no {missing} bound entry"):
        solve_lp(p)


@pytest.mark.parametrize(
    "rows, rels, lower, message",
    [
        ([[1, 3, 0]], ["<="], {"x": F(0)}, "denominator 0"),
        ([[1, 3, 1]], ["<="], {}, "variable x has no lower bound entry"),
        ([[1, 3, 1]], ["<"], {"x": F(0)}, "unknown relation '<'"),
    ],
    ids=["zero denominator", "missing bound entry", "<"],
)
def test_write_lp_text_refuses_what_solve_lp_refuses(rows, rels, lower, message):
    # Read as they stand, the first two raised ZeroDivisionError and KeyError,
    # and the third was written out with its "<".
    p = LinearProgram(["x"], lower, {"x": None}, rows, rels, {"x": F(1)})
    with pytest.raises(MalformedProgram, match=message):
        write_lp_text(p)


@pytest.mark.parametrize("program", [None, {"variables": ["x"]}, "max x"], ids=["None", "dict", "str"])
@pytest.mark.parametrize("read", [solve_lp, write_lp_text], ids=["solve_lp", "write_lp_text"])
def test_what_is_not_a_program_is_refused_naming_its_type(read, program):
    # None raised AttributeError: 'NoneType' object has no attribute 'variables'
    with pytest.raises(MalformedProgram) as caught:
        read(program)
    assert str(caught.value) == f"a program must be a LinearProgram, got {type(program).__name__}"


@pytest.mark.parametrize("den", [0, -1, F(1)], ids=["zero", "negative", "Fraction"])
def test_constraints_refuse_a_denominator_that_is_not_a_positive_int(den):
    p = LinearProgram(["x"], {"x": F(0)}, {"x": None}, [[1, 3, den]], ["<="], {"x": F(1)})
    with pytest.raises(MalformedProgram, match=re.escape(f"denominator {den!r}")):
        p.constraints


def test_inverted_bounds_rejected():
    p = LinearProgram()
    p.add_variable("x", lower=F(2), upper=F(1))
    with pytest.raises(MalformedProgram):
        solve_lp(p)


def test_fixed_variable_is_substituted():
    p = LinearProgram()
    p.add_variable("x", lower=F(3), upper=F(3))
    p.add_variable("y", lower=F(0), upper=F(10))
    p.add_constraint({"x": F(1), "y": F(1)}, "<=", F(5))
    p.set_objective({"x": F(1), "y": F(1)})
    r = reference_general_lp(p)
    assert r.value == 5 and r.assignment["x"] == 3


def test_matches_vertex_oracle_on_random_programs(rng):
    agreements = {"optimal": 0, "infeasible": 0}
    for _ in range(100):
        p = random_boxed_lp(rng)
        r = reference_general_lp(p)
        status, value = lp_vertex_oracle(p)
        assert r.status.value == status
        if status == "optimal":
            assert r.value == value
        agreements[status] += 1
    assert agreements["optimal"] > 0 and agreements["infeasible"] > 0


SCALES = (F(1), F(1, 3), F(2, 7), F(5, 11))


def rational_boxed_lp(rng: random.Random) -> LinearProgram:
    """A boxed LP whose coefficients, right-hand sides and bounds carry coprime denominators."""
    base = random_boxed_lp(rng)
    p = LinearProgram()
    for v in base.variables:
        lo = base.lower[v] * rng.choice(SCALES)
        p.add_variable(v, lower=lo, upper=lo + (base.upper[v] - base.lower[v]) * rng.choice(SCALES))
    for con in base.constraints:
        p.add_constraint({v: c * rng.choice(SCALES) for v, c in con.coeffs.items()}, con.rel, con.rhs * rng.choice(SCALES))
    p.set_objective({v: c * rng.choice(SCALES) for v, c in base.objective.items()})
    return p


def assert_feasible_optimum(p: LinearProgram, r) -> None:
    x = r.assignment
    for v in p.variables:
        assert p.lower[v] is None or x[v] >= p.lower[v]
        assert p.upper[v] is None or x[v] <= p.upper[v]
    for con in p.constraints:
        lhs = sum(c * x[v] for v, c in con.coeffs.items())
        assert {"<=": lhs <= con.rhs, ">=": lhs >= con.rhs, "=": lhs == con.rhs}[con.rel]
    assert r.value == sum(c * x[v] for v, c in p.objective.items())


def test_matches_vertex_oracle_on_rational_coefficients(rng):
    agreements = {"optimal": 0, "infeasible": 0}
    for _ in range(100):
        p = rational_boxed_lp(rng)
        r = reference_general_lp(p)
        status, value = lp_vertex_oracle(p)
        assert r.status.value == status
        if status == "optimal":
            assert r.value == value
            assert_feasible_optimum(p, r)
        agreements[status] += 1
    assert agreements["optimal"] > 0 and agreements["infeasible"] > 0


# The general route (`oracles.reference_general_lp`) reads the value off the
# objective row, whose right-hand side carries the fixed values and bound
# shifts the presolve folds in: a program whose
# objective weights every kind of variable checks each of those constants.
VARIABLE_KINDS = ("fixed", "lower", "upper", "boxed", "eliminated", "split")
SMALL = st.fractions(-4, 4, max_denominator=3)
NONZERO = SMALL.filter(bool)


@st.composite
def programs_over_every_variable_kind(draw) -> tuple[LinearProgram, bool]:
    """A program with one variable of each kind, all in the objective, or a boxed one; and whether it is boxed.

    Rows keep every unbounded side in check, so the region is bounded.  The
    free variable of kind "eliminated" is the only free variable in the one
    equality row, so the presolve eliminates it; the "split" one stays.
    """
    boxed = draw(st.booleans())
    kinds = draw(st.lists(st.sampled_from(("fixed", "boxed")), min_size=1, max_size=3) if boxed else st.permutations(VARIABLE_KINDS))
    p = LinearProgram()
    for j, kind in enumerate(kinds):
        lo = hi = None
        if kind == "fixed":
            lo = hi = draw(NONZERO)
        elif kind == "lower":
            lo = draw(NONZERO)
        elif kind == "upper":
            hi = draw(NONZERO)
        elif kind == "boxed":
            lo = draw(SMALL)
            hi = lo + draw(st.fractions(F(1, 3), 4, max_denominator=3))
        p.add_variable(f"x{j}", lo, hi)
    names = p.variables
    for v, kind in zip(names, kinds):
        if kind in ("lower", "split"):
            p.add_constraint({v: F(1)}, "<=", F(8))
        if kind in ("upper", "split"):
            p.add_constraint({v: F(1)}, ">=", F(-8))
        if kind == "eliminated":
            others = [w for w, other in zip(names, kinds) if other not in ("eliminated", "split")]
            coeffs = {w: draw(SMALL) for w in draw(st.lists(st.sampled_from(others), unique=True, max_size=3))}
            p.add_constraint({**coeffs, v: draw(NONZERO)}, "=", draw(SMALL))
    for _ in range(draw(st.integers(0, 2))):
        coeffs = {v: draw(SMALL) for v in draw(st.lists(st.sampled_from(names), unique=True, min_size=1, max_size=3))}
        rel = draw(st.sampled_from(("<=", ">=", "=") if boxed else ("<=", ">=")))
        p.add_constraint(coeffs, rel, draw(st.fractions(-8, 8, max_denominator=2)))
    p.set_objective({v: draw(NONZERO) for v in names})
    return p, boxed


@settings(max_examples=150)
@given(programs_over_every_variable_kind())
def test_the_value_off_the_objective_row_is_the_objective_at_the_vertex(drawn):
    p, boxed = drawn
    r = reference_general_lp(p)
    assert r.status is not LpStatus.UNBOUNDED
    if r.status is LpStatus.OPTIMAL:
        assert_feasible_optimum(p, r)  # value == sum of c * x over the objective
    if boxed:
        assert lp_vertex_oracle(p) == (r.status.value, r.value)


@pytest.mark.parametrize("scale", [F(1), F(2, 7)])
def test_redundant_equality_rows_are_dropped_after_phase_one(scale):
    # the second and third rows repeat the first, so their artificials end
    # phase 1 basic at zero in rows with no other non-zero entry
    p = LinearProgram()
    p.add_variable("x", lower=F(0))
    p.add_variable("y", lower=F(0), upper=F(5, 3))
    p.add_constraint({"x": F(1), "y": F(1)}, "=", F(2))
    p.add_constraint({"x": 2 * scale, "y": 2 * scale}, "=", 4 * scale)
    p.add_constraint({"x": F(-1, 3), "y": F(-1, 3)}, "=", F(-2, 3))
    p.set_objective({"x": F(1), "y": F(3)})
    r = reference_general_lp(p)
    assert r.status is LpStatus.OPTIMAL
    assert r.assignment == {"x": F(1, 3), "y": F(5, 3)} and r.value == F(16, 3)
    assert lp_vertex_oracle(p) == ("optimal", r.value)


@pytest.mark.parametrize(
    "rel, rhs, expected",
    [
        # -x - y <= -1 becomes x + y >= 1
        ("<=", F(-1), {"x": F(1), "y": F(0)}),
        # -x - y >= -7/2 becomes x + y <= 7/2
        (">=", F(-7, 2), {"x": F(7, 2), "y": F(0)}),
        # -x - y = -3/2 becomes x + y = 3/2
        ("=", F(-3, 2), {"x": F(3, 2), "y": F(0)}),
    ],
)
def test_negative_rhs_flips_the_relation(rel, rhs, expected):
    p = LinearProgram()
    p.add_variable("x", lower=F(0), upper=F(5))
    p.add_variable("y", lower=F(0), upper=F(5))
    p.add_constraint({"x": F(-1), "y": F(-1)}, rel, rhs)
    # maximize x - 2y when the row bounds x + y from above, -x - 2y otherwise
    p.set_objective({"x": F(1) if rel == ">=" else F(-1), "y": F(-2)})
    r = reference_general_lp(p)
    assert r.status is LpStatus.OPTIMAL and r.assignment == expected
    assert lp_vertex_oracle(p) == ("optimal", r.value)


def test_row_and_column_permutations_do_not_change_value(rng):
    for _ in range(20):
        p = random_boxed_lp(rng)
        base = reference_general_lp(p)
        perm = LinearProgram()
        names = p.variables[:]
        rng.shuffle(names)
        for v in names:
            perm.add_variable(v, lower=p.lower[v], upper=p.upper[v])
        cons = p.constraints[:]
        rng.shuffle(cons)
        for c in cons:
            perm.add_constraint(c.coeffs, c.rel, c.rhs)
        perm.set_objective(p.objective)
        again = reference_general_lp(perm)
        assert again.status == base.status
        if base.status is LpStatus.OPTIMAL:
            assert again.value == base.value


def test_repeated_solves_are_identical(rng):
    for solve, p in ((solve_lp, random_standard_lp(rng)), (reference_general_lp, random_boxed_lp(rng))):
        first = solve(p)
        second = solve(p)
        assert first == second


def test_lp_text_has_conventional_sections():
    p = LinearProgram()
    p.add_variable("x", lower=F(0), upper=F(61, 10))
    p.add_variable("y")
    p.add_constraint({"x": F(1), "y": F(1, 3)}, "<=", F(2))
    p.set_objective({"x": F(1)})
    text = write_lp_text(p, comments=["demo"])
    assert text.splitlines()[0] == "\\ demo"
    for section in ("Maximize", "Subject To", "Bounds", "End"):
        assert section in text
    assert " y free" in text
    assert "6.1" in text  # exact decimal rendering
    assert "1/3" in text  # inexact coefficient preserved in a comment


def test_lp_text_keeps_the_exact_value_of_a_fixed_variable():
    # It used to print " x = 0.333333333333" with no exact note.
    p = LinearProgram()
    p.add_variable("x", lower=F(1, 3), upper=F(1, 3))
    p.set_objective({"x": F(1)})
    assert write_lp_text(p).splitlines()[3:] == ["Bounds", " x = 0.333333333333", "\\ exact value of x: 1/3", "End"]


def test_lp_text_reads_strings_as_solve_lp_does():
    # It used to raise TypeError: bad operand type for abs(): 'str'.
    p = LinearProgram()
    p.add_variable("x", lower="0", upper="1/3")
    p.set_objective({"x": "2"})
    assert reference_general_lp(p).value == F(2, 3)
    q = LinearProgram()
    q.add_variable("x", lower="0")
    q.add_constraint({"x": "3"}, "<=", "1")
    q.set_objective({"x": "2"})
    assert solve_lp(q).value == F(2, 3)
    assert write_lp_text(p).splitlines() == [
        "Maximize",
        " obj: 2 x",
        "Subject To",
        "Bounds",
        " 0 <= x <= 0.333333333333",
        "\\ exact upper bound of x: 1/3",
        "End",
    ]


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda p: p.add_variable("x"), "variable x declared twice"),
        (lambda p: p.add_constraint({"x": F(1)}, "<", F(1)), "unknown relation '<'"),
    ],
    ids=["variable declared twice", "<"],
)
def test_building_a_malformed_program_is_refused(build, message):
    p = LinearProgram()
    p.add_variable("x", lower=F(0))
    with pytest.raises(MalformedProgram, match=message):
        build(p)


def _canonical(r) -> str:
    value = None if r.value is None else rat_str(r.value)
    assignment = None if r.assignment is None else sorted((v, rat_str(x)) for v, x in r.assignment.items())
    return repr((r.status.value, value, assignment))


def _pinned_programs() -> list[LinearProgram]:
    """Seeded boxed, unboxed and tie-prone LPs, and angle-space MPF programs of random networks and of both gadgets.

    The tie-prone ones are in standard form; `solve_lp` refuses the others,
    which the general route solves as `solve_lp` did before it took
    standard form only.
    """
    rng = random.Random(1507)
    programs = [random_boxed_lp(rng) for _ in range(200)]
    for _ in range(40):
        p = random_boxed_lp(rng)
        for v in p.variables:
            p.upper[v] = None
            if rng.random() < 0.5:
                p.lower[v] = None
        programs.append(p)
    for _ in range(300):
        # rows of 0/1/2 over rhs 1 or 2 tie the ratio test often, and now
        # and then the tie-break decides which optimal vertex is returned
        p = LinearProgram()
        names = ["w", "x", "y", "z"][: rng.randint(3, 4)]
        for v in names:
            p.add_variable(v, lower=F(0))
        for _ in range(rng.randint(3, 5)):
            coeffs = {v: F(c) for v in names if (c := rng.randint(0, 2))}
            if coeffs:
                p.add_constraint(coeffs, "<=", F(rng.randint(1, 2)))
        p.set_objective({v: F(rng.randint(1, 2)) for v in names})
        programs.append(p)
    for _ in range(60):
        n = random_ldc_network(rng)
        programs.append(reference_mpf_program(n))
        programs.append(reference_mpf_program(subnetwork(n, rng.sample(n.edges, rng.randrange(len(n.edges))))))
    for x in (F(1), F(2), F(7, 3)):
        for polarity in Polarity:
            programs.append(reference_mpf_program(gsch(x, polarity=polarity)))
            n = gfch(x, polarity=polarity)
            (facts,) = n.facts_edges
            for s in (facts.s_min, facts.s_max):
                programs.append(reference_mpf_program(pin_susceptances(n, {facts: s})))
    return programs


# sha256 over the canonical (status, value, assignment) of every pinned
# program, one line each.  A pivot rule that returns another status,
# value or vertex on any of them changes this digest; most degenerate
# ties do not move the vertex, hence the many tie-prone programs.
PINNED_DIGEST = "4e272a676a8590813bb8a7ddb899491b6398d7759ec8884b76fa7e82c36b40bb"


def test_pinned_results_are_unchanged():
    lines = "\n".join(_canonical((solve_lp if in_standard_form(p) else reference_general_lp)(p)) for p in _pinned_programs())
    assert hashlib.sha256(lines.encode()).hexdigest() == PINNED_DIGEST


def _pinned_networks() -> list[Network]:
    """Seeded networks, some with a flowless component added, and FACTS variants of them."""
    rng = random.Random(1509)
    isolated = Network([("x0", NodeRole.GENERATOR), ("x1", NodeRole.PLAIN)], [fixed_edge("x0", "x1", 1, 2)])
    fixed = []
    for i in range(40):
        n = random_ldc_network(rng, max_edges=6)
        fixed.append(network_sum(n, isolated) if i % 4 == 0 else n)
    for x in (F(1), F(7, 3)):
        for polarity in Polarity:
            fixed.append(gsch(x, polarity=polarity))
    variants = []
    for n in fixed[:20]:
        chosen = set(rng.sample(n.edges, min(2, len(n.edges))))
        edges = [facts_edge(e.a, e.b, e.s_min, e.s_min + rng.choice((F(1, 2), F(1))), e.cap) if e in chosen else e for e in n.edges]
        variants.append(Network(n.nodes, edges))
    return fixed + variants + [gfch(x, polarity=p) for x in (F(1), F(2)) for p in Polarity]


def _outcome_lines() -> list[str]:
    lines = []
    for n in _pinned_networks():
        if n.is_fixed():
            for solver in (solve_msf_bnb, solve_msf_exhaustive):
                lines.append(json.dumps(serialize.msf_outcome_to_json(solver(n)), sort_keys=True))
        lines.append(json.dumps(serialize.mff_outcome_to_json(solve_mff_grid(n, 2)), sort_keys=True))
    return lines


# sha256 over the canonical JSON of both MSF searches and the k = 2 MFF
# grid search on every pinned network, one line each.  Unlike the LP pin
# above it sees everything `solve_mpf` does around `solve_lp`.
PINNED_OUTCOME_DIGEST = "7a19cf51ddefddf97493bad60e3f26a814c8ebc05260168e3ab5057c248f6f8b"


def test_pinned_outcomes_are_unchanged():
    lines = "\n".join(_outcome_lines())
    assert hashlib.sha256(lines.encode()).hexdigest() == PINNED_OUTCOME_DIGEST


def test_bland_tie_break_decides_among_optimal_vertices():
    # max x + 2y + 2z over 2x + y + z <= 1, 2x + z <= 1: every point with
    # x = 0 and y + z = 1 is optimal.  x enters first and ties the ratio
    # test on both rows; Bland leaves on the row whose basic column is
    # lowest (the first slack) and ends at (0, 1, 0).  Leaving on the
    # second row instead ends at (0, 0, 1).
    p = LinearProgram()
    for v in "xyz":
        p.add_variable(v, lower=F(0))
    p.add_constraint({"x": F(2), "y": F(1), "z": F(1)}, "<=", F(1))
    p.add_constraint({"x": F(2), "z": F(1)}, "<=", F(1))
    p.set_objective({"x": F(1), "y": F(2), "z": F(2)})
    r = solve_lp(p)
    assert r.value == 2 and r.assignment == {"x": 0, "y": 1, "z": 0}



def assert_matches_oracle(p: LinearProgram):
    r = reference_general_lp(p)
    status, value = lp_vertex_oracle(p)
    assert r.status.value == status
    if status == "optimal":
        assert r.value == value
        assert_feasible_optimum(p, r)
    return r


def test_fixed_variables_at_rational_values_fold_into_the_rows():
    p = LinearProgram()
    p.add_variable("x", lower=F(7, 3), upper=F(7, 3))
    p.add_variable("y", lower=F(-5, 2), upper=F(-5, 2))
    p.add_variable("z", lower=F(0), upper=F(10))
    p.add_variable("w", lower=F(-3), upper=F(4))
    p.add_constraint({"x": F(3, 2), "z": F(1), "w": F(1)}, "<=", F(6))
    p.add_constraint({"y": F(2), "z": F(-1), "w": F(2, 7)}, ">=", F(-8))
    # both fixed values meet in this row, over the LCM 6 of their denominators
    p.add_constraint({"x": F(1), "y": F(1), "w": F(1)}, "<=", F(1, 2))
    p.set_objective({"x": F(3), "z": F(1), "w": F(2)})
    r = assert_matches_oracle(p)
    assert r.assignment == {"z": F(11, 6), "w": F(2, 3), "x": F(7, 3), "y": F(-5, 2)}
    assert r.value == F(61, 6)


def test_upper_only_bound_shifts_the_rows():
    # x <= 7/3 with no lower bound becomes x = 7/3 - x' with x' >= 0
    p = LinearProgram()
    p.add_variable("x", upper=F(7, 3))
    p.add_variable("y", lower=F(0), upper=F(5))
    p.add_constraint({"x": F(1), "y": F(1)}, "<=", F(4))
    p.add_constraint({"x": F(1), "y": F(-1)}, ">=", F(-1))
    p.set_objective({"x": F(2), "y": F(1)})
    r = assert_matches_oracle(p)
    assert r.assignment == {"x": F(7, 3), "y": F(5, 3)} and r.value == F(19, 3)


def test_chained_elimination_back_substitutes_in_reverse():
    # x1 goes through the first row, which holds x2; the substitution puts
    # x2 into the second row, through which x2 goes next.  Recovering x1
    # needs the value of x2.
    p = LinearProgram()
    p.add_variable("x1")
    p.add_variable("x2")
    p.add_variable("y", lower=F(0), upper=F(3))
    p.add_variable("z", lower=F(0), upper=F(3))
    p.add_constraint({"x1": F(1), "x2": F(1), "y": F(1)}, "=", F(2))
    p.add_constraint({"x1": F(1), "x2": F(-1), "z": F(1, 3)}, "=", F(1))
    p.add_constraint({"x1": F(1), "x2": F(1)}, "<=", F(3, 2))
    p.set_objective({"x1": F(1), "x2": F(2), "y": F(1)})
    r = assert_matches_oracle(p)
    x1, x2 = r.assignment["x1"], r.assignment["x2"]
    assert x1 + x2 + r.assignment["y"] == 2 and x1 - x2 + r.assignment["z"] / 3 == 1


def test_equality_row_reducing_to_a_nonzero_constant_is_infeasible():
    # eliminating x through the first row leaves 0 = 1/3 in the second
    p = LinearProgram()
    p.add_variable("x")
    p.add_variable("y", lower=F(0), upper=F(1))
    p.add_constraint({"x": F(1), "y": F(1)}, "=", F(1))
    p.add_constraint({"x": F(3), "y": F(3)}, "=", F(10, 3))
    p.set_objective({"y": F(1)})
    assert reference_general_lp(p).status is LpStatus.INFEASIBLE
    assert lp_vertex_oracle(p) == ("infeasible", None)


def test_presolve_eliminates_the_first_free_variable_of_the_row():
    # every point of a - b = 1 is optimal; eliminating a (declared first)
    # leaves b as the split column at 0, so the vertex is a = 1, b = 0
    p = LinearProgram()
    p.add_variable("a")
    p.add_variable("b")
    p.add_constraint({"b": F(-1), "a": F(1)}, "=", F(1))
    r = reference_general_lp(p)
    assert r.status is LpStatus.OPTIMAL and r.assignment == {"a": F(1), "b": F(0)}


def test_a_column_fixed_at_zero_is_cleared_and_the_row_reduced():
    # x/2 + y <= 1 reads as [1, 2, 2, 2]; with x = 0 (no column) what is left shares the factor 2
    assert _substitute([1, 2, 2, 2], {}, {0: [], 1: [(0, 1)]}, 1) == [1, 1, 1]
    assert _substitute([1, 2, 2, 2], {}, {0: [(0, 1)], 1: []}, 1) == [1, 2, 2]
    p = LinearProgram()
    p.add_variable("x", lower=F(0), upper=F(0))
    p.add_variable("y", lower=F(0))
    p.add_constraint({"x": F(1, 2), "y": F(1)}, "<=", F(1))
    p.set_objective({"y": F(1)})
    r = reference_general_lp(p)
    assert (r.status, r.value, r.assignment) == (LpStatus.OPTIMAL, 1, {"x": 0, "y": 1})


def test_each_variable_left_gets_one_substitution():
    # x fixed at 7/3 has no column; y in [-3, 4] is -3 + y0 with y0 <= 7 a row
    # after the program's; z <= 5/2 is 5/2 - y1; w free is y2 - y3.  The second
    # row flips to <=, the third (y >= -2, so y0 >= 1) needs phase 1, whose
    # pivot makes y0 basic.
    p = LinearProgram()
    p.add_variable("x", lower=F(7, 3), upper=F(7, 3))
    p.add_variable("y", lower=F(-3), upper=F(4))
    p.add_variable("z", upper=F(5, 2))
    p.add_variable("w")
    p.add_constraint({"x": F(1), "y": F(1), "z": F(1), "w": F(1)}, "<=", F(6))
    p.add_constraint({"x": F(3), "y": F(1), "w": F(-1)}, ">=", F(1))
    p.add_constraint({"y": F(1)}, ">=", F(-2))
    p.set_objective({"y": F(1), "z": F(1)})
    objective, lower, upper = lp._read_program(p)
    assert not in_standard_form(p)
    obj = lp._int_row(dict(objective), F(0), 4)
    T, Z, basis, nonbasic, var_cols, shift, eliminated = _presolve([row[:] for row in p.rows], p.rels, lower, upper, obj)
    assert var_cols == {0: [], 1: [(0, 1)], 2: [(1, -1)], 3: [(2, 1), (3, -1)]}
    assert shift == {0: F(7, 3), 1: F(-3), 2: F(5, 2)} and eliminated == []
    assert T == [[-6, 6, -6, 6, 19, 6], [0, 1, -1, -1, 4, 1], [0, 0, 0, -1, 1, 1], [0, 0, 0, 1, 6, 1]]
    assert (Z, basis, nonbasic) == ([-2, 0, 0, 2, -1, 2], [4, 5, 0, 7], [1, 2, 3, 6])
    r = assert_matches_oracle(p)
    assert list(r.assignment.items()) == [("x", F(7, 3)), ("y", F(4)), ("z", F(5, 2)), ("w", F(-17, 6))] and r.value == F(13, 2)


# --- Standard-form programs against the general route -------------------------
#
# A program with only <= rows, nonnegative right-hand sides and every variable in
# [0, inf) is what `solve_lp` takes; one more variable fixed at 0, held by no row,
# leaves the program the same but out of standard form, so `solve_lp` refuses it
# and the general route solves it.


def with_a_fixed_variable(p: LinearProgram) -> LinearProgram:
    """p plus a variable `fixed` in [0, 0] that neither a row nor the objective holds."""
    return LinearProgram(
        p.variables + ["fixed"],
        {**p.lower, "fixed": F(0)},
        {**p.upper, "fixed": F(0)},
        [row[:-2] + [0] + row[-2:] for row in p.rows],
        list(p.rels),
        dict(p.objective),
    )


def solve_both_ways(p: LinearProgram) -> tuple:
    """solve_lp of p, and the general route of p with a fixed variable, which `solve_lp` must refuse."""
    padded = with_a_fixed_variable(p)
    direct = solve_lp(p)
    with pytest.raises(MalformedProgram, match="variable fixed has upper bound 0, not"):
        solve_lp(padded)
    general = reference_general_lp(padded)
    assert (direct.status, direct.value) == (general.status, general.value)
    if direct.status is LpStatus.OPTIMAL:
        assert list(general.assignment.items()) == [*direct.assignment.items(), ("fixed", 0)]
    return direct, general


def test_mpf_programs_solve_alike_with_and_without_the_presolve():
    rng = random.Random(1701)
    networks = [random_ldc_network(rng) for _ in range(60)]
    networks += [gsch(1, "v", Polarity.MINUS), gsch(2, "v", Polarity.PLUS)]
    for n in networks:
        direct, _ = solve_both_ways(formulate_mpf(n))
        assert direct.status is LpStatus.OPTIMAL


def test_standard_form_programs_match_the_vertex_oracle_and_the_presolve(rng):
    for k in range(300):
        p = random_standard_lp(rng)
        r, _ = solve_both_ways(p)
        bounded = all(any(row[j] for row in p.rows) for j in range(len(p.variables)))
        assert r.status is (LpStatus.OPTIMAL if bounded else LpStatus.UNBOUNDED)
        if bounded:
            assert_feasible_optimum(p, r)
            if k % 5 == 0:  # the oracle enumerates every vertex
                assert lp_vertex_oracle(p) == ("optimal", r.value)


@pytest.mark.parametrize(
    "program, message",
    [
        (LinearProgram(["x", "x"], {"x": F(0)}, {"x": None}, [[1, 1, 1, 1]], ["<="], {}), "duplicate variable names"),
        (LinearProgram(["x"], {"x": F(0)}, {"x": None}, [[1, 1, 1]], ["<="], {"y": F(1)}), "undeclared variable y"),
        (LinearProgram(["x"], {"x": F(0)}, {}, [[1, 1, 1]], ["<="], {"x": F(1)}), "no upper bound entry"),
    ],
    ids=["duplicate name", "undeclared objective variable", "bound entry missing"],
)
def test_a_standard_form_program_is_checked_before_its_slack_tableau(program, message):
    with pytest.raises(MalformedProgram, match=message):
        solve_lp(program)


def out_of_form(x_lower=F(0), x_upper=None, rel="<=", rhs=F(1)) -> LinearProgram:
    """y, then x, both in [0, inf) unless x's bounds say otherwise; c0: x + y <= 2, then c1: x `rel` rhs."""
    p = LinearProgram()
    p.add_variable("y", lower=F(0))
    p.add_variable("x", lower=x_lower, upper=x_upper)
    p.add_constraint({"x": F(1), "y": F(1)}, "<=", F(2))
    p.add_constraint({"x": F(1)}, rel, rhs)
    p.set_objective({"x": F(1), "y": F(1)})
    return p


@pytest.mark.parametrize(
    "program, message, c1, x_bound",
    [
        (out_of_form(rel=">="), "row c1 is a >= row", " c1: x >= 1", " 0 <= x <= +inf"),
        (out_of_form(rel="="), "row c1 is a = row", " c1: x = 1", " 0 <= x <= +inf"),
        (out_of_form(rhs=F(-1)), "row c1 has right-hand side -1", " c1: x <= -1", " 0 <= x <= +inf"),
        (out_of_form(x_lower=F(1)), "variable x has lower bound 1, not 0", " c1: x <= 1", " 1 <= x <= +inf"),
        (out_of_form(x_upper=F(4)), "variable x has upper bound 4, not +inf", " c1: x <= 1", " 0 <= x <= 4"),
        (out_of_form(x_lower=None), "variable x has lower bound -inf, not 0", " c1: x <= 1", " x free"),
    ],
    ids=[">= row", "= row", "negative rhs", "lower bound", "finite upper bound", "free variable"],
)
def test_solve_lp_refuses_a_program_out_of_standard_form_that_write_lp_text_renders(program, message, c1, x_bound):
    with pytest.raises(MalformedProgram, match=re.escape(message + "; solve_lp takes only <= rows")):
        solve_lp(program)
    lines = ["Maximize", " obj: y + x", "Subject To", " c0: y + x <= 2", c1, "Bounds", " 0 <= y <= +inf", x_bound, "End"]
    assert write_lp_text(program) == "\n".join(lines) + "\n"


# The condensed tableau pivots only the nonbasic columns; the full-width simplex
# it replaced (`reference_standard_lp`) must make every same choice.


def assert_matches_the_full_width_simplex(p: LinearProgram) -> LpStatus:
    r = solve_lp(p)
    status, value, vertex = reference_standard_lp(p)
    assert (r.status.value, r.value) == (status, value)
    if status == "optimal":
        assert list(r.assignment.items()) == list(vertex.items())
    return r.status


@settings(max_examples=300)  # a 1-in-40 program tells a wrong ratio-test tie-break apart
@given(st.integers(0, 2**32 - 1).map(lambda seed: random_standard_lp(random.Random(seed))))
def test_the_condensed_tableau_matches_the_full_width_simplex(p):
    assert_matches_the_full_width_simplex(p)


def rank(rows: list[list[F]]) -> int:
    """The rank of a rational matrix, by Gaussian elimination."""
    rows = [row[:] for row in rows]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c] / rows[r][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


@settings(max_examples=200)
@given(st.integers(0, 2**32 - 1).map(lambda seed: random_standard_lp(random.Random(seed))))
def test_a_standard_form_optimum_is_a_vertex(p):
    # a vertex: the rows and the bounds x >= 0 that hold with equality there have full rank
    r = solve_lp(p)
    if r.status is not LpStatus.OPTIMAL:
        return
    x = [r.assignment[v] for v in p.variables]
    n = len(x)
    active = [[F(c) for c in row[:n]] for row in p.rows if sum(c * xj for c, xj in zip(row, x)) == row[-2]]
    active += [[F(int(k == j)) for k in range(n)] for j in range(n) if x[j] == 0]
    assert rank(active) == n


def test_the_condensed_tableau_matches_the_full_width_simplex_on_pinned_exact_cover_programs():
    # 88 rows over 14 variables at each of the 8 endpoint assignments of 3 FACTS edges
    fig = ExactCover3Instance(("a", "b", "c", "d", "e", "f"), (("a", "b", "c"), ("b", "c", "d"), ("d", "e", "f")))
    n = encode_exact_cover_mff(fig).network
    facts = n.facts_edges
    for ends in itertools.product(*((e.s_min, e.s_max) for e in facts)):
        p = formulate_mpf(pin_susceptances(n, dict(zip(facts, ends))))
        assert assert_matches_the_full_width_simplex(p) is LpStatus.OPTIMAL


# --- Range rows ---------------------------------------------------------------
#
# A declared range row |c.x| <= rhs is one tableau row, its two slacks adding up
# to w = 2 * rhs.  The full-width simplex holds both of the rows it stands for,
# and every status, value and vertex must be the one it reaches; so must
# `solve_lp` on the expansion, which holds the two rows as plain rows.


@st.composite
def range_row_programs(draw, max_vars: int = 5, max_groups: int = 6) -> LinearProgram:
    """Standard-form programs with declared range rows among plain rows and rows written next to their negation.

    A range row's coefficients are 0, +-1 or +-2 over a rational scale,
    and its right-hand side, a multiple of that scale, is 0 (width 0) or
    positive.  A written-out pair is a row and its exact negation as two
    <= rows with right-hand sides drawn apart or equal.  Plain rows of
    nonnegative coefficients sit between them, and the objective is
    positive.  It has 2 to `max_vars` variables and 1 to `max_groups`
    groups (a range row, a pair or a plain row).
    """
    p = LinearProgram()
    for v in ["v", "w", "x", "y", "z"][: draw(st.integers(2, max_vars))]:
        p.add_variable(v, lower=F(0))
    for _ in range(draw(st.integers(1, max_groups))):
        scale = draw(st.sampled_from((F(1), F(1), F(1, 3), F(5, 2))))
        kind = draw(st.sampled_from(("range", "range", "width 0", "pair", "plain")))
        if kind == "plain":
            coeffs = {v: c * scale for v in p.variables if (c := draw(st.sampled_from((0, 1, 1, 2))))}
            p.add_constraint(coeffs, "<=", draw(st.integers(1, 2)) * scale)
            continue
        coeffs = {v: c * scale for v in p.variables if (c := draw(st.sampled_from((0, 1, -1, 2, -2))))}
        if kind == "pair":
            p.add_constraint(coeffs, "<=", draw(st.integers(0, 3)) * scale)
            p.add_constraint({v: -c for v, c in coeffs.items()}, "<=", draw(st.integers(0, 3)) * scale)
        else:
            p.add_constraint(coeffs, lp.RANGE, (0 if kind == "width 0" else draw(st.integers(1, 3))) * scale)
    p.set_objective({v: F(draw(st.integers(1, 2))) for v in p.variables})
    return p


@settings(max_examples=300)
@given(range_row_programs())
def test_range_rows_match_the_full_width_simplex_and_the_presolve(p):
    status = assert_matches_the_full_width_simplex(p)
    r, e = solve_lp(p), solve_lp(expanded(p))
    assert (r.status, r.value) == (e.status, e.value) and status is r.status
    if r.status is LpStatus.OPTIMAL:
        assert list(r.assignment.items()) == list(e.assignment.items())
    solve_both_ways(p)


@settings(max_examples=100)  # the oracle enumerates every vertex, so the programs are smaller
@given(range_row_programs(max_vars=4, max_groups=5))
def test_a_range_row_optimum_is_the_vertex_oracles(p):
    r = solve_lp(p)
    if r.status is LpStatus.OPTIMAL:  # x >= 0 makes the region pointed, so some vertex is optimal
        assert lp_vertex_oracle(p) == ("optimal", r.value)
        assert_feasible_optimum(expanded(p), r)


def numbered(range_rhs: F, rel: str) -> LinearProgram:
    """c0: x <= 2, then the range row |x - y/2| <= range_rhs (c1 and c2), then c3: y `rel` 1."""
    p = LinearProgram()
    p.add_variable("x", lower=F(0))
    p.add_variable("y", lower=F(0))
    p.add_constraint({"x": F(1)}, "<=", F(2))
    p.add_constraint({"x": F(1), "y": F(-1, 2)}, lp.RANGE, range_rhs)
    p.add_constraint({"y": F(1)}, rel, F(1))
    p.set_objective({"x": F(1)})
    return p


@pytest.mark.parametrize("range_rhs, rel, message", [(F(-1), "<=", "row c1 has right-hand side -1"), (F(1), ">=", "row c3 is a >= row")])
def test_a_range_row_is_numbered_and_written_as_its_two_rows(range_rhs, rel, message):
    p = numbered(range_rhs, rel)
    assert p.constraints == expanded(p).constraints and len(p.constraints) == 4
    text = write_lp_text(p)
    assert text == write_lp_text(expanded(p))
    assert f"\n c1: x - 0.5 y <= {range_rhs}\n c2: - x + 0.5 y <= {range_rhs}\n c3: y {rel} 1\n" in text
    for q in (p, expanded(p)):
        with pytest.raises(MalformedProgram, match=re.escape(message + "; solve_lp takes only <= rows")):
            solve_lp(q)


def ranges_and_complements(p: LinearProgram, monkeypatch) -> tuple[dict, list[str]]:
    """p's range pairs, and the complements its solve makes ("row" or "column"), after checking it against the full-width simplex."""
    made = []
    row, column = lp._complement_row, lp._complement_column
    monkeypatch.setattr(lp, "_complement_row", lambda *args: made.append("row") or row(*args))
    monkeypatch.setattr(lp, "_complement_column", lambda *args: made.append("column") or column(*args))
    assert assert_matches_the_full_width_simplex(p) is LpStatus.OPTIMAL
    _, _, ranges = lp._slack_tableau(p.rows, p.rels, len(p.variables))
    return ranges, made


def test_a_range_row_leaves_at_its_width_under_its_partners_label(monkeypatch):
    # |-x| <= 2, its slacks s1 and s2 adding up to w = 4: x's entry in the kept
    # row (-x + s1 = 2) is negative, so its partner x + s2 = 2 limits x, at
    # ratio 4 - 2 = 2; the row is complemented to s2's and then pivoted
    p = LinearProgram()
    p.add_variable("x", lower=F(0))
    p.add_constraint({"x": F(-1)}, lp.RANGE, F(2))
    p.set_objective({"x": F(1)})
    ranges, made = ranges_and_complements(p, monkeypatch)
    assert ranges == {1: (2, 4, 1), 2: (1, 4, 1)} and made == ["row"]
    r = solve_lp(p)
    assert (r.value, r.assignment) == (2, {"x": 2})


def test_an_entering_range_column_flips_to_its_width(monkeypatch):
    # |x - y| <= 1, slacks s2 and s3 adding up to w = 2, and x <= 1 (slack s4).
    # x enters and ties both rows at ratio 1; the range row leaves, x = 1 - s2 + y.
    # y enters and x <= 1 leaves at ratio 0, y = s2 - s4.  Then s2 enters: no row
    # limits it, and its own bound w is the least ratio, so it flips to its
    # partner s3 = 2 - s2, complementing its column in y's row and the
    # objective with no elimination
    p = LinearProgram()
    p.add_variable("x", lower=F(0))
    p.add_variable("y", lower=F(0))
    p.add_constraint({"x": F(1), "y": F(-1)}, lp.RANGE, F(1))
    p.add_constraint({"x": F(1)}, "<=", F(1))
    p.set_objective({"x": F(1), "y": F(1)})
    ranges, made = ranges_and_complements(p, monkeypatch)
    assert ranges == {2: (3, 2, 1), 3: (2, 2, 1)} and made == ["column", "column"]
    r = solve_lp(p)
    assert (r.value, r.assignment) == (3, {"x": 1, "y": 2})


def test_a_row_written_next_to_its_negation_is_not_folded(monkeypatch):
    # the first test's range row written out as two rows: no range pair, the
    # same result
    p = LinearProgram()
    p.add_variable("x", lower=F(0))
    p.add_constraint({"x": F(-1)}, "<=", F(2))
    p.add_constraint({"x": F(1)}, "<=", F(2))
    p.set_objective({"x": F(1)})
    ranges, made = ranges_and_complements(p, monkeypatch)
    assert ranges == {} and made == []
    r = solve_lp(p)
    assert (r.value, r.assignment) == (2, {"x": 2})

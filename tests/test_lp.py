import hashlib
import json
import random
from fractions import Fraction as F

import pytest

from conftest import random_boxed_lp, random_ldc_network
from ldcflow import serialize
from ldcflow.errors import MalformedProgram
from ldcflow.gadgets import Polarity, gfch, gsch
from ldcflow.lp import LinearProgram, LpStatus, _fold, solve_lp, write_lp_text
from ldcflow.mff import pin_susceptances, solve_mff_grid
from ldcflow.mpf import formulate_mpf
from ldcflow.msf import solve_msf_bnb, solve_msf_exhaustive
from ldcflow.network import Network, NodeRole, facts_edge, fixed_edge, network_sum, subnetwork
from ldcflow.rational import rat_str
from oracles import lp_vertex_oracle


def boxed(name, lo, hi, p):
    p.add_variable(name, lower=F(lo), upper=F(hi))


def test_single_boxed_variable():
    p = LinearProgram()
    p.add_variable("x", lower=F(0), upper=F(4))
    p.set_objective({"x": F(1)})
    r = solve_lp(p)
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
    r = solve_lp(p)
    assert r.status is LpStatus.OPTIMAL and r.value == 3
    status, value = lp_vertex_oracle(p)
    assert (status, value) == ("optimal", F(3))


def test_infeasible_detected():
    p = LinearProgram()
    p.add_variable("x", lower=F(0))
    p.add_constraint({"x": F(1)}, "<=", F(-1))
    assert solve_lp(p).status is LpStatus.INFEASIBLE


def test_unbounded_detected():
    p = LinearProgram()
    p.add_variable("x", lower=F(0))
    p.set_objective({"x": F(1)})
    assert solve_lp(p).status is LpStatus.UNBOUNDED


def test_free_variable_unbounded_both_ways():
    p = LinearProgram()
    p.add_variable("x")
    p.set_objective({"x": F(-1)})
    assert solve_lp(p).status is LpStatus.UNBOUNDED


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
    r = solve_lp(p)
    assert r.value == 5 and r.assignment["x"] == 3


def test_matches_vertex_oracle_on_random_programs(rng):
    agreements = {"optimal": 0, "infeasible": 0}
    for _ in range(100):
        p = random_boxed_lp(rng)
        r = solve_lp(p)
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
        r = solve_lp(p)
        status, value = lp_vertex_oracle(p)
        assert r.status.value == status
        if status == "optimal":
            assert r.value == value
            assert_feasible_optimum(p, r)
        agreements[status] += 1
    assert agreements["optimal"] > 0 and agreements["infeasible"] > 0


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
    r = solve_lp(p)
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
    r = solve_lp(p)
    assert r.status is LpStatus.OPTIMAL and r.assignment == expected
    assert lp_vertex_oracle(p) == ("optimal", r.value)


def test_row_and_column_permutations_do_not_change_value(rng):
    for _ in range(20):
        p = random_boxed_lp(rng)
        base = solve_lp(p)
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
        again = solve_lp(perm)
        assert again.status == base.status
        if base.status is LpStatus.OPTIMAL:
            assert again.value == base.value


def test_repeated_solves_are_identical(rng):
    p = random_boxed_lp(rng)
    first = solve_lp(p)
    second = solve_lp(p)
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


def _canonical(r) -> str:
    value = None if r.value is None else rat_str(r.value)
    assignment = None if r.assignment is None else sorted((v, rat_str(x)) for v, x in r.assignment.items())
    return repr((r.status.value, value, assignment))


def _pinned_programs() -> list[LinearProgram]:
    """Seeded boxed, unboxed and tie-prone LPs, MPF programs of random networks and of both gadgets."""
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
        programs.append(formulate_mpf(n))
        programs.append(formulate_mpf(subnetwork(n, rng.sample(n.edges, rng.randrange(len(n.edges))))))
    for x in (F(1), F(2), F(7, 3)):
        for polarity in Polarity:
            programs.append(formulate_mpf(gsch(x, polarity=polarity)))
            n = gfch(x, polarity=polarity)
            (facts,) = n.facts_edges
            for s in (facts.s_min, facts.s_max):
                programs.append(formulate_mpf(pin_susceptances(n, {facts: s})))
    return programs


# sha256 over the canonical (status, value, assignment) of every pinned
# program, one line each.  A pivot rule that returns another status,
# value or vertex on any of them changes this digest; most degenerate
# ties do not move the vertex, hence the many tie-prone programs.
PINNED_DIGEST = "4e272a676a8590813bb8a7ddb899491b6398d7759ec8884b76fa7e82c36b40bb"


def test_pinned_results_are_unchanged():
    lines = "\n".join(_canonical(solve_lp(p)) for p in _pinned_programs())
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
PINNED_OUTCOME_DIGEST = "eb51e571a38acb3ecec15c3cd994de19bdfc1e4810393ae3cc1f15ce6d06eb58"


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
    r = solve_lp(p)
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
    assert solve_lp(p).status is LpStatus.INFEASIBLE
    assert lp_vertex_oracle(p) == ("infeasible", None)


def test_presolve_eliminates_the_first_free_variable_of_the_row():
    # every point of a - b = 1 is optimal; eliminating a (declared first)
    # leaves b as the split column at 0, so the vertex is a = 1, b = 0
    p = LinearProgram()
    p.add_variable("a")
    p.add_variable("b")
    p.add_constraint({"b": F(-1), "a": F(1)}, "=", F(1))
    r = solve_lp(p)
    assert r.status is LpStatus.OPTIMAL and r.assignment == {"a": F(1), "b": F(0)}


def test_a_column_fixed_at_zero_is_cleared_and_the_row_reduced():
    # x/2 + y <= 1 reads as [1, 2, 2, 2]; with x = 0 what is left shares the factor 2
    assert _fold([1, 2, 2, 2], {0: F(0)}, True) == [0, 1, 1, 1]
    assert _fold([1, 2, 2, 2], {1: F(0)}, True) == [1, 0, 2, 2]
    p = LinearProgram()
    p.add_variable("x", lower=F(0), upper=F(0))
    p.add_variable("y", lower=F(0))
    p.add_constraint({"x": F(1, 2), "y": F(1)}, "<=", F(1))
    p.set_objective({"y": F(1)})
    r = solve_lp(p)
    assert (r.status, r.value, r.assignment) == (LpStatus.OPTIMAL, 1, {"x": 0, "y": 1})

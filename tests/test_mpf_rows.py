"""The integer-row MPF builder against the `Fraction` reference program.

`formulate_mpf` writes its terminal-space rows as integers;
`oracles.reference_terminal_program` builds the same program constraint by
constraint, its shift factors found by `gauss_solve`.  On seeded networks
and on networks that `formulate_mpf` accepts without validation (parallel
edges that add up, self-loops that cancel, susceptances that sum to zero,
negative ones), the two must be the same program, holding the same integer
rows, with the same result, before and after the program is changed.  A
flowing component whose reduced Laplacian is singular has no such program:
`formulate_mpf` raises `MalformedProgram` exactly when `gauss_solve` finds
one.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, strategies as st

import ldcflow.classify
from ldcflow.errors import MalformedProgram
from ldcflow.lp import LinearProgram, _int_row, solve_lp
from ldcflow.mpf import formulate_mpf, solve_mpf
from ldcflow.network import Network, NodeRole, fixed_edge, network_sum

from conftest import random_ldc_network
from oracles import reference_terminal_program

NAMES = ["a", "b", "c", "d", "e"]
SUSCEPTANCES = [F(1), F(2), F(1, 2), F(3, 2), F(2, 3), F(-1), F(-1, 2)]
CAPACITIES = [F(1), F(3), F(5, 2), F(1, 3)]


@st.composite
def unvalidated_networks(draw) -> Network:
    """Up to five nodes of any role and up to eight edges on any pair, a node with itself included."""
    nodes = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=5, unique=True))
    roles = [(v, draw(st.sampled_from(NodeRole))) for v in nodes]
    ends = st.sampled_from(nodes)
    edges = draw(st.lists(st.tuples(ends, ends, st.sampled_from(SUSCEPTANCES), st.sampled_from(CAPACITIES)), max_size=8))
    return Network(roles, [fixed_edge(a, b, s, cap) for a, b, s, cap in edges])


seeded_networks = st.integers(0, 2**32 - 1).map(lambda seed: random_ldc_network(random.Random(seed)))
networks = st.one_of(seeded_networks, unvalidated_networks())

GEN, LOAD, PLAIN = NodeRole.GENERATOR, NodeRole.LOAD, NodeRole.PLAIN
# Always among the examples: parallel edges whose susceptances sum to zero, a
# self-loop at a pinned and at an unpinned node, rational parallel edges, and
# negative susceptances that leave a zero pivot in a regular reduced Laplacian.
# With nothing else between a and b the zero sum leaves it singular.
ZERO_SUM = Network(
    [("a", GEN), ("b", LOAD), ("c", PLAIN)],
    [fixed_edge("a", "b", 1, 1), fixed_edge("a", "b", -1, 2), fixed_edge("b", "c", F(1, 2), 3), fixed_edge("a", "c", 1, 1)],
)
SINGULAR = Network([("a", GEN), ("b", LOAD), ("c", PLAIN)], [fixed_edge("a", "b", 1, 1), fixed_edge("a", "b", -1, 2), fixed_edge("b", "c", F(1, 2), 3)])
ZERO_PIVOT = Network([("a", GEN), ("b", PLAIN), ("c", LOAD)], [fixed_edge("a", "b", 1, 1), fixed_edge("b", "c", -1, 2), fixed_edge("a", "c", 1, 3)])
SELF_LOOPS = Network([("a", GEN), ("b", LOAD)], [fixed_edge("a", "a", F(2, 3), 1), fixed_edge("a", "b", 2, F(5, 2)), fixed_edge("b", "b", F(1, 2), 1)])
PARALLEL = Network([("a", GEN), ("b", LOAD)], [fixed_edge("a", "b", F(1, 2), 1), fixed_edge("a", "b", F(1, 2), F(1, 3))])


def fields(p: LinearProgram) -> tuple:
    return (p.variables, p.lower, p.upper, p.rows, p.rels, p.constraints, p.objective)


def reads(p: LinearProgram) -> list[list[int]]:
    """The rows `add_constraint` writes for a program's `Fraction` constraints."""
    index = {v: j for j, v in enumerate(p.variables)}
    return [_int_row({index[v]: c for v, c in con.coeffs.items()}, con.rhs, len(p.variables)) for con in p.constraints]


def programs(n: Network) -> tuple[LinearProgram, LinearProgram]:
    """`formulate_mpf`'s program and the reference, for a network without a singular component."""
    ref = reference_terminal_program(n)
    assume(ref is not None)
    return formulate_mpf(n), ref


def same_result(p: LinearProgram, q: LinearProgram) -> None:
    r, s = solve_lp(p), solve_lp(q)
    assert (r.status, r.value, r.assignment) == (s.status, s.value, s.assignment)


@given(networks)
@example(SINGULAR)
@example(ZERO_PIVOT)
def test_a_singular_component_is_refused_exactly_when_gauss_solve_finds_one(n):
    ref = reference_terminal_program(n)
    if ref is None:
        with pytest.raises(MalformedProgram, match="singular"):
            formulate_mpf(n)
    else:
        assert formulate_mpf(n) == ref


@given(networks)
@example(ZERO_SUM)
@example(SELF_LOOPS)
@example(PARALLEL)
@example(ZERO_PIVOT)
def test_rows_are_the_ones_solve_lp_reads_from_the_reference(n):
    p, ref = programs(n)
    assert p.rows == ref.rows == reads(ref)
    assert p.rels == ref.rels == [con.rel for con in ref.constraints]


@given(networks)
@example(ZERO_SUM)
@example(SELF_LOOPS)
@example(PARALLEL)
def test_program_and_result_equal_the_reference(n):
    p, ref = programs(n)
    rows = copy.deepcopy(p.rows)
    same_result(p, ref)
    assert p.rows == rows  # solving leaves the rows as they were
    same_result(p, ref)
    assert fields(p) == fields(ref)


MUTATIONS = ("add_constraint", "set_objective", "bound", "declare")


@given(networks, st.sampled_from(MUTATIONS), st.randoms(use_true_random=False))
@example(ZERO_SUM, "bound", random.Random(1))
@example(SELF_LOOPS, "set_objective", random.Random(2))
def test_a_changed_program_solves_like_the_changed_reference(n, mutation, rng):
    p, ref = programs(n)
    assume(p.variables)  # a network without a generator or a load has none
    v, rel, rhs, sign = rng.choice(p.variables), rng.choice(["<=", ">="]), F(rng.randint(-2, 2)), rng.choice([-1, 1])
    for q in (p, ref):
        if mutation == "add_constraint":
            q.add_constraint({v: F(1)}, rel, rhs)
        elif mutation == "set_objective":
            q.set_objective({v: F(sign)})
        elif mutation == "bound":
            q.upper[v] = F(1, 2)
        else:
            q.add_variable("x", lower=F(0), upper=F(1))
            q.objective["x"] = F(1)
    same_result(p, ref)
    assert fields(p) == fields(ref)


@given(networks)
@example(PARALLEL)
def test_a_variable_appended_to_the_list_itself_is_rejected(n):
    p, _ = programs(n)
    assume(p.rows)  # without rows, appending to the list is declaring the variable
    p.variables.append("x")
    p.lower["x"], p.upper["x"] = F(0), F(1)
    with pytest.raises(MalformedProgram):
        solve_lp(p)


@given(networks)
@example(ZERO_SUM)
@example(SELF_LOOPS)
@example(PARALLEL)
def test_equality_repr_and_pickle_match_an_eagerly_built_program(n):
    p, eager = programs(n)
    assert p == eager
    assert repr(p) == repr(eager)
    assert pickle.loads(pickle.dumps(p)) == eager
    assert dataclasses.asdict(p) == dataclasses.asdict(eager)
    assert dataclasses.replace(p) == eager


@given(networks)
@example(PARALLEL)
def test_a_variable_declared_after_the_constraints_pads_the_rows(n):
    p, ref = programs(n)
    p.add_variable("x", lower=F(0), upper=F(1))
    first = LinearProgram()
    for v in ref.variables:
        first.add_variable(v, ref.lower[v], ref.upper[v])
    first.add_variable("x", lower=F(0), upper=F(1))
    for con in ref.constraints:
        first.add_constraint(con.coeffs, con.rel, con.rhs)
    first.set_objective(ref.objective)
    for q in (p, first):
        q.objective["x"] = F(1)
    assert p == first
    same_result(p, first)


@pytest.fixture
def traversals(monkeypatch):
    """Count neighbour-list builds: `connected_components` makes one per traversal."""
    calls = []
    neighbours = ldcflow.classify._neighbours

    def counted(n):
        calls.append(n)
        return neighbours(n)

    monkeypatch.setattr(ldcflow.classify, "_neighbours", counted)
    return calls


def test_solve_mpf_traverses_the_components_once(traversals):
    rng = random.Random(1601)
    lonely = Network([("x0", GEN), ("x1", GEN)], [fixed_edge("x0", "x1", 1, 2)])
    for _ in range(20):
        n = random_ldc_network(rng)
        for m in (n, network_sum(n, lonely), lonely):
            traversals.clear()
            solve_mpf(m)
            assert len(traversals) == 1

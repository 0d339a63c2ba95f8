"""The integer-row MPF builder against the `Fraction` reference program.

`formulate_mpf` writes its rows as integers; `oracles.reference_mpf_program`
builds the same program constraint by constraint.  On seeded networks and
on networks that `formulate_mpf` accepts without validation (parallel
edges, self-loops, susceptances that sum to zero, negative ones), the two
must be the same program, read by `solve_lp` into the same rows, with the
same result, before and after the program is changed.
"""

from __future__ import annotations

import dataclasses
import pickle
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, strategies as st

import ldcflow.classify
from ldcflow.lp import LinearProgram, _int_row, solve_lp
from ldcflow.mpf import formulate_mpf, solve_mpf
from ldcflow.network import Network, NodeRole, fixed_edge, network_sum

from conftest import random_ldc_network
from oracles import reference_mpf_program

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
# self-loop at a pinned and at an unpinned node, and rational parallel edges.
ZERO_SUM = Network([("a", GEN), ("b", LOAD), ("c", PLAIN)], [fixed_edge("a", "b", 1, 1), fixed_edge("a", "b", -1, 2), fixed_edge("b", "c", F(1, 2), 3)])
SELF_LOOPS = Network([("a", GEN), ("b", LOAD)], [fixed_edge("a", "a", F(2, 3), 1), fixed_edge("a", "b", 2, F(5, 2)), fixed_edge("b", "b", F(1, 2), 1)])
PARALLEL = Network([("a", GEN), ("b", LOAD)], [fixed_edge("a", "b", F(1, 2), 1), fixed_edge("a", "b", F(1, 2), F(1, 3))])


def fields(p: LinearProgram) -> tuple:
    return (p.variables, p.lower, p.upper, p.constraints, p.objective)


def reads(p: LinearProgram) -> list[list[int]]:
    """The rows `solve_lp` builds from a program's `Fraction` constraints, before the fold."""
    index = {v: j for j, v in enumerate(p.variables)}
    return [_int_row({index[v]: c for v, c in con.coeffs.items()}, con.rhs, len(p.variables)) for con in p.constraints]


def same_result(p: LinearProgram, q: LinearProgram) -> None:
    r, s = solve_lp(p), solve_lp(q)
    assert (r.status, r.value, r.assignment) == (s.status, s.value, s.assignment)


@given(networks)
@example(ZERO_SUM)
@example(SELF_LOOPS)
@example(PARALLEL)
def test_rows_are_the_ones_solve_lp_reads_from_the_reference(n):
    p, ref = formulate_mpf(n), reference_mpf_program(n)
    rows, rels = p.held_rows()
    assert rows == reads(ref)
    assert rels == [con.rel for con in ref.constraints]


@given(networks)
@example(ZERO_SUM)
@example(SELF_LOOPS)
@example(PARALLEL)
def test_program_and_result_equal_the_reference(n):
    p, ref = formulate_mpf(n), reference_mpf_program(n)
    same_result(p, ref)
    assert p.held_rows() is not None  # solving reads the rows without building the list
    same_result(p, ref)  # and leaves them as they were
    assert fields(p) == fields(ref)


MUTATIONS = ("add_constraint", "set_objective", "bound", "declare")


@given(networks, st.sampled_from(MUTATIONS), st.randoms(use_true_random=False))
@example(ZERO_SUM, "bound", random.Random(1))
@example(SELF_LOOPS, "set_objective", random.Random(2))
def test_a_changed_program_solves_like_the_changed_reference(n, mutation, rng):
    p, ref = formulate_mpf(n), reference_mpf_program(n)
    v, rel, rhs, sign = rng.choice(p.variables), rng.choice(["<=", ">="]), F(rng.randint(-2, 2)), rng.choice([-1, 1])
    for q in (p, ref):
        if mutation == "add_constraint":
            q.add_constraint({v: F(1)}, rel, rhs)
        elif mutation == "set_objective":
            q.set_objective({v: F(sign)})
        elif mutation == "bound":
            q.upper[v] = F(1, 2)
        else:  # a variable appended to the list itself, not through add_variable
            q.variables.append("x")
            q.lower["x"], q.upper["x"] = F(0), F(1)
            q.objective["x"] = F(1)
    assert (p.held_rows() is None) == (mutation in ("add_constraint", "declare"))
    same_result(p, ref)
    assert fields(p) == fields(ref)


@given(networks)
@example(ZERO_SUM)
@example(SELF_LOOPS)
@example(PARALLEL)
def test_equality_repr_and_pickle_match_an_eagerly_built_program(n):
    eager = formulate_mpf(n)
    assert eager.constraints is eager.constraints and eager.held_rows() is None
    assert formulate_mpf(n) == eager == reference_mpf_program(n)
    assert repr(formulate_mpf(n)) == repr(eager)
    assert pickle.loads(pickle.dumps(formulate_mpf(n))) == eager
    assert pickle.loads(pickle.dumps(formulate_mpf(n))).held_rows() is None
    assert dataclasses.asdict(formulate_mpf(n)) == dataclasses.asdict(eager)
    assert dataclasses.replace(formulate_mpf(n)) == eager


def test_a_row_backed_program_is_a_dataclass_over_the_same_fields():
    p = formulate_mpf(PARALLEL)
    assert dataclasses.is_dataclass(p)
    assert [f.name for f in dataclasses.fields(p)] == ["variables", "lower", "upper", "constraints", "objective"]
    q = dataclasses.replace(p, constraints=[])
    assert q.constraints == [] and q.held_rows() is None and q.variables == p.variables


def test_add_variable_drops_the_rows():
    n = Network([("a", GEN), ("b", LOAD)], [fixed_edge("a", "b", F(1, 2), 3)])
    p = formulate_mpf(n)
    p.add_variable("x", lower=F(0), upper=F(1))
    assert p.held_rows() is None
    assert p.constraints == reference_mpf_program(n).constraints


@pytest.fixture
def traversals(monkeypatch):
    """Count adjacency builds: `connected_components` makes one per traversal."""
    calls = []
    adjacency = ldcflow.classify._adjacency

    def counted(n):
        calls.append(n)
        return adjacency(n)

    monkeypatch.setattr(ldcflow.classify, "_adjacency", counted)
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

"""The integer-row MPF builder against the `Fraction` reference program.

`formulate_mpf` writes its terminal-space rows as integers;
`oracles.reference_terminal_program` builds the same program constraint by
constraint, its shift factors found by `gauss_solve`.  On every valid
network the two must be the same program, holding the same integer rows,
with the same result, before and after the program is changed; on every
other one `formulate_mpf` raises `InvalidNetwork` with `validate_network`'s
report.  A network with a component whose reduced Laplacian `gauss_solve`
finds singular is never valid, and the program of some of a network's
components is that of the network holding them alone.
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
import ldcflow.network
from ldcflow.classify import connected_components
from ldcflow.errors import InvalidNetwork, MalformedProgram
from ldcflow.lp import RANGE, LinearProgram, _int_row, solve_lp, write_lp_text
from ldcflow.mpf import formulate_mpf, solve_mpf
from ldcflow.network import Network, NodeRole, fixed_edge, network_sum, subnetwork, validate_network

from conftest import random_ldc_network
from oracles import expanded, in_standard_form, reference_general_lp, reference_terminal_program

NAMES = ["a", "b", "c", "d", "e"]
POSITIVE = [F(1), F(2), F(1, 2), F(3, 2), F(2, 3)]
SUSCEPTANCES = POSITIVE + [F(0), F(-1), F(-1, 2)]
CAPACITIES = [F(1), F(3), F(5, 2), F(1, 3)]


@st.composite
def unvalidated_networks(draw) -> Network:
    """Up to five nodes of any role and up to eight edges on any pair, a node with itself included."""
    nodes = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=5, unique=True))
    roles = [(v, draw(st.sampled_from(NodeRole))) for v in nodes]
    ends = st.sampled_from(nodes)
    edges = draw(st.lists(st.tuples(ends, ends, st.sampled_from(SUSCEPTANCES), st.sampled_from(CAPACITIES)), max_size=8))
    return Network(roles, [fixed_edge(a, b, s, cap) for a, b, s, cap in edges])


@st.composite
def valid_networks(draw, names: list[str] = NAMES) -> Network:
    """Up to five of `names`, of any role, and an edge on each of up to eight pairs of them, with positive susceptances."""
    nodes = draw(st.lists(st.sampled_from(names), min_size=1, max_size=5, unique=True))
    roles = [(v, draw(st.sampled_from(NodeRole))) for v in nodes]
    pairs = draw(st.lists(st.sampled_from([(a, b) for a in nodes for b in nodes if a < b] or [None]), max_size=8, unique=True))
    edges = [fixed_edge(a, b, draw(st.sampled_from(POSITIVE)), draw(st.sampled_from(CAPACITIES))) for a, b in filter(None, pairs)]
    return Network(roles, edges)


seeded_networks = st.integers(0, 2**32 - 1).map(lambda seed: random_ldc_network(random.Random(seed)))
networks = st.one_of(seeded_networks, valid_networks())

GEN, LOAD, PLAIN = NodeRole.GENERATOR, NodeRole.LOAD, NodeRole.PLAIN
# Invalid, and always among the examples: parallel edges whose susceptances
# sum to zero, which with nothing else between a and b leave the reduced
# Laplacian singular; a triangle with one negative susceptance that leaves
# it singular; negative susceptances that would leave a zero pivot in a
# regular one; self-loops; rational parallel edges.
ZERO_SUM = Network(
    [("a", GEN), ("b", LOAD), ("c", PLAIN)],
    [fixed_edge("a", "b", 1, 1), fixed_edge("a", "b", -1, 2), fixed_edge("b", "c", F(1, 2), 3), fixed_edge("a", "c", 1, 1)],
)
SINGULAR = Network([("a", GEN), ("b", LOAD), ("c", PLAIN)], [fixed_edge("a", "b", 1, 1), fixed_edge("a", "b", -1, 2), fixed_edge("b", "c", F(1, 2), 3)])
SIGNED_TRIANGLE = Network([("a", GEN), ("b", PLAIN), ("c", LOAD)], [fixed_edge("a", "b", 1, 1), fixed_edge("b", "c", 1, 2), fixed_edge("a", "c", F(-1, 2), 3)])
ZERO_PIVOT = Network([("a", GEN), ("b", PLAIN), ("c", LOAD)], [fixed_edge("a", "b", 1, 1), fixed_edge("b", "c", -1, 2), fixed_edge("a", "c", 1, 3)])
SELF_LOOPS = Network([("a", GEN), ("b", LOAD)], [fixed_edge("a", "a", F(2, 3), 1), fixed_edge("a", "b", 2, F(5, 2)), fixed_edge("b", "b", F(1, 2), 1)])
PARALLEL = Network([("a", GEN), ("b", LOAD)], [fixed_edge("a", "b", F(1, 2), 1), fixed_edge("a", "b", F(1, 2), F(1, 3))])
# Valid, and always among the examples: a triangle and a pendant edge with
# rational susceptances and capacities, and two cyclic components beside a
# single edge and an isolated node.
RATIONAL = Network(
    [("a", GEN), ("b", LOAD), ("c", PLAIN), ("d", LOAD)],
    [fixed_edge("a", "b", F(1, 2), 1), fixed_edge("a", "c", F(2, 3), F(5, 2)), fixed_edge("b", "c", F(3, 2), F(1, 3)), fixed_edge("c", "d", 2, 3)],
)
COMPONENTS = Network(
    [("a", GEN), ("b", LOAD), ("c", PLAIN), ("d", GEN), ("e", LOAD), ("f", LOAD), ("g", GEN), ("h", PLAIN), ("i", GEN), ("j", LOAD), ("k", PLAIN)],
    [
        fixed_edge("a", "b", 1, 1), fixed_edge("a", "c", 2, 3), fixed_edge("b", "c", F(1, 2), 1),
        fixed_edge("d", "e", 1, 2), fixed_edge("d", "f", F(3, 2), 1), fixed_edge("e", "f", 1, F(1, 3)), fixed_edge("f", "g", 2, 1),
        fixed_edge("h", "i", 1, 1), fixed_edge("j", "k", 1, 1),
    ],
)


def fields(p: LinearProgram) -> tuple:
    return (p.variables, p.lower, p.upper, p.rows, p.rels, p.constraints, p.objective)


def reads(p: LinearProgram) -> list[list[int]]:
    """The rows `add_constraint` writes for a program's `Fraction` constraints."""
    index = {v: j for j, v in enumerate(p.variables)}
    return [_int_row({index[v]: c for v, c in con.coeffs.items()}, con.rhs, len(p.variables)) for con in p.constraints]


def programs(n: Network) -> tuple[LinearProgram, LinearProgram]:
    """`formulate_mpf`'s program and the reference, for a valid network."""
    return formulate_mpf(n), reference_terminal_program(n)


def same_result(p: LinearProgram, q: LinearProgram, solve=solve_lp) -> None:
    r, s = solve(p), solve(q)
    assert (r.status, r.value, r.assignment) == (s.status, s.value, s.assignment)


@given(st.one_of(seeded_networks, valid_networks(), unvalidated_networks()))
@example(ZERO_SUM)
@example(SINGULAR)
@example(SIGNED_TRIANGLE)
@example(ZERO_PIVOT)
@example(SELF_LOOPS)
@example(PARALLEL)
@example(RATIONAL)
def test_an_invalid_network_is_refused_and_a_valid_one_gets_the_reference(n):
    report = validate_network(n)
    if report.ok:
        assert formulate_mpf(n) == reference_terminal_program(n)
    else:
        with pytest.raises(InvalidNetwork) as raised:
            formulate_mpf(n)
        assert raised.value.report == report


@given(unvalidated_networks())
@example(SINGULAR)
@example(SIGNED_TRIANGLE)
def test_a_network_with_a_singular_component_is_invalid(n):
    if reference_terminal_program(n) is None:
        assert not validate_network(n).ok


def test_the_singular_examples_are_singular():
    assert reference_terminal_program(SINGULAR) is None and reference_terminal_program(SIGNED_TRIANGLE) is None


@st.composite
def networks_and_components(draw) -> tuple[Network, list[set[str]]]:
    """A valid network, often of several components, and some of its components in their order."""
    n = draw(st.one_of(networks, st.tuples(valid_networks(), valid_networks(list("pqrst"))).map(lambda pair: network_sum(*pair))))
    comps = connected_components(n)
    keep = draw(st.lists(st.booleans(), min_size=len(comps), max_size=len(comps)))
    return n, [comp for comp, kept in zip(comps, keep) if kept]


@given(networks_and_components())
@example((COMPONENTS, [{"d", "e", "f", "g"}]))
@example((COMPONENTS, [{"a", "b", "c"}, {"h", "i"}, {"k", "j"}]))
@example((COMPONENTS, []))
def test_the_program_of_some_components_is_that_of_the_network_holding_them(case):
    n, comps = case
    keep = set().union(*comps)
    alone = Network([(v, r) for v, r in n.nodes if v in keep], [e for e in n.edges if e.a in keep])
    assert formulate_mpf(n, comps) == formulate_mpf(alone) == formulate_mpf(alone, comps)


@given(networks)
@example(RATIONAL)
@example(COMPONENTS)
def test_rows_are_the_ones_solve_lp_reads_from_the_reference(n):
    p, ref = programs(n)
    # a range row reads as its two <= rows, the ones formulate_mpf wrote before they were declared
    assert p.rows == ref.rows and p.rels == ref.rels == [RANGE] * len(p.rows)
    assert expanded(p).rows == reads(ref) == reads(reference_terminal_program(n, declared=False))
    assert expanded(p).rels == [con.rel for con in ref.constraints] == ["<="] * 2 * len(p.rows)
    assert p.constraints == ref.constraints == reference_terminal_program(n, declared=False).constraints
    assert write_lp_text(p) == write_lp_text(reference_terminal_program(n, declared=False))


@given(networks)
@example(RATIONAL)
@example(COMPONENTS)
def test_program_and_result_equal_the_reference(n):
    p, ref = programs(n)
    rows = copy.deepcopy(p.rows)
    same_result(p, ref)
    assert p.rows == rows  # solving leaves the rows as they were
    same_result(p, ref)
    assert fields(p) == fields(ref)


MUTATIONS = ("add_constraint", "set_objective", "bound", "declare")


@given(networks, st.sampled_from(MUTATIONS), st.randoms(use_true_random=False))
@example(RATIONAL, "bound", random.Random(1))
@example(COMPONENTS, "set_objective", random.Random(2))
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
    # a bound, a >= row or a negative rhs leaves standard form, which `solve_lp` refuses
    same_result(p, ref, solve_lp if in_standard_form(p) else reference_general_lp)
    assert fields(p) == fields(ref)


@given(networks)
@example(RATIONAL)
def test_a_variable_appended_to_the_list_itself_is_rejected(n):
    p, _ = programs(n)
    assume(p.rows)  # without rows, appending to the list is declaring the variable
    p.variables.append("x")
    p.lower["x"], p.upper["x"] = F(0), F(1)
    with pytest.raises(MalformedProgram):
        solve_lp(p)


@given(networks)
@example(RATIONAL)
@example(COMPONENTS)
def test_equality_repr_and_pickle_match_an_eagerly_built_program(n):
    p, eager = programs(n)
    assert p == eager
    assert repr(p) == repr(eager)
    assert pickle.loads(pickle.dumps(p)) == eager
    assert dataclasses.asdict(p) == dataclasses.asdict(eager)
    assert dataclasses.replace(p) == eager


@given(networks)
@example(RATIONAL)
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
    assert expanded(p) == first
    same_result(p, first, reference_general_lp)  # x is boxed: out of standard form


def counting(monkeypatch, module, name) -> list:
    """The arguments of every call of `module.name` from here on."""
    calls = []
    wrapped = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or wrapped(*args))
    return calls


def test_solve_mpf_traverses_the_components_once(monkeypatch):
    """One component walk per solve; a network builds its integer view once, and its sub-networks build none."""
    traversals = counting(monkeypatch, ldcflow.classify, "_components")
    views = counting(monkeypatch, ldcflow.network, "_View")
    rng = random.Random(1601)
    lonely = Network([("x0", GEN), ("x1", GEN)], [fixed_edge("x0", "x1", 1, 2)])
    for _ in range(20):
        n = random_ldc_network(rng)
        for m in (n, network_sum(n, lonely), Network(lonely.nodes, lonely.edges)):
            traversals.clear()
            views.clear()
            solve_mpf(m)
            assert len(traversals) == 1 and views == [(m,)]
            for e in m.edges:
                sub = subnetwork(m, [e])
                for k in (sub, subnetwork(sub, sub.edges[:1])):
                    traversals.clear()
                    solve_mpf(k)
                    assert len(traversals) == 1
            assert views == [(m,)]

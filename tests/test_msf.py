import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from conftest import SUSCEPTANCES, random_ldc_network, random_tree
import ldcflow.msf
from ldcflow.errors import NotFixedSusceptance, TooLarge
from ldcflow.gadgets import Polarity, gfch, gsch
from ldcflow.maxflow import classical_max_flow
from ldcflow.mpf import flow_cores, solve_mpf
from ldcflow.msf import (
    decide_msf,
    optimal_switch_sets,
    solve_msf_bnb,
    solve_msf_exhaustive,
    switch_key,
)
from ldcflow.network import Network, NodeRole, fixed_edge, network_sum, subnetwork, validate_solution
from oracles import msf_by_every_mask

GEN, LOAD, PLAIN = NodeRole.GENERATOR, NodeRole.LOAD, NodeRole.PLAIN


def triangle():
    return Network(
        [("g", GEN), ("b", PLAIN), ("l", LOAD)],
        [fixed_edge("g", "b", 1, 5), fixed_edge("b", "l", 1, 4), fixed_edge("g", "l", 1, 30)],
    )


class TestExhaustive:
    def test_gadget_value_and_optimal_load_choices(self):
        n = gsch(1, "v", Polarity.MINUS)
        out = solve_msf_exhaustive(n)
        assert out.value == 3
        loads = {sol.solution.load["v"] for _, sol in optimal_switch_sets(n)}
        assert loads == {F(0), F(1)}

    def test_switching_beats_the_triangle_bottleneck(self):
        out = solve_msf_exhaustive(triangle())
        assert out.value == 30
        assert {e.pair for e in out.switched} == {("b", "g")}

    def test_trees_never_switch(self, rng):
        for _ in range(5):
            n = random_tree(rng, max_nodes=8)
            out = solve_msf_exhaustive(n)
            assert out.switched == frozenset()
            assert out.value == solve_mpf(n).value

    def test_edge_limit_enforced(self, monkeypatch):
        monkeypatch.setattr(ldcflow.msf, "EXHAUSTIVE_EDGE_LIMIT", 2)
        with pytest.raises(TooLarge):
            solve_msf_exhaustive(gsch(1, "v", Polarity.MINUS))

    def test_facts_edges_rejected(self):
        with pytest.raises(NotFixedSusceptance):
            solve_msf_exhaustive(gfch(1, "v", Polarity.MINUS))


class TestBranchAndBound:
    def test_agrees_with_exhaustive_everywhere(self, rng):
        for _ in range(20):
            n = random_ldc_network(rng, max_edges=7)
            ex = solve_msf_exhaustive(n)
            bb = solve_msf_bnb(n)
            assert bb.value == ex.value
            assert bb.switched == ex.switched
            assert validate_solution(subnetwork(n, bb.switched), bb.solution).ok

    def test_triangle(self):
        out = solve_msf_bnb(triangle())
        assert out.value == 30 and {e.pair for e in out.switched} == {("b", "g")}


class TestDecide:
    def test_gadget_thresholds(self):
        n = gsch(1, "v", Polarity.MINUS)
        assert decide_msf(n, F(3))
        assert not decide_msf(n, F(31, 10))

    def test_zero_is_always_reachable(self, rng):
        assert decide_msf(random_ldc_network(rng), F(0))


class TestInvariants:
    def test_switching_never_hurts_and_classical_bounds(self, rng):
        for _ in range(10):
            n = random_ldc_network(rng, max_edges=7)
            msf = solve_msf_bnb(n)
            assert solve_mpf(n).value <= msf.value <= classical_max_flow(n)

    def test_outcome_solution_lives_on_the_subnetwork(self, rng):
        for _ in range(10):
            n = random_ldc_network(rng, max_edges=7)
            out = solve_msf_bnb(n)
            sub = subnetwork(n, out.switched)
            assert validate_solution(sub, out.solution).ok
            assert solve_mpf(sub).value == out.value


def diamond():
    """Two generator-load paths joined by a rung: 10 distinct non-empty flow cores."""
    return Network(
        [("g", GEN), ("b", PLAIN), ("c", PLAIN), ("l", LOAD)],
        [
            fixed_edge("g", "b", 1, 5),
            fixed_edge("b", "l", 1, 4),
            fixed_edge("g", "c", 1, 3),
            fixed_edge("c", "l", 2, 2),
            fixed_edge("b", "c", 1, 1),
        ],
    )


@st.composite
def networks_with_idle_edges(draw) -> Network:
    """A seeded network with a pendant path of plain nodes and, maybe, a generator-only component."""
    base = random_ldc_network(random.Random(draw(st.integers(0, 2**32 - 1))), max_edges=4)
    nodes, edges = list(base.nodes), list(base.edges)
    edge = st.tuples(st.sampled_from(SUSCEPTANCES), st.integers(1, 6))
    at = draw(st.sampled_from(base.node_names))
    for k in range(draw(st.integers(1, 2))):
        nodes.append((f"p{k}", PLAIN))
        edges.append(fixed_edge(at, f"p{k}", *draw(edge)))
        at = f"p{k}"
    if draw(st.booleans()):
        nodes += [("x0", GEN), ("x1", draw(st.sampled_from([GEN, PLAIN])))]
        edges.append(fixed_edge("x0", "x1", *draw(edge)))
    return Network(nodes, edges)


@given(networks_with_idle_edges())
def test_searches_agree_with_solving_every_sub_network(n):
    value, switched, solution = msf_by_every_mask(n)
    for search in (solve_msf_bnb, solve_msf_exhaustive):
        out = search(n)
        assert (out.value, out.switched, out.solution) == (value, switched, solution)
        assert validate_solution(subnetwork(n, out.switched), out.solution).ok
    assert decide_msf(n, value)
    assert not decide_msf(n, value + F(1, 1000))


class TestSolveCounts:
    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []
        solve = solve_mpf
        monkeypatch.setattr("ldcflow.msf.solve_mpf", lambda n: calls.append((n, out := solve(n))) or out)
        return calls

    @staticmethod
    def pendant():
        """The diamond with a plain leaf p hanging off b."""
        d = diamond()
        return Network(d.nodes + (("p", PLAIN),), d.edges + (fixed_edge("b", "p", 1, 1),))

    def test_the_scan_solves_each_core_once_and_then_its_winners(self, solves):
        n = network_sum(self.pendant(), Network([("x", GEN), ("y", PLAIN)], [fixed_edge("x", "y", 1, 1)]))
        cores = flow_cores(n)
        distinct = {cores(mask) for mask in range(1 << len(n.edges))} - {0}
        assert len(distinct) == 10
        solve_msf_exhaustive(n)
        assert len(solves) == len(distinct) + 1
        solves.clear()
        sets = optimal_switch_sets(n)
        assert len(sets) > 1 and len(solves) == len(distinct) + len(sets)

    def test_branch_and_bound_solves_each_core_once_and_never_again_at_the_end(self, solves):
        n = self.pendant()
        out = solve_msf_bnb(n)
        # the search visits 7 sub-networks here; 3 of them repeat a core already solved
        assert len(solves) == 4
        cores = flow_cores(n)
        solved = [cores(sum(1 << i for i, e in enumerate(n.edges) if e not in m.edges)) for m, _ in solves]
        assert len(set(solved)) == len(solved)
        (incumbent,) = [o for m, o in solves if m == subnetwork(n, out.switched)]
        assert out.solution is incumbent.solution


def test_switch_key_orders_sets_lexicographically():
    e1 = fixed_edge("a", "b", 1, 1)
    e2 = fixed_edge("a", "c", 1, 1)
    e3 = fixed_edge("b", "c", 1, 1)
    assert switch_key(()) < switch_key((e1,))
    assert switch_key((e1,)) < switch_key((e1, e2))
    assert switch_key((e1, e3)) < switch_key((e2,))

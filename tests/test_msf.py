import multiprocessing
from fractions import Fraction as F

import pytest

from conftest import random_ldc_network, random_tree
from ldcflow.errors import NotFixedSusceptance, TooLarge
from ldcflow.gadgets import Polarity, gfch, gsch
from ldcflow.maxflow import classical_max_flow
from ldcflow.mff import enumerate_endpoint_optima
from ldcflow.mpf import solve_mpf
from ldcflow.msf import (
    decide_msf,
    optimal_switch_sets,
    solve_msf_bnb,
    solve_msf_exhaustive,
    switch_key,
)
from ldcflow.network import Network, NodeRole, fixed_edge, network_sum, subnetwork, validate_solution

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

    def test_edge_limit_enforced(self):
        with pytest.raises(TooLarge):
            solve_msf_exhaustive(gsch(1, "v", Polarity.MINUS), limit=2)

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


def test_pool_evaluation_matches_sequential(rng, monkeypatch):
    # force the process pool on small searches; the outcomes must not change
    n = random_ldc_network(rng, max_edges=6)
    facts = network_sum(gfch(1, port="v", prefix="A."), gfch(2, port="w", prefix="B."))

    def searches():
        return solve_msf_exhaustive(n), optimal_switch_sets(n), enumerate_endpoint_optima(facts)

    sequential = searches()
    pools = []
    start_pool = multiprocessing.Pool
    monkeypatch.setattr(multiprocessing, "Pool", lambda *a: pools.append(a) or start_pool(*a))
    monkeypatch.setenv("LDC_THREADS", "2")
    monkeypatch.setattr("ldcflow.parallel.POOL_THRESHOLD", 4)
    assert searches() == sequential
    assert len(pools) == 3


def test_switch_key_orders_sets_lexicographically():
    e1 = fixed_edge("a", "b", 1, 1)
    e2 = fixed_edge("a", "c", 1, 1)
    e3 = fixed_edge("b", "c", 1, 1)
    assert switch_key(()) < switch_key((e1,))
    assert switch_key((e1,)) < switch_key((e1, e2))
    assert switch_key((e1, e3)) < switch_key((e2,))

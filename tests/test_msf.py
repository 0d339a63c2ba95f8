from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from conftest import networks_with_chains, networks_with_idle_edges, random_ldc_network, random_tree, series_parallel_networks
import ldcflow.msf
from ldcflow.errors import NotFixedSusceptance, TooLarge
from ldcflow.gadgets import Polarity, gfch, gsch
from ldcflow.maxflow import classical_max_flow
from ldcflow.mpf import core_maps, flow_cores, solve_mpf
from ldcflow.msf import (
    decide_msf,
    optimal_switch_sets,
    solve_msf_bnb,
    solve_msf_exhaustive,
    switch_key,
)
from ldcflow.network import Network, NodeRole, fixed_edge, network_sum, subnetwork, validate_solution
from oracles import bridges_by_removal, msf_by_every_mask

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


any_network = st.one_of(networks_with_idle_edges(), series_parallel_networks(), networks_with_chains())


@settings(max_examples=120)
@given(any_network)
def test_searches_agree_with_solving_every_sub_network(n):
    value, switched, solution = msf_by_every_mask(n)
    for search in (solve_msf_bnb, solve_msf_exhaustive):
        out = search(n)
        assert (out.value, out.switched, out.solution) == (value, switched, solution)
        assert validate_solution(subnetwork(n, out.switched), out.solution).ok
    # inclusion-minimal: putting back any one switched edge loses value
    assert all(solve_mpf(subnetwork(n, switched - {e})).value < value for e in switched)
    assert decide_msf(n, value)
    assert not decide_msf(n, value + F(1, 1000))


def kept_edges(n: Network, mask: int) -> frozenset:
    return frozenset(e for i, e in enumerate(n.edges) if mask >> i & 1)


@settings(max_examples=120)
@given(any_network, st.integers(min_value=0))
def test_bridges_are_the_edges_whose_removal_adds_a_component(n, mask):
    mask &= (1 << len(n.edges)) - 1
    bridges = core_maps(n)[1](mask)
    assert kept_edges(n, bridges) == bridges_by_removal(n, kept_edges(n, mask))


@settings(max_examples=120)
@given(any_network, st.integers(min_value=0))
def test_removing_a_bridge_never_raises_mpf(n, mask):
    sub = Network(n.nodes, kept_edges(n, mask))
    value = solve_mpf(sub).value
    for e in bridges_by_removal(n, frozenset(sub.edges)):
        assert solve_mpf(subnetwork(sub, [e])).value <= value


class TestSolveCounts:
    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []
        solve = solve_mpf
        monkeypatch.setattr("ldcflow.msf.solve_mpf", lambda n: calls.append((n, out := solve(n))) or out)
        return calls

    @pytest.fixture
    def bounds(self, monkeypatch):
        calls = []
        bound = classical_max_flow
        monkeypatch.setattr("ldcflow.msf.classical_max_flow", lambda n: calls.append(n) or bound(n))
        return calls

    @staticmethod
    def core_of(n: Network, m: Network) -> int:
        """The flow core of m, a sub-network of n."""
        return flow_cores(n)(sum(1 << i for i, e in enumerate(n.edges) if e not in m.edges))

    @staticmethod
    def pendant():
        """The diamond with a plain leaf p hanging off b."""
        d = diamond()
        return Network(d.nodes + (("p", PLAIN),), d.edges + (fixed_edge("b", "p", 1, 1),))

    def test_the_scan_solves_each_core_once_and_then_its_winners(self, solves):
        n = network_sum(self.pendant(), Network([("x", GEN), ("y", PLAIN)], [fixed_edge("x", "y", 1, 1)]))
        cores = flow_cores(n)
        distinct = [core for core in dict.fromkeys(map(cores, range(1 << len(n.edges)))) if core]
        assert len(distinct) == 10
        # each distinct non-empty core is solved once, on its own sub-network, in first-seen mask order
        solved = [subnetwork(n, [e for i, e in enumerate(n.edges) if not core >> i & 1]) for core in distinct]
        out = solve_msf_exhaustive(n)
        assert [m for m, _ in solves] == solved + [subnetwork(n, out.switched)]
        solves.clear()
        sets = optimal_switch_sets(n)
        assert len(sets) > 1
        assert [m for m, _ in solves] == solved + [subnetwork(n, switched) for switched, _ in sets]

    def test_branch_and_bound_solves_each_core_once_and_never_again_at_the_end(self, solves):
        n = self.pendant()
        out = solve_msf_bnb(n)
        # the root, 5 sets of one edge and 2 of two; 2 of the single edges have a bound that prunes them
        assert len(solves) == 5
        solved = [self.core_of(n, m) for m, _ in solves]
        assert len(set(solved)) == len(solved)
        (incumbent,) = [o for m, o in solves if m == subnetwork(n, out.switched)]
        assert out.solution is incumbent.solution

    def test_branch_and_bound_bounds_each_core_once(self, solves, bounds):
        n = self.pendant()
        solve_msf_bnb(n)
        assert len(solves) == 5 and bounds[0] == n
        # the root's core and 7 more, each bounded once
        bounded = [self.core_of(n, m) for m in bounds]
        assert len(set(bounded)) == len(bounded) == 8
        # every solved core was bounded first, at the same sub-network
        assert [m for m, _ in solves] == [m for m in bounds if m in {m for m, _ in solves}]

    def test_branch_and_bound_bounds_no_dominated_child(self, solves, bounds, rng):
        # a set's largest edge lies in the flow core of the rest and is no bridge of that core's edges
        for _ in range(30):
            n = random_ldc_network(rng, max_edges=7)
            bounds.clear()
            solves.clear()
            solve_msf_bnb(n)
            for m in bounds[1:]:
                *rest, last = sorted(e for e in n.edges if e not in m.edges)
                core = kept_edges(n, flow_cores(n)(sum(1 << n.edges.index(e) for e in rest)))
                assert last in core and last not in bridges_by_removal(n, core)
            assert {m for m, _ in solves} <= set(bounds)

    def test_a_tree_takes_one_bound_and_one_solve(self, solves, bounds, rng):
        n = random_tree(rng, max_nodes=8)
        assert solve_msf_bnb(n).switched == frozenset()
        assert bounds == [n] and [m for m, _ in solves] == [n]

    def test_a_threshold_above_the_root_bound_is_refused_at_once(self, solves, bounds):
        n = self.pendant()
        assert not decide_msf(n, classical_max_flow(n) + F(1, 2))
        assert bounds == [n] and solves == []

    def test_a_decision_builds_no_solution(self, solves, monkeypatch):
        built = []
        build, zero = ldcflow.mpf._solution, ldcflow.msf.zero_solution
        monkeypatch.setattr("ldcflow.mpf._solution", lambda *args: built.append(args) or build(*args))
        monkeypatch.setattr("ldcflow.msf.zero_solution", lambda n: built.append(n) or zero(n))
        n = self.pendant()
        bound, msf = classical_max_flow(n), solve_msf_bnb(n).value
        built.clear()
        # at or below the root's bound the search runs; above it the root refuses
        assert [decide_msf(n, x) for x in (msf, bound, bound + F(1, 2))] == [True, msf == bound, False]
        assert solves and built == []


def test_switch_key_orders_sets_by_size_then_lexicographically():
    e1 = fixed_edge("a", "b", 1, 1)
    e2 = fixed_edge("a", "c", 1, 1)
    e3 = fixed_edge("b", "c", 1, 1)
    assert switch_key(()) < switch_key((e1,))
    assert switch_key((e1,)) < switch_key((e1, e2))
    assert switch_key((e3,)) < switch_key((e1, e2))
    assert switch_key((e2,)) < switch_key((e3,))
    assert switch_key((e3, e1)) == switch_key((e1, e3)) < switch_key((e2, e3))

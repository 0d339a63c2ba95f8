import random
from array import array
from fractions import Fraction as F
from functools import partial
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from conftest import any_network, random_ldc_network, random_tree, view_edges
import ldcflow.msf
import oracles
from ldcflow.errors import NotFixedSusceptance, TooLarge
from ldcflow.gadgets import Polarity, gfch, gsch
from ldcflow.maxflow import classical_max_flow
from ldcflow.mpf import core_maps, solve_mpf
from ldcflow.msf import (
    _solve_msf_bnb,
    decide_msf,
    optimal_switch_sets,
    solve_msf_bnb,
    solve_msf_exhaustive,
    switch_key,
)
from ldcflow.network import Network, NodeRole, fixed_edge, network_sum, subnetwork, validate_solution
from ldcflow.reductions import ExactCover3Instance, encode_exact_cover_msf
from oracles import bridges_by_removal, msf_by_every_mask, reference_msf_bnb

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

    @pytest.mark.parametrize("x, refused", [(0.5, "float 0.5"), (float("nan"), "float nan"), (True, "bool True")])
    def test_a_float_or_bool_threshold_is_refused(self, x, refused):
        # 0.5 answered True, nan raised AttributeError and True was read as 1
        with pytest.raises(TypeError, match=f"refusing {refused}"):
            decide_msf(gsch(1, "v", Polarity.MINUS), x)

    def test_the_threshold_is_read_by_rat(self):
        n = gsch(1, "v", Polarity.MINUS)
        assert decide_msf(n, 3) and not decide_msf(n, "31/10")


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


@settings(max_examples=60)
@given(any_network, st.integers(min_value=0))
def test_the_searches_on_a_sub_network_match_those_on_one_built_afresh(n, mask):
    # a sub-network's searches read its root's view, in the root's edge bits
    removed = [e for i, e in enumerate(n.edges) if mask >> i & 1]
    sub, fresh = subnetwork(n, removed), Network(n.nodes, [e for e in n.edges if e not in removed])
    for search in (solve_msf_bnb, solve_msf_exhaustive):
        assert search(sub) == search(fresh)
    # every cut either search builds: bits over the view's edges, the root's, and capacities over its scale
    for side in range(1 << len(n.node_names)):
        cuts = [{(e, F(cap, m._view.scale)) for bit, cap in ldcflow.msf._crossing(m, side) for e in view_edges(m, bit)} for m in (sub, fresh)]
        assert cuts[0] == cuts[1]


def with_roles(n: Network, keep: NodeRole, prefix: str = "") -> Network:
    """n with every node renamed by `prefix` and every generator or load that is not a `keep` made plain."""
    nodes = [(prefix + v, role if role in (keep, PLAIN) else PLAIN) for v, role in n.nodes]
    return Network(nodes, [fixed_edge(prefix + e.a, prefix + e.b, e.s_min, e.cap) for e in n.edges])


@st.composite
def networks_without_a_pair(draw) -> Network:
    """A seeded network in which no component holds both a generator and a load.

    It has generators and no load, loads and no generator, or both, on
    two separate networks side by side.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    gens = with_roles(random_ldc_network(rng, max_edges=5), GEN)
    loads = with_roles(random_ldc_network(rng, max_edges=4), LOAD, "x")
    return draw(st.sampled_from([gens, loads, network_sum(gens, loads)]))


@settings(max_examples=80)
@given(st.one_of(any_network, networks_without_a_pair()))
def test_the_scan_returns_every_set_of_the_largest_value_over_every_mask(n):
    masks = range(1 << len(n.edges))
    # the inherited core array is the core map's on every mask
    cores = ldcflow.msf._cores(n)
    assert cores == array("L", map(core_maps(n)[0], masks))
    # the cut bound the scan prunes with is at least every core's classical max flow, and so its value
    for core in set(cores) - {0}:
        assert scan_bound(n, core) >= classical_max_flow(subnetwork(n, [e for i, e in enumerate(n.edges) if not core >> i & 1]))
    # the pruned scan keeps every optimal set, with no core and no bound in the oracle
    assert optimal_switch_sets(n) == oracles.optimal_sets_by_every_mask(n)


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


def search_calls(module, search, n, threshold):
    """`search(n, threshold)` with `module`'s solve and bound hooked: its result, and ("solve", network, value)
    and ("bound", network, None) for each call in order."""
    calls = []
    solve, bound = module.solve_mpf, module.classical_max_flow

    def solved(m):
        out = solve(m)
        calls.append(("solve", m, out.value))
        return out

    def bounded(m, **kw):
        calls.append(("bound", m, None))
        return bound(m, **kw)

    with patch.object(module, "solve_mpf", solved), patch.object(module, "classical_max_flow", bounded):
        return search(n, threshold), calls


def cut_capacity(n: Network, core: int, side: int) -> F:
    """The capacity of the edges of n in `core`, a bitmask over `n.edges`, that cross `side`, a bitmask over `n.node_names`."""
    index = {v: i for i, v in enumerate(n.node_names)}
    return sum((e.cap for i, e in enumerate(n.edges) if core >> i & 1 and (side >> index[e.a] ^ side >> index[e.b]) & 1), F(0))


def scan_bound(n: Network, core: int) -> F:
    """The scan's cut bound on a core: the capacity of its edges with one end at a generator, or at a load if less."""
    index = {v: i for i, v in enumerate(n.node_names)}
    return min(cut_capacity(n, core, sum(1 << index[v] for v in ends)) for ends in (n.generators, n.loads))


def test_the_scan_skips_at_least_half_the_cores_of_the_diamond(monkeypatch):
    n = diamond()
    valued = []
    value = ldcflow.msf._core_value
    monkeypatch.setattr("ldcflow.msf._core_value", lambda n, core: valued.append(core) or value(n, core))
    assert solve_msf_exhaustive(n).value == msf_by_every_mask(n)[0]
    distinct = {*map(core_maps(n)[0], range(1 << len(n.edges)))} - {0}
    assert len(distinct) == 10 and len(set(valued)) == len(valued) <= len(distinct) // 2


@settings(max_examples=120)
@given(any_network, st.one_of(st.none(), st.fractions(-2, 2, max_denominator=4)))
def test_branch_and_bound_repeats_the_reference_search_with_no_more_max_flows(n, offset):
    x = None if offset is None else reference_msf_bnb(n, None)[0].value + offset
    (ref, ref_removed), ref_calls = search_calls(oracles, reference_msf_bnb, n, x)
    (out, removed), calls = search_calls(ldcflow.msf, _solve_msf_bnb, n, x)
    assert (out.value, removed, out.solution) == (ref.value, ref_removed, ref.solution)
    assert [(m, v) for kind, m, v in calls if kind == "solve"] == [(m, v) for kind, m, v in ref_calls if kind == "solve"]
    bounded = [m for kind, m, _ in calls if kind == "bound"]
    assert len(bounded) <= sum(kind == "bound" for kind, _, _ in ref_calls)
    if x is not None:
        assert decide_msf(n, x) == (x <= 0 or ref.value >= x)
    # no child takes a max flow that the min cut of an earlier bounded network, on the child's core, rules out
    cores, best, sides = core_maps(n)[0], None, []
    for kind, m, value in calls:
        if kind == "solve":
            best = value if best is None or value > best else best
            continue
        if best is not None:
            core = cores(sum(1 << i for i, e in enumerate(n.edges) if e not in m.edges))
            least = min(cut_capacity(n, core, side) for side in sides)
            assert least > best if x is None else best < x <= least
        sides.append(classical_max_flow(m, witness=True)[2])


@settings(max_examples=60)
@given(any_network)
def test_a_threshold_just_above_a_bound_prunes_as_the_reference_does(n):
    # the search compares integer bounds over the capacities' scale with the
    # least one that reaches the threshold, so a threshold a little above a
    # sub-network's bound must prune that sub-network, not round down to it
    bounds = {classical_max_flow(subnetwork(n, [e for i, e in enumerate(n.edges) if mask >> i & 1])) for mask in range(1 << len(n.edges))}
    for bound in sorted(bounds):
        x = bound + F(1, 997)
        (ref, ref_removed), ref_calls = search_calls(oracles, reference_msf_bnb, n, x)
        (out, removed), calls = search_calls(ldcflow.msf, _solve_msf_bnb, n, x)
        assert (out.value, removed) == (ref.value, ref_removed)
        assert [(m, v) for kind, m, v in calls if kind == "solve"] == [(m, v) for kind, m, v in ref_calls if kind == "solve"]


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
        monkeypatch.setattr("ldcflow.msf.classical_max_flow", lambda n, **kw: calls.append(n) or bound(n, **kw))
        return calls

    @staticmethod
    def core_of(n: Network, m: Network) -> int:
        """The flow core of m, a sub-network of n."""
        return core_maps(n)[0](sum(1 << i for i, e in enumerate(n.edges) if e not in m.edges))

    @staticmethod
    def inherits(m: Network, bounds: list[Network]) -> bool:
        """Is some bounded network's max flow one of m: of m's classical value, and on edges m keeps?"""
        value, kept = classical_max_flow(m), set(m.edges)
        for b in bounds:
            bound, flowing, _ = classical_max_flow(b, witness=True)
            if bound == value and view_edges(b, flowing) <= kept:
                return True
        return False

    @staticmethod
    def pendant():
        """The diamond with a plain leaf p hanging off b."""
        d = diamond()
        return Network(d.nodes + (("p", PLAIN),), d.edges + (fixed_edge("b", "p", 1, 1),))

    def test_the_scan_solves_each_core_once_and_then_its_winners(self, solves):
        n = network_sum(self.pendant(), Network([("x", GEN), ("y", PLAIN)], [fixed_edge("x", "y", 1, 1)]))
        cores = core_maps(n)[0]
        distinct = [core for core in dict.fromkeys(map(cores, range(1 << len(n.edges)))) if core]
        assert len(distinct) == 10
        # the distinct non-empty cores in descending cut bound order, ties in first-seen mask order,
        # are solved once each, on their own sub-networks, up to the first whose bound is below the best so far
        order = sorted(distinct, key=partial(scan_bound, n), reverse=True)
        value = partial(ldcflow.msf._core_value, n)
        best, played = F(0), []
        for core in order:
            if scan_bound(n, core) < best:
                break
            played.append(core)
            best = max(best, value(core))
        skipped = order[len(played) :]
        assert len(skipped) == 5
        assert all(value(core) < best for core in skipped)
        solves.clear()
        solved = [subnetwork(n, [e for i, e in enumerate(n.edges) if not core >> i & 1]) for core in played]
        out = solve_msf_exhaustive(n)
        assert out.value == best
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
        # the root's core and 4 more, each bounded at most once; the others inherit a bound or a pooled cut prunes them
        bounded = [self.core_of(n, m) for m in bounds]
        assert len(set(bounded)) == len(bounded) == 5
        solved = [m for m, _ in solves]
        # every solved core was bounded first: by a max flow at the same sub-network, in the same order ...
        assert [m for m in solved if m in bounds] == [m for m in bounds if m in solved]
        # ... or by its parent's, which used none of the removed edges
        inherited = [m for m in solved if m not in bounds]
        assert inherited and all(self.inherits(m, bounds) for m in inherited)

    def test_branch_and_bound_bounds_no_dominated_child(self, solves, bounds, rng):
        # a set's largest edge lies in the flow core of the rest and is no bridge of that core's edges
        for _ in range(30):
            n = random_ldc_network(rng, max_edges=7)
            bounds.clear()
            solves.clear()
            solve_msf_bnb(n)
            solved = [m for m, _ in solves]
            for m in {*bounds, *solved} - {n}:
                *rest, last = sorted(e for e in n.edges if e not in m.edges)
                core = kept_edges(n, core_maps(n)[0](sum(1 << n.edges.index(e) for e in rest)))
                assert last in core and last not in bridges_by_removal(n, core)
            # a solved set is bounded by a max flow on it or inherits one that uses only edges it keeps
            assert all(m in bounds or self.inherits(m, bounds) for m in solved)

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

    def test_an_exact_cover_no_instance_makes_the_reference_solves_with_fewer_max_flows(self, solves, bounds):
        # {abc, cde} has no exact cover of a-f, so the search must bound or solve every switch set
        n = encode_exact_cover_msf(ExactCover3Instance(tuple("abcdef"), (("a", "b", "c"), ("c", "d", "e")))).network
        assert len(n.edges) == 25
        (ref, _), ref_calls = search_calls(oracles, reference_msf_bnb, n, None)
        out = solve_msf_bnb(n)
        assert (out.value, out.switched) == (ref.value, frozenset()) == (26, frozenset())
        assert [(m, o.value) for m, o in solves] == [(m, v) for kind, m, v in ref_calls if kind == "solve"]
        assert len(solves) == 244
        # the reference bounds every first-met core by a max flow; inherited bounds and pooled cuts leave 128
        assert sum(kind == "bound" for kind, _, _ in ref_calls) == 1225 and len(bounds) == 128


def test_switch_key_orders_sets_by_size_then_lexicographically():
    e1 = fixed_edge("a", "b", 1, 1)
    e2 = fixed_edge("a", "c", 1, 1)
    e3 = fixed_edge("b", "c", 1, 1)
    assert switch_key(()) < switch_key((e1,))
    assert switch_key((e1,)) < switch_key((e1, e2))
    assert switch_key((e3,)) < switch_key((e1, e2))
    assert switch_key((e2,)) < switch_key((e3,))
    assert switch_key((e3, e1)) == switch_key((e1, e3)) < switch_key((e2, e3))

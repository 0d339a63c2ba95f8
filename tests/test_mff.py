import re
from fractions import Fraction as F

import pytest

import random

from hypothesis import given, strategies as st

from conftest import facts_path, random_ldc_network
from ldcflow import mff, mpf
from ldcflow.errors import InvalidNetwork, LdcError, NonpositiveRefinement, TooManyFactsEdges, UnknownEdge
from ldcflow.gadgets import Polarity, gfch, gsch
from ldcflow.mff import (
    MffDecision,
    MffOutcome,
    decide_mff,
    enumerate_endpoint_optima,
    grid_points,
    pin_susceptances,
    solve_mff_endpoints,
    solve_mff_grid,
)
from ldcflow.mpf import solve_mpf
from ldcflow.network import Network, NodeRole, facts_edge, fixed_edge, network_sum, total_generation, validate_solution

GEN, LOAD = NodeRole.GENERATOR, NodeRole.LOAD


def facts_gadget(x=1):
    return gfch(x, "v", Polarity.MINUS)


def adjustable_edge(n):
    return n.facts_edges[0]


class TestEndpoints:
    def test_facts_gadget_value(self):
        n = facts_gadget()
        out = solve_mff_endpoints(n)
        assert out.value == F(61, 10)
        assert total_generation(out.solution) == F(61, 10)
        assert tuple(out.assignment) == n.facts_edges != ()

    def test_both_endpoint_choices_are_optimal_with_the_known_flows(self):
        n = facts_gadget()
        ev = adjustable_edge(n)
        optima = enumerate_endpoint_optima(n)
        pairs = {(out.solution.flow[ev], assignment[ev]) for assignment, out in optima}
        assert pairs == {(F(2, 5), F(8, 5)), (F(-1, 10), F(2, 5))}

    def test_port_load_choices_at_the_optimum(self):
        loads = {out.solution.load["v"] for _, out in enumerate_endpoint_optima(facts_gadget())}
        assert loads == {F(0), F(1)}

    def test_no_facts_network_is_certified_mpf(self):
        n = gsch(1, "v", Polarity.MINUS)
        out = solve_mff_endpoints(n)
        assert not n.facts_edges and out.value == solve_mpf(n).value
        assert out.assignment == {}

    def test_single_facts_edge_capacity_bound(self):
        n = Network([("g", GEN), ("l", LOAD)], [facts_edge("g", "l", 1, 2, 5)])
        assert solve_mff_endpoints(n).value == 5

    def test_facts_limit_enforced(self, monkeypatch):
        monkeypatch.setattr(mff, "FACTS_EDGE_LIMIT", 0)
        with pytest.raises(TooManyFactsEdges):
            solve_mff_endpoints(facts_gadget())

    def test_outcome_solution_validates_on_the_original_network(self):
        n = facts_gadget(2)
        out = solve_mff_endpoints(n)
        report = validate_solution(n, out.solution)
        assert report.ok
        e = adjustable_edge(n)
        assert e.s_min <= out.assignment[e] <= e.s_max


@pytest.mark.parametrize("x", [F(1), F(2), F(10)])
def test_endpoint_optima_congest_the_known_edges(x):
    # every endpoint optimum saturates the same three supply edges
    n = facts_gadget(x)
    by_pair = {e.pair: e for e in n.edges}
    for _, out in enumerate_endpoint_optima(n):
        assert out.value == F(61, 10) * x
        assert out.solution.flow[by_pair[("g", "v")]] == x
        assert out.solution.flow[by_pair[("c", "e")]] == -F(13, 20) * x  # e -> c
        assert out.solution.flow[by_pair[("c", "t")]] == -x  # t -> c


def test_endpoint_optima_solve_each_combination_once(monkeypatch):
    # one solve per endpoint combination; each optimum keeps the outcome of its own solve
    calls = []
    solve = mff.solve_mpf
    monkeypatch.setattr(mff, "solve_mpf", lambda n: calls.append(n) or solve(n))
    n = network_sum(gfch(1, port="v", prefix="A."), gfch(2, port="w", prefix="B."))
    optima = enumerate_endpoint_optima(n)
    assert len(calls) == 2 ** len(n.facts_edges) == len(optima) == 4


INTERVAL_POINTS = [F(1, 2), F(1), F(3, 2), F(2)]


@st.composite
def facts_networks(draw) -> Network:
    """A seeded network with one to three of its edges made adjustable."""
    base = random_ldc_network(random.Random(draw(st.integers(0, 2**32 - 1))), max_edges=5)
    edges = list(base.edges)
    for i in draw(st.lists(st.integers(0, len(edges) - 1), unique=True, min_size=1, max_size=3)):
        lo, hi = sorted(draw(st.lists(st.sampled_from(INTERVAL_POINTS), unique=True, min_size=2, max_size=2)))
        edges[i] = facts_edge(edges[i].a, edges[i].b, lo, hi, edges[i].cap)
    return Network(base.nodes, edges)


def fresh_outcome(n: Network, assignment) -> MffOutcome:
    """The outcome a new solve of n pinned at `assignment` gives."""
    out = solve_mpf(pin_susceptances(n, assignment))
    return MffOutcome(out.value, assignment, mff._relabel(n, out.solution))


@given(facts_networks(), st.sampled_from([1, 2]))
def test_each_returned_outcome_is_a_fresh_solve_of_its_own_assignment(n, k):
    # the search keeps each winner's outcome from its one solve instead of solving it again
    out = solve_mff_grid(n, k)
    assert out == fresh_outcome(n, out.assignment)
    optima = enumerate_endpoint_optima(n)
    assert all(o == fresh_outcome(n, a) for a, o in optima)
    if k == 1:
        assert optima[0] == (out.assignment, out)


def test_a_decision_builds_no_solution(monkeypatch):
    built = []
    build = mpf._solution
    monkeypatch.setattr(mpf, "_solution", lambda *args: built.append(args) or build(*args))
    n = network_sum(gfch(1, port="v", prefix="A."), gfch(2, port="w", prefix="B."))
    for k in (1, 2):
        assert decide_mff(n, F(183, 10), k=k) is MffDecision.YES
        assert decide_mff(n, F(19), k=k) is MffDecision.UNKNOWN
    assert decide_mff(facts_gadget(), F(1)) is MffDecision.YES
    assert built == []


def test_search_value_dominates_any_pinned_assignment():
    n = facts_gadget()
    pinned = pin_susceptances(n, {adjustable_edge(n): adjustable_edge(n).s_min})
    assert solve_mff_endpoints(n).value >= solve_mpf(pinned).value


class TestGrid:
    def test_grid_contains_endpoints(self):
        e = adjustable_edge(facts_gadget())
        pts = grid_points(e, 4)
        assert pts[0] == e.s_min and pts[-1] == e.s_max and len(pts) == 5

    def test_grid_never_loses_the_endpoint_value(self):
        n = facts_gadget()
        for k in (1, 4):
            assert solve_mff_grid(n, k).value == F(61, 10)

    def test_grid_on_a_fixed_network_is_its_mpf(self):
        n = gsch(1, "v", Polarity.MINUS)
        out = solve_mff_grid(n, 3)
        assert not n.facts_edges and out.value == solve_mpf(n).value

    def test_nested_grids_are_monotone(self):
        # the k=2 points are a subset of the k=4 points
        n = facts_gadget()
        assert set(grid_points(adjustable_edge(n), 2)) <= set(grid_points(adjustable_edge(n), 4))
        assert solve_mff_grid(n, 4).value >= solve_mff_grid(n, 2).value

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            solve_mff_grid(facts_gadget(), 0)

    @pytest.mark.parametrize("search", [lambda n: solve_mff_grid(n, 0), lambda n: decide_mff(n, F(1), k=0), lambda n: decide_mff(n, F(0), k=-2)], ids=["grid", "decide", "decide at 0"])
    def test_a_refinement_below_one_is_an_ldc_error_and_a_value_error(self, search):
        with pytest.raises(NonpositiveRefinement, match="grid refinement k must be >= 1") as caught:
            search(gfch(1))
        assert isinstance(caught.value, LdcError) and isinstance(caught.value, ValueError)

    @pytest.mark.parametrize("k", ["a", None, 1.5, 2.0, True, False], ids=["str", "none", "float", "whole float", "true", "false"])
    @pytest.mark.parametrize("search", [lambda n, k: solve_mff_grid(n, k), lambda n, k: decide_mff(n, 5, k=k)], ids=["grid", "decide"])
    def test_a_refinement_that_is_not_an_int_is_refused_by_name(self, search, k):
        with pytest.raises(NonpositiveRefinement, match=f"grid refinement k must be an int, got {re.escape(repr(k))}") as caught:
            search(gfch(1), k)
        assert isinstance(caught.value, LdcError) and isinstance(caught.value, ValueError)

    def test_a_grid_past_the_candidate_limit_is_refused_before_any_point_is_built(self, monkeypatch):
        built = []
        monkeypatch.setattr(mff, "grid_points", lambda e, k: built.append(e) or grid_points(e, k))
        with pytest.raises(TooManyFactsEdges, match="a 1000000000-step grid on 1 FACTS edges"):
            solve_mff_grid(facts_gadget(), 10**9)
        # with the limit at 2^3, 8 candidates on one FACTS edge are the most searched
        monkeypatch.setattr(mff, "FACTS_EDGE_LIMIT", 3)
        assert solve_mff_grid(facts_gadget(), 7).value == F(61, 10) and len(built) == 1
        with pytest.raises(TooManyFactsEdges):
            solve_mff_grid(facts_gadget(), 8)
        assert len(built) == 1


class TestDecide:
    def test_known_value_is_yes(self):
        assert decide_mff(facts_gadget(), F(61, 10)) is MffDecision.YES

    def test_above_the_maximum_is_unknown(self):
        assert decide_mff(facts_gadget(), F(7)) is MffDecision.UNKNOWN

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            decide_mff(facts_gadget(), F(1), k=0)

    @pytest.mark.parametrize("x, refused", [(0.5, "float 0.5"), (float("nan"), "float nan"), (True, "bool True")])
    def test_a_float_or_bool_threshold_is_refused(self, x, refused):
        # nan answered UNKNOWN
        with pytest.raises(TypeError, match=f"refusing {refused}"):
            decide_mff(facts_gadget(), x)

    def test_the_threshold_is_read_by_rat(self):
        assert decide_mff(facts_gadget(), "6.1") is MffDecision.YES
        assert decide_mff(facts_gadget(), 7) is MffDecision.UNKNOWN

    def test_a_target_at_most_zero_is_yes_without_a_search(self):
        n = facts_path()
        with pytest.raises(TooManyFactsEdges):
            decide_mff(n, F(1))
        assert decide_mff(n, F(0)) is MffDecision.YES and decide_mff(n, F(-3), k=5) is MffDecision.YES
        with pytest.raises(ValueError):
            decide_mff(n, F(0), k=0)
        # an inverted interval never reaches the shortcut: construction refuses it
        with pytest.raises(InvalidNetwork, match=r"susceptance interval \[2, 1\] is not within the positive reals"):
            Network([("g", GEN), ("l", LOAD)], [facts_edge("g", "l", 2, 1, 3)])

    def test_no_facts_network_reaches_its_mpf(self):
        n = gsch(1, "v", Polarity.MINUS)
        assert decide_mff(n, solve_mpf(n).value) is MffDecision.YES


def test_pin_susceptances_respects_intervals():
    n = facts_gadget()
    e = adjustable_edge(n)
    pinned = pin_susceptances(n, {e: F(1)})
    assert pinned.is_fixed() and pin_susceptances(n, {e: 1}) == pinned
    with pytest.raises(ValueError):
        pin_susceptances(n, {e: F(9)})


@pytest.mark.parametrize("value", [F(2, 5) - F(1, 10**9), F(8, 5) + F(1, 10**9), F(-1)])
def test_a_susceptance_outside_its_interval_is_a_library_error(value):
    n = facts_gadget()
    with pytest.raises(LdcError, match="outside"):
        pin_susceptances(n, {adjustable_edge(n): value})


@pytest.mark.parametrize("value", ["3/2", None, 1.5, True], ids=["str", "None", "float", "bool"])
def test_a_pinned_value_that_is_not_an_int_or_a_fraction_is_refused(value):
    # a str or None raised TypeError from the interval comparison, a float or a bool `rat`'s TypeError
    n = facts_gadget()
    e = adjustable_edge(n)
    with pytest.raises(InvalidNetwork) as caught:
        pin_susceptances(n, {e: value})
    assert str(caught.value.report).splitlines() == [f"Structural at {e.a}--{e.b}: {field} {value!r} is not an int or a Fraction" for field in ("s_min", "s_max")]


@pytest.mark.parametrize("assignment", [None, 5, [(F(1), F(1))]], ids=["None", "int", "list"])
def test_an_assignment_that_is_not_a_mapping_is_unknown(assignment):
    # None raised AttributeError: 'NoneType' object has no attribute 'keys'
    with pytest.raises(UnknownEdge) as caught:
        pin_susceptances(facts_gadget(), assignment)
    assert str(caught.value) == f"{assignment!r} is not a mapping of edges"


def test_pin_susceptances_rejects_a_key_that_is_not_an_edge():
    n = facts_gadget()
    with pytest.raises(UnknownEdge, match="yy--zz"):
        pin_susceptances(n, {fixed_edge("zz", "yy", 1, 1): 1})
    # an edge on a pair of n with other fields is not n's edge either
    e = adjustable_edge(n)
    with pytest.raises(UnknownEdge):
        pin_susceptances(n, {facts_edge(e.a, e.b, e.s_min, e.s_max, e.cap + 1): e.s_min})


@pytest.mark.parametrize(
    "search",
    [
        lambda n: solve_mff_grid(n, 1),
        solve_mff_endpoints,
        enumerate_endpoint_optima,
        lambda n: decide_mff(n, 1),
        lambda n: decide_mff(n, "x", k=0),
        lambda n: pin_susceptances(n, None),
    ],
    ids=["solve_mff_grid", "solve_mff_endpoints", "enumerate_endpoint_optima", "decide_mff", "decide_mff before k and x", "pin_susceptances"],
)
@pytest.mark.parametrize("n", [None, "gfch1"], ids=["None", "str"])
def test_a_search_refuses_what_is_not_a_network(search, n):
    # each raised AttributeError from the first attribute it read
    with pytest.raises(InvalidNetwork) as caught:
        search(n)
    assert str(caught.value.report) == f"Structural at {n!r}: network is not a Network"

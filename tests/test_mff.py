from fractions import Fraction as F

import pytest

from ldcflow import mff
from ldcflow.errors import TooManyFactsEdges
from ldcflow.gadgets import Polarity, gfch, gsch
from ldcflow.mff import (
    MffDecision,
    decide_mff,
    enumerate_endpoint_optima,
    grid_points,
    pin_susceptances,
    solve_mff_endpoints,
    solve_mff_grid,
)
from ldcflow.mpf import solve_mpf
from ldcflow.network import Network, NodeRole, facts_edge, network_sum, total_generation, validate_solution

GEN, LOAD = NodeRole.GENERATOR, NodeRole.LOAD


def facts_gadget(x=1):
    return gfch(x, "v", Polarity.MINUS)


def adjustable_edge(n):
    return n.facts_edges[0]


class TestEndpoints:
    def test_facts_gadget_value(self):
        out = solve_mff_endpoints(facts_gadget())
        assert out.value == F(61, 10)
        assert total_generation(out.solution) == F(61, 10)
        assert not out.certified

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
        assert out.certified and out.value == solve_mpf(n).value
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
    # one solve per endpoint combination, then one per optimum it returns
    calls = []
    solve = mff.solve_mpf
    monkeypatch.setattr(mff, "solve_mpf", lambda n: calls.append(n) or solve(n))
    n = network_sum(gfch(1, port="v", prefix="A."), gfch(2, port="w", prefix="B."))
    optima = enumerate_endpoint_optima(n)
    assert len(calls) == 2 ** len(n.facts_edges) + len(optima) == 8


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
        assert out.certified and out.value == solve_mpf(n).value

    def test_nested_grids_are_monotone(self):
        # the k=2 points are a subset of the k=4 points
        n = facts_gadget()
        assert set(grid_points(adjustable_edge(n), 2)) <= set(grid_points(adjustable_edge(n), 4))
        assert solve_mff_grid(n, 4).value >= solve_mff_grid(n, 2).value

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            solve_mff_grid(facts_gadget(), 0)


class TestDecide:
    def test_known_value_is_yes(self):
        assert decide_mff(facts_gadget(), F(61, 10)) is MffDecision.YES

    def test_above_the_maximum_is_unknown(self):
        assert decide_mff(facts_gadget(), F(7)) is MffDecision.UNKNOWN

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            decide_mff(facts_gadget(), F(1), k=0)

    def test_no_facts_network_reaches_its_mpf(self):
        n = gsch(1, "v", Polarity.MINUS)
        assert decide_mff(n, solve_mpf(n).value) is MffDecision.YES


def test_pin_susceptances_respects_intervals():
    n = facts_gadget()
    e = adjustable_edge(n)
    pinned = pin_susceptances(n, {e: F(1)})
    assert pinned.is_fixed()
    with pytest.raises(ValueError):
        pin_susceptances(n, {e: F(9)})

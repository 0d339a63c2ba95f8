import random
from collections import namedtuple
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from conftest import any_network, random_ldc_network, refused
from ldcflow import network
from ldcflow.errors import EdgeOverlap, InvalidNetwork, LdcError, NotFixedSusceptance, RoleConflict, UnknownEdge
from ldcflow.gadgets import Polarity, gfch, gsch
from ldcflow.maxflow import classical_max_flow
from ldcflow.mff import decide_mff, enumerate_endpoint_optima, pin_susceptances, solve_mff_endpoints, solve_mff_grid
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
    validate_solution,
    zero_solution,
)
from ldcflow.serialize import network_from_json, network_to_json
from oracles import reference_validate_network, reference_validate_solution, reference_zero_solution

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


class TestStructuralDefects:
    """`Network` refuses the structural defects of well-typed records, with the report the public check it replaced gave."""

    def test_duplicate_pair_refused(self):
        assert refused([("a", GEN), ("b", LOAD)], [fixed_edge("a", "b", 1, 1), fixed_edge("a", "b", 1, 2)]) == ["Structural at a--b: second edge on the same node pair"]

    def test_zero_susceptance_refused(self):
        assert refused([("a", GEN), ("b", LOAD)], [Edge("a", "b", F(0), F(1), F(1))]) == ["Structural at a--b: susceptance interval [0, 1] is not within the positive reals"]

    def test_self_loop_and_dangling_endpoint(self):
        details = refused([("a", GEN)], [Edge("a", "a", F(1), F(1), F(1)), fixed_edge("a", "zz", 1, 1)])
        assert any("self-loop" in d for d in details)
        assert any("not a declared node" in d for d in details)

    def test_nonpositive_capacity(self):
        assert refused([("a", GEN), ("b", LOAD)], [Edge("a", "b", F(1), F(1), F(-1))]) == ["Structural at a--b: capacity -1 is not positive"]

    def test_report_lists_every_edge_defect_in_order(self):
        edges = [
            Edge("a", "a", F(1), F(1), F(0)),
            Edge("a", "b", F(3, 2), F(1, 2), F(2)),
            Edge("a", "b", F(-1, 3), F(1), F(1)),
            Edge("b", "c", F(0), F(0), F(-5, 7)),
            Edge("c", "zz", F(2), F(2), F(1)),
            Edge("a", "c", F(1, 3), F(2, 3), F(1, 9)),
        ]
        assert refused([("a", GEN), ("b", LOAD), ("c", PLAIN)], edges) == [
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
    def test_a_node_name_defect_is_refused(self, nodes, line):
        assert refused(nodes, []) == [line]

    @pytest.mark.parametrize("solve", [solve_mpf, solve_msf_bnb, classical_max_flow], ids=["mpf", "msf_bnb", "max_flow"])
    @pytest.mark.parametrize("record", [list, NamedRecord._make], ids=["list", "namedtuple"])
    def test_a_record_given_as_a_list_or_a_tuple_subclass_is_stored_as_a_tuple(self, record, solve):
        # a list record validated and solved, but hash(network) raised TypeError and it compared unequal to its twin
        n = Network([record(("a", GEN)), record(("b", LOAD))], [fixed_edge("a", "b", 1, 2)])
        twin = Network([("a", GEN), ("b", LOAD)], [fixed_edge("a", "b", 1, 2)])
        assert n.nodes == (("a", GEN), ("b", LOAD)) and all(type(node) is tuple for node in n.nodes)
        assert n == twin and hash(n) == hash(twin)
        assert solve(n) == solve(twin)

    @pytest.mark.parametrize(
        "nodes, edges, lines",
        [
            (None, (), ["Structural at None: nodes is not an iterable of records"]),
            ([("a", GEN)], None, ["Structural at None: edges is not an iterable of records"]),
            (5, 3, ["Structural at 5: nodes is not an iterable of records", "Structural at 3: edges is not an iterable of records"]),
        ],
        ids=["nodes", "edges", "both"],
    )
    def test_nodes_or_edges_that_are_not_iterable_are_refused(self, nodes, edges, lines):
        # `Network(None)` raised TypeError: 'NoneType' object is not iterable
        assert refusal(lambda: Network(nodes, edges)) == lines


class Name(str):
    """A str subclass, which `Network` and `Edge` take as a name."""


def refusal(build) -> list[str]:
    """The lines of the `InvalidNetwork` report that `build()` raises, every one `Structural`."""
    with pytest.raises(InvalidNetwork) as caught:
        build()
    assert caught.value.report.kinds() == {"Structural"}
    return str(caught.value.report).splitlines()


class TestConstruction:
    """`Network` refuses node records that are not (str, NodeRole) pairs and edge records that are not an `Edge`, naming each."""

    @pytest.mark.parametrize("role", ["generator", "load", "plain", None, 0, "GENERATOR"])
    def test_a_role_that_is_not_a_node_role_is_refused(self, role):
        # a role name in place of the role matches no generator and no load, so every solver would answer 0
        assert refusal(lambda: Network([("a", role), ("b", LOAD)], [fixed_edge("a", "b", 1, 1)])) == [f"Structural at a: role {role!r} is not a NodeRole"]

    def test_every_bad_record_is_named_in_the_order_given(self):
        nodes = [("a", GEN, 1), ("b", "load"), (1, LOAD), ("c", PLAIN), (None, "plain")]
        assert refusal(lambda: Network(nodes, [fixed_edge("a", "b", 1, 1), ("a", "c")])) == [
            "Structural at ('a', <NodeRole.GENERATOR: 'generator'>, 1): node record is not a (name, role) pair",
            "Structural at b: role 'load' is not a NodeRole",
            "Structural at 1: name of type int is not a str",
            "Structural at None: name of type NoneType is not a str",
            "Structural at None: role 'plain' is not a NodeRole",
            "Structural at ('a', 'c'): edge record is not an Edge",
        ]

    @pytest.mark.parametrize("record", [5, (), ("a", GEN, 1), None, "ab", ["a"]], ids=["int", "empty", "three fields", "None", "str", "one-field list"])
    def test_a_record_that_is_not_a_pair_is_refused(self, record):
        line = f"Structural at {tuple(record) if type(record) is list else record!r}: node record is not a (name, role) pair"
        assert refusal(lambda: Network([record, ("b", LOAD)], [fixed_edge("a", "b", 1, 1)])) == [line]
        assert refusal(lambda: Network([("b", LOAD), record])) == [line]

    @pytest.mark.parametrize("name", [1, None, ["c"], True, b"c"], ids=["int", "None", "list", "bool", "bytes"])
    def test_a_name_of_another_type_is_refused(self, name):
        # `Network` raised TypeError from sorting names of several types, and then sorted such records by their repr
        records = [(name, GEN), ("a", GEN), ("b", LOAD)]
        line = f"Structural at {name!r}: name of type {type(name).__name__} is not a str"
        assert refusal(lambda: Network(records, [fixed_edge("a", "b", 1, 1)])) == [line]
        assert refusal(lambda: Network(records[::-1])) == [line]

    def test_unhashable_names_are_refused(self):
        # `validate_network` raised TypeError: unhashable type: 'list'
        assert refusal(lambda: Network([(["a"], GEN), (["b"], LOAD)])) == [
            "Structural at ['a']: name of type list is not a str",
            "Structural at ['b']: name of type list is not a str",
        ]

    @pytest.mark.parametrize("ends", [(["a"], ["b"]), ("a", ["b"])], ids=["both", "one"])
    def test_unhashable_edge_endpoints_are_refused(self, ends):
        # the repeated-pair check raised TypeError: unhashable type: 'list'
        a, b = ends
        lines = [f"Structural at {a}--{b}: endpoint {x!r} is not a str" for x in ends if type(x) is list]
        assert refusal(lambda: Network([("a", GEN), ("b", LOAD)], [Edge(a, b, F(1), F(1), F(1))])) == lines

    def test_names_that_are_not_str_are_refused_and_str_subclasses_sort_by_name(self):
        assert refusal(lambda: Network([(10, LOAD), (2, GEN)])) == ["Structural at 10: name of type int is not a str", "Structural at 2: name of type int is not a str"]
        assert refusal(lambda: fixed_edge(2, 10, 1, 3)) == ["Structural at 2--10: endpoint 2 is not a str", "Structural at 2--10: endpoint 10 is not a str"]
        n = Network([(Name("b"), LOAD), (Name("a"), GEN)], [fixed_edge(Name("b"), Name("a"), 1, 3)])
        assert n.nodes == (("a", GEN), ("b", LOAD))
        assert solve_mpf(n).value == 3
        # a str subclass names the same node as the str
        assert refused([(Name("b"), PLAIN), ("a", GEN), ("b", LOAD)], []) == ["Structural at b: node declared more than once"]

    def test_a_name_declared_twice_in_a_record_that_is_not_a_pair_is_refused(self):
        # sorting the declarations of "a" by role raised IndexError
        assert refusal(lambda: Network([("a", GEN), ("a",), ("b", LOAD)])) == ["Structural at ('a',): node record is not a (name, role) pair"]

    def test_a_name_declared_twice_with_a_role_that_is_not_a_node_role_is_refused(self):
        assert refusal(lambda: Network([("a", "generator"), ("a", LOAD), ("b", PLAIN), ("a", PLAIN)])) == ["Structural at a: role 'generator' is not a NodeRole"]
        # the records refused first; once they are well typed, the name declared thrice
        assert refused([("a", GEN), ("a", LOAD), ("b", PLAIN), ("a", PLAIN)], []) == ["Structural at a: node declared more than once"] * 2

    @pytest.mark.parametrize("record", [("a", "b"), ["a", "b"], None, "a--b", {"a": "b"}], ids=["tuple", "list", "None", "str", "dict"])
    def test_an_edge_record_that_is_not_an_edge_is_refused(self, record):
        assert refusal(lambda: Network([("a", GEN), ("b", LOAD)], [fixed_edge("a", "b", 1, 1), record])) == [f"Structural at {record!r}: edge record is not an Edge"]

    def test_edges_on_one_pair_whose_fields_do_not_compare_are_refused(self):
        # sorting the edges compared the fields of two edges on one pair: a str and a Fraction raised TypeError
        assert refusal(lambda: Edge("a", "b", "1", "1", F(1))) == [
            "Structural at a--b: s_min '1' is not an int or a Fraction",
            "Structural at a--b: s_max '1' is not an int or a Fraction",
        ]
        # every edge holds Fractions, so two on one pair compare, and the second is a structural defect
        assert refused([("a", GEN), ("b", LOAD)], [Edge("a", "b", 1, 1, 2), Edge("a", "b", F(1), F(1), F(1))]) == ["Structural at a--b: second edge on the same node pair"]


# near misses of the records: names and roles of the wrong type, fields that are not exact; each
# list begins with well-typed values, so that some drawn networks are built and go on to the solvers
NEAR_NAMES = st.sampled_from(["a", "b", "c", "a", "b", "", Name("a"), 0, None, True, ["a"]])
NEAR_ROLES = st.sampled_from([GEN, LOAD, PLAIN, GEN, LOAD, "generator", "load", "plain"])
NEAR_FIELDS = st.sampled_from([F(1), F(2), F(1, 2), F(1), 2, F(0), -1, 1.5, float("nan"), "1", "3/2", True, None])


@st.composite
def near_miss_nodes(draw):
    """A node record: a pair, a list, a namedtuple, or a tuple of the wrong length."""
    name, role = draw(NEAR_NAMES), draw(NEAR_ROLES)
    return draw(st.sampled_from([(name, role), (name, role), [name, role], NamedRecord(name, role), (name,), (name, role, 1)]))


@st.composite
def near_miss_edges(draw):
    """(True, fields) for an edge to build from the fields, or (False, record) for a record that is not an edge."""
    fields = tuple(draw(NEAR_NAMES) for _ in range(2)) + tuple(draw(NEAR_FIELDS) for _ in range(3))
    return draw(st.sampled_from([(True, fields), (True, fields), (False, fields[:2]), (False, fields)]))


@settings(max_examples=300)  # one drawn network in fifteen is built: about twenty reach the solvers
@given(nodes=st.lists(near_miss_nodes(), max_size=4), edges=st.lists(near_miss_edges(), max_size=3))
def test_construction_refuses_near_miss_records_or_builds_a_network_every_solver_answers(nodes, edges):
    try:
        n = Network(nodes, [Edge(*record) if build else record for build, record in edges])
    except InvalidNetwork as caught:
        assert not caught.report.ok and caught.report.kinds() == {"Structural"}
        return
    assert all(type(node) is tuple and isinstance(node[0], str) and type(node[1]) is NodeRole for node in n.nodes)
    assert all(type(x) is F for e in n.edges for x in (e.s_min, e.s_max, e.cap))
    # a built network is valid: the max flow answers, and MPF refuses FACTS edges alone
    classical_max_flow(n)
    try:
        solve_mpf(n)
    except LdcError as caught:
        assert isinstance(caught, NotFixedSusceptance) and n.facts_edges


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

    @pytest.mark.parametrize("side", ["a", "b"])
    @pytest.mark.parametrize("value", [1, None, True, ["a"], b"a"], ids=["int", "None", "bool", "list", "bytes"])
    def test_an_endpoint_that_is_not_a_str_is_refused(self, value, side):
        # an int beside a str raised TypeError from the orientation's comparison
        ends = {"a": "z", "b": "z", side: value}
        assert refusal(lambda: Edge(ends["a"], ends["b"], F(1), F(1), F(1))) == [f"Structural at {ends['a']}--{ends['b']}: endpoint {value!r} is not a str"]

    def test_a_str_subclass_endpoint_is_taken_as_a_name(self):
        e = Edge(Name("z"), "a", F(1), F(1), F(1))
        assert e.pair == ("a", "z") and e == fixed_edge("a", "z", 1, 1)

    @pytest.mark.parametrize("field", ["s_min", "s_max", "cap"])
    @pytest.mark.parametrize("value", [1.5, "3/2", True, None], ids=["float", "str", "bool", "None"])
    def test_a_field_that_is_not_an_int_or_a_fraction_is_refused(self, value, field):
        # `validate_network` reported these; before that a float or a str raised AttributeError, and a bool solved like 1
        fields = dict(s_min=F(2), s_max=F(2), cap=F(2)) | {field: value}
        assert refusal(lambda: Edge("b", "a", **fields)) == [f"Structural at a--b: {field} {value!r} is not an int or a Fraction"]

    def test_every_bad_field_is_named(self):
        assert refusal(lambda: Edge("b", "a", 1.5, "2", None)) == [
            "Structural at a--b: s_min 1.5 is not an int or a Fraction",
            "Structural at a--b: s_max '2' is not an int or a Fraction",
            "Structural at a--b: cap None is not an int or a Fraction",
        ]
        assert refusal(lambda: Edge(1, "a", F(1), F(1), 2.0)) == ["Structural at 1--a: endpoint 1 is not a str", "Structural at 1--a: cap 2.0 is not an int or a Fraction"]

    @pytest.mark.parametrize("fields, field", [((True, F(1), F(1)), "s_min"), ((F(1), True, F(1)), "s_max")], ids=["s_min", "s_max"])
    def test_a_bool_equal_to_the_other_susceptance_is_refused_on_either_side(self, fields, field):
        # s_min was kept in both fields when the two compared equal: a bool s_min was stored twice, a bool s_max dropped
        assert refusal(lambda: Edge("a", "b", *fields)) == [f"Structural at a--b: {field} True is not an int or a Fraction"]

    def test_int_fields_are_exact(self):
        e = Edge("a", "b", 1, 2, 3)
        assert all(type(x) is F for x in (e.s_min, e.s_max, e.cap)) and (e.s_min, e.s_max, e.cap) == (1, 2, 3)
        n = Network([("a", GEN), ("b", LOAD)], [e])
        assert classical_max_flow(n) == 3
        fixed = Edge("a", "b", 2, F(2), 3)
        assert fixed.s_max is fixed.s_min and type(fixed.s_min) is F and not fixed.is_facts


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

    @pytest.mark.parametrize("first", [True, False], ids=["first", "last"])
    @pytest.mark.parametrize("item", [["g", "v"], ("g", "v"), None, "g--v"], ids=["list", "tuple", "None", "str"])
    def test_an_item_that_is_not_an_edge_is_unknown(self, gsch1, item, first):
        # a list raised TypeError: unhashable type: 'list'
        with pytest.raises(UnknownEdge, match="is not an edge of the network"):
            subnetwork(gsch1, [item, gsch1.edges[0]] if first else [gsch1.edges[0], item])

    @pytest.mark.parametrize("switched", [5, None, F(1)], ids=["int", "None", "Fraction"])
    def test_a_switch_set_that_is_not_iterable_is_unknown(self, gsch1, switched):
        # an int raised TypeError: 'int' object is not iterable
        with pytest.raises(UnknownEdge) as caught:
            subnetwork(gsch1, switched)
        assert str(caught.value) == f"{switched!r} is not an iterable of edges"

    @pytest.mark.parametrize("n", [None, 5, "g--v"], ids=["None", "int", "str"])
    def test_a_network_that_is_not_a_network_is_invalid(self, n):
        # None raised AttributeError: 'NoneType' object has no attribute 'edges'
        with pytest.raises(InvalidNetwork) as caught:
            subnetwork(n, [])
        assert str(caught.value.report) == f"Structural at {n!r}: network is not a Network"

    def test_sequential_removal_composes(self, gsch1):
        e1, e2 = gsch1.edges[0], gsch1.edges[1]
        assert subnetwork(gsch1, {e1, e2}) == subnetwork(subnetwork(gsch1, {e1}), {e2})


def removals(n):
    """Every switch set of n's first five edges."""
    edges = n.edges[:5]
    return [[e for i, e in enumerate(edges) if mask >> i & 1] for mask in range(1 << len(edges))]


class TestInheritedSubnetwork:
    """A sub-network starts from what its parent knows and equals one built from scratch."""

    @pytest.mark.parametrize("parent", ["root", "sub-network"])
    def test_it_equals_the_network_of_the_kept_edges(self, parent):
        rng = random.Random(1402)
        for n in [gfch(1), gsch(1, "v", Polarity.MINUS), *(random_ldc_network(rng) for _ in range(10))]:
            n = Network(n.nodes, n.edges)
            if parent == "sub-network":  # a sub-network of it with every edge, which starts from what the root knows
                n = subnetwork(n, ())
            for removed in removals(n):
                sub = subnetwork(n, removed)
                fresh = Network(n.nodes, [e for e in n.edges if e not in removed])
                assert sub == fresh and hash(sub) == hash(fresh)
                assert (sub.nodes, sub.edges) == (fresh.nodes, fresh.edges)
                for name in ("roles", "node_names", "generators", "loads", "facts_edges"):
                    assert getattr(sub, name) == getattr(fresh, name)
                assert subnetwork(sub, ()) == sub

    @pytest.fixture
    def checks(self, monkeypatch):
        calls = []
        check = network._structural_violations
        monkeypatch.setattr(network, "_structural_violations", lambda nodes, edges: calls.append(len(edges)) or check(nodes, edges))
        return calls

    def test_the_searches_check_no_network_after_the_root(self, checks):
        n = random_ldc_network(random.Random(1403), min_edges=5)
        assert checks == [len(n.edges)]
        assert solve_msf_exhaustive(n).value > 0 and solve_msf_bnb(n).value > 0
        for removed in removals(n):
            sub = subnetwork(n, removed)
            solve_mpf(sub)
            solve_mpf(subnetwork(sub, sub.edges[:1]))
        assert checks == [len(n.edges)]
        Network(n.nodes, n.edges[1:])
        assert checks == [len(n.edges), len(n.edges) - 1]

    @pytest.mark.parametrize("order", ["given", "reversed"])
    @pytest.mark.parametrize(
        "defect",
        [fixed_edge("m", "p", 1, -1), fixed_edge("g", "zz", 1, 2), fixed_edge("m", "m", 1, 2), fixed_edge("g", "m", 1, 2)],
        ids=["negative capacity", "undeclared endpoint", "self-loop", "second edge on a pair"],
    )
    def test_a_parent_with_a_defect_is_refused_and_so_is_each_sub_network_that_keeps_it(self, order, defect):
        good = [fixed_edge("g", "m", 2, 3), fixed_edge("m", "l", 1, 4), fixed_edge("g", "l", 1, 1)]
        nodes = [("g", GEN), ("m", PLAIN), ("l", LOAD), ("p", PLAIN)]
        arrange = (lambda records: records) if order == "given" else (lambda records: records[::-1])
        lines = refused(arrange(nodes), arrange([*good, defect]))
        assert len(lines) == 1
        for e in good:
            kept = arrange([*(x for x in good if x is not e), defect])
            if e.pair == defect.pair:  # the pair's other edge goes, and the defect is no defect
                assert solve_mpf(Network(arrange(nodes), kept)).value > 0
            else:
                assert refused(arrange(nodes), kept) == lines
        # removing the defect leaves a valid network
        assert solve_mpf(Network(arrange(nodes), arrange(good))).value > 0

    def test_a_foreign_edge_raises(self, gsch1):
        real, foreign = gsch1.edges[0], fixed_edge("g", "v", 1, 99)
        stranger = fixed_edge("g", "zz", 1, 1)
        for n in (gsch1, Network(gsch1.nodes, gsch1.edges), subnetwork(gsch1, ())):
            for removed in ({foreign}, {real, foreign}, {stranger}, {real, stranger}):
                with pytest.raises(UnknownEdge):
                    subnetwork(n, removed)
        # an edge held twice, which could have stood in for a foreign one, is refused when built
        assert refused(gsch1.nodes, [real, *gsch1.edges]) == [f"Structural at {real.a}--{real.b}: second edge on the same node pair"]


def copy_of(e: Edge) -> Edge:
    """An edge equal to e but a distinct object."""
    return fixed_edge(e.a, e.b, e.s_min, e.cap)


class TestSwitchedEdgesByIdentity:
    """A parent's own edge objects are found by identity; any other switch set goes the hashed way, with the same result."""

    @staticmethod
    def parents() -> list[Network]:
        """Built networks, the same rebuilt from their records, and sub-networks of them."""
        rng = random.Random(3701)
        good = [gsch(1, "v", Polarity.MINUS), *(random_ldc_network(rng) for _ in range(6))]
        rebuilt = [Network(n.nodes, n.edges) for n in good[:3]]
        subs = [subnetwork(n, n.edges[-1:]) for n in good[3:] if len(n.edges) > 2]
        return good + rebuilt + subs

    @staticmethod
    def switch_sets(n: Network) -> list[list[Edge]]:
        first, second, *_ = n.edges
        read_back = network_from_json(network_to_json(n)).edges
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
        for n in self.parents():
            for switched in self.switch_sets(n):
                sub, removed = subnetwork(n, switched), set(switched)
                fresh = Network(n.nodes, [e for e in n.edges if e not in removed])
                assert (sub.nodes, sub.edges) == (fresh.nodes, fresh.edges)
                assert sub._view is n._view

    def test_an_unknown_edge_raises_the_same_error_on_every_parent(self):
        for n in self.parents():
            first = n.edges[0]
            for unknown in (fixed_edge(first.a, first.b, first.s_min, first.cap + 1), fixed_edge("zz0", "zz1", 1, 1)):
                for switched in ([unknown], [first, unknown], [copy_of(first), unknown, first]):
                    with pytest.raises(UnknownEdge) as caught:
                        subnetwork(n, switched)
                    assert str(caught.value) == f"{unknown} is not an edge of the network"

    def test_a_parents_own_edges_are_found_without_hashing_an_edge(self, monkeypatch):
        n = random_ldc_network(random.Random(3702), min_edges=5)
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
    """Up to three nodes and two edges between them on four names; operands drawn together often share a pair or a node."""
    names = draw(st.lists(st.sampled_from(NAMES), max_size=3, unique=True))
    pairs = [(u, v) for u in names for v in names if u != v]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=2, unique_by=lambda pair: frozenset(pair))) if pairs else []
    return Network([(v, draw(ROLES)) for v in names], [fixed_edge(u, v, draw(st.sampled_from([1, 2])), 1) for u, v in chosen])


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
            (Network([("b", PLAIN), ("c", PLAIN), ("d", PLAIN)], [fixed_edge("c", "d", 1, 1), fixed_edge("c", "b", 2, 2)]), (EdgeOverlap, "both networks carry an edge on b--c")),
            (Network([("a", LOAD)], []), (RoleConflict, "node a would be both generator and load")),
        ):
            assert returned_or_raised(lambda: network_sum(a, b, c)) == error
            assert returned_or_raised(lambda: network_sum(network_sum(a, b), c)) == error


class TestOrders:
    """`Network` sorts by key tuples; the order is the one the generated `Edge.__lt__` and the role names give."""

    @given(edges=edge_lists())
    def test_edges_keep_the_order_of_sorted(self, edges):
        nodes = [(v, PLAIN) for v in NAMES]
        # the whole list holds a self-loop and repeated pairs: its report follows the sorted order too
        refused(nodes, edges)
        one_per_pair = [e for e in edges if e.a != e.b and e is next(x for x in edges if x.pair == e.pair)]
        got = Network(nodes, one_per_pair).edges
        assert [id(e) for e in got] == [id(e) for e in sorted(one_per_pair)]

    @given(nodes=st.lists(st.tuples(st.sampled_from(NAMES), ROLES), max_size=8))
    def test_nodes_keep_the_order_of_name(self, nodes):
        names = sorted(name for name, _ in nodes)
        if len(set(names)) < len(names):  # one line per repeat of a name
            assert refused(nodes, []) == [f"Structural at {b}: node declared more than once" for a, b in zip(names, names[1:]) if a == b]
        else:
            assert Network(nodes, []).nodes == tuple(sorted(nodes, key=lambda nr: nr[0]))


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
            (lambda n, sol: (n, None), "Structural at None: solution is not a Solution"),
            # a network of None raised AttributeError
            (lambda n, sol: (None, sol), "Structural at None: network is not a Network"),
            (lambda n, sol: (n, replace(sol, load={**sol.load, "g": F(1)})), "RoleBound at g: load at a non-load"),
        ],
        ids=["unknown node", "unknown edge", "not a solution", "not a network", "load at a non-load"],
    )
    def test_a_defect_is_reported(self, gsch1, change, line):
        n, sol = change(gsch1, gsch1_solution(gsch1))
        assert line in str(validate_solution(n, sol)).splitlines()

    def test_a_network_that_is_not_a_network_is_the_one_violation(self, gsch1):
        assert str(validate_solution("gsch1", gsch1_solution(gsch1))) == "Structural at 'gsch1': network is not a Network"
        assert str(validate_solution(None, None)).splitlines() == ["Structural at None: network is not a Network", "Structural at None: solution is not a Solution"]

    @pytest.mark.parametrize("label", ["susceptance", "flow", "angle", "gen", "load"])
    @pytest.mark.parametrize("value", [1.5, "3/2", True, None], ids=["float", "str", "bool", "None"])
    def test_a_value_that_is_not_an_int_or_a_fraction_is_structural(self, gsch1, label, value):
        # a float flow raised AttributeError: 'float' object has no attribute 'denominator'
        sol = gsch1_solution(gsch1)
        mapping = getattr(sol, label)
        key = min(mapping, key=str)
        report = validate_solution(gsch1, replace(sol, **{label: {**mapping, key: value}}))
        assert str(report).splitlines() == [f"Structural at {key}: {label} value {value!r} is not an int or a Fraction"]


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


# each defect's records, with the defective edge last; construction refuses them
INVALID_RECORDS = {
    "negative capacity": ([("g", GEN), ("l", LOAD)], [fixed_edge("g", "l", 1, -1)]),
    "undeclared endpoint": ([("g", GEN), ("l", LOAD)], [fixed_edge("g", "l", 1, 2), fixed_edge("g", "zz", 1, 2)]),
    "zero susceptance": ([("g", GEN), ("m", PLAIN), ("l", LOAD)], [fixed_edge("m", "l", 1, 2), fixed_edge("g", "l", 1, 1), fixed_edge("g", "m", 0, 2)]),
    "self-loop": ([("g", GEN), ("l", LOAD)], [fixed_edge("g", "l", 1, 2), fixed_edge("g", "g", 1, 2)]),
    "repeated pair": ([("g", GEN), ("l", LOAD)], [fixed_edge("g", "l", 1, 2), fixed_edge("g", "l", 2, 1)]),
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


@pytest.mark.parametrize("defect", sorted(INVALID_RECORDS))
@pytest.mark.parametrize("solver", sorted(PUBLIC_SOLVERS))
def test_public_solvers_never_meet_an_invalid_network(solver, defect):
    # no solver can meet the records; each answers the network built without the defective edge
    nodes, edges = INVALID_RECORDS[defect]
    assert refused(nodes, edges)
    PUBLIC_SOLVERS[solver](Network(nodes, edges[:-1]))


# near misses of valid records, one per structural defect: (name, records -> records)
NEAR_MISSES = {
    "empty name": lambda nodes, edges: ([*nodes, ("", PLAIN)], edges),
    "declared twice": lambda nodes, edges: ([*nodes, (nodes[0][0], PLAIN)], edges),
    "self-loop": lambda nodes, edges: (nodes, [*edges, fixed_edge(nodes[0][0], nodes[0][0], 1, 1)]),
    "repeated pair": lambda nodes, edges: (nodes, [*edges, fixed_edge(edges[0].b, edges[0].a, 2, 1)]),
    "undeclared endpoint": lambda nodes, edges: (nodes, [*edges, fixed_edge(nodes[-1][0], "zz", 1, 1)]),
    "interval outside the positive reals": lambda nodes, edges: (nodes, [*edges[1:], facts_edge(edges[0].a, edges[0].b, 0, -1, 1)]),
    "capacity not positive": lambda nodes, edges: (nodes, [*edges[1:], fixed_edge(edges[0].a, edges[0].b, 1, 0)]),
}


@settings(max_examples=60)
@given(base=any_network, kinds=st.lists(st.sampled_from(sorted(NEAR_MISSES)), max_size=3), data=st.data())
def test_construction_refuses_exactly_the_records_the_reference_reports_on(base, kinds, data):
    nodes, edges = list(base.nodes), list(base.edges)
    for kind in kinds:
        if nodes and (edges or kind in ("empty name", "declared twice", "self-loop", "undeclared endpoint")):
            nodes, edges = NEAR_MISSES[kind](nodes, edges)
    nodes, edges = data.draw(st.permutations(nodes)), data.draw(st.permutations(edges))
    report = reference_validate_network(nodes, edges)
    if report.ok:
        assert Network(nodes, edges) == base
    else:
        assert refused(nodes, edges) == str(report).splitlines()


@settings(max_examples=40)
@given(n=any_network, other=any_network, data=st.data())
def test_the_library_builds_no_network_construction_refuses(n, other, data):
    """`subnetwork`, `network_sum` and `pin_susceptances` never raise `InvalidNetwork` on valid input (the gadgets and encoders: their own tests)."""
    switched = data.draw(st.lists(st.sampled_from(n.edges), unique=True)) if n.edges else []
    sub = subnetwork(n, switched)
    assert sub == Network(n.nodes, [e for e in n.edges if e not in switched])
    renamed = Network([("other." + v, r) for v, r in other.nodes], [Edge("other." + e.a, "other." + e.b, e.s_min, e.s_max, e.cap) for e in other.edges])
    assert network_sum(sub, renamed, Network(sub.nodes[:1])).edges == tuple(sorted(sub.edges + renamed.edges))
    widened = Network(n.nodes, [facts_edge(e.a, e.b, e.s_min, 2 * e.s_min, e.cap) for e in n.edges])
    assignment = {e: data.draw(st.sampled_from([e.s_min, e.s_max, (e.s_min + e.s_max) / 2])) for e in widened.edges}
    assert pin_susceptances(widened, assignment).is_fixed()

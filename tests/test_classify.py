from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import any_network, random_ldc_network, random_tree, refused, view_edges, view_mask
from ldcflow.classify import connected_components, is_cactus, is_connected, is_tree, max_degree
from ldcflow.errors import InvalidNetwork
from ldcflow.gadgets import Polarity, gfch, gsch
from ldcflow.maxflow import classical_max_flow
from ldcflow.mpf import core_maps
from ldcflow.network import Edge, Network, NodeRole, fixed_edge, subnetwork
from oracles import is_cactus_by_cycles

GEN, LOAD, PLAIN = NodeRole.GENERATOR, NodeRole.LOAD, NodeRole.PLAIN


def path3():
    return Network(
        [("a", GEN), ("b", PLAIN), ("c", LOAD)],
        [fixed_edge("a", "b", 1, 1), fixed_edge("b", "c", 1, 1)],
    )


def complete4():
    names = ["a", "b", "c", "d"]
    edges = [fixed_edge(u, v, 1, 1) for i, u in enumerate(names) for v in names[i + 1 :]]
    return Network([(v, PLAIN) for v in names], edges)


def test_a_float_capacity_is_refused_before_any_predicate_reads_it():
    # `is_tree` on this network raised AttributeError: building the view scales every capacity
    with pytest.raises(InvalidNetwork) as caught:
        Network([("a", GEN), ("b", LOAD)], [Edge("a", "b", F(1), F(1), 1.5)])
    assert str(caught.value.report).splitlines() == ["Structural at a--b: cap 1.5 is not an int or a Fraction"]
    n = Network([("a", GEN), ("b", LOAD)], [Edge("a", "b", F(1), F(1), F(3, 2))])
    assert is_tree(n) and max_degree(n) == 1 and connected_components(n) == [{"a", "b"}]


def test_path_is_tree():
    assert is_tree(path3())


def test_triangle_is_not_a_tree():
    assert not is_tree(gsch(1, "v", Polarity.MINUS))


def test_empty_network_is_tree_by_convention():
    assert is_tree(Network([], []))
    assert is_tree(Network([("a", PLAIN)], []))


def test_disconnected_forest_is_not_a_tree():
    n = Network([("a", PLAIN), ("b", PLAIN), ("c", PLAIN)], [fixed_edge("a", "b", 1, 1)])
    assert not is_tree(n)
    assert not is_connected(n)


def test_gadgets_are_cacti():
    assert is_cactus(gsch(1, "v", Polarity.MINUS))
    assert is_cactus(gfch(1, "v", Polarity.MINUS))


def test_complete_graph_is_not_a_cactus():
    assert not is_cactus(complete4())


def test_two_cycles_sharing_an_edge_is_not_a_cactus():
    edges = [
        fixed_edge("a", "b", 1, 1),
        fixed_edge("b", "c", 1, 1),
        fixed_edge("a", "c", 1, 1),
        fixed_edge("c", "d", 1, 1),
        fixed_edge("b", "d", 1, 1),
    ]
    n = Network([(v, PLAIN) for v in "abcd"], edges)
    assert not is_cactus(n)


def test_self_loops_and_edges_to_undeclared_nodes_never_reach_a_predicate():
    nodes = [(v, PLAIN) for v in "abc"]
    edges = [fixed_edge(a, b, 1, 1) for a, b in [("a", "b"), ("b", "c"), ("a", "c")]]
    assert refused(nodes, [*edges, fixed_edge("a", "a", 1, 1), fixed_edge("b", "z", 1, 1)]) == [
        "Structural at a--a: self-loop",
        "Structural at b--z: endpoint z is not a declared node",
    ]
    triangle = Network(nodes, edges)
    assert is_cactus(triangle) and max_degree(triangle) == 2
    assert connected_components(triangle) == [{"a", "b", "c"}]
    assert refused(complete4().nodes, [*complete4().edges, fixed_edge("d", "d", 1, 1)]) == ["Structural at d--d: self-loop"]


def test_trees_are_cacti(rng):
    for _ in range(20):
        assert is_cactus(random_tree(rng))


def test_max_degree_examples():
    assert max_degree(gsch(1, "v", Polarity.MINUS)) == 2
    assert max_degree(gfch(1, "v", Polarity.MINUS)) == 4
    assert max_degree(Network([("a", PLAIN)], [])) == 0


def test_gfch_degree_four_sits_at_the_junction_node():
    n = gfch(1, "v", Polarity.MINUS)
    degree = {v: len([e for e in n.edges if v in e.pair]) for v in n.node_names}
    assert degree["c"] == 4 and max(degree.values()) == 4


def test_classification_is_name_invariant(rng):
    for _ in range(10):
        n = random_ldc_network(rng, max_edges=7)
        mapping = {v: f"zz{i}" for i, v in enumerate(reversed(n.node_names))}
        renamed = Network(
            [(mapping[v], r) for v, r in n.nodes],
            [fixed_edge(mapping[e.a], mapping[e.b], e.s_min, e.cap) for e in n.edges],
        )
        assert is_cactus(renamed) == is_cactus(n)
        assert is_tree(renamed) == is_tree(n)
        assert max_degree(renamed) == max_degree(n)


def union_find_components(n: Network) -> list[set[str]]:
    """Reference: merge the endpoints of every edge, then order the classes by their smallest name."""
    parent = {v: v for v in n.node_names}

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for e in n.edges:
        parent[root(e.a)] = root(e.b)
    classes: dict[str, set[str]] = {}
    for v in n.node_names:
        classes.setdefault(root(v), set()).add(v)
    return sorted(classes.values(), key=min)


@st.composite
def graphs(draw, max_nodes: int = 9, max_edges: int | None = None) -> Network:
    """Plain nodes named so that name order and insertion order differ, and random edges between them."""
    names = draw(st.lists(st.text("abcxyz", min_size=1, max_size=2), min_size=1, max_size=max_nodes, unique=True))
    pairs = [(a, b) for a in names for b in names if a < b]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=max_edges)) if pairs else []
    return Network([(v, PLAIN) for v in names], [fixed_edge(a, b, 1, 1) for a, b in chosen])


@given(graphs())
def test_components_are_the_union_find_classes_in_the_same_order(n):
    assert connected_components(n) == union_find_components(n)
    # a sub-network walks its root's tables
    assert connected_components(subnetwork(n, n.edges[:1])) == union_find_components(Network(n.nodes, n.edges[1:]))


@st.composite
def removals(draw) -> tuple[Network, list, list]:
    """A valid network, a switch set of it and a second switch set, of the sub-network the first leaves."""
    n = draw(st.one_of(any_network, st.builds(random_ldc_network, st.randoms(use_true_random=False), max_edges=st.just(8))))
    first = draw(st.lists(st.sampled_from(n.edges), unique=True))
    rest = [e for e in n.edges if e not in first]
    return n, first, draw(st.lists(st.sampled_from(rest), unique=True)) if rest else []


@settings(max_examples=40)
@given(removals())
def test_a_sub_network_shares_its_roots_view_and_classifies_as_one_built_afresh(removal):
    n, first, second = removal
    sub = subnetwork(n, first)
    for part, kept in ((sub, sub.edges), (subnetwork(sub, second), [e for e in sub.edges if e not in second])):
        fresh = Network(n.nodes, kept)
        assert part._view is n._view
        assert connected_components(part) == connected_components(fresh)
        for predicate in (max_degree, is_tree, is_connected, is_cactus):
            assert predicate(part) == predicate(fresh)
        # masks are over the root's edges, so they are compared as edge sets
        subsets = [view_edges(fresh, m) for m in range(1 << min(len(kept), 8))]
        for ours, theirs in zip(core_maps(part), core_maps(fresh)):
            assert [view_edges(part, ours(view_mask(part, s))) for s in subsets] == [view_edges(fresh, theirs(view_mask(fresh, s))) for s in subsets]
        core, fresh_core = core_maps(part)[0], core_maps(fresh)[0]
        assert [view_edges(part, core(~view_mask(part, s))) for s in subsets] == [view_edges(fresh, fresh_core(~view_mask(fresh, s))) for s in subsets]
        (value, flowing, side), (fresh_value, fresh_flowing, fresh_side) = (classical_max_flow(m, witness=True) for m in (part, fresh))
        assert (value, view_edges(part, flowing), side) == (fresh_value, view_edges(fresh, fresh_flowing), fresh_side)


@given(graphs(max_nodes=7, max_edges=9))
@example(complete4())
def test_cactus_and_degree_match_their_brute_force_definitions(n):
    assert is_cactus(n) == is_cactus_by_cycles(n)
    assert max_degree(n) == max(len([e for e in n.edges if v in e.pair]) for v in n.node_names)


def plain_network(names, pairs) -> Network:
    return Network([(v, PLAIN) for v in names], [fixed_edge(a, b, 1, 1) for a, b in pairs])


TRIANGLE = [("a", "b"), ("b", "c"), ("a", "c")]


@pytest.mark.parametrize(
    "pairs, cactus",
    [
        (TRIANGLE + [("a", "b")], False),
        (TRIANGLE + [("b", "c")], False),
        (TRIANGLE + [("a", "c")], False),
        ([("a", "b")] * 3, False),
        ([("a", "b")] * 2, True),
    ],
    ids=["triangle, a-b doubled", "triangle, b-c doubled", "triangle, a-c doubled", "tripled edge", "doubled edge"],
)
def test_a_repeated_edge_is_refused_and_its_subdivision_closes_a_2_cycle(pairs, cactus):
    # a new node on each repeat keeps the 2-cycle it would close
    edges = [fixed_edge(a, b, 1, 1) for a, b in pairs]
    assert set(refused([(v, PLAIN) for v in "abc"], edges)) == {f"Structural at {a}--{b}: second edge on the same node pair" for a, b in pairs if pairs.count((a, b)) > 1}
    assert is_cactus(subdivided("abc", pairs)) is cactus


def subdivided(names, pairs) -> Network:
    """The simple graph with the same cycles: each repeat of a node pair after its first runs through a new plain node."""
    seen, edges, middles = set(), [], []
    for i, (a, b) in enumerate(pairs):
        if (a, b) in seen:
            middles.append(f"mid{i}")
            edges += [(a, f"mid{i}"), (f"mid{i}", b)]
        else:
            seen.add((a, b))
            edges.append((a, b))
    return plain_network([*names, *middles], edges)


@st.composite
def multigraphs(draw):
    """Node names, up to six node pairs with repeats allowed, and a renaming of the nodes."""
    names = draw(st.lists(st.text("abcxyz", min_size=1, max_size=2), min_size=1, max_size=6, unique=True))
    pairs = [(a, b) for a in names for b in names if a < b]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=6)) if pairs else []
    return names, chosen, draw(st.permutations(names))


@given(multigraphs())
@example((["a", "b", "c"], TRIANGLE + [("a", "b")], ["a", "b", "c"]))
@example((["a", "b", "c"], TRIANGLE + [("b", "c")], ["c", "a", "b"]))
def test_a_multigraph_is_refused_exactly_when_it_repeats_a_pair_under_any_names(graph):
    names, pairs, renamed = graph
    rename = dict(zip(names, renamed))
    expected = is_cactus_by_cycles(subdivided(names, pairs))
    assert is_cactus(subdivided(renamed, [(rename[a], rename[b]) for a, b in pairs])) is expected
    for nodes, ends in ((names, pairs), (renamed, [(rename[a], rename[b]) for a, b in pairs])):
        if len(set(pairs)) < len(pairs):
            assert set(refused([(v, PLAIN) for v in nodes], [fixed_edge(a, b, 1, 1) for a, b in ends])) == {"Structural at " + "--".join(sorted(pair)) + ": second edge on the same node pair" for pair in ends if ends.count(pair) > 1}
        else:
            assert is_cactus(plain_network(nodes, ends)) is expected


PREDICATES = [connected_components, is_connected, is_tree, max_degree, is_cactus]
# node records whose names could be neither unpacked, ordered nor hashed: `Network` refuses them, naming each
UNNUMBERABLE = {
    "three fields": (lambda: Network([("a", GEN, 1), ("b", LOAD)], [fixed_edge("a", "b", 1, 1)]), ["Structural at ('a', <NodeRole.GENERATOR: 'generator'>, 1): node record is not a (name, role) pair"]),
    "names of two types": (lambda: Network([("a", GEN), (1, LOAD)]), ["Structural at 1: name of type int is not a str"]),
    "list names": (lambda: Network([(["a"], GEN), (["b"], LOAD)]), ["Structural at ['a']: name of type list is not a str", "Structural at ['b']: name of type list is not a str"]),
}


@pytest.mark.parametrize("kind", UNNUMBERABLE)
def test_node_records_that_cannot_be_numbered_are_refused_when_built(kind):
    build, lines = UNNUMBERABLE[kind]
    with pytest.raises(InvalidNetwork) as raised:
        build()
    assert str(raised.value.report).splitlines() == lines and raised.value.report.kinds() == {"Structural"}


@pytest.mark.parametrize(
    "nodes, line",
    [([("a", GEN), ("a", LOAD), ("b", LOAD)], "Structural at a: node declared more than once"), ([("a", GEN), ("b", LOAD), ("", PLAIN)], "Structural at '': empty node name")],
    ids=["declared twice", "empty name"],
)
def test_other_defective_node_records_are_refused_before_any_predicate(nodes, line):
    assert refused(nodes, [fixed_edge("a", "b", 1, 1)]) == [line]


@pytest.mark.parametrize("predicate", [connected_components, is_connected, is_tree, is_cactus, max_degree])
@pytest.mark.parametrize("n", [None, "gsch1"], ids=["None", "str"])
def test_a_predicate_refuses_what_is_not_a_network(predicate, n):
    # each raised AttributeError from the first attribute it read
    with pytest.raises(InvalidNetwork) as caught:
        predicate(n)
    assert str(caught.value.report) == f"Structural at {n!r}: network is not a Network"

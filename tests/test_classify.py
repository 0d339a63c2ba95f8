import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import any_network, random_ldc_network, random_tree
from ldcflow.classify import connected_components, is_cactus, is_connected, is_tree, max_degree
from ldcflow.errors import InvalidNetwork
from ldcflow.gadgets import Polarity, gfch, gsch
from ldcflow.maxflow import classical_max_flow
from ldcflow.mpf import core_maps
from ldcflow.network import Network, NodeRole, fixed_edge, subnetwork, validate_network, validate_solution, zero_solution
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


def test_self_loops_and_edges_to_undeclared_nodes_are_left_out():
    triangle = Network(
        [(v, PLAIN) for v in "abc"],
        [fixed_edge(a, b, 1, 1) for a, b in [("a", "b"), ("b", "c"), ("a", "c"), ("a", "a"), ("b", "z")]],
    )
    assert is_cactus(triangle) and max_degree(triangle) == 2
    assert connected_components(triangle) == [{"a", "b", "c"}]
    k4 = Network(complete4().nodes, complete4().edges + (fixed_edge("d", "d", 1, 1),))
    assert not is_cactus(k4) and max_degree(k4) == 3


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
    """Reference: merge the endpoints of every edge between declared nodes, then order the classes by their smallest name."""
    parent = {v: v for v in n.node_names}

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for e in n.edges:
        if e.a in parent and e.b in parent:
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


@st.composite
def defective_graphs(draw) -> Network:
    """A `graphs` network with self-loops, edges to the undeclared node "q" and second edges on its pairs added."""
    n = draw(graphs(max_nodes=6))
    loops = draw(st.lists(st.sampled_from(n.node_names), max_size=2, unique=True))
    strays = draw(st.lists(st.sampled_from(n.node_names), max_size=2, unique=True))
    repeats = draw(st.lists(st.sampled_from(n.edges), max_size=2, unique=True)) if n.edges else []
    edges = [fixed_edge(v, v, 1, 1) for v in loops] + [fixed_edge(v, "q", 1, 1) for v in strays]
    return Network(n.nodes, [*n.edges, *edges, *(fixed_edge(e.a, e.b, 2, 1) for e in repeats)])


@given(st.one_of(graphs(), defective_graphs()))
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
        masks = range(1 << min(len(kept), 8))
        for ours, theirs in zip(core_maps(part), core_maps(fresh)):
            assert [ours(m) for m in masks] == [theirs(m) for m in masks]
        core, fresh_core = core_maps(part)[0], core_maps(fresh)[0]
        assert [core(~m) for m in masks] == [fresh_core(~m) for m in masks]
        assert classical_max_flow(part, witness=True) == classical_max_flow(fresh, witness=True)


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
def test_a_repeated_edge_closes_a_2_cycle(pairs, cactus):
    assert is_cactus(plain_network("abc", pairs)) is cactus


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
def test_a_repeated_edge_counts_as_a_subdivided_one_under_any_names(graph):
    names, pairs, renamed = graph
    rename = dict(zip(names, renamed))
    expected = is_cactus_by_cycles(subdivided(names, pairs))
    assert is_cactus(plain_network(names, pairs)) is expected
    assert is_cactus(plain_network(renamed, [(rename[a], rename[b]) for a, b in pairs])) is expected


PREDICATES = [connected_components, is_connected, is_tree, max_degree, is_cactus]
# node records that cannot be numbered: `node_names` can neither unpack, order nor hash their names
UNNUMBERABLE = {
    "three fields": lambda: Network([("a", GEN, 1), ("b", LOAD)], [fixed_edge("a", "b", 1, 1)]),
    "names of two types": lambda: Network([("a", GEN), (1, LOAD)]),
    "list names": lambda: Network([(["a"], GEN), (["b"], LOAD)]),
}


@pytest.mark.parametrize(
    "check",
    [*PREDICATES, lambda n: subnetwork(n, ()), zero_solution, lambda n: validate_solution(n, zero_solution(path3()))],
    ids=[f.__name__ for f in PREDICATES] + ["subnetwork", "zero_solution", "validate_solution"],
)
@pytest.mark.parametrize("kind", UNNUMBERABLE)
def test_node_records_that_cannot_be_numbered_raise_the_invalid_network_report(kind, check):
    n = UNNUMBERABLE[kind]()
    with pytest.raises(InvalidNetwork) as raised:
        check(n)
    assert raised.value.report == validate_network(n) and raised.value.report.kinds() == {"Structural"}


@pytest.mark.parametrize(
    "nodes, answers",
    [([("a", GEN), ("a", LOAD), ("b", LOAD)], [[{"a", "b"}], True, True, 1, True]), ([("a", "gen"), ("b", LOAD)], [[{"a", "b"}], True, True, 1, True])],
    ids=["declared twice", "role not a NodeRole"],
)
def test_other_defective_node_records_keep_their_answers(nodes, answers):
    n = Network(nodes, [fixed_edge("a", "b", 1, 1)])
    assert not validate_network(n).ok
    assert [predicate(n) for predicate in PREDICATES] == answers

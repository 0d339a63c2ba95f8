import pickle
import random
from dataclasses import FrozenInstanceError, fields, replace
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import SUSCEPTANCES, networks_with_idle_edges, random_ldc_network, random_tree, series_parallel_networks
from ldcflow import mpf
from ldcflow.classify import connected_components
from ldcflow.errors import InvalidNetwork, NotFixedSusceptance
from ldcflow.gadgets import Polarity, gfch, gsch
from ldcflow.lp import LE, RANGE, Lazy, LpResult, LpStatus, solve_lp
from ldcflow.maxflow import _integer_flow, classical_max_flow
from ldcflow.mpf import MpfOutcome, _gen, _load, core_maps, formulate_mpf, solve_mpf
from ldcflow.msf import _th, solve_msf_bnb, solve_msf_exhaustive
from ldcflow.network import Network, NodeRole, Solution, _solution, fixed_edge, network_sum, subnetwork, total_generation, validate_solution
from oracles import (
    expanded,
    reference_general_lp,
    reference_lp_part,
    reference_mpf_program,
    reference_potentials,
    reference_terminal_program,
    reference_tree_part,
    reference_validate_network,
)

GEN, LOAD, PLAIN = NodeRole.GENERATOR, NodeRole.LOAD, NodeRole.PLAIN


def triangle():
    return Network(
        [("g", GEN), ("b", PLAIN), ("l", LOAD)],
        [fixed_edge("g", "b", 1, 5), fixed_edge("b", "l", 1, 4), fixed_edge("g", "l", 1, 30)],
    )


# two generators and a load: a flowing component that is not a pair
SEVERAL = Network([("x0", GEN), ("x1", GEN), ("x2", LOAD)], [fixed_edge("x0", "x1", 1, 2), fixed_edge("x1", "x2", 2, 3), fixed_edge("x0", "x2", 1, 1)])
LONELY = Network([("y0", GEN), ("y1", GEN)], [fixed_edge("y0", "y1", 1, 2)])


class TestFormulate:
    """`formulate_mpf` writes the terminal-space program, row for row the `Fraction` reference's."""

    def test_single_edge_program_optimum_is_capacity(self):
        n = Network([("g", GEN), ("l", LOAD)], [fixed_edge("g", "l", 2, 4)])
        p = formulate_mpf(n)
        assert p == reference_terminal_program(n)
        # a unit of load at l lifts its angle by 1/2, so the edge carries all of it
        assert p.variables == ["gen[g]", "load[l]"]
        # one range row per edge and per balance, each standing for the row and its negation
        assert p.rows == [[0, 1, 4, 1], [1, -1, 0, 1]] and p.rels == [RANGE, RANGE]
        assert expanded(p).rows == [[0, 1, 4, 1], [0, -1, 4, 1], [1, -1, 0, 1], [-1, 1, 0, 1]]
        r = solve_lp(p)
        assert r.status is LpStatus.OPTIMAL and r.value == 4

    def test_gadget_program_optimum(self):
        n = gsch(1, "v", Polarity.MINUS)
        p = formulate_mpf(n)
        assert p == reference_terminal_program(n)
        assert solve_lp(p).value == 3

    def test_edgeless_program_optimum_is_zero(self):
        n = Network([("g", GEN), ("l", LOAD)], [])
        p = formulate_mpf(n)
        # two components, each with its balance alone, which pins its terminal at zero
        assert p == reference_terminal_program(n)
        assert p.rows == [[1, 0, 0, 1], [0, -1, 0, 1]] and p.rels == [RANGE, RANGE]
        assert expanded(p).rows == [[1, 0, 0, 1], [-1, 0, 0, 1], [0, -1, 0, 1], [0, 1, 0, 1]]
        assert solve_lp(p).value == 0

    def test_facts_edge_rejected(self):
        with pytest.raises(NotFixedSusceptance):
            formulate_mpf(gfch(1, "v", Polarity.MINUS))

    def test_an_undeclared_endpoint_is_an_invalid_network(self):
        # refused when built, so no program is formulated over it
        with pytest.raises(InvalidNetwork, match="endpoint zz is not a declared node") as raised:
            Network([("a", GEN), ("b", LOAD)], [fixed_edge("a", "zz", 1, 1), fixed_edge("a", "b", 1, 1)])
        assert raised.value.report.kinds() == {"Structural"}

    @pytest.mark.parametrize("s", [2, -1])
    def test_edges_on_one_pair_are_an_invalid_network(self, s):
        nodes, edges = [("a", GEN), ("b", LOAD)], [fixed_edge("a", "b", 1, 1), fixed_edge("a", "b", s, 1)]
        with pytest.raises(InvalidNetwork, match="second edge on the same node pair") as raised:
            Network(nodes, edges)
        assert raised.value.report == reference_validate_network(nodes, edges)


class TestSolveMpf:
    def test_gadget_value(self):
        out = solve_mpf(gsch(1, "v", Polarity.MINUS))
        assert out.value == 3

    def test_triangle_is_angle_limited(self):
        # conservation at the middle node ties both its edges to the same
        # flow, so the bottleneck caps the whole triangle at 3 * 4
        out = solve_mpf(triangle())
        assert out.value == 12

    def test_disconnected_generator_supplies_nothing(self):
        n = Network(
            [("g", GEN), ("l", LOAD), ("x", GEN)],
            [fixed_edge("g", "l", 1, 2)],
        )
        out = solve_mpf(n)
        assert out.value == 2 and out.solution.gen["x"] == 0

    def test_generator_without_any_load_reachable(self):
        n = Network([("g", GEN), ("y", PLAIN)], [fixed_edge("g", "y", 1, 3)])
        assert solve_mpf(n).value == 0

    def test_outcome_is_consistent(self):
        for n in (triangle(), gsch(2, "v", Polarity.MINUS)):
            out = solve_mpf(n)
            assert validate_solution(n, out.solution).ok
            assert total_generation(out.solution) == out.value


class TestSolveTree:
    """`solve_mpf` solves a tree with no LP, for its value and its solution."""

    def test_path_bottleneck(self):
        n = Network(
            [("g", GEN), ("a", PLAIN), ("l", LOAD)],
            [fixed_edge("g", "a", 1, 3), fixed_edge("a", "l", 1, 5)],
        )
        out = assert_exact(n)
        assert out.value == 3
        # angles replay the flow: equal steps of flow/susceptance
        assert out.solution.angle["l"] - out.solution.angle["a"] == 3
        assert out.solution.angle["a"] - out.solution.angle["g"] == 3

    def test_star_with_two_loads(self):
        n = Network(
            [("g", GEN), ("l1", LOAD), ("l2", LOAD)],
            [fixed_edge("g", "l1", 1, 1), fixed_edge("g", "l2", 1, 2)],
        )
        out = assert_exact(n)
        assert out.value == 3
        assert out.solution.flow == {n.edges[0]: 1, n.edges[1]: 2}
        assert out.solution.angle == {"g": 0, "l1": 1, "l2": 2}

    def test_matches_generic_solver_on_random_trees(self, rng):
        for _ in range(10):
            assert_exact(random_tree(rng, max_nodes=10))


class TestInvariants:
    def test_never_exceeds_classical_flow(self, rng):
        for _ in range(15):
            n = random_ldc_network(rng)
            assert solve_mpf(n).value <= classical_max_flow(n)

    def test_capacity_scaling_scales_value(self, rng):
        for k in (F(2), F(1, 3), F(7, 5)):
            n = random_ldc_network(rng, max_edges=6)
            scaled = Network(
                n.nodes,
                [fixed_edge(e.a, e.b, e.s_min, e.cap * k) for e in n.edges],
            )
            assert solve_mpf(scaled).value == k * solve_mpf(n).value

    def test_solutions_always_validate(self, rng):
        for _ in range(15):
            n = random_ldc_network(rng)
            out = solve_mpf(n)
            assert validate_solution(n, out.solution).ok


def six_edges():
    """A six-edge network on which branch-and-bound improves its incumbent three times."""
    return random_ldc_network(random.Random(0), max_edges=6, min_edges=6)


def pending(record) -> list[Lazy]:
    """The builders a record holds that have not run yet."""
    return [v for v in vars(record).values() if type(v) is Lazy]


class TestLazySolutions:
    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        build = mpf._solution
        monkeypatch.setattr(mpf, "_solution", lambda n, parts: calls.append(n) or build(n, parts))
        return calls

    @pytest.mark.parametrize("search", [solve_msf_exhaustive, solve_msf_bnb])
    def test_a_search_builds_only_the_solution_it_returns(self, builds, search):
        n = six_edges()
        assert len(n.edges) == 6
        out = search(n)
        assert out.value > 0 and validate_solution(subnetwork(n, out.switched), out.solution).ok
        assert len(builds) == 1

    def test_reading_the_value_builds_nothing(self, builds):
        n = six_edges()
        r = solve_lp(formulate_mpf(n))
        assert r.value > 0 and len(pending(r)) == 1
        assert r.assignment is r.assignment and pending(r) == []
        out = solve_mpf(n)
        assert out.value > 0 and builds == []
        assert out.solution is out.solution and len(builds) == 1

    # a third of the pair's flow goes via b, so b--l's cap 4 binds at 12; SEVERAL's
    # x1 and x0 send 3 and 1 to x2 at their caps, and x1 sends 1/2 on to x0
    PAIR_ANGLES = {"b": 0, "g": F(-4), "l": F(4)}
    SEVERAL_ANGLES = {"x0": 0, "x1": F(-1, 2), "x2": F(1)}

    @pytest.mark.parametrize(
        "n, eliminated, read, angles",
        [
            (triangle(), [["b", "g", "l"]], [], PAIR_ANGLES),
            (network_sum(triangle(), SEVERAL), [["b", "g", "l"], ["x0", "x1", "x2"]], [["x0", "x1", "x2"]], {**PAIR_ANGLES, **SEVERAL_ANGLES}),
        ],
        ids=["pair", "mixed"],
    )
    def test_a_closed_form_solution_is_built_on_first_read(self, builds, monkeypatch, n, eliminated, read, angles):
        # the value runs one elimination per one-pair component and one per LP
        # component (its shift factors); reading the solution runs one more per
        # LP component, of its vertex's injections, and none per one-pair
        # component, whose part scales its unit solve
        parts, solved = [], []
        one_pair, potentials = mpf._one_pair, mpf._potentials

        def counted(*args):
            t, part = one_pair(*args)
            return t, lambda: parts.append(t) or part()

        monkeypatch.setattr(mpf, "_one_pair", counted)
        monkeypatch.setattr(mpf, "_potentials", lambda names, *args: solved.append(names) or potentials(names, *args))
        out = solve_mpf(n)
        assert out.value > 0 and builds == [] and parts == [] and solved == eliminated
        solution = out.solution
        assert out.solution is solution and builds == [n] and len(parts) == 1 and solved == eliminated + read
        # every component carries the angle-space program's vertex, edge by edge and node by node
        assert solution == _reference(n)[1]
        assert solution.angle == angles and solution.gen["g"] == 12

    def test_results_pickle_and_compare_like_eager_ones(self):
        n = six_edges()
        p = formulate_mpf(n)
        lazy_lp, read_lp = solve_lp(p), solve_lp(p)
        eager_lp = LpResult(read_lp.status, read_lp.value, dict(read_lp.assignment))
        assert pickle.loads(pickle.dumps(lazy_lp)) == eager_lp == lazy_lp
        assert repr(solve_lp(p)) == repr(eager_lp)
        lazy, read = solve_mpf(n), solve_mpf(n)
        eager = MpfOutcome(read.value, read.solution)
        assert pickle.loads(pickle.dumps(lazy)) == eager == lazy
        assert repr(solve_mpf(n)) == repr(eager)
        with pytest.raises(FrozenInstanceError):
            lazy.value = 0


def _solve_lp(n: Network) -> LpResult:
    return solve_lp(formulate_mpf(n))


def _eager(record):
    """The same record built with every field given."""
    return type(record)(*(getattr(record, f.name) for f in fields(record)))


class TestLazyFields:
    """A `Lazy` field is built once, on its first read; otherwise the record is the frozen dataclass built eagerly."""

    FIELDS = {LpResult: ["status", "value", "assignment"], MpfOutcome: ["value", "solution"]}
    USES = {
        "read": lambda r, eager: getattr(r, fields(r)[-1].name) is not None,
        "eq": lambda r, eager: r == eager,
        "repr": lambda r, eager: repr(r) == repr(eager),
        "pickle": lambda r, eager: pickle.loads(pickle.dumps(r)) == eager,
    }

    @pytest.mark.parametrize("solve", [_solve_lp, solve_mpf])
    @pytest.mark.parametrize("first", list(USES))
    def test_a_builder_runs_once_whatever_reads_it_first(self, solve, first):
        n = six_edges()
        record, eager = solve(n), _eager(solve(n))
        [lazy] = pending(record)
        calls, build = [], lazy.build
        lazy.build = lambda: calls.append(1) or build()
        assert record.value == eager.value and calls == []
        assert self.USES[first](record, eager) and calls == [1]
        for use in self.USES.values():
            assert use(record, eager) and use(record, eager)
        assert calls == [1] and pending(record) == []

    @pytest.mark.parametrize("solve", [_solve_lp, solve_mpf])
    @pytest.mark.parametrize("built", ["solved", "eager"])
    def test_records_are_frozen_dataclasses(self, solve, built):
        record = solve(six_edges())
        if built == "eager":
            record = _eager(record)
        assert [f.name for f in fields(record)] == self.FIELDS[type(record)]
        assert replace(record) == record == _eager(record)
        for f in fields(record):
            with pytest.raises(FrozenInstanceError):
                setattr(record, f.name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(record, f.name)

    def test_constructors_keep_their_signatures(self):
        assert LpResult(LpStatus.INFEASIBLE) == LpResult(LpStatus.INFEASIBLE, None, None)
        with pytest.raises(TypeError):
            MpfOutcome(F(1))
        assert MpfOutcome(F(0), Lazy(lambda: "built")).solution == "built"


def _reference(n: Network) -> tuple[F, Solution]:
    """MPF by one angle-space LP over the whole network, flowless components included, on the general route."""
    r = reference_general_lp(reference_mpf_program(n))
    a = r.assignment
    angle = {v: a[_th(v)] for v in n.node_names}
    return r.value, Solution(
        susceptance={e: e.s_min for e in n.edges},
        angle=angle,
        flow={e: e.s_min * (angle[e.b] - angle[e.a]) for e in n.edges},
        gen={v: a.get(_gen(v), F(0)) for v in n.node_names},
        load={v: a.get(_load(v), F(0)) for v in n.node_names},
    )


def assert_exact(n: Network) -> MpfOutcome:
    """Solve n, read its solution, and check both against one LP over the whole network.

    The value is `_reference`'s and the solution valid.  A flowing tree
    component with several generators or loads carries the integer max
    flow of `maxflow`, its smallest node pinned at zero, and reaches no
    LP for its value or its solution.  Every other component carries the
    reference's vertex, and the flowing ones with a cycle and several
    generators or loads share the one LP that runs, over their
    generations and loads alone.
    """
    programs = []
    with mock.patch("ldcflow.mpf.solve_lp", lambda p: programs.append(p) or solve_lp(p)):
        out = solve_mpf(n)
        solution = out.solution
    value, reference = _reference(n)
    assert out.value == value == total_generation(solution)
    assert validate_solution(n, solution).ok
    roles, replayed, cyclic = n.roles, set(), False
    for comp in connected_components(n):
        names = sorted(comp)
        edges = [e for e in n.edges if e.a in comp]
        gens = [v for v in names if roles[v] is GEN]
        loads = [v for v in names if roles[v] is LOAD]
        several = gens and loads and len(gens) + len(loads) > 2
        if several and len(edges) == len(comp) - 1:
            view = n._view
            _, flows, _ = _integer_flow(view, n._kept, sum(1 << view.index[v] for v in comp))
            assert [solution.flow[e] for e in edges] == [F(f, view.scale) for f in flows]
            assert solution.angle[names[0]] == 0
            replayed |= {_gen(v) for v in gens} | {_load(v) for v in loads}
            continue
        cyclic |= bool(several)
        for v in names:
            assert (solution.angle[v], solution.gen[v], solution.load[v]) == (reference.angle[v], reference.gen[v], reference.load[v])
        assert [solution.flow[e] for e in edges] == [reference.flow[e] for e in edges]
    assert len(programs) == cyclic
    assert not replayed & {v for p in programs for v in p.variables}
    return out


def test_flowless_components_skip_the_lp_without_changing_the_outcome():
    rng = random.Random(1511)
    lonely = Network([("x0", GEN), ("x1", GEN)], [fixed_edge("x0", "x1", 1, 2)])
    flowless = 0
    for _ in range(200):
        n = random_ldc_network(rng)
        variants = [n, Network(n.nodes + (("z", PLAIN),), n.edges), network_sum(n, lonely)]
        variants += [subnetwork(n, [e]) for e in n.edges]
        for m in variants:
            flowless += assert_exact(m).value == 0
    assert flowless > 0


def wheatstone() -> Network:
    """A balanced Wheatstone bridge from g to l: s(g,a)/s(a,l) = s(g,b)/s(b,l), so a and b share an angle."""
    return Network(
        [("a", PLAIN), ("b", PLAIN), ("g", GEN), ("l", LOAD)],
        [
            fixed_edge("g", "a", 1, 3),
            fixed_edge("a", "l", 2, 5),
            fixed_edge("g", "b", 2, 5),
            fixed_edge("b", "l", 4, 3),
            fixed_edge("a", "b", 1, 1),
        ],
    )


@st.composite
def potential_cases(draw) -> tuple[list[str], list, list[dict[str, int]]]:
    """A connected component (sorted names, edges) and one to four injection patterns.

    A spanning tree with up to eight chords over up to ten nodes, its
    susceptances with denominators; a pattern is a unit injection at one
    node (the pinned one too), a generator-load pair, or small integers at
    a few nodes.
    """
    names = [f"v{i:02d}" for i in range(draw(st.integers(2, 10)))]
    pairs = {(names[draw(st.integers(0, i - 1))], names[i]) for i in range(1, len(names))}
    every = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
    pairs |= set(draw(st.lists(st.sampled_from(every), max_size=8)))
    edges = [fixed_edge(a, b, draw(st.sampled_from(SUSCEPTANCES + [F(2, 3), F(5, 7)])), 1) for a, b in sorted(pairs)]
    node = st.sampled_from(names)
    pattern = st.one_of(
        st.tuples(node, st.sampled_from((1, -1))).map(lambda unit: dict([unit])),
        st.lists(node, min_size=2, max_size=2, unique=True).map(lambda gl: {gl[0]: 1, gl[1]: -1}),
        st.dictionaries(node, st.integers(-3, 3), min_size=1, max_size=3),
    )
    return names, edges, draw(st.lists(pattern, min_size=1, max_size=4))


PINNED_PATTERNS = (["a", "b", "c"], [fixed_edge("a", "b", 1, 1), fixed_edge("b", "c", F(1, 2), 1), fixed_edge("a", "c", F(3, 2), 1)], [{"a": 1}])


@given(potential_cases())
@example(PINNED_PATTERNS)
@example((PINNED_PATTERNS[0], PINNED_PATTERNS[1], [{"c": -1}, {"a": 1}, {"b": 1, "c": -1}]))
@example((["a", "b"], [fixed_edge("a", "b", F(2, 3), 1)], [{"b": 2}]))
def test_potentials_equal_the_one_pattern_at_a_time_reference(case):
    det, angles = mpf._potentials(*case)
    assert (det, angles) == reference_potentials(*case)
    names, _, patterns = case
    for pattern, y in zip(patterns, angles):
        if all(v == names[0] for v in pattern):  # an injection at the pinned node alone moves no angle
            assert set(y.values()) == {0}


@st.composite
def one_pair_components(draw, prefix: str) -> Network:
    """A connected network on prefixed names with one generator, one load and plain nodes.

    It is a random connected graph with a pendant plain path, or a balanced
    Wheatstone bridge, whose bridge edge has equal angles at both ends.
    """
    edge = st.tuples(st.sampled_from(SUSCEPTANCES), st.integers(1, 6))
    if draw(st.booleans()):
        s, t = draw(st.sampled_from(SUSCEPTANCES)), draw(st.sampled_from(SUSCEPTANCES))
        r = draw(st.sampled_from(SUSCEPTANCES))
        names = {v: f"{prefix}{v}" for v in "gabl"}
        return Network(
            [(names["g"], GEN), (names["l"], LOAD), (names["a"], PLAIN), (names["b"], PLAIN)],
            [
                fixed_edge(names[u], names[v], sus, draw(st.integers(1, 6)))
                for u, v, sus in (("g", "a", s), ("a", "l", t), ("g", "b", r * s), ("b", "l", r * t), ("a", "b", draw(st.sampled_from(SUSCEPTANCES))))
            ],
        )
    names = [f"{prefix}{i}" for i in range(draw(st.integers(2, 6)))]
    pairs = {tuple(sorted((names[i], names[draw(st.integers(0, i - 1))]))) for i in range(1, len(names))}
    every = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
    pairs |= set(draw(st.lists(st.sampled_from(every), max_size=3)))
    gen, load = draw(st.permutations(names))[:2]
    nodes = [(v, GEN if v == gen else LOAD if v == load else PLAIN) for v in names]
    edges = [fixed_edge(a, b, *draw(edge)) for a, b in sorted(pairs)]
    at = draw(st.sampled_from(names))
    for k in range(draw(st.integers(0, 2))):
        nodes.append((f"{prefix}p{k}", PLAIN))
        edges.append(fixed_edge(at, f"{prefix}p{k}", *draw(edge)))
        at = f"{prefix}p{k}"
    return Network(nodes, edges)


@st.composite
def one_pair_networks(draw) -> Network:
    """One or two one-pair components, maybe next to a flowless one and maybe next to `SEVERAL`."""
    n = draw(one_pair_components("c"))
    if draw(st.booleans()):
        n = network_sum(n, draw(one_pair_components("d")))
    for extra in (LONELY, SEVERAL):
        if draw(st.booleans()):
            n = network_sum(n, extra)
    return n


class TestOnePairComponents:
    """A flowing component with one generator and one load is solved without an LP, to the LP's vertex."""

    @given(one_pair_networks())
    @example(wheatstone())
    @example(network_sum(triangle(), SEVERAL))
    @example(network_sum(network_sum(wheatstone(), LONELY), SEVERAL))
    def test_the_closed_form_is_the_whole_programs_vertex(self, n):
        out = solve_mpf(n)
        value, solution = _reference(n)
        assert out.value == value
        assert out.solution == solution
        assert validate_solution(n, out.solution).ok

    def test_a_balanced_bridge_edge_carries_nothing_and_bounds_nothing(self):
        # unit flow splits 1/3 via a and 2/3 via b: caps 3, 5, 5, 3 allow 9, 15, 15/2 and 9/2
        out = solve_mpf(wheatstone())
        assert out.value == F(9, 2)
        (bridge,) = [e for e in wheatstone().edges if e.pair == ("a", "b")]
        assert out.solution.flow[bridge] == 0
        # a is the smallest name, so its angle is pinned at zero
        assert out.solution.angle == {"a": 0, "b": 0, "g": F(-3, 2), "l": F(3, 4)}

    @pytest.fixture
    def programs(self, monkeypatch):
        calls = []
        monkeypatch.setattr("ldcflow.mpf.solve_lp", lambda p: calls.append(p) or solve_lp(p))
        return calls

    def test_a_network_of_pairs_needs_no_lp(self, programs):
        link = Network([("z", GEN), ("zz", LOAD)], [fixed_edge("z", "zz", 1, 1)])
        for n in (triangle(), wheatstone(), network_sum(wheatstone(), LONELY), network_sum(triangle(), link)):
            out = solve_mpf(n)
            assert out.value > 0 and validate_solution(n, out.solution).ok
        assert programs == []

    def test_the_lp_is_handed_only_the_other_components(self, programs):
        n = network_sum(network_sum(triangle(), SEVERAL), LONELY)
        value = solve_mpf(n).value
        assert programs == [formulate_mpf(SEVERAL)]
        assert value == solve_mpf(triangle()).value + solve_mpf(SEVERAL).value


# capacities with several denominators, so the tree cut's common scale matters
TREE_CAPS = [F(1), F(2), F(5), F(1, 2), F(2, 3), F(7, 4)]
# two generators feed a load through a plain hub: 3 + 2 can come in, 7/2 go out, so MPF is 7/2
STAR = Network([("h", GEN), ("i", GEN), ("j", LOAD), ("k", PLAIN)], [fixed_edge("h", "k", 1, 3), fixed_edge("i", "k", 2, 2), fixed_edge("j", "k", 1, F(7, 2))])


@st.composite
def tree_components(draw, prefix: str) -> Network:
    """A random tree on prefixed names with a generator, a load and a third node that is either."""
    names = [f"{prefix}{i}" for i in range(draw(st.integers(3, 8)))]
    edges = [fixed_edge(names[draw(st.integers(0, i - 1))], v, draw(st.sampled_from(SUSCEPTANCES)), draw(st.sampled_from(TREE_CAPS))) for i, v in enumerate(names) if i]
    first, second, third, *rest = draw(st.permutations(names))
    roles = {first: GEN, second: LOAD, third: draw(st.sampled_from([GEN, LOAD]))}
    roles.update((v, draw(st.sampled_from([GEN, LOAD, PLAIN, PLAIN]))) for v in rest)
    return Network(roles.items(), edges)


@st.composite
def forests(draw) -> tuple[Network, Network]:
    """One or two tree components with several generators or loads, and that forest maybe next to a cyclic, a one-pair and a flowless one."""
    forest = draw(tree_components("t"))
    if draw(st.booleans()):
        forest = network_sum(forest, draw(tree_components("u")))
    n = forest
    for extra in (SEVERAL, triangle(), LONELY):
        if draw(st.booleans()):
            n = network_sum(n, extra)
    return forest, n


class TestTreeComponents:
    """A tree component with several generators or loads is valued and solved by one max flow, with no LP."""

    @given(forests())
    @example((STAR, STAR))
    @example((STAR, network_sum(network_sum(network_sum(STAR, SEVERAL), triangle()), LONELY)))
    def test_the_cut_is_the_max_flow_and_the_solution_its_replay(self, networks):
        forest, n = networks
        assert solve_mpf(forest).value == classical_max_flow(forest)
        assert_exact(n)

    @pytest.mark.parametrize("extra", [None, SEVERAL, triangle()], ids=["tree", "cyclic", "pair"])
    def test_a_tree_reaches_no_lp(self, monkeypatch, extra):
        n, value = (STAR, F(7, 2)) if extra is None else (network_sum(STAR, extra), F(7, 2) + solve_mpf(extra).value)
        calls = []
        monkeypatch.setattr("ldcflow.mpf.solve_lp", lambda p: calls.append(p) or solve_lp(p))
        # only the cyclic component needs an LP, for its value
        before = [formulate_mpf(SEVERAL)] if extra is SEVERAL else []
        out = solve_mpf(n)
        assert out.value == value and calls == before
        solution = out.solution
        assert out.solution is solution and calls == before
        # Edmonds-Karp sends h's 3 to j, then i's last 1/2; h, the smallest node, is pinned
        h, i, j = STAR.edges
        assert {e: solution.flow[e] for e in STAR.edges} == {h: 3, i: F(1, 2), j: F(-7, 2)}
        assert {v: solution.angle[v] for v in "hijk"} == {"h": 0, "i": F(11, 4), "j": F(13, 2), "k": 3}
        assert {v: (solution.gen[v], solution.load[v]) for v in "hij"} == {"h": (3, 0), "i": (F(1, 2), 0), "j": (0, F(7, 2))}

    @pytest.mark.parametrize("extra", [None, SEVERAL, triangle(), LONELY], ids=["tree", "cyclic", "pair", "flowless"])
    def test_the_value_runs_one_max_flow_and_the_solution_replays_it(self, monkeypatch, extra):
        n = STAR if extra is None else network_sum(STAR, extra)
        calls = []
        monkeypatch.setattr("ldcflow.mpf._integer_flow", lambda *args: calls.append(args) or _integer_flow(*args))
        out = solve_mpf(n)
        ((view, kept, nodes),) = calls
        assert (view, kept) == (n._view, n._kept)
        names = [v for v in n.node_names if nodes >> view.index[v] & 1]
        edges = [e for j, (e, (a, _)) in enumerate(zip(view.edges, view.ends)) if kept >> j & 1 and nodes >> a & 1]
        gens, loads = [v for v in n.generators if v in names], [v for v in n.loads if v in names]
        assert (names, edges, gens, loads) == (["h", "i", "j", "k"], list(STAR.edges), ["h", "i"], ["j"])
        assert out.solution.flow[STAR.edges[0]] == 3 and len(calls) == 1

    @pytest.mark.parametrize(
        "extra, eliminated, read",
        [
            (None, [], [["h", "i", "j", "k"]]),
            (SEVERAL, [["x0", "x1", "x2"]], [["h", "i", "j", "k"], ["x0", "x1", "x2"]]),
            (triangle(), [["b", "g", "l"]], [["h", "i", "j", "k"]]),
            (LONELY, [], [["h", "i", "j", "k"]]),
        ],
        ids=["tree", "cyclic", "pair", "flowless"],
    )
    def test_the_solution_solves_the_max_flows_injections_once(self, monkeypatch, extra, eliminated, read):
        n = STAR if extra is None else network_sum(STAR, extra)
        solved, potentials = [], mpf._potentials
        monkeypatch.setattr("ldcflow.mpf._potentials", lambda names, *args: solved.append(names) or potentials(names, *args))
        out = solve_mpf(n)
        assert solved == eliminated
        solution = out.solution
        # reading the solution runs one elimination per flowing tree or cyclic
        # component, of its net injections, and none per one-pair or flowless one
        assert solved == eliminated + read
        # injections 3, 1/2, -7/2 at h, i, j: th_k = 0 + 3/1, th_i = th_k - (1/2)/2 and th_j = th_k - (7/2)/1
        h, i, j = STAR.edges
        assert {e: solution.flow[e] for e in STAR.edges} == {h: 3, i: F(1, 2), j: F(-7, 2)}
        assert {v: solution.angle[v] for v in "hijk"} == {"h": 0, "i": F(11, 4), "j": F(13, 2), "k": 3}
        assert {v: (solution.gen[v], solution.load[v]) for v in "hijk"} == {"h": (3, 0), "i": (F(1, 2), 0), "j": (0, F(7, 2)), "k": (0, 0)}
        assert validate_solution(n, solution).ok


@st.composite
def cyclic_components(draw, prefix: str) -> Network:
    """A connected network on prefixed names with a cycle, a generator, a load and a third node that is either."""
    names = [f"{prefix}{i}" for i in range(draw(st.integers(3, 6)))]
    pairs = {tuple(sorted((names[i], names[draw(st.integers(0, i - 1))]))) for i in range(1, len(names))}
    chords = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :] if (a, b) not in pairs]
    pairs |= set(draw(st.lists(st.sampled_from(chords), min_size=1, max_size=3)))
    first, second, third, *rest = draw(st.permutations(names))
    roles = {first: GEN, second: LOAD, third: draw(st.sampled_from([GEN, LOAD]))}
    roles.update((v, draw(st.sampled_from([GEN, LOAD, PLAIN, PLAIN]))) for v in rest)
    edges = [fixed_edge(a, b, draw(st.sampled_from(SUSCEPTANCES)), draw(st.sampled_from(TREE_CAPS))) for a, b in sorted(pairs)]
    return Network(roles.items(), edges)


@st.composite
def mixed_networks(draw) -> Network:
    """One or two cyclic components with several generators or loads, maybe next to a one-pair, a tree and a flowless one."""
    n = draw(cyclic_components("c"))
    if draw(st.booleans()):
        n = network_sum(n, draw(cyclic_components("e")))
    if draw(st.booleans()):
        n = network_sum(n, draw(one_pair_components("d")))
    if draw(st.booleans()):
        n = network_sum(n, draw(tree_components("t")))
    if draw(st.booleans()):
        n = network_sum(n, LONELY)
    return n


def slack_basis_programs(monkeypatch) -> list:
    """Every program `solve_mpf` hands `ldcflow.mpf.solve_lp`, after checking that its slack basis is feasible.

    Only <= rows (a range row stands for two) with nonnegative right-hand
    sides, and every variable at lower bound 0 with no upper bound: the
    standard form `solve_lp` takes.
    """
    calls = []

    def solve(p):
        assert set(p.rels) <= {LE, RANGE} and all(row[-2] >= 0 for row in p.rows)
        assert all(p.lower[v] == 0 and p.upper[v] is None for v in p.variables)
        calls.append(p)
        return solve_lp(p)

    monkeypatch.setattr("ldcflow.mpf.solve_lp", solve)
    return calls


class TestTerminalSpace:
    """The LP `solve_mpf` runs is over generations and loads alone, and reaches the angle-space optimum."""

    @given(mixed_networks())
    @example(network_sum(network_sum(network_sum(SEVERAL, triangle()), STAR), LONELY))
    @example(network_sum(SEVERAL, wheatstone()))
    def test_the_value_is_the_angle_space_programs(self, n):
        with pytest.MonkeyPatch.context() as monkeypatch:
            programs = slack_basis_programs(monkeypatch)
            out = solve_mpf(n)
            solution = out.solution
        assert out.value == reference_general_lp(reference_mpf_program(n)).value == total_generation(solution)
        assert validate_solution(n, solution).ok
        # the one LP holds the generations and loads of the cyclic components alone
        cyclic = set()
        for comp in connected_components(n):
            terminals = [v for v in comp if n.roles[v] is not PLAIN]
            if len(terminals) > 2 and sum(e.a in comp for e in n.edges) >= len(comp):
                cyclic |= {_gen(v) if n.roles[v] is GEN else _load(v) for v in terminals}
        assert len(programs) == 1 and set(programs[0].variables) == cyclic

    def test_every_program_a_search_solves_starts_from_the_slack_basis(self, monkeypatch):
        programs = slack_basis_programs(monkeypatch)
        rng = random.Random(1601)
        for _ in range(30):
            n = random_ldc_network(rng, max_edges=6)
            assert solve_msf_bnb(n).value == solve_msf_exhaustive(n).value
        assert programs


class TestPartsAgainstReferences:
    """A flowing component's angles, one `_potentials` solve of its net injections, are the ones the replaced constructions gave."""

    @settings(max_examples=15)
    @given(tree_components("t"))
    @example(STAR)
    def test_a_tree_part_is_the_walk_along_its_max_flow(self, n):
        _, flows, _ = _integer_flow(n._view, n._kept, -1)
        assert solve_mpf(n).solution == _solution(n, [reference_tree_part(list(n.node_names), list(n.edges), n._view.scale, flows)])

    @settings(max_examples=15)
    @given(cyclic_components("c"))
    @example(SEVERAL)
    def test_a_cyclic_part_is_the_vertex_times_the_shift_factors(self, n):
        result = solve_lp(formulate_mpf(n))
        reference = reference_lp_part(sorted(n.node_names), list(n.edges), list(n.generators), list(n.loads), result)
        assert solve_mpf(n).solution == _solution(n, [reference])


def edge_bits(n: Network, *pairs: tuple[str, str]) -> int:
    """The bitmask over n.edges of the edges on the given node pairs."""
    return sum(1 << i for i, e in enumerate(n.edges) if e.pair in {tuple(sorted(p)) for p in pairs})


TRIANGLE_PAIRS = (("g", "b"), ("b", "l"), ("g", "l"))


class TestFlowCores:
    def test_a_plain_pendant_path_is_stripped(self):
        n = network_sum(triangle(), Network([("b", PLAIN), ("p", PLAIN), ("q", PLAIN)], [fixed_edge("b", "p", 1, 1), fixed_edge("p", "q", 2, 1)]))
        assert core_maps(n)[0](0) == edge_bits(n, *TRIANGLE_PAIRS)

    def test_a_plain_node_left_with_one_edge_is_stripped(self):
        n = triangle()
        # without b--l, b is a plain leaf and g--b carries nothing
        assert core_maps(n)[0](edge_bits(n, ("b", "l"))) == edge_bits(n, ("g", "l"))

    def test_generator_and_load_leaves_are_kept(self):
        leaves = Network([("b", PLAIN), ("g", PLAIN), ("h", GEN), ("m", LOAD)], [fixed_edge("b", "h", 1, 1), fixed_edge("g", "m", 1, 1)])
        n = network_sum(triangle(), leaves)
        assert core_maps(n)[0](0) == (1 << len(n.edges)) - 1

    def test_flowless_components_are_dropped(self):
        gens = Network([("x", GEN), ("y", GEN), ("z", PLAIN)], [fixed_edge("x", "y", 1, 2), fixed_edge("y", "z", 1, 2), fixed_edge("x", "z", 1, 2)])
        loads = Network([("u", LOAD), ("w", LOAD)], [fixed_edge("u", "w", 1, 1)])
        n = network_sum(network_sum(triangle(), gens), loads)
        cores = core_maps(n)[0]
        assert cores(0) == edge_bits(n, *TRIANGLE_PAIRS)
        assert cores(edge_bits(n, ("g", "l"), ("g", "b"))) == 0
        assert core_maps(network_sum(gens, loads))[0](0) == 0

    def test_the_core_carries_the_value_and_outside_edges_leave_it(self):
        rng = random.Random(7)
        for _ in range(25):
            n = random_ldc_network(rng, max_edges=6)
            cores, every = core_maps(n)[0], (1 << len(n.edges)) - 1
            assert solve_mpf(subnetwork(n, [e for i, e in enumerate(n.edges) if not cores(0) >> i & 1])).value == solve_mpf(n).value
            for mask in range(every + 1):
                core = cores(mask)
                assert core & mask == 0
                whole = solve_mpf(subnetwork(n, [e for i, e in enumerate(n.edges) if mask >> i & 1])).value
                assert solve_mpf(subnetwork(n, [e for i, e in enumerate(n.edges) if not core >> i & 1])).value == whole
                # removing an edge the core does not hold leaves the core as it is
                assert all(cores(mask | 1 << i) == core for i in range(len(n.edges)) if not (core | mask) >> i & 1)

    @given(st.one_of(networks_with_idle_edges(), series_parallel_networks()))
    def test_the_classical_bound_is_the_cores(self, n):
        """Edges outside the core carry no generator-to-load flow, so the core fixes the max flow too."""
        cores, bounds = core_maps(n)[0], {}
        for mask in range(1 << len(n.edges)):
            bound = classical_max_flow(subnetwork(n, [e for i, e in enumerate(n.edges) if mask >> i & 1]))
            assert bounds.setdefault(cores(mask), bound) == bound
        for core, bound in bounds.items():
            assert classical_max_flow(subnetwork(n, [e for i, e in enumerate(n.edges) if not core >> i & 1])) == bound

from dataclasses import replace
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from ldcflow.classify import is_cactus, max_degree
from ldcflow.errors import DecodingFailed, InvalidInstance, LdcError, NotACertificate, NotOptimal
from ldcflow.mff import MffOutcome, solve_mff_endpoints
from ldcflow.msf import MsfOutcome, solve_msf_bnb
from ldcflow.network import subnetwork, total_generation, validate_network, validate_solution, zero_solution
from ldcflow.reductions import (
    KIND_CACTUS_MFF,
    KIND_CACTUS_MSF,
    KIND_EXACT_COVER_MFF,
    KIND_EXACT_COVER_MSF,
    KIND_HAMILTONIAN,
    KIND_TREE,
    ExactCover3Instance,
    HamiltonianInstance,
    SubsetSumInstance,
    decode_exact_cover,
    decode_subset_sum,
    encode_exact_cover_mff,
    encode_exact_cover_msf,
    encode_hamiltonian,
    encode_subset_sum_cactus_mff,
    encode_subset_sum_cactus_msf,
    encode_subset_sum_tree,
    predicted_value,
    witness_tree,
)
from oracles import (
    exact_cover_exists,
    hamiltonian_path_exists,
    reference_decode_exact_cover,
    reference_decode_subset_sum,
    reference_witness_tree,
    subset_sum_solvable,
)

COVER_ABCDEF = ExactCover3Instance(
    ("a", "b", "c", "d", "e", "f"),
    (("a", "b", "c"), ("b", "c", "d"), ("d", "e", "f")),
)


class TestExactCoverEncoders:
    def test_sizes_are_closed_form(self):
        for inst in (COVER_ABCDEF, ExactCover3Instance(("a", "b", "c"), (("a", "b", "c"),))):
            s, m = len(inst.sets), len(inst.universe)
            mff = encode_exact_cover_mff(inst)
            msf = encode_exact_cover_msf(inst)
            assert len(mff.network.node_names) == 2 + m + 6 * s
            assert len(mff.network.edges) == 1 + 2 * m + 10 * s
            assert len(msf.network.node_names) == 2 + m + 3 * s
            assert len(msf.network.edges) == 1 + 2 * m + 6 * s
            assert validate_network(mff.network).ok and validate_network(msf.network).ok

    def test_predicted_values(self):
        assert encode_exact_cover_mff(COVER_ABCDEF).predicted_value == F(639, 10)
        assert encode_exact_cover_msf(COVER_ABCDEF).predicted_value == 36
        empty = ExactCover3Instance((), ())
        assert encode_exact_cover_mff(empty).predicted_value == 3

    def test_facts_edge_count_matches_gadgets(self):
        assert len(encode_exact_cover_mff(COVER_ABCDEF).network.facts_edges) == 3

    def test_invalid_instances_rejected(self):
        with pytest.raises(InvalidInstance):
            encode_exact_cover_mff(ExactCover3Instance(("a", "b"), (("a", "b", "c"),)))
        with pytest.raises(InvalidInstance):
            encode_exact_cover_mff(ExactCover3Instance(("a", "b", "c"), (("a", "b", "b"),)))
        with pytest.raises(InvalidInstance):
            encode_exact_cover_mff(
                ExactCover3Instance(("a", "b", "c"), (("a", "b", "c"), ("c", "b", "a")))
            )
        with pytest.raises(InvalidInstance):
            encode_exact_cover_mff(ExactCover3Instance(("g", "b", "c"), (("g", "b", "c"),)))

    def test_names_that_are_not_strings_are_rejected(self):
        for bad in (
            ExactCover3Instance(("a", "b", 3), (("a", "b", 3),)),
            ExactCover3Instance(("a", "b", "c"), (("a", "b", 3),)),
            ExactCover3Instance(("a", "b", "c"), (("a", "b", ["c"]),)),
        ):
            for encode in (encode_exact_cover_mff, encode_exact_cover_msf):
                with pytest.raises(InvalidInstance):
                    encode(bad)

    def test_decode_recovers_the_unique_cover(self):
        enc = encode_exact_cover_mff(COVER_ABCDEF)
        out = solve_mff_endpoints(enc.network)
        assert out.value == enc.predicted_value
        assert decode_exact_cover(out, COVER_ABCDEF) == (("a", "b", "c"), ("d", "e", "f"))

    def test_decode_requires_optimality(self):
        enc = encode_exact_cover_mff(COVER_ABCDEF)
        out = solve_mff_endpoints(enc.network)
        lower = type(out)(out.value - 1, out.assignment, out.solution)
        with pytest.raises(NotOptimal):
            decode_exact_cover(lower, COVER_ABCDEF)

    def test_empty_instance_decodes_to_the_empty_cover(self):
        inst = ExactCover3Instance((), ())
        enc = encode_exact_cover_mff(inst)
        out = solve_mff_endpoints(enc.network)
        assert out.value == enc.predicted_value == 3
        assert decode_exact_cover(out, inst) == ()


@pytest.mark.parametrize(
    "encode, inst, message",
    [
        (encode_exact_cover_msf, ExactCover3Instance(("a", "b", "a"), ()), "universe elements must be distinct"),
        (encode_hamiltonian, HamiltonianInstance(("a", "b", "a"), (), "a", "b"), "graph nodes must be distinct"),
        (encode_hamiltonian, HamiltonianInstance(("a", "H.x", "b"), (), "a", "b"), "node name 'H.x' collides with generated node names"),
        (encode_hamiltonian, HamiltonianInstance(("a", "b"), (("a", "b"), ("b", "a")), "a", "b"), r"duplicate edge \('b', 'a'\)"),
        (encode_hamiltonian, HamiltonianInstance(("a", "b", "c"), (("a", "b", "c"),), "a", "c"), r"edge \('a', 'b', 'c'\) is not a pair of nodes"),
        (encode_hamiltonian, HamiltonianInstance(("a", "b"), (("a",),), "a", "b"), r"edge \('a',\) is not a pair of nodes"),
        (encode_hamiltonian, HamiltonianInstance(("a", "b"), (5,), "a", "b"), "edge 5 is not a pair of nodes"),
        (encode_hamiltonian, HamiltonianInstance(("a", "b"), ("ab",), "a", "b"), "edge 'ab' is not a pair of nodes"),
        # these three used to raise TypeError
        (encode_exact_cover_mff, ExactCover3Instance(("a", "b", "c"), (5,)), "set 5 is not a tuple or list of elements"),
        (encode_exact_cover_msf, ExactCover3Instance(None, ()), "universe None is not a tuple or list of elements"),
        (encode_exact_cover_msf, ExactCover3Instance(("a", "b", "c"), None), "sets None is not a tuple or list of sets"),
        (encode_exact_cover_mff, ExactCover3Instance(("a", "b", "c"), ("abc",)), "set 'abc' is not a tuple or list of elements"),
        # these two used to raise TypeError, and the last two were read as sequences of characters
        (encode_hamiltonian, HamiltonianInstance(None, (), "a", "b"), "nodes None is not a tuple or list of nodes"),
        (encode_hamiltonian, HamiltonianInstance(("a", "b"), None, "a", "b"), "edges None is not a tuple or list of edges"),
        (encode_hamiltonian, HamiltonianInstance("ab", (), "a", "b"), "nodes 'ab' is not a tuple or list of nodes"),
        (encode_hamiltonian, HamiltonianInstance(("a", "b"), "ab", "a", "b"), "edges 'ab' is not a tuple or list of edges"),
        # these two used to raise TypeError
        (encode_subset_sum_tree, SubsetSumInstance(None, 3), "values None is not a tuple or list of integers"),
        (encode_subset_sum_cactus_msf, SubsetSumInstance(5, 3), "values 5 is not a tuple or list of integers"),
    ],
    ids=[
        "repeated element", "repeated node", "generated node name", "repeated edge", "edge of three nodes", "edge of one node", "edge that is a number", "edge that is a string",
        "set that is a number", "universe of None", "sets of None", "set that is a string",
        "nodes of None", "edges of None", "nodes that are a string", "edges that are a string",
        "values of None", "values that are a number",
    ],
)
def test_an_instance_defect_is_named(encode, inst, message):
    with pytest.raises(InvalidInstance, match=message):
        encode(inst)


class TestHamiltonianEncoder:
    FIG_GRAPH = HamiltonianInstance(
        ("a", "c", "d", "b"),
        (("a", "c"), ("a", "d"), ("c", "d"), ("c", "b"), ("d", "b")),
        "a",
        "b",
    )

    def test_size_and_structure(self):
        enc = encode_hamiltonian(self.FIG_GRAPH)
        n_graph = len(self.FIG_GRAPH.nodes)
        assert len(enc.network.node_names) == 2 * n_graph + 2
        assert len(enc.network.edges) == len(self.FIG_GRAPH.edges) + n_graph + 3
        assert enc.predicted_value == 2
        assert all(e.cap == 1 and e.s_min == 1 for e in enc.network.edges)
        assert validate_network(enc.network).ok

    def test_degree_grows_by_at_most_one(self):
        enc = encode_hamiltonian(self.FIG_GRAPH)
        graph_degree = max(
            sum(1 for e in self.FIG_GRAPH.edges if v in e) for v in self.FIG_GRAPH.nodes
        )
        assert max_degree(enc.network) <= max(3, graph_degree + 1)

    def test_path_graph_reaches_two(self):
        inst = HamiltonianInstance(("a", "b"), (("a", "b"),), "a", "b")
        assert solve_msf_bnb(encode_hamiltonian(inst).network).value == 2

    def test_star_cannot_reach_two(self):
        inst = HamiltonianInstance(
            ("a", "c", "d", "b"), (("a", "c"), ("c", "b"), ("c", "d")), "a", "b"
        )
        assert solve_msf_bnb(encode_hamiltonian(inst).network).value < 2

    def test_invalid_instances_rejected(self):
        with pytest.raises(InvalidInstance):
            encode_hamiltonian(HamiltonianInstance(("a",), (), "a", "a"))
        with pytest.raises(InvalidInstance):
            encode_hamiltonian(HamiltonianInstance(("a", "b"), (("a", "a"),), "a", "b"))

    def test_names_that_are_not_strings_are_rejected(self):
        for bad in (
            HamiltonianInstance(("a", 3, "b"), (("a", "b"),), "a", "b"),
            HamiltonianInstance(("a", "b"), (("a", "b"),), "a", None),
            HamiltonianInstance(("a", "b"), (("a", ["b"]),), "a", "b"),
        ):
            with pytest.raises(InvalidInstance):
                encode_hamiltonian(bad)


class TestCactusEncoders:
    def test_figure_instance(self):
        inst = SubsetSumInstance((1, 2, 3), 5)
        enc = encode_subset_sum_cactus_msf(inst)
        n = len(inst.values)
        assert enc.predicted_value == 26
        assert len(enc.network.node_names) == 2 + 3 * n
        assert len(enc.network.edges) == 4 * n + 2
        assert is_cactus(enc.network)
        assert max_degree(enc.network) <= 5

    def test_facts_variant_value(self):
        inst = SubsetSumInstance((1, 2), 2)
        enc = encode_subset_sum_cactus_mff(inst)
        assert enc.predicted_value == F(233, 10)
        assert len(enc.network.facts_edges) == 2
        assert is_cactus(enc.network)

    def test_solver_attains_figure_value_and_decodes(self):
        inst = SubsetSumInstance((1, 2, 3), 5)
        enc = encode_subset_sum_cactus_msf(inst)
        out = solve_msf_bnb(enc.network)
        assert out.value == 26
        assert decode_subset_sum(out, inst, KIND_CACTUS_MSF) == {2, 3}

    def test_facts_variant_attains_and_decodes(self):
        inst = SubsetSumInstance((1, 2), 2)
        enc = encode_subset_sum_cactus_mff(inst)
        out = solve_mff_endpoints(enc.network)
        assert out.value == enc.predicted_value
        assert decode_subset_sum(out, inst, KIND_CACTUS_MFF) == {2}

    def test_unsolvable_instance_stays_below(self):
        inst = SubsetSumInstance((2,), 1)
        enc = encode_subset_sum_cactus_msf(inst)
        assert solve_msf_bnb(enc.network).value < enc.predicted_value == 10

    def test_invalid_instances_rejected(self):
        for bad in (
            SubsetSumInstance((), 1),
            SubsetSumInstance((1, 1), 2),
            SubsetSumInstance((0, 2), 2),
            SubsetSumInstance((1, 2), 0),
        ):
            with pytest.raises(InvalidInstance):
                encode_subset_sum_cactus_msf(bad)

    def test_values_and_targets_that_are_not_integers_are_rejected(self):
        for bad in (
            SubsetSumInstance((1.5, 2), 3),
            SubsetSumInstance((F(1), 2), 3),
            SubsetSumInstance((True, 2), 3),
            SubsetSumInstance((1, 2), 3.0),
            SubsetSumInstance((1, 2), True),
            SubsetSumInstance(("1", 2), 3),
        ):
            for encode in (encode_subset_sum_cactus_msf, encode_subset_sum_cactus_mff, encode_subset_sum_tree):
                with pytest.raises(InvalidInstance):
                    encode(bad)


class TestTreeEncoder:
    def test_figure_instance_structure(self):
        inst = SubsetSumInstance((2, 1, 3), 5)
        enc = encode_subset_sum_tree(inst)
        n = len(inst.values) + 1
        assert enc.predicted_value == 12
        assert len(enc.network.node_names) == 2 * n + 6
        assert len(enc.network.edges) == 3 * n + 5
        assert validate_network(enc.network).ok

    def test_single_value_omits_the_rigid_chain(self):
        # sum(M) = 1 makes the chain capacity zero; the chain disappears
        enc = encode_subset_sum_tree(SubsetSumInstance((1,), 1))
        assert enc.predicted_value == 3
        pairs = {e.pair for e in enc.network.edges}
        assert ("a1", "a2") not in pairs
        out = solve_msf_bnb(enc.network)
        assert out.value == 3

    def test_solver_attains_figure_value(self):
        enc = encode_subset_sum_tree(SubsetSumInstance((2, 1, 3), 5))
        out = solve_msf_bnb(enc.network)
        assert out.value == 12
        assert decode_subset_sum(out, SubsetSumInstance((2, 1, 3), 5), KIND_TREE) == {2, 3}

    def test_unsolvable_instance_stays_below(self):
        enc = encode_subset_sum_tree(SubsetSumInstance((2, 3), 4))
        assert solve_msf_bnb(enc.network).value < enc.predicted_value == 10

    def test_smaller_solvable_instance(self):
        enc = encode_subset_sum_tree(SubsetSumInstance((1, 2), 3))
        assert solve_msf_bnb(enc.network).value == enc.predicted_value == 7


class TestWitness:
    @given(st.lists(st.integers(1, 12), min_size=1, max_size=6, unique=True), st.data())
    def test_every_certificate_gives_the_reference_witness(self, values, data):
        # a drawn subset makes the instance solvable; every subset of the same sum is then a certificate
        target = sum(data.draw(st.lists(st.sampled_from(values), min_size=1, unique=True)))
        inst = SubsetSumInstance(tuple(values), target)
        enc = encode_subset_sum_tree(inst)
        assert enc.predicted_value == sum(values) - 1 + 2 + target
        for k in range(1, len(values) + 1):
            for chosen in map(set, combinations(values, k)):
                if sum(chosen) != target:
                    continue
                switched, sol = witness_tree(inst, chosen)
                assert (switched, sol) == reference_witness_tree(inst, chosen)
                assert validate_solution(subnetwork(enc.network, switched), sol).ok
                assert total_generation(sol) == enc.predicted_value

    def test_figure_witness_validates_at_the_predicted_value(self):
        inst = SubsetSumInstance((2, 1, 3), 5)
        switched, sol = witness_tree(inst, {2, 3})
        enc = encode_subset_sum_tree(inst)
        sub = subnetwork(enc.network, switched)
        assert validate_solution(sub, sol).ok
        assert total_generation(sol) == 12

    def test_single_value_witness(self):
        inst = SubsetSumInstance((1,), 1)
        switched, sol = witness_tree(inst, {1})
        sub = subnetwork(encode_subset_sum_tree(inst).network, switched)
        assert validate_solution(sub, sol).ok
        assert total_generation(sol) == 3

    def test_wrong_sum_rejected(self):
        with pytest.raises(NotACertificate):
            witness_tree(SubsetSumInstance((2, 1, 3), 5), {1})

    def test_witnesses_validate_whenever_the_sum_matches(self, rng):
        for _ in range(10):
            k = rng.randint(1, 3)
            values = tuple(rng.sample(range(1, 6), k))
            subset = [values[i] for i in range(k) if rng.random() < 0.6] or [values[0]]
            inst = SubsetSumInstance(values, sum(subset))
            switched, sol = witness_tree(inst, set(subset))
            sub = subnetwork(encode_subset_sum_tree(inst).network, switched)
            assert validate_solution(sub, sol).ok
            assert total_generation(sol) == encode_subset_sum_tree(inst).predicted_value


SUBSET_SUM = SubsetSumInstance((2, 1, 3), 5)


def pushing_nothing(enc, value=None) -> MsfOutcome:
    """An MSF outcome with nothing switched and no flow that claims `value`, or else enc's predicted value."""
    return MsfOutcome(enc.predicted_value if value is None else value, frozenset(), zero_solution(enc.network))


class TestDecodeErrors:
    def test_below_predicted_is_not_optimal(self):
        inst = SubsetSumInstance((2, 3), 4)
        enc = encode_subset_sum_tree(inst)
        out = solve_msf_bnb(enc.network)
        with pytest.raises(NotOptimal):
            decode_subset_sum(out, inst, KIND_TREE)

    def test_forged_optimal_outcome_fails_decoding(self):
        # an outcome claiming the predicted value whose switch set keeps
        # the wrong distributor edges cannot yield a certifying subset
        inst = SubsetSumInstance((2, 3), 4)
        enc = encode_subset_sum_tree(inst)
        honest = solve_msf_bnb(enc.network)
        forged = MsfOutcome(enc.predicted_value, frozenset(), honest.solution)
        with pytest.raises(DecodingFailed):
            decode_subset_sum(forged, inst, KIND_TREE)

    @pytest.mark.parametrize(
        "decode, error, message",
        [
            (
                lambda: decode_exact_cover(pushing_nothing(encode_exact_cover_msf(COVER_ABCDEF)), COVER_ABCDEF),
                DecodingFailed,
                "active sets do not cover every element exactly once",
            ),
            (
                lambda: decode_subset_sum(pushing_nothing(encode_subset_sum_tree(SUBSET_SUM), F(11)), SUBSET_SUM, KIND_TREE),
                NotOptimal,
                "outcome value 11 is below the predicted 12",
            ),
            (
                lambda: decode_subset_sum(pushing_nothing(encode_subset_sum_tree(SUBSET_SUM)), SUBSET_SUM, "subset-sum-path"),
                InvalidInstance,
                "unknown subset-sum encoding kind 'subset-sum-path'",
            ),
        ],
        ids=["exact cover pushing nothing", "tree below the prediction", "unknown kind"],
    )
    def test_a_decoder_names_what_it_refuses(self, decode, error, message):
        with pytest.raises(error, match=message):
            decode()


class TestEquivalenceAtDeskScale:
    """Predicted value is attained exactly when the instance is solvable."""

    def test_cactus_switching_matches_the_subset_sum_oracle(self, rng):
        for _ in range(4):
            values = tuple(rng.sample(range(1, 6), rng.randint(1, 2)))
            w = rng.randint(1, 7)
            inst = SubsetSumInstance(values, w)
            enc = encode_subset_sum_cactus_msf(inst)
            attained = solve_msf_bnb(enc.network).value == enc.predicted_value
            assert attained == subset_sum_solvable(values, w)

    def test_hamiltonian_matches_the_permutation_oracle(self):
        instances = [
            TestHamiltonianEncoder.FIG_GRAPH,
            HamiltonianInstance(("a", "c", "d", "b"), (("a", "c"), ("c", "b"), ("c", "d")), "a", "b"),
            HamiltonianInstance(("a", "x", "b"), (("a", "x"), ("x", "b"), ("a", "b")), "a", "b"),
        ]
        for inst in instances:
            enc = encode_hamiltonian(inst)
            attained = solve_msf_bnb(enc.network).value == 2
            assert attained == hamiltonian_path_exists(inst.nodes, inst.edges, inst.a, inst.b)

    def test_exact_cover_switching_variant_small(self):
        solvable = ExactCover3Instance(("a", "b", "c"), (("a", "b", "c"),))
        unsolvable = ExactCover3Instance(("a", "b", "c", "d"), (("a", "b", "c"),))
        for inst in (solvable, unsolvable):
            enc = encode_exact_cover_msf(inst)
            attained = solve_msf_bnb(enc.network).value == enc.predicted_value
            assert attained == exact_cover_exists(inst.universe, inst.sets)

    def test_exact_cover_switching_variant_three_sets(self):
        enc = encode_exact_cover_msf(COVER_ABCDEF)
        out = solve_msf_bnb(enc.network)
        assert out.value == enc.predicted_value == 36
        assert decode_exact_cover(out, COVER_ABCDEF) == (("a", "b", "c"), ("d", "e", "f"))


def returned_or_raised(call):
    """What call() returns, or the type and message of the `LdcError` it raises."""
    try:
        return call()
    except LdcError as exc:
        return type(exc), str(exc)


@st.composite
def subset_sums(draw) -> SubsetSumInstance:
    values = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=2, unique=True)))
    return SubsetSumInstance(values, draw(st.integers(1, sum(values) + 1)))


@st.composite
def exact_covers(draw) -> ExactCover3Instance:
    """Three or six elements and at most two sets: a planted cover, or sets drawn at random."""
    universe = tuple("abcdef"[: draw(st.sampled_from([3, 6]))])
    if draw(st.booleans()):
        order = draw(st.permutations(universe))
        sets = [tuple(sorted(order[i : i + 3])) for i in range(0, len(order), 3)]
    else:
        sets = draw(st.lists(st.sampled_from(list(combinations(universe, 3))), min_size=1, max_size=2, unique=True))
    return ExactCover3Instance(universe, tuple(draw(st.permutations(sets))))


# kind, encoder, solver, drawn instances, the new decoder and the reference one as (outcome, instance) -> certificate
DECODABLE = [
    (KIND_EXACT_COVER_MSF, encode_exact_cover_msf, solve_msf_bnb, exact_covers(), decode_exact_cover, reference_decode_exact_cover),
    (KIND_EXACT_COVER_MFF, encode_exact_cover_mff, solve_mff_endpoints, exact_covers(), decode_exact_cover, reference_decode_exact_cover),
    *[
        (
            kind,
            encode,
            solve,
            subset_sums(),
            lambda out, inst, kind=kind: decode_subset_sum(out, inst, kind),
            lambda out, inst, kind=kind: reference_decode_subset_sum(out, inst, kind),
        )
        for kind, encode, solve in (
            (KIND_CACTUS_MSF, encode_subset_sum_cactus_msf, solve_msf_bnb),
            (KIND_CACTUS_MFF, encode_subset_sum_cactus_mff, solve_mff_endpoints),
            (KIND_TREE, encode_subset_sum_tree, solve_msf_bnb),
        )
    ],
]


class TestDecodersMatchTheReference:
    """The decoders read the outcome alone and agree with decoders that encode the instance again."""

    @pytest.mark.parametrize("kind, encode, solve, instances, decode, reference", DECODABLE, ids=[d[0] for d in DECODABLE])
    @settings(max_examples=12)
    @given(data=st.data())
    def test_same_certificate_or_same_error(self, kind, encode, solve, instances, decode, reference, data):
        inst = data.draw(instances)
        enc = encode(inst)
        honest = solve(enc.network)
        outcomes = [
            honest,
            replace(honest, value=enc.predicted_value - 1),
            pushing_nothing(enc),
            MffOutcome(enc.predicted_value, {}, zero_solution(enc.network)),
            replace(honest, value=enc.predicted_value),
        ]
        if isinstance(honest, MsfOutcome):
            outcomes.append(replace(honest, value=enc.predicted_value, switched=frozenset()))
        for out in outcomes:
            got = returned_or_raised(lambda: decode(out, inst))
            assert got == returned_or_raised(lambda: reference(out, inst))
        solvable = exact_cover_exists(inst.universe, inst.sets) if kind.startswith("exact-cover") else subset_sum_solvable(inst.values, inst.target)
        assert (honest.value == enc.predicted_value) == solvable

    def test_each_encoder_takes_the_predicted_value_from_the_one_formula(self):
        for kind, encode, _, _, _, _ in DECODABLE:
            inst = COVER_ABCDEF if kind.startswith("exact-cover") else SUBSET_SUM
            assert encode(inst).predicted_value == predicted_value(kind, inst)
        graph = TestHamiltonianEncoder.FIG_GRAPH
        assert encode_hamiltonian(graph).predicted_value == predicted_value(KIND_HAMILTONIAN, graph) == 2

    def test_a_decoder_encodes_nothing(self, monkeypatch):
        import ldcflow.reductions as reductions

        out = solve_msf_bnb(encode_exact_cover_msf(COVER_ABCDEF).network)
        tree = solve_msf_bnb(encode_subset_sum_tree(SUBSET_SUM).network)
        cactus = solve_mff_endpoints(encode_subset_sum_cactus_mff(SubsetSumInstance((1, 2), 2)).network)
        for name in ("_exact_cover_glue", "_cactus_glue", "network_sum", "gsch", "gfch", "Network"):
            monkeypatch.setattr(reductions, name, None)
        assert decode_exact_cover(out, COVER_ABCDEF) == (("a", "b", "c"), ("d", "e", "f"))
        assert decode_subset_sum(tree, SUBSET_SUM, KIND_TREE) == {2, 3}
        assert decode_subset_sum(cactus, SubsetSumInstance((1, 2), 2), KIND_CACTUS_MFF) == {2}

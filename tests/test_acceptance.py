"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every numeric assertion is exact rational equality; the only tolerances
in this file are strict inequalities that are themselves the property
being checked.  Each test prints a single PASS line when it survives its
assertions, so `pytest -s tests/test_acceptance.py` reads as a checklist.
"""

import random
import time
from fractions import Fraction as F
from itertools import combinations

from conftest import random_boxed_lp, random_ldc_network, random_standard_lp, random_tree
from ldcflow import serialize
from ldcflow.cli import main
from ldcflow.gadgets import Polarity, gfch, gsch
from ldcflow.lp import solve_lp
from ldcflow.maxflow import classical_max_flow
from ldcflow.mff import enumerate_endpoint_optima, solve_mff_endpoints, solve_mff_grid
from ldcflow.mpf import solve_mpf
from ldcflow.msf import optimal_switch_sets, solve_msf_bnb, solve_msf_exhaustive
from ldcflow.network import Network, NodeRole, Solution, fixed_edge, subnetwork, total_generation, validate_solution
from ldcflow.reductions import (
    ExactCover3Instance,
    HamiltonianInstance,
    SubsetSumInstance,
    decode_exact_cover,
    encode_exact_cover_mff,
    encode_exact_cover_msf,
    encode_hamiltonian,
    encode_subset_sum_cactus_mff,
    encode_subset_sum_cactus_msf,
    encode_subset_sum_tree,
    witness_tree,
)
from oracles import exact_cover_exists, hamiltonian_path_exists, lp_vertex_oracle, reference_general_lp, subset_sum_solvable

GEN, LOAD, PLAIN = NodeRole.GENERATOR, NodeRole.LOAD, NodeRole.PLAIN


def report(n, text):
    print(f"\nacceptance {n}: PASS - {text}")


def test_criterion_01_switching_gadget_value_and_choice_set():
    for x in (F(1), F(2), F(7, 2)):
        n = gsch(x, "v", Polarity.MINUS)
        assert solve_msf_exhaustive(n).value == 3 * x
        loads = {out.solution.load["v"] for _, out in optimal_switch_sets(n)}
        assert loads == {F(0), x}
    report(1, "gsch value is 3x with optimal port loads exactly {0, x} for x in {1, 2, 7/2}")


def test_criterion_02_facts_gadget_value_and_endpoint_pairs():
    for x in (F(1), F(2), F(10)):
        n = gfch(x, "v", Polarity.MINUS)
        ev = n.facts_edges[0]
        assert solve_mff_endpoints(n).value == F(61, 10) * x
        pairs = {(out.solution.flow[ev], asg[ev]) for asg, out in enumerate_endpoint_optima(n)}
        assert pairs == {(F(2, 5) * x, F(8, 5)), (F(-1, 10) * x, F(2, 5))}
    report(2, "gfch value is 6.1x with exactly the endpoint optima (2x/5, 8/5) and (-x/10, 2/5)")


def _random_graph_instances(count):
    rng = random.Random(1303)
    instances = []
    while len(instances) < count:
        n = rng.randint(3, 6)
        names = [f"u{i}" for i in range(n)]
        pairs = list(combinations(names, 2))
        rng.shuffle(pairs)
        n_edges = rng.randint(n - 2, min(9, len(pairs)))
        edges = tuple(sorted(pairs[:n_edges]))
        instances.append(HamiltonianInstance(tuple(names), edges, names[0], names[-1]))
    return instances


def test_criterion_03_hamiltonian_path_reduction():
    fig = HamiltonianInstance(
        ("a", "c", "d", "b"),
        (("a", "c"), ("a", "d"), ("c", "d"), ("c", "b"), ("d", "b")),
        "a",
        "b",
    )
    assert solve_msf_bnb(encode_hamiltonian(fig).network).value == 2
    star = HamiltonianInstance(("a", "c", "d", "b"), (("a", "c"), ("c", "b"), ("c", "d")), "a", "b")
    assert solve_msf_bnb(encode_hamiltonian(star).network).value < 2

    outcomes = []
    for inst in _random_graph_instances(10):
        reached = solve_msf_bnb(encode_hamiltonian(inst).network).value == 2
        expected = hamiltonian_path_exists(inst.nodes, inst.edges, inst.a, inst.b)
        assert reached == expected
        outcomes.append(expected)
    assert True in outcomes and False in outcomes, "sample must exercise both sides"
    report(3, "switching value 2 is equivalent to an a-b Hamiltonian path on 10 random graphs")


def _random_subset_sum_instances(rng, count, max_values, max_total):
    instances = []
    while len(instances) < count:
        k = rng.randint(1, max_values)
        values = tuple(rng.sample(range(1, max_total), k))
        if sum(values) > max_total:
            continue
        w = rng.randint(1, max_total)
        instances.append(SubsetSumInstance(values, w))
    return instances


def test_criterion_04_cactus_subset_sum_reduction():
    enc = encode_subset_sum_cactus_msf(SubsetSumInstance((1, 2, 3), 5))
    assert solve_msf_bnb(enc.network).value == 26

    rng = random.Random(1304)
    outcomes = []
    for inst in _random_subset_sum_instances(rng, 10, max_values=3, max_total=8):
        enc = encode_subset_sum_cactus_msf(inst)
        started = time.monotonic()
        value = solve_msf_bnb(enc.network).value
        elapsed = time.monotonic() - started
        assert elapsed < 60, f"branch-and-bound exceeded the budget on {inst}"
        attained = value == enc.predicted_value
        assert value <= enc.predicted_value
        assert attained == subset_sum_solvable(inst.values, inst.target)
        outcomes.append(attained)
    assert True in outcomes and False in outcomes
    report(4, "cactus encoding attains 3 + w + 3m exactly on solvable subset sums (10 random)")


def test_criterion_05_tree_subset_sum_reduction():
    inst = SubsetSumInstance((2, 1, 3), 5)
    enc = encode_subset_sum_tree(inst)
    assert solve_msf_bnb(enc.network).value == 12
    switched, sol = witness_tree(inst, {2, 3})
    sub = subnetwork(enc.network, switched)
    assert validate_solution(sub, sol).ok
    assert sum(sol.gen.values(), F(0)) == 12

    rng = random.Random(1305)
    outcomes = []
    for inst in _random_subset_sum_instances(rng, 10, max_values=3, max_total=9):
        enc = encode_subset_sum_tree(inst)
        value = solve_msf_bnb(enc.network).value
        attained = value == enc.predicted_value
        assert value <= enc.predicted_value
        assert attained == subset_sum_solvable(inst.values, inst.target)
        outcomes.append(attained)
    assert True in outcomes and False in outcomes
    report(5, "tree encoding attains m + 2 + w exactly on solvable subset sums, witness included")


def test_criterion_06_exact_cover_facts_reduction():
    """Solvable side is exact; the unsolvable side is lower-bound evidence.

    The susceptance search samples endpoints and a grid, which bounds the
    optimum from below; staying strictly below the predicted value under
    endpoints + grid(8) is therefore evidence, not a certified bound, and
    that asymmetry is part of the contract (the decision operation says
    Unknown, never No).
    """
    fig = ExactCover3Instance(
        ("a", "b", "c", "d", "e", "f"),
        (("a", "b", "c"), ("b", "c", "d"), ("d", "e", "f")),
    )
    enc = encode_exact_cover_mff(fig)
    out = solve_mff_endpoints(enc.network)
    assert out.value == enc.predicted_value == F(639, 10)
    cover = decode_exact_cover(out, fig)
    assert cover == (("a", "b", "c"), ("d", "e", "f"))

    unsolvable = [
        ExactCover3Instance(("a", "b", "c", "d"), (("a", "b", "c"), ("b", "c", "d"))),
        ExactCover3Instance(("a", "b", "c", "d"), (("a", "b", "c"),)),
    ]
    for inst in unsolvable:
        assert not exact_cover_exists(inst.universe, inst.sets)
        enc = encode_exact_cover_mff(inst)
        assert solve_mff_endpoints(enc.network).value < enc.predicted_value
        assert solve_mff_grid(enc.network, 8).value < enc.predicted_value
    report(6, "exact-cover FACTS encoding: solvable side attains 3 + 18.3|S| + |M|, unsolvable stays below")


def test_criterion_07_variant_encodings():
    # switching variant of the exact-cover encoding (value 3 + 9|S| + |M|)
    cover_cases = [
        ExactCover3Instance(("a", "b", "c"), (("a", "b", "c"),)),
        ExactCover3Instance(("a", "b", "c", "d"), (("a", "b", "c"),)),
        ExactCover3Instance(("a", "b", "c", "d", "e", "f"), (("a", "b", "c"), ("d", "e", "f"))),
        ExactCover3Instance(("a", "b", "c", "d"), (("a", "b", "c"), ("b", "c", "d"))),
    ]
    for inst in cover_cases:
        enc = encode_exact_cover_msf(inst)
        attained = solve_msf_bnb(enc.network).value == enc.predicted_value
        assert attained == exact_cover_exists(inst.universe, inst.sets)

    # FACTS variant of the cactus encoding (value 3 + w + 6.1m)
    facts_cases = [
        SubsetSumInstance((1, 2), 2),
        SubsetSumInstance((1,), 1),
        SubsetSumInstance((2,), 1),
        SubsetSumInstance((1, 3), 2),
    ]
    for inst in facts_cases:
        enc = encode_subset_sum_cactus_mff(inst)
        solvable = subset_sum_solvable(inst.values, inst.target)
        endpoint = solve_mff_endpoints(enc.network).value
        if solvable:
            assert endpoint == enc.predicted_value
        else:
            assert endpoint < enc.predicted_value
            assert solve_mff_grid(enc.network, 8).value < enc.predicted_value
    report(7, "variant encodings (9 per cover gadget, 6.1 per cactus unit) match their oracles")


def test_criterion_08_trees_are_easy(monkeypatch, tmp_path, capsys):
    def no_lp(p):
        raise AssertionError("a tree reached the LP")

    monkeypatch.setattr("ldcflow.mpf.solve_lp", no_lp)
    rng = random.Random(1308)
    for _ in range(50):
        n = random_tree(rng, max_nodes=15)
        classical = classical_max_flow(n)
        out = solve_mpf(n)
        assert out.value == classical
        assert validate_solution(n, out.solution).ok
        assert total_generation(out.solution) == classical
        switching = solve_msf_bnb(n)
        assert switching.value == classical
        assert switching.switched == frozenset()
    # the CLI solves and verifies a star with two loads the same way
    star = Network([("g", GEN), ("l1", LOAD), ("l2", LOAD)], [fixed_edge("g", "l1", 1, 1), fixed_edge("g", "l2", 1, 2)])
    tree, sol = str(tmp_path / "tree.json"), str(tmp_path / "sol.json")
    serialize.dump(serialize.network_to_json(star), tree)
    assert main(["solve", "mpf", tree, "--out", sol]) == 0
    assert main(["verify", tree, sol]) == 0
    assert capsys.readouterr().out.splitlines() == ["3", "OK"]
    report(8, "on 50 random trees and a star MPF is the classical flow with no LP, the solution validates, switching never helps")


def test_criterion_09_solver_cross_validation():
    rng = random.Random(1309)
    for _ in range(100):
        n = random_ldc_network(rng, max_edges=9)
        ex = solve_msf_exhaustive(n)
        bb = solve_msf_bnb(n)
        assert bb.value == ex.value
        assert bb.switched == ex.switched
        sub = subnetwork(n, bb.switched)
        assert validate_solution(sub, bb.solution).ok
        assert validate_solution(sub, ex.solution).ok

    # boxed programs are out of the standard form `solve_lp` takes: the general route solves them
    optimal = infeasible = 0
    for _ in range(100):
        p = random_boxed_lp(rng)
        general = reference_general_lp(p)
        status, value = lp_vertex_oracle(p)
        assert general.status.value == status
        if status == "optimal":
            assert general.value == value
            optimal += 1
        else:
            infeasible += 1
    assert optimal and infeasible

    bounded = 0
    for _ in range(20):
        p = random_standard_lp(rng)
        mine = solve_lp(p)
        if all(any(row[j] for row in p.rows) for j in range(len(p.variables))):  # every variable held by a row
            assert lp_vertex_oracle(p) == (mine.status.value, mine.value) == ("optimal", mine.value)
            bounded += 1
        else:
            assert mine.status.value == "unbounded"
    assert bounded
    report(9, "bnb == exhaustive on 100 random networks; simplex == vertex oracle on 20 standard-form LPs, the general route on 100 boxed ones")


def test_criterion_10_validator_totality():
    rng = random.Random(1310)
    rejected = 0
    for _ in range(100):
        n = random_ldc_network(rng, max_edges=7)
        out = solve_mpf(n)
        assert validate_solution(n, out.solution).ok

        edge = n.edges[rng.randrange(len(n.edges))]
        delta = F(rng.randint(1, 5), rng.randint(1, 3))
        flow = dict(out.solution.flow)
        flow[edge] = flow[edge] + delta
        tampered = Solution(out.solution.susceptance, out.solution.angle, flow, out.solution.gen, out.solution.load)
        result = validate_solution(n, tampered)
        assert not result.ok
        assert result.kinds() & {"PowerLaw", "Kirchhoff"}
        rejected += 1
    assert rejected == 100

    # solutions emitted by the other solvers also validate
    for _ in range(10):
        n = random_ldc_network(rng, max_edges=6)
        msf = solve_msf_bnb(n)
        assert validate_solution(subnetwork(n, msf.switched), msf.solution).ok
    n = gfch(3, "v", Polarity.MINUS)
    mff = solve_mff_endpoints(n)
    assert validate_solution(n, mff.solution).ok
    report(10, "every emitted solution validates; 100 single-flow perturbations all rejected")


def test_criterion_11_derived_triangle_fixture():
    """Replacement fixture for the classic three-node demonstration.

    A published version of this example is not reconstructible because only
    two of its three edge capacities are stated (its reported values were
    34 classical / 16 fixed / 30 switched / 28 with FACTS).  This fixture
    keeps the two known capacities (5 and 4) and fixes the third at 30,
    giving independently derived values: classical flow 34 = 30 + min(5, 4);
    angle-constrained optimum 12 = 3 * 4 because conservation at the middle
    node ties both its edges to the 4-capacity bottleneck and the direct
    edge carries twice that angle; switching the 5-edge frees the direct
    edge for its full 30.
    """
    n = Network(
        [("g", GEN), ("b", PLAIN), ("l", LOAD)],
        [fixed_edge("g", "b", 1, 5), fixed_edge("b", "l", 1, 4), fixed_edge("g", "l", 1, 30)],
    )
    assert classical_max_flow(n) == 34
    assert solve_mpf(n).value == 12
    msf = solve_msf_exhaustive(n)
    assert msf.value == 30
    assert {e.pair for e in msf.switched} == {("b", "g")}
    report(11, "derived triangle fixture: classical 34, fixed-topology 12, switched 30")

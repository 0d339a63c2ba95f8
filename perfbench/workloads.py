"""The benchmark's workloads: seeded inputs, the timed call and its checks.

Every input is drawn here from `random.Random(seed)`, so the traffic
changes only when this file does.  Sizes are stratified: the node and edge
counts of each instance follow a fixed schedule and only the wiring, roles,
susceptances and capacities are drawn.  That keeps a workload's total work
close to constant across seeds, which the run-to-run spread needs, since a
pass is dominated by its largest instances.

Workloads (`build` selects one by name):

bnb_random   `solve_msf_bnb` on 416 small random networks: small LPs
             between max-flow bounds, with a tail of deeper searches.
scan_random  `solve_msf_exhaustive` on one 12-edge network, whose 4096
             masks engage `parallel.py`'s process pool, and on 99 small
             networks that stay below the pool threshold.
reductions   subset-sum, exact-cover and Hamiltonian instances through all
             six encoders and the CLI's pipeline, run in-process: large
             structured LPs, FACTS search, JSON round trips and decoding.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Any, Callable

from ldcflow import msf, mff, reductions, serialize
from ldcflow.network import Network, NodeRole, fixed_edge, subnetwork, validate_solution
from ldcflow.reductions import ExactCover3Instance, HamiltonianInstance, SubsetSumInstance

import checks

SUSCEPTANCES = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3))
OTHER_ROLES = (NodeRole.PLAIN, NodeRole.PLAIN, NodeRole.GENERATOR, NodeRole.LOAD)


@dataclass
class Instance:
    """One unit of work: `solve(make(), tracer)` is timed; `make` and `check(output)` are not."""

    label: str
    shape: dict
    make: Callable[[], Any]
    solve: Callable[[Any, Any], Any]
    check: Callable[[Any], list[str]]


@dataclass
class Workload:
    instances: list[Instance]
    # Checks over the outputs of one whole pass (e.g. against another search), run once.
    cross_check: Callable[[list], list[tuple[int, str]]] = field(default=lambda outputs: [])


def random_network(rng: random.Random, n_nodes: int, n_edges: int, other_roles=OTHER_ROLES) -> Network:
    """Fixed-susceptance network on n0, n1, ...; n0 generates, n1 consumes, the rest draw a role."""
    names = [f"n{i}" for i in range(n_nodes)]
    roles = {names[0]: NodeRole.GENERATOR, names[1]: NodeRole.LOAD}
    for v in names[2:]:
        roles[v] = rng.choice(other_roles)
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
    rng.shuffle(pairs)
    edges = [fixed_edge(a, b, rng.choice(SUSCEPTANCES), rng.randint(1, 6)) for a, b in pairs[:n_edges]]
    return Network(roles.items(), edges)


def _shape(n: Network, masks: int) -> dict:
    return {"nodes": len(n.node_names), "edges": len(n.edges), "facts": len(n.facts_edges), "masks": masks}


def _fresh(n: Network) -> Network:
    """An equal network with empty per-object caches, so no pass reuses another's."""
    return Network(n.nodes, n.edges)


def _search(solver: Callable, net: Network, tracer):
    with tracer.span("msf"):
        return solver(net)


def _msf_instance(label: str, n: Network, solver: Callable) -> Instance:
    return Instance(label, _shape(n, 1 << len(n.edges)), partial(_fresh, n), partial(_search, solver), partial(checks.check_msf, n))


# --- bnb_random --------------------------------------------------------------

# (nodes, edges) cells; every cell gets the same number of networks.  Above six edges
# a network's search cost swings so much with the draw that a few such networks would
# set the workload's total and percentiles, and those would change from seed to seed.
BNB_CELLS = tuple((n, e) for n in range(3, 7) for e in range(3, min(6, n * (n - 1) // 2) + 1))
BNB_EXHAUSTIVE_SAMPLE = 6


def bnb_random(seed: int, per_cell: int) -> Workload:
    rng = random.Random(seed)
    nets = [random_network(rng, n, e) for _ in range(per_cell) for n, e in BNB_CELLS]
    instances = [_msf_instance(f"bnb{i}", n, msf.solve_msf_bnb) for i, n in enumerate(nets)]
    sample = sorted(rng.sample(range(len(nets)), min(BNB_EXHAUSTIVE_SAMPLE, len(nets))))

    def cross_check(outputs):
        return [
            (i, "branch-and-bound differs from the exhaustive scan")
            for i in sample
            if outputs[i] is not None and not checks.same_msf(outputs[i], msf.solve_msf_exhaustive(nets[i]))
        ]

    return Workload(instances, cross_check)


# --- scan_random -------------------------------------------------------------

# One 12-edge scan has 4096 masks, the default pool threshold; the small scans stay
# below it.  The big network has one generator, one load and four plain nodes, which
# keeps its LP sizes, and so its time, the same across seeds.
SCAN_BIG_EDGES = 12
SCAN_CELLS = tuple((n, e) for n in range(4, 7) for e in range(3, 6))


def scan_random(seed: int, big_edges: int, per_cell: int) -> Workload:
    rng = random.Random(seed)
    nets = [random_network(rng, 6, big_edges, other_roles=(NodeRole.PLAIN,))]
    nets += [random_network(rng, n, e) for _ in range(per_cell) for n, e in SCAN_CELLS]
    instances = [_msf_instance(f"scan{i}", n, msf.solve_msf_exhaustive) for i, n in enumerate(nets)]

    def cross_check(outputs):
        return [
            (i, "exhaustive scan differs from branch-and-bound")
            for i, n in enumerate(nets)
            if outputs[i] is not None and not checks.same_msf(outputs[i], msf.solve_msf_bnb(n))
        ]

    return Workload(instances, cross_check)


# --- reductions ----------------------------------------------------------------


@dataclass(frozen=True)
class Encoding:
    kind: str
    encode: Callable
    problem: str  # "msf" or "mff"
    decode: Callable | None  # (outcome, instance) -> certificate


MSF_JSON = (serialize.msf_outcome_to_json, serialize.msf_outcome_from_json)
MFF_JSON = (serialize.mff_outcome_to_json, serialize.mff_outcome_from_json)
SOLVERS = {"msf": lambda n: msf.solve_msf_bnb(n), "mff": lambda n: mff.solve_mff_endpoints(n)}


def _subset_decoder(kind):
    return lambda outcome, inst: reductions.decode_subset_sum(outcome, inst, kind)


SUBSET_SUM_ENCODINGS = (
    Encoding(reductions.KIND_CACTUS_MSF, reductions.encode_subset_sum_cactus_msf, "msf", _subset_decoder(reductions.KIND_CACTUS_MSF)),
    Encoding(reductions.KIND_CACTUS_MFF, reductions.encode_subset_sum_cactus_mff, "mff", _subset_decoder(reductions.KIND_CACTUS_MFF)),
    Encoding(reductions.KIND_TREE, reductions.encode_subset_sum_tree, "msf", _subset_decoder(reductions.KIND_TREE)),
)
EXACT_COVER_ENCODINGS = (
    Encoding(reductions.KIND_EXACT_COVER_MSF, reductions.encode_exact_cover_msf, "msf", reductions.decode_exact_cover),
    Encoding(reductions.KIND_EXACT_COVER_MFF, reductions.encode_exact_cover_mff, "mff", reductions.decode_exact_cover),
)
HAMILTONIAN_ENCODINGS = (Encoding(reductions.KIND_HAMILTONIAN, reductions.encode_hamiltonian, "msf", None),)


@dataclass
class PipelineResult:
    network: Network
    predicted: Fraction
    outcome: Any
    report: Any
    certificate: Any


def pipeline(enc: Encoding, inst, tracer) -> PipelineResult:
    """The CLI's encode -> solve -> verify -> decode chain, in-process.

    Both JSON documents make the round trip the CLI's files do, so the
    solver and the validator see parsed objects, as `ldcflow solve` and
    `ldcflow verify` would.
    """
    with tracer.span("reductions.encode"):
        encoded = enc.encode(inst)
    with tracer.span("serialize") as span:
        text = json.dumps(serialize.network_to_json(encoded.network), sort_keys=True)
        net = serialize.network_from_json(json.loads(text))
        span.info = len(text)
    with tracer.span(enc.problem):
        outcome = SOLVERS[enc.problem](net)
    to_json, from_json = MSF_JSON if enc.problem == "msf" else MFF_JSON
    with tracer.span("serialize") as span:
        text = json.dumps(to_json(outcome), sort_keys=True)
        outcome = from_json(json.loads(text), net)
        span.info = len(text)
    with tracer.span("network.validate"):
        target = subnetwork(net, outcome.switched) if enc.problem == "msf" else net
        report = validate_solution(target, outcome.solution)
    certificate = None
    if enc.decode is not None and outcome.value == encoded.predicted_value:
        with tracer.span("reductions.decode"):
            certificate = enc.decode(outcome, inst)
    return PipelineResult(net, encoded.predicted_value, outcome, report, certificate)


def check_pipeline(enc: Encoding, inst, res: PipelineResult) -> list[str]:
    out = res.outcome
    solvable = checks.solvable(inst)
    target = subnetwork(res.network, out.switched) if enc.problem == "msf" else res.network
    problems = [] if res.report.ok else [f"pipeline validation failed: {res.report}"]
    problems += checks.check_value(res.network, target, out.value, out.solution)
    attained = out.value == res.predicted
    if out.value > res.predicted:
        problems.append(f"value {out.value} exceeds the predicted {res.predicted}")
    if attained != solvable:
        problems.append(f"attained={attained} but the oracle says solvable={solvable}")
    if enc.decode is not None:
        if attained:
            problems += checks.check_certificate(enc.kind, inst, res.certificate)
        else:
            problems += checks.check_refuses_decoding(enc.decode, out, inst)
    return problems


def subset_sum_instance(rng: random.Random, k: int, solvable: bool) -> SubsetSumInstance:
    while True:
        values = tuple(rng.sample(range(1, 8), k))
        if solvable:
            chosen = [x for x in values if rng.random() < 0.5] or [values[0]]
            return SubsetSumInstance(values, sum(chosen))
        misses = [w for w in range(1, sum(values)) if not checks.subset_sum_solvable(values, w)]
        if misses:
            return SubsetSumInstance(values, rng.choice(misses))


def exact_cover_instance(rng: random.Random, solvable: bool, decoy: bool) -> ExactCover3Instance:
    """Six elements with a planted cover (plus a decoy set), or four elements and one set."""
    if not solvable:
        return ExactCover3Instance(tuple("abcd"), (tuple(sorted(rng.sample("abcd", 3))),))
    elements = list("abcdef")
    rng.shuffle(elements)
    sets = [tuple(sorted(elements[:3])), tuple(sorted(elements[3:]))]
    if decoy:
        while (extra := tuple(sorted(rng.sample(elements, 3)))) in sets:
            pass
        sets.append(extra)
    rng.shuffle(sets)
    return ExactCover3Instance(tuple("abcdef"), tuple(sets))


def hamiltonian_instance(rng: random.Random, solvable: bool) -> HamiltonianInstance:
    """Five nodes and five edges, drawn until the a-b path question has the wanted answer."""
    nodes = ("a", "c", "d", "e", "b")
    pairs = [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1 :]]
    while True:
        edges = tuple(sorted(rng.sample(pairs, 5)))
        if checks.hamiltonian_path_exists(nodes, edges, "a", "b") == solvable:
            return HamiltonianInstance(nodes, edges, "a", "b")


CACTUS_MSF, CACTUS_MFF, TREE = SUBSET_SUM_ENCODINGS
EC_MSF, EC_MFF = EXACT_COVER_ENCODINGS


def reduction_cases(rng: random.Random, big: bool, rounds: int) -> list[tuple[Encoding, Any]]:
    """Every encoder on both sides of its decision.

    The solvable side is planted and the unsolvable side is built to have
    no solution; the checks still ask the brute-force oracles.  The cases
    that come once have a fixed count of pivot-bound LPs: with `big`, the
    FACTS exact cover of six elements and three sets (26 nodes, 43 edges,
    3 FACTS edges) and three-value cactus FACTS encodings.  The switching
    exact cover gets no decoy set, because with one its branch-and-bound
    time swings thirtyfold with the draw.  The rounds repeat small cases,
    so that a pass and its percentiles average over many draws; the encodings
    whose search cost grows fastest with the values (tree, cactus FACTS)
    get one value there.
    """
    cases = []
    for solvable in (True, False):
        cases.append((EC_MSF, exact_cover_instance(rng, solvable, decoy=False)))
        cases.append((EC_MFF, exact_cover_instance(rng, solvable, decoy=big)))
        if big:
            cases.append((CACTUS_MFF, subset_sum_instance(rng, 3, solvable)))
    for _ in range(rounds):
        for solvable in (True, False):
            cases.append((CACTUS_MSF, subset_sum_instance(rng, 2, solvable)))
            cases.append((CACTUS_MFF, subset_sum_instance(rng, 1, solvable)))
            cases.append((TREE, subset_sum_instance(rng, 1, solvable)))
            cases += [(enc, hamiltonian_instance(rng, solvable)) for enc in HAMILTONIAN_ENCODINGS]
    return cases


def _constant(value):
    return value


def reductions_workload(seed: int, big: bool, rounds: int) -> Workload:
    instances = []
    for i, (enc, inst) in enumerate(reduction_cases(random.Random(seed), big, rounds)):
        net = enc.encode(inst).network
        masks = 1 << len(net.facts_edges) if enc.problem == "mff" else 1 << len(net.edges)
        instances.append(
            Instance(
                f"{enc.kind}{i}",
                _shape(net, masks),
                partial(_constant, inst),
                partial(pipeline, enc),
                partial(check_pipeline, enc, inst),
            )
        )
    return Workload(instances)


# Full sizes, and the tiny sizes of the benchmark's own smoke check.
SIZES = {
    "full": {
        "bnb_random": {"per_cell": 32},
        "scan_random": {"big_edges": SCAN_BIG_EDGES, "per_cell": 11},
        "reductions": {"big": True, "rounds": 24},
    },
    "tiny": {
        "bnb_random": {"per_cell": 1},
        "scan_random": {"big_edges": 6, "per_cell": 1},
        "reductions": {"big": False, "rounds": 1},
    },
}
BUILDERS = {"bnb_random": bnb_random, "scan_random": scan_random, "reductions": reductions_workload}


def build(name: str, seed: int, size: str = "full") -> Workload:
    return BUILDERS[name](seed, **SIZES[size][name])

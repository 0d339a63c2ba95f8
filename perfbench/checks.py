"""Output checks and brute-force oracles for the benchmark's workloads.

The checks run outside the timed region.  Each returns a list of problem
descriptions, empty when the output is correct.  The oracles enumerate
subsets and permutations and share no code with the solvers they check;
they live here rather than being imported from the test suite, so that a
test refactor cannot change what the benchmark accepts.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, permutations

from ldcflow.errors import NotOptimal
from ldcflow.maxflow import classical_max_flow
from ldcflow.network import subnetwork, total_generation, validate_solution
from ldcflow.reductions import ExactCover3Instance, SubsetSumInstance


def subset_sum_solvable(values, target) -> bool:
    return any(sum(combo) == target for r in range(len(values) + 1) for combo in combinations(values, r))


def exact_cover_exists(universe, sets) -> bool:
    return any(is_exact_cover(universe, combo) for r in range(len(sets) + 1) for combo in combinations(sets, r))


def is_exact_cover(universe, chosen) -> bool:
    counts = Counter(x for triple in chosen for x in triple)
    return set(counts) == set(universe) and all(c == 1 for c in counts.values())


def hamiltonian_path_exists(nodes, edges, a, b) -> bool:
    eset = {frozenset(e) for e in edges}
    middle = [v for v in nodes if v not in (a, b)]
    return any(
        all(frozenset(step) in eset for step in zip(path, path[1:]))
        for path in ([a, *perm, b] for perm in permutations(middle))
    )


def solvable(inst) -> bool:
    """The oracle's answer for a subset-sum, exact-cover or Hamiltonian-path instance."""
    if isinstance(inst, SubsetSumInstance):
        return subset_sum_solvable(inst.values, inst.target)
    if isinstance(inst, ExactCover3Instance):
        return exact_cover_exists(inst.universe, inst.sets)
    return hamiltonian_path_exists(inst.nodes, inst.edges, inst.a, inst.b)


def check_value(network, target, value, solution) -> list[str]:
    """`solution` is valid on `target`, delivers `value`, and `value` is within the classical bound."""
    problems = []
    report = validate_solution(target, solution)
    if not report.ok:
        problems.append(f"solution fails validation: {report}")
    generated = total_generation(solution)
    if value != generated:
        problems.append(f"value {value} differs from total generation {generated}")
    bound = classical_max_flow(network)
    if value > bound:
        problems.append(f"value {value} exceeds the classical max flow {bound}")
    return problems


def check_msf(network, outcome) -> list[str]:
    return check_value(network, subnetwork(network, outcome.switched), outcome.value, outcome.solution)


def same_msf(a, b) -> bool:
    """Equal value and switch set: the tie-break contract shared by every MSF search."""
    return a.value == b.value and a.switched == b.switched


def check_certificate(kind: str, inst, cert) -> list[str]:
    """A decoded certificate solves its instance."""
    if kind.startswith("subset-sum"):
        if not (cert <= set(inst.values) and sum(cert) == inst.target):
            return [f"decoded subset {sorted(cert)} does not sum to {inst.target}"]
    elif kind.startswith("exact-cover"):
        if not (set(cert) <= set(inst.sets) and is_exact_cover(inst.universe, cert)):
            return [f"decoded sets {cert} are not an exact cover"]
    return []


def check_refuses_decoding(decode, outcome, inst) -> list[str]:
    """Decoding an outcome below the predicted value must raise NotOptimal."""
    try:
        decode(outcome, inst)
    except NotOptimal:
        return []
    return ["decoding an unattained outcome did not raise NotOptimal"]

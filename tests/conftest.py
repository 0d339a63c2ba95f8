"""Shared random generators.  Everything is seeded: reruns are identical.

Property tests run under the "tier1" hypothesis profile loaded here: the
examples are derived from each test's name instead of drawn at random,
nothing is read from or written to an example database, and no example
has a deadline, so a run repeats the one before it.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None, deadline=None, max_examples=60)
settings.load_profile("tier1")

from ldcflow.lp import LinearProgram
from ldcflow.network import Network, NodeRole, fixed_edge

SUSCEPTANCES = [Fraction(1), Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 2)]


def random_ldc_network(rng: random.Random, *, max_edges: int = 9, min_edges: int = 3) -> Network:
    """Small fixed-susceptance network with at least one generator and load."""
    n_nodes = rng.randint(3, 6)
    names = [f"n{i}" for i in range(n_nodes)]
    roles = {names[0]: NodeRole.GENERATOR, names[1]: NodeRole.LOAD}
    for v in names[2:]:
        roles[v] = rng.choice(
            [NodeRole.PLAIN, NodeRole.PLAIN, NodeRole.GENERATOR, NodeRole.LOAD]
        )
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
    rng.shuffle(pairs)
    n_edges = rng.randint(min_edges, min(max_edges, len(pairs)))
    edges = [
        fixed_edge(a, b, rng.choice(SUSCEPTANCES), Fraction(rng.randint(1, 6)))
        for a, b in pairs[:n_edges]
    ]
    return Network(roles.items(), edges)


def random_tree(rng: random.Random, *, max_nodes: int = 15) -> Network:
    """Random connected tree; node 0 generates, leaves mostly consume."""
    n_nodes = rng.randint(2, max_nodes)
    names = [f"n{i}" for i in range(n_nodes)]
    edges = []
    for i in range(1, n_nodes):
        parent = names[rng.randrange(i)]
        edges.append(fixed_edge(parent, names[i], rng.choice(SUSCEPTANCES), Fraction(rng.randint(1, 9))))
    roles = {names[0]: NodeRole.GENERATOR}
    for v in names[1:]:
        roles[v] = rng.choice([NodeRole.LOAD, NodeRole.PLAIN, NodeRole.LOAD])
    if not any(r is NodeRole.LOAD for r in roles.values()):
        roles[names[-1]] = NodeRole.LOAD
    return Network(roles.items(), edges)


def random_boxed_lp(rng: random.Random) -> LinearProgram:
    """Small LP with every variable boxed, so the vertex oracle is sound."""
    n_vars = rng.randint(2, 4)
    p = LinearProgram()
    names = [f"x{i}" for i in range(n_vars)]
    for v in names:
        lo = rng.randint(-3, 0)
        p.add_variable(v, lower=Fraction(lo), upper=Fraction(rng.randint(lo + 1, 4)))
    for _ in range(rng.randint(1, 6)):
        coeffs = {v: Fraction(rng.randint(-3, 3)) for v in rng.sample(names, rng.randint(1, n_vars))}
        coeffs = {v: c for v, c in coeffs.items() if c}
        if not coeffs:
            continue
        p.add_constraint(coeffs, rng.choice(["<=", "<=", ">=", "="]), Fraction(rng.randint(-4, 6)))
    p.set_objective({v: Fraction(rng.randint(-3, 3)) for v in names})
    return p


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260810)

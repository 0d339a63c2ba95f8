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
from hypothesis import settings, strategies as st

settings.register_profile("tier1", derandomize=True, database=None, deadline=None, max_examples=60)
settings.load_profile("tier1")

from ldcflow.errors import InvalidNetwork
from ldcflow.lp import LinearProgram
from ldcflow.network import Network, NodeRole, facts_edge, fixed_edge
from oracles import reference_validate_network

GEN, LOAD, PLAIN = NodeRole.GENERATOR, NodeRole.LOAD, NodeRole.PLAIN

SUSCEPTANCES = [Fraction(1), Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 2)]

# signs, digits, a point or a slash, and maybe an exponent: near misses of the rational forms
DECIMALS = r"[+-]{0,2}[0-9]{0,3}[./]?[0-9]{0,3}([eE_][+-]?[0-9]{1,2})?"


def refused(nodes, edges) -> list[str]:
    """The lines of the report `Network(nodes, edges)` raises, which must equal `oracles.reference_validate_network`'s."""
    with pytest.raises(InvalidNetwork) as caught:
        Network(nodes, edges)
    assert caught.value.report == reference_validate_network(nodes, edges)
    return str(caught.value.report).splitlines()


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


def facts_path(m: int = 26) -> Network:
    """A valid generator-to-load path of m FACTS edges, more than any grid search takes."""
    names = ["g", *(f"p{i}" for i in range(1, m)), "l"]
    roles = {v: NodeRole.PLAIN for v in names} | {"g": NodeRole.GENERATOR, "l": NodeRole.LOAD}
    return Network(roles.items(), [facts_edge(a, b, 1, 2, 3) for a, b in zip(names, names[1:])])


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


def random_standard_lp(rng: random.Random) -> LinearProgram:
    """<= rows with nonnegative right-hand sides over variables in [0, inf), and a positive objective.

    As in the pinned programs, rows of 0/1/2 over rhs 1 or 2 tie the ratio
    test often; here each row is also scaled by a rational, and a row may
    hold no coefficient.  A variable that no row holds leaves the program
    unbounded.
    """
    p = LinearProgram()
    for v in ["v", "w", "x", "y", "z"][: rng.randint(2, 5)]:
        p.add_variable(v, lower=Fraction(0))
    for _ in range(rng.randint(2, 7)):
        scale = rng.choice((Fraction(1), Fraction(1), Fraction(1, 3), Fraction(5, 2)))
        p.add_constraint({v: c * scale for v in p.variables if (c := rng.choice((0, 1, 1, 2, 2)))}, "<=", rng.randint(1, 2) * scale)
    p.set_objective({v: Fraction(rng.randint(1, 2)) for v in p.variables})
    return p


@st.composite
def networks_with_idle_edges(draw) -> Network:
    """A seeded network with a pendant path of plain nodes and, maybe, a generator-only component."""
    base = random_ldc_network(random.Random(draw(st.integers(0, 2**32 - 1))), max_edges=4)
    nodes, edges = list(base.nodes), list(base.edges)
    edge = st.tuples(st.sampled_from(SUSCEPTANCES), st.integers(1, 6))
    at = draw(st.sampled_from(base.node_names))
    for k in range(draw(st.integers(1, 2))):
        nodes.append((f"p{k}", PLAIN))
        edges.append(fixed_edge(at, f"p{k}", *draw(edge)))
        at = f"p{k}"
    if draw(st.booleans()):
        nodes += [("x0", GEN), ("x1", draw(st.sampled_from([GEN, PLAIN])))]
        edges.append(fixed_edge("x0", "x1", *draw(edge)))
    return Network(nodes, edges)


@st.composite
def series_parallel_networks(draw) -> Network:
    """A two-terminal series-parallel network with one generator and one load.

    It grows from one edge s--t: each step splits an edge u--v into u--m--v
    through a new plain node m, or adds such a path next to it.  The
    generator and the load sit at the terminals or at any two nodes.
    """
    edge = st.tuples(st.sampled_from(SUSCEPTANCES), st.integers(1, 6))
    pairs = [("s", "t")]
    for k in range(draw(st.integers(1, 3))):
        u, v = pairs[draw(st.integers(0, len(pairs) - 1))]
        if draw(st.booleans()):
            pairs.remove((u, v))
        pairs += [(u, f"m{k}"), (f"m{k}", v)]
    names = sorted({v for pair in pairs for v in pair})
    gen, load = ("s", "t") if draw(st.booleans()) else draw(st.permutations(names))[:2]
    roles = {v: GEN if v == gen else LOAD if v == load else PLAIN for v in names}
    return Network(roles.items(), [fixed_edge(u, v, *draw(edge)) for u, v in pairs])


@st.composite
def networks_with_chains(draw) -> Network:
    """A seeded network with a pendant plain path, a plain series chain between two of its nodes, and maybe a chord."""
    base = random_ldc_network(random.Random(draw(st.integers(0, 2**32 - 1))), max_edges=3)
    names = list(base.node_names)
    nodes, edges = list(base.nodes), list(base.edges)
    edge = st.tuples(st.sampled_from(SUSCEPTANCES), st.integers(1, 6))
    nodes.append(("p", PLAIN))
    edges.append(fixed_edge(draw(st.sampled_from(names)), "p", *draw(edge)))
    u, v = draw(st.permutations(names))[:2]
    chain = [u, *(f"c{k}" for k in range(draw(st.integers(1, 2)))), v]
    nodes += [(c, PLAIN) for c in chain[1:-1]]
    edges += [fixed_edge(a, b, *draw(edge)) for a, b in zip(chain, chain[1:])]
    taken = {e.pair for e in edges}
    everyone = sorted(name for name, _ in nodes)
    free = [(a, b) for a in everyone for b in everyone if a < b and (a, b) not in taken]
    if draw(st.booleans()):
        edges.append(fixed_edge(*draw(st.sampled_from(free)), *draw(edge)))
    return Network(nodes, edges)


any_network = st.one_of(networks_with_idle_edges(), series_parallel_networks(), networks_with_chains())


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260810)

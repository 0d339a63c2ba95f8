"""Encodings of combinatorial problems as reconfiguration instances.

Each encoder takes a problem instance and emits a network together with a
closed-form predicted value: the reconfiguration optimum equals the
predicted value exactly when the combinatorial instance is solvable, and
stays strictly below it otherwise.  `predicted_value` is that formula, one
per kind, and the encoders and decoders both take it from there.  An
encoder that sums choice gadgets into a glue network does so with one
`network_sum`: it builds the glue network, each gadget and their sum, and
each `Network` is checked when it is built.

Decoders read a certificate back out of an optimal outcome alone: the
port flows come from the outcome's own solution and the predicted value
from the instance, so no decoder encodes the instance again.
`witness_tree` builds the explicit switch set and solution showing a
solvable subset-sum instance attains its predicted value on the two-level
tree encoding: it writes the congestion-forced angles as integers over 2,
and the net injections, and `network`'s one assembler of solutions makes
the flows, generations and loads from them.

Encodings provided:
  exact cover by 3-sets  -> FACTS network,  value 3 + 18.3|S| + |M|
  exact cover by 3-sets  -> switching,      value 3 + 9|S| + |M|
  Hamiltonian a-b path   -> switching,      value 2
  subset sum             -> cactus switching, value 3 + w + 3m,  m = sum(M)
  subset sum             -> cactus FACTS,     value 3 + w + 6.1m
  subset sum             -> 2-level tree switching, value m + 2 + w, m = sum(M) - 1

Generated node names: glue nodes are short lowercase names ("g", "l",
"v1", ..., "a1", "p", ...); gadget-internal nodes carry an "X<i>." prefix
and Hamiltonian helper nodes an "H." prefix.  Instance symbols may not
collide with these.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DecodingFailed, InvalidInstance, NotACertificate, NotOptimal
from .gadgets import Polarity, gfch, gsch
from .mff import MffOutcome
from .msf import MsfOutcome
from .network import (
    Network,
    NodeRole,
    Solution,
    SwitchSet,
    _solution,
    fixed_edge,
    network_sum,
    subnetwork,
)
from .rational import ONE, Rational, ZERO

KIND_EXACT_COVER_MFF = "exact-cover-mff"
KIND_EXACT_COVER_MSF = "exact-cover-msf"
KIND_HAMILTONIAN = "hamiltonian"
KIND_CACTUS_MSF = "subset-sum-cactus-msf"
KIND_CACTUS_MFF = "subset-sum-cactus-mff"
KIND_TREE = "subset-sum-tree"


@dataclass(frozen=True)
class ExactCover3Instance:
    """Universe M and a family S of 3-element subsets of M."""

    universe: tuple[str, ...]
    sets: tuple[tuple[str, str, str], ...]


@dataclass(frozen=True)
class SubsetSumInstance:
    """Distinct positive integers and a target; order of values is kept."""

    values: tuple[int, ...]
    target: int


@dataclass(frozen=True)
class HamiltonianInstance:
    """A simple undirected graph with designated endpoints a and b."""

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    a: str
    b: str


@dataclass(frozen=True)
class EncodedInstance:
    network: Network
    predicted_value: Rational
    kind: str


# the stand-alone optimum of one gadget (exact cover) or of one unit of gadget size (cactus)
_GADGET_VALUE = {
    KIND_EXACT_COVER_MFF: Fraction(183, 10),
    KIND_EXACT_COVER_MSF: Fraction(9),
    KIND_CACTUS_MSF: Fraction(3),
    KIND_CACTUS_MFF: Fraction(61, 10),
}


def predicted_value(kind: str, inst) -> Rational:
    """The value the `kind` encoding of `inst` attains exactly when `inst` is solvable.

    The instance is not checked here; the encoders and decoders check it first.
    """
    if kind in (KIND_EXACT_COVER_MFF, KIND_EXACT_COVER_MSF):
        return 3 + _GADGET_VALUE[kind] * len(inst.sets) + len(inst.universe)
    if kind in (KIND_CACTUS_MSF, KIND_CACTUS_MFF):
        return 3 + inst.target + _GADGET_VALUE[kind] * sum(inst.values)
    if kind == KIND_TREE:
        m = sum(inst.values) - 1
        return Fraction(m + 2 + inst.target)
    if kind == KIND_HAMILTONIAN:
        return Fraction(2)
    raise InvalidInstance(f"unknown encoding kind {kind!r}")


# ---------------------------------------------------------------------------
# Instance validation
# ---------------------------------------------------------------------------


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _check_subset_sum(inst: SubsetSumInstance) -> None:
    if not isinstance(inst.values, (tuple, list)):
        raise InvalidInstance(f"values {inst.values!r} is not a tuple or list of integers")
    if not all(map(_is_int, inst.values)) or not _is_int(inst.target):
        raise InvalidInstance("subset-sum values and target must be integers")
    if not inst.values:
        raise InvalidInstance("subset-sum instance needs at least one value")
    if len(set(inst.values)) != len(inst.values):
        raise InvalidInstance("subset-sum values must be distinct")
    if any(x <= 0 for x in inst.values) or inst.target <= 0:
        raise InvalidInstance("subset-sum values and target must be positive integers")


def _check_names(names, what: str) -> None:
    for name in names:
        if not isinstance(name, str):
            raise InvalidInstance(f"{what} {name!r} is not a string")


def _check_exact_cover(inst: ExactCover3Instance) -> None:
    if not isinstance(inst.universe, (tuple, list)):
        raise InvalidInstance(f"universe {inst.universe!r} is not a tuple or list of elements")
    if not isinstance(inst.sets, (tuple, list)):
        raise InvalidInstance(f"sets {inst.sets!r} is not a tuple or list of sets")
    _check_names(inst.universe, "element")
    for X in inst.sets:
        if not isinstance(X, (tuple, list)):
            raise InvalidInstance(f"set {X!r} is not a tuple or list of elements")
        _check_names(X, "element")
    universe = set(inst.universe)
    if len(universe) != len(inst.universe):
        raise InvalidInstance("universe elements must be distinct")
    reserved = {"g", "l"} | {f"v{i}" for i in range(1, len(inst.sets) + 1)}
    for sym in inst.universe:
        if not sym or sym in reserved or sym.startswith("X"):
            raise InvalidInstance(f"element name {sym!r} collides with generated node names")
    seen = set()
    for X in inst.sets:
        if len(X) != 3 or len(set(X)) != 3:
            raise InvalidInstance(f"{X} is not a 3-element set")
        if not set(X) <= universe:
            raise InvalidInstance(f"{X} is not a subset of the universe")
        key = frozenset(X)
        if key in seen:
            raise InvalidInstance(f"{X} appears twice")
        seen.add(key)


def _check_hamiltonian(inst: HamiltonianInstance) -> None:
    if not isinstance(inst.nodes, (tuple, list)):
        raise InvalidInstance(f"nodes {inst.nodes!r} is not a tuple or list of nodes")
    if not isinstance(inst.edges, (tuple, list)):
        raise InvalidInstance(f"edges {inst.edges!r} is not a tuple or list of edges")
    _check_names((*inst.nodes, inst.a, inst.b), "node")
    for edge in inst.edges:
        if not isinstance(edge, (tuple, list)) or len(edge) != 2:
            raise InvalidInstance(f"edge {edge!r} is not a pair of nodes")
        _check_names(edge, "node")
    nodes = set(inst.nodes)
    if len(nodes) != len(inst.nodes):
        raise InvalidInstance("graph nodes must be distinct")
    if inst.a == inst.b or inst.a not in nodes or inst.b not in nodes:
        raise InvalidInstance("endpoints must be two distinct graph nodes")
    for name in inst.nodes:
        if not name or name.startswith("H."):
            raise InvalidInstance(f"node name {name!r} collides with generated node names")
    seen = set()
    for u, v in inst.edges:
        if u == v or u not in nodes or v not in nodes:
            raise InvalidInstance(f"bad edge {(u, v)}")
        key = frozenset((u, v))
        if key in seen:
            raise InvalidInstance(f"duplicate edge {(u, v)}")
        seen.add(key)


# ---------------------------------------------------------------------------
# Exact cover by 3-sets
# ---------------------------------------------------------------------------


def _exact_cover_glue(inst: ExactCover3Instance) -> Network:
    nodes = [("g", NodeRole.GENERATOR), ("l", NodeRole.LOAD)]
    nodes += [(x, NodeRole.PLAIN) for x in inst.universe]
    nodes += [(f"v{i}", NodeRole.PLAIN) for i in range(1, len(inst.sets) + 1)]
    edges = [fixed_edge("g", "l", 1, 3)]
    for x in inst.universe:
        edges.append(fixed_edge("g", x, 1, 1))
        edges.append(fixed_edge(x, "l", 1, 2))
    for i, X in enumerate(inst.sets, start=1):
        for x in X:
            edges.append(fixed_edge(f"v{i}", x, 1, 1))
    return Network(nodes, edges)


def _encode_exact_cover(inst: ExactCover3Instance, gadget, kind: str) -> EncodedInstance:
    _check_exact_cover(inst)
    gadgets = (gadget(3, port=f"v{i}", polarity=Polarity.PORT, prefix=f"X{i}.") for i in range(1, len(inst.sets) + 1))
    return EncodedInstance(network_sum(_exact_cover_glue(inst), *gadgets), predicted_value(kind, inst), kind)


def encode_exact_cover_mff(inst: ExactCover3Instance) -> EncodedInstance:
    """FACTS-choice encoding; predicted value 3 + 18.3|S| + |M|."""
    return _encode_exact_cover(inst, gfch, KIND_EXACT_COVER_MFF)


def encode_exact_cover_msf(inst: ExactCover3Instance) -> EncodedInstance:
    """Switching-choice encoding; predicted value 3 + 9|S| + |M|."""
    return _encode_exact_cover(inst, gsch, KIND_EXACT_COVER_MSF)


def _port_outflows(sol: Solution, ports: int) -> list[list[Rational]]:
    """The signed flows out of each port v1 .. v<ports> on its glue edges, in one pass over the solution's flows.

    A port's glue edges are its edges to nodes outside its own gadget (the
    nodes named X<i>.*); a switched edge has no flow and is left out.
    """
    flows: list[list[Rational]] = [[] for _ in range(ports)]
    at = {f"v{i}": (flows[i - 1], f"X{i}.") for i in range(1, ports + 1)}
    for e, f in sol.flow.items():
        port = at.get(e.a)
        if port is not None and not e.b.startswith(port[1]):
            port[0].append(f)
        port = at.get(e.b)
        if port is not None and not e.a.startswith(port[1]):
            port[0].append(-f)
    return flows


def decode_exact_cover(outcome: MffOutcome | MsfOutcome, inst: ExactCover3Instance) -> tuple[tuple[str, str, str], ...]:
    """Read the exact cover out of an optimal outcome.

    A choice gadget is active exactly when it pushes one unit down each of
    its three port--element edges; the active sets must cover every
    element once.
    """
    _check_exact_cover(inst)
    kind = KIND_EXACT_COVER_MFF if isinstance(outcome, MffOutcome) else KIND_EXACT_COVER_MSF
    predicted = predicted_value(kind, inst)
    if outcome.value != predicted:
        raise NotOptimal(f"outcome value {outcome.value} is below the predicted {predicted}")
    outflows = _port_outflows(outcome.solution, len(inst.sets))
    cover = [X for X, flows in zip(inst.sets, outflows) if len(flows) == 3 and all(f == 1 for f in flows)]
    counts = {x: 0 for x in inst.universe}
    for X in cover:
        for x in X:
            counts[x] += 1
    if any(c != 1 for c in counts.values()):
        raise DecodingFailed(f"active sets do not cover every element exactly once: {counts}")
    return tuple(cover)


# ---------------------------------------------------------------------------
# Hamiltonian path (planar switching hardness)
# ---------------------------------------------------------------------------


def encode_hamiltonian(inst: HamiltonianInstance) -> EncodedInstance:
    """Unit-capacity switching encoding; value 2 iff an a-b Hamiltonian path exists.

    The graph is flanked by a generator H.s feeding a and a load H.t fed
    by b, plus a disjoint comparison chain of n+1 unit edges between the
    same terminals.  Serving 2 units congests both chains, which forces an
    angle spread only a spanning a-b path can supply on the graph side.
    """
    _check_hamiltonian(inst)
    n = len(inst.nodes)
    middle = [v for v in inst.nodes if v not in (inst.a, inst.b)]
    ordered = [inst.a, *middle, inst.b]
    nodes = [("H.s", NodeRole.GENERATOR), ("H.t", NodeRole.LOAD)]
    nodes += [(v, NodeRole.PLAIN) for v in ordered]
    nodes += [(f"H.p{i}", NodeRole.PLAIN) for i in range(1, n + 1)]
    edges = [fixed_edge(u, v, 1, 1) for u, v in inst.edges]
    edges.append(fixed_edge("H.s", inst.a, 1, 1))
    edges.append(fixed_edge(inst.b, "H.t", 1, 1))
    chain = ["H.s"] + [f"H.p{i}" for i in range(1, n + 1)] + ["H.t"]
    edges += [fixed_edge(u, v, 1, 1) for u, v in zip(chain, chain[1:])]
    return EncodedInstance(Network(nodes, edges), predicted_value(KIND_HAMILTONIAN, inst), KIND_HAMILTONIAN)


# ---------------------------------------------------------------------------
# Subset sum on a cactus
# ---------------------------------------------------------------------------


def _cactus_glue(inst: SubsetSumInstance) -> Network:
    w = inst.target
    n = len(inst.values)
    nodes = [("g", NodeRole.GENERATOR), ("l", NodeRole.LOAD)]
    nodes += [(f"v{i}", NodeRole.PLAIN) for i in range(1, n + 1)]
    edges = [
        fixed_edge("g", "l", 1, 2 + w),
        fixed_edge("g", "v1", 1, 1),
        fixed_edge("v1", "l", 1, w + 1),
    ]
    for i in range(1, n):
        edges.append(fixed_edge(f"v{i}", f"v{i + 1}", 1, w))
    return Network(nodes, edges)


def _encode_cactus(inst: SubsetSumInstance, gadget, kind: str) -> EncodedInstance:
    _check_subset_sum(inst)
    gadgets = (gadget(x, port=f"v{i}", polarity=Polarity.PORT, prefix=f"X{i}.") for i, x in enumerate(inst.values, start=1))
    return EncodedInstance(network_sum(_cactus_glue(inst), *gadgets), predicted_value(kind, inst), kind)


def encode_subset_sum_cactus_msf(inst: SubsetSumInstance) -> EncodedInstance:
    """Cactus switching encoding; predicted value 3 + w + 3m with m = sum(M)."""
    return _encode_cactus(inst, gsch, KIND_CACTUS_MSF)


def encode_subset_sum_cactus_mff(inst: SubsetSumInstance) -> EncodedInstance:
    """Cactus FACTS encoding; predicted value 3 + w + 6.1m with m = sum(M)."""
    return _encode_cactus(inst, gfch, KIND_CACTUS_MFF)


# ---------------------------------------------------------------------------
# Subset sum on a two-level tree
# ---------------------------------------------------------------------------


def encode_subset_sum_tree(inst: SubsetSumInstance) -> EncodedInstance:
    """Two-level tree switching encoding; predicted value m + 2 + w, m = sum(M) - 1.

    Values are indexed a_2 .. a_n (n = |M| + 1) along a rigid chain
    a_1 .. a_{n+1} whose congestion pins angle(a_i) = i in any solution
    attaining the predicted value.  The distributor node p then feeds
    a_i through an edge of susceptance a_i / (i - 1) and capacity a_i,
    which is congested exactly at that angle; keeping the p--a_i edges of
    a subset V therefore drains exactly sum(V) out of p, and conservation
    at p holds iff sum(V) = w.
    """
    _check_subset_sum(inst)
    w = inst.target
    n = len(inst.values) + 1
    m = sum(inst.values) - 1

    nodes = [("g", NodeRole.GENERATOR), ("p", NodeRole.PLAIN), ("g1", NodeRole.PLAIN), (f"g{n + 1}", NodeRole.PLAIN)]
    nodes += [(f"a{i}", NodeRole.PLAIN) for i in range(1, n + 2)]
    nodes += [(f"l{i}", NodeRole.LOAD) for i in range(1, n + 2)]

    edges = []
    for i in range(2, n + 1):
        a_i = inst.values[i - 2]
        edges.append(fixed_edge("p", f"a{i}", Fraction(a_i, i - 1), a_i))
        edges.append(fixed_edge(f"a{i}", f"l{i}", 1, a_i))
    if m > 0:  # a zero-capacity chain is modeled by omitting its edges
        for i in range(1, n + 1):
            edges.append(fixed_edge(f"a{i}", f"a{i + 1}", m, m))
    edges += [
        fixed_edge("g", "g1", 2 * m + 2, m + 1),
        fixed_edge("g1", "a1", 2 * m + 2, m + 1),
        fixed_edge("a1", "l1", 1, 1),
        fixed_edge("g", "p", w, w),
        fixed_edge("g", f"g{n + 1}", Fraction(2, n + 1), 1),
        fixed_edge(f"g{n + 1}", f"a{n + 1}", Fraction(2, n + 1), 1),
        fixed_edge(f"a{n + 1}", f"l{n + 1}", 1, m + 1),
    ]
    return EncodedInstance(Network(nodes, edges), predicted_value(KIND_TREE, inst), KIND_TREE)


def witness_tree(inst: SubsetSumInstance, chosen: set[int]) -> tuple[SwitchSet, Solution]:
    """Explicit optimal configuration of the tree encoding for sum(V) = w.

    Switches off the p--a_i edges of the values outside V and assigns the
    congestion-forced angles; the result validates on the sub-network and
    generates exactly the predicted m + 2 + w.
    """
    _check_subset_sum(inst)
    if sum(chosen) != inst.target or not chosen <= set(inst.values):
        raise NotACertificate(f"{sorted(chosen)} does not certify target {inst.target}")
    enc = encode_subset_sum_tree(inst)
    net = enc.network
    n = len(inst.values) + 1
    m = sum(inst.values) - 1
    w = inst.target

    by_pair = {e.pair: e for e in net.edges}
    switched = frozenset(
        by_pair[tuple(sorted(("p", f"a{i}")))]
        for i in range(2, n + 1)
        if inst.values[i - 2] not in chosen
    )
    sub = subnetwork(net, switched)

    # the angles times 2, and the net injections
    y = {"g": 0, "g1": 1, f"g{n + 1}": n + 1, "p": 2, "l1": 4, f"l{n + 1}": 2 * (n + 2 + m)}
    injection = {"g": Fraction(m + 2 + w), "l1": -ONE, f"l{n + 1}": Fraction(-m - 1)}
    for i in range(1, n + 2):
        y[f"a{i}"] = 2 * i
    for i in range(2, n + 1):
        a_i = inst.values[i - 2]
        y[f"l{i}"] = 2 * i
        if a_i in chosen:
            y[f"l{i}"] += 2 * a_i
            injection[f"l{i}"] = Fraction(-a_i)
    return switched, _solution(sub, [(sub.edges, y, 2, injection)])


# ---------------------------------------------------------------------------
# Subset-sum decoding (cactus and tree)
# ---------------------------------------------------------------------------


def decode_subset_sum(outcome: MsfOutcome | MffOutcome, inst: SubsetSumInstance, kind: str) -> set[int]:
    """Extract the chosen subset V from an optimal outcome; sum(V) must be w."""
    _check_subset_sum(inst)
    if kind == KIND_TREE:
        if not isinstance(outcome, MsfOutcome):
            raise DecodingFailed("the tree encoding is a switching instance: decode it from an MSF outcome")
    elif kind not in (KIND_CACTUS_MSF, KIND_CACTUS_MFF):
        raise InvalidInstance(f"unknown subset-sum encoding kind {kind!r}")
    predicted = predicted_value(kind, inst)
    if outcome.value != predicted:
        raise NotOptimal(f"outcome value {outcome.value} is below the predicted {predicted}")
    if kind == KIND_TREE:
        switched_pairs = {e.pair for e in outcome.switched}
        chosen = {
            inst.values[i - 2]
            for i in range(2, len(inst.values) + 2)
            if tuple(sorted(("p", f"a{i}"))) not in switched_pairs
        }
    else:
        outflows = _port_outflows(outcome.solution, len(inst.values))
        chosen = {x for x, flows in zip(inst.values, outflows) if sum(flows, ZERO) == x}
    if sum(chosen) != inst.target:
        raise DecodingFailed(f"extracted subset {sorted(chosen)} does not sum to {inst.target}")
    return chosen

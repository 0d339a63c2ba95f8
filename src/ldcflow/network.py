"""Domain model of linear-DC power networks.

A network is a set of named nodes -- each a generator, a load, or plain --
joined by undirected edges carrying a susceptance interval [s_min, s_max]
and a capacity.  When s_min == s_max on every edge the susceptances are
fixed and only switching (edge removal) can reconfigure the network; an
edge with s_min < s_max is adjustable ("FACTS edge").

Flows are signed relative to an edge's canonical orientation, which is the
lexicographic order of its endpoint names: flow(a, b) is positive when
power runs a -> b, and the linearized power law ties it to the phase
angles as flow = susceptance * (angle(b) - angle(a)).  The orientation is
a bookkeeping convention only; reversing it and negating the flow
describes the same physical state.

Construction refuses what the model cannot hold, so every `Network` is
valid and no solver checks one again.  `Network` raises `InvalidNetwork`
for nodes or edges that are not iterable, a node record that is not a
(str, NodeRole) pair or an edge record that is not an `Edge`, and `Edge`
for an endpoint that is not a str or a numeric field that is not an int
or a `Fraction` (a bool, a float, a str, None), each report naming every
such record or field.  `Edge` stores an int field as a `Fraction`, so
every edge holds exact rationals.  Well-typed records are then checked
for the structural defects, and `Network` raises `InvalidNetwork` naming
each: an empty name, a node declared twice, a self-loop, a second edge
on a node pair, an undeclared endpoint, a susceptance interval not
within the positive reals and a capacity that is not positive.

Solutions are assembled here, by one private assembler, `_solution`,
from parts: each part gives the angles y / den of some nodes, the edges
whose flows s * (y_b - y_a) / den follow from them, and net injections,
which split by sign into generation and load.  `zero_solution` is the
assembler with no parts, `mpf` hands it one part per flowing component
and `reductions.witness_tree` one part for the whole tree encoding.
Only `mff`'s relabelling of a pinned network's solution and
`serialize`'s reader build a `Solution` otherwise.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import attrgetter, itemgetter

from .errors import EdgeOverlap, InvalidNetwork, RoleConflict, UnknownEdge
from .rational import Rational, ZERO, rat, rat_str

NodeId = str


class NodeRole(enum.Enum):
    GENERATOR = "generator"
    LOAD = "load"
    PLAIN = "plain"


@dataclass(frozen=True, order=True)
class Edge:
    """Undirected edge; endpoints are stored in canonical (lexicographic) order, and fields as `Fraction`s.

    An endpoint that is not a str, or a field that is not an int or a
    `Fraction` (a bool is not taken for an int, as `rat` refuses it),
    raises `InvalidNetwork` naming each; an int field is stored as a
    `Fraction`.
    """

    a: NodeId
    b: NodeId
    s_min: Rational
    s_max: Rational
    cap: Rational

    def __post_init__(self):
        a, b = self.a, self.b
        if not (type(self.s_min) is type(self.s_max) is type(self.cap) is Fraction and isinstance(a, str) and isinstance(b, str)):
            ends = [x for x in (a, b) if not isinstance(x, str)]
            fields = [(label, getattr(self, label)) for label in ("s_min", "s_max", "cap")]
            refused = [f"endpoint {x!r} is not a str" for x in ends] + [f"{label} {x!r} is not an int or a Fraction" for label, x in fields if type(x) is bool or not isinstance(x, (int, Fraction))]
            if refused:  # located in canonical order once both ends are names
                raise InvalidNetwork(ValidationReport(tuple(Violation("Structural", f"{b}--{a}" if not ends and a > b else f"{a}--{b}", line) for line in refused)))
            for label, x in fields:
                object.__setattr__(self, label, Fraction(x))
        if a > b:
            object.__setattr__(self, "a", b)
            object.__setattr__(self, "b", a)
        if self.s_max is not self.s_min and self.s_max == self.s_min:
            # one object for a fixed susceptance, so `is_facts` is an identity test
            object.__setattr__(self, "s_max", self.s_min)

    def __hash__(self):
        # the endpoint names alone: equal edges share them, and hashing the
        # rational fields would cost three Fraction hashes per lookup
        return hash((self.a, self.b))

    @property
    def pair(self) -> tuple[NodeId, NodeId]:
        return (self.a, self.b)

    @property
    def is_facts(self) -> bool:
        return self.s_min is not self.s_max and self.s_min != self.s_max

    def __str__(self):
        s = rat_str(self.s_min) if not self.is_facts else f"[{rat_str(self.s_min)},{rat_str(self.s_max)}]"
        return f"{self.a}--{self.b}(s={s},cap={rat_str(self.cap)})"


# the fields in declaration order: sorting by this key gives the order of the generated `Edge.__lt__`
edge_key = attrgetter("a", "b", "s_min", "s_max", "cap")
_node_name = itemgetter(0)


def fixed_edge(a: NodeId, b: NodeId, s, cap) -> Edge:
    """Edge with a fixed susceptance."""
    sv = rat(s)
    return Edge(a, b, sv, sv, rat(cap))


def facts_edge(a: NodeId, b: NodeId, s_min, s_max, cap) -> Edge:
    """Edge whose susceptance is adjustable within [s_min, s_max]."""
    return Edge(a, b, rat(s_min), rat(s_max), rat(cap))


@dataclass(frozen=True)
class Network:
    """Nodes with roles plus undirected susceptance/capacity edges.

    `nodes` is stored as a tuple of (name, role) pairs sorted by name (a
    record given as a list or as a tuple subclass, such as a namedtuple,
    is stored as a plain tuple), and `edges` as a tuple sorted by
    `edge_key`, so equal networks compare and hash equal and all
    iteration orders are deterministic.  Nodes or edges that are not
    iterable, a node record that is not a (str, NodeRole) pair, an edge
    record that is not an `Edge`, and then each structural defect of the
    sorted records raise `InvalidNetwork`, whose report names every one
    (see the module docstring).
    """

    nodes: tuple[tuple[NodeId, NodeRole], ...]
    edges: tuple[Edge, ...]

    def __init__(self, nodes: Iterable[tuple[NodeId, NodeRole]], edges: Iterable[Edge] = ()):
        # three stages, each run only on what the one before it let through
        refused = tuple(Violation("Structural", repr(x), f"{label} is not an iterable of records") for label, x in (("nodes", nodes), ("edges", edges)) if not isinstance(x, Iterable))
        if not refused:
            nodes = [node if type(node) is tuple else tuple(node) if isinstance(node, (list, tuple)) else node for node in nodes]
            edges = list(edges)
            refused = tuple(_record_violations(nodes, edges))
        if not refused:
            nodes.sort(key=_node_name)
            edges.sort(key=edge_key)
            refused = tuple(_structural_violations(nodes, edges))
        if refused:
            raise InvalidNetwork(ValidationReport(refused))
        object.__setattr__(self, "nodes", tuple(nodes))
        object.__setattr__(self, "edges", tuple(edges))

    @cached_property
    def roles(self) -> dict[NodeId, NodeRole]:
        return dict(self.nodes)

    @cached_property
    def node_names(self) -> tuple[NodeId, ...]:
        return tuple(map(_node_name, self.nodes))

    @cached_property
    def generators(self) -> tuple[NodeId, ...]:
        return tuple(n for n, r in self.nodes if r is NodeRole.GENERATOR)

    @cached_property
    def loads(self) -> tuple[NodeId, ...]:
        return tuple(n for n, r in self.nodes if r is NodeRole.LOAD)

    @cached_property
    def facts_edges(self) -> tuple[Edge, ...]:
        return tuple(e for e in self.edges if e.is_facts)

    @cached_property
    def _view(self) -> _View:
        # built on first read; `subnetwork` hands on its parent's
        return _View(self)

    @cached_property
    def _kept(self) -> int:
        """The edges as a mask over the view's: every bit for a root, the bits of the root's edges it kept for a sub-network.

        `subnetwork` keeps its parent's `Edge` objects in their order, so
        a sub-network's edges are found among its root's by identity.
        """
        mask, j, edges = 0, 0, self._view.edges
        for e in self.edges:
            while edges[j] is not e:
                j += 1
            mask |= 1 << j
            j += 1
        return mask

    def role(self, name: NodeId) -> NodeRole:
        return self.roles[name]

    def is_fixed(self) -> bool:
        """True when every susceptance interval is a single point (no FACTS)."""
        return not self.facts_edges


class _View:
    """A root network's integer tables: node numbers in `node_names` order, and each edge as the bit 1 << j over `edges`.

    They are the node index; each edge's end numbers; each node's
    incident-edge mask and its (edge bit, other node) pairs; the masks of
    the generators, of the loads and of the other nodes (`plain`); and
    the capacities as integers over `scale`, the LCM of their
    denominators.  A sub-network shares its root's view and reads its
    own edges from it as the mask `Network._kept`.  Every edge mask
    passed between layers, a sub-network's too, is over these bits.

    Its readers: `classify`'s component walk and spanning forest,
    `mpf.core_maps`, the masks and cut bounds of both `msf` searches, and
    `maxflow`'s Edmonds-Karp, whose arcs are the kept edges' ends and
    capacities, scaled once here for the root and all its sub-networks.
    """

    def __init__(self, n: Network):
        self.edges = n.edges
        self.index = index = {v: i for i, v in enumerate(n.node_names)}
        self.ends = ends = [(index[e.a], index[e.b]) for e in n.edges]
        self.adjacent = adjacent = [[] for _ in index]
        for j, (a, b) in enumerate(ends):
            adjacent[a].append((1 << j, b))
            adjacent[b].append((1 << j, a))
        self.incident = [sum([bit for bit, _ in pairs]) for pairs in adjacent]
        self.gens = sum([1 << index[v] for v in n.generators])
        self.loads = sum([1 << index[v] for v in n.loads])
        self.plain = (1 << len(index)) - 1 & ~(self.gens | self.loads)
        self.scale = scale = math.lcm(*(e.cap.denominator for e in n.edges))
        self.caps = [e.cap.numerator * (scale // e.cap.denominator) for e in n.edges]


# A switch set designates edges of a reference network as removed.
SwitchSet = frozenset[Edge]


@dataclass(frozen=True)
class Solution:
    """A steady state: per-edge susceptance and flow, per-node angle/gen/load."""

    susceptance: Mapping[Edge, Rational]
    angle: Mapping[NodeId, Rational]
    flow: Mapping[Edge, Rational]
    gen: Mapping[NodeId, Rational]
    load: Mapping[NodeId, Rational]


# a part of a solution: (edges, y, den, injection) -- the angles y / den of some
# nodes, the edges whose flows follow from them and those nodes' net injections
Part = tuple[Iterable[Edge], Mapping[NodeId, int], int, Mapping[NodeId, Rational]]


def _solution(n: Network, parts: Iterable[Part] = ()) -> Solution:
    """The one assembler of solutions: the state the parts make up, zero wherever no part names a node or an edge.

    A part's edge carries s * (y_b - y_a) / den.  A positive net injection
    is a generation, a negative one a load (read off the numerator's
    sign, which is cheaper than a `Fraction` comparison).
    """
    angle: dict[NodeId, Rational] = {}
    injection: dict[NodeId, Rational] = {}
    flow: dict[Edge, Rational] = {}
    for edges, y, den, p in parts:
        angle.update((v, Rational(y_v, den)) for v, y_v in y.items())
        flow.update((e, Rational(e.s_min.numerator * (y[e.b] - y[e.a]), e.s_min.denominator * den)) for e in edges)
        injection.update(p)
    names = n.node_names
    p = [injection.get(v, ZERO) for v in names]
    return Solution(
        susceptance={e: e.s_min for e in n.edges},
        angle={v: angle.get(v, ZERO) for v in names},
        flow={e: flow.get(e, ZERO) for e in n.edges},
        gen={v: x if x.numerator > 0 else ZERO for v, x in zip(names, p)},
        load={v: -x if x.numerator < 0 else ZERO for v, x in zip(names, p)},
    )


def zero_solution(n: Network) -> Solution:
    """The all-zero state; it satisfies both flow laws on any network."""
    return _solution(n)


@dataclass(frozen=True)
class Violation:
    kind: str  # Kirchhoff | PowerLaw | SusceptanceBound | CapacityBound | RoleBound | Structural
    location: str
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def kinds(self) -> set[str]:
        return {v.kind for v in self.violations}

    def __str__(self):
        if self.ok:
            return "OK"
        return "\n".join(f"{v.kind} at {v.location}: {v.detail}" for v in self.violations)


def _record_violations(nodes: list, edges: list) -> Iterator[Violation]:
    """What `Network` refuses: node records that are not (str, NodeRole) pairs, and edge records that are not an `Edge`."""
    for node in nodes:
        if type(node) is not tuple or len(node) != 2:
            yield Violation("Structural", repr(node), "node record is not a (name, role) pair")
            continue
        name, role = node
        if not isinstance(name, str):
            name = repr(name)
            yield Violation("Structural", name, f"name of type {type(node[0]).__name__} is not a str")
        if type(role) is not NodeRole:
            yield Violation("Structural", name, f"role {role!r} is not a NodeRole")
    for e in edges:
        if not isinstance(e, Edge):
            yield Violation("Structural", repr(e), "edge record is not an Edge")


def _structural_violations(nodes: list, edges: list) -> Iterator[Violation]:
    """What `Network` refuses of well-typed records, sorted as it stores them: the defects the module docstring lists, in that order per record."""
    names = set()
    for name, _ in nodes:
        if not name:
            yield Violation("Structural", repr(name), "empty node name")
        if name in names:
            yield Violation("Structural", name, "node declared more than once")
        names.add(name)
    pair = None
    for e in edges:
        a, b, s_min, s_max, cap = e.a, e.b, e.s_min, e.s_max, e.cap
        repeated = pair == (a, b)  # sorted, a repeated pair follows its first edge
        pair = (a, b)
        # signs through numerators (denominators are positive); the location only for a defect
        interval_ok = s_min.numerator > 0 and (s_min is s_max or s_min.numerator * s_max.denominator <= s_max.numerator * s_min.denominator)
        cap_ok = cap.numerator > 0
        if a != b and not repeated and a in names and b in names and interval_ok and cap_ok:
            continue
        loc = f"{a}--{b}"
        if a == b:
            yield Violation("Structural", loc, "self-loop")
        if repeated:
            yield Violation("Structural", loc, "second edge on the same node pair")
        for endpoint in (a, b):
            if endpoint not in names:
                yield Violation("Structural", loc, f"endpoint {endpoint} is not a declared node")
        if not interval_ok:
            yield Violation("Structural", loc, f"susceptance interval [{rat_str(s_min)}, {rat_str(s_max)}] is not within the positive reals")
        if not cap_ok:
            yield Violation("Structural", loc, f"capacity {rat_str(cap)} is not positive")


# what a sub-network takes from its parent: the cached properties that depend on the nodes
# alone, and the integer view of its root
_SHARED = ("node_names", "roles", "generators", "loads", "_view")


def subnetwork(n: Network, switched: Iterable[Edge]) -> Network:
    """The network with the switched edges removed; nodes and roles unchanged.

    It equals `Network(n.nodes, kept)` but keeps n's sorted order and
    starts from what n knows of its nodes (`roles`, `node_names`,
    `generators`, `loads`).  It shares n's integer view, its root's
    (`_View`), and so builds no tables of its own: its kept edges are a
    mask in the root's edge bits.  Removing edges adds no FACTS edge and no
    defect, so a sub-network of a fixed network knows it is fixed.

    The searches switch n's own `Edge` objects, so the switched edges are
    first found by identity, which hashes no `Edge`.  n holds no edge
    twice, so the count shows whether every switched object is one of
    n's; if any is not (an equal copy, or an edge n does not hold), the
    edges are matched by equality, and an unknown one, an item that is
    not an `Edge`, or a `switched` that is not iterable raises
    `UnknownEdge`.  An n that is not a `Network` raises `InvalidNetwork`
    naming it.
    """
    if not isinstance(n, Network):
        raise InvalidNetwork(ValidationReport((Violation("Structural", repr(n), "network is not a Network"),)))
    if not isinstance(switched, Iterable):
        raise UnknownEdge(f"{switched!r} is not an iterable of edges")
    switched = tuple(switched)
    ids = set(map(id, switched))
    kept = [e for e in n.edges if id(e) not in ids]
    if len(kept) + len(ids) != len(n.edges):
        removed = frozenset(e for e in switched if isinstance(e, Edge))
        kept = [e for e in n.edges if e not in removed]
        # the counts show that every switched item is an edge and was found
        if len(kept) + len(removed) != len(n.edges) or len(removed) != len(switched):
            have = set(n.edges)
            for e in switched:
                if not isinstance(e, Edge) or e not in have:
                    raise UnknownEdge(f"{e} is not an edge of the network")
    sub = object.__new__(Network)
    cache = vars(sub)
    cache.update(nodes=n.nodes, edges=tuple(kept))  # a list first: a tuple grown from a generator raised peak RSS
    cache.update((name, getattr(n, name)) for name in _SHARED)
    if not n.facts_edges:
        cache["facts_edges"] = ()
    return sub


def network_sum(first: Network, *rest: Network) -> Network:
    """Componentwise union of networks of which no two share an edge pair.

    Shared node names merge into a single node; a plain node may be
    promoted by a later operand's generator or load role, but a node
    that would be both generator and load is an error.  The operands are
    taken in turn, so `network_sum(a, b, c)` equals
    `network_sum(network_sum(a, b), c)` and raises the same error for the
    same operand, but sorts the edges of all of them once.  An operand
    that is not a `Network` raises `InvalidNetwork` naming it.
    """
    refused = tuple(Violation("Structural", repr(x), f"operand {i} is not a Network") for i, x in enumerate((first, *rest)) if not isinstance(x, Network))
    if refused:
        raise InvalidNetwork(ValidationReport(refused))
    pairs = {e.pair for e in first.edges}
    roles: dict[NodeId, NodeRole] = dict(first.nodes)
    edges = list(first.edges)
    for n in rest:
        for e in n.edges:
            if e.pair in pairs:
                raise EdgeOverlap(f"both networks carry an edge on {e.a}--{e.b}")
        for name, role in n.nodes:
            old = roles.get(name)
            if old is None or old is NodeRole.PLAIN:
                roles[name] = role
            elif role is not NodeRole.PLAIN and role is not old:
                raise RoleConflict(f"node {name} would be both generator and load")
        pairs.update(e.pair for e in n.edges)
        edges += n.edges
    return Network(roles.items(), edges)


def total_generation(sol: Solution) -> Rational:
    """Sum of generation over all nodes (the objective of every problem here)."""
    return sum(sol.gen.values(), ZERO)


def validate_solution(n: Network, sol: Solution) -> ValidationReport:
    """Check a claimed solution exactly, in integers.

    Verifies, in order: map domains, conservation at every node, the
    power law and both bound families on every edge, and the role/sign
    constraints on generation and load.  Map values are `Fraction`s or
    `int`s; any other value (a bool, a float, a str, None) is a
    `Structural` violation naming its map and key.  Flows, generations
    and loads are compared as multiples of one common denominator and
    angles as multiples of another, so every check is integer
    arithmetic; a `Fraction` is built only to word a violation.  An n
    that is not a `Network` or a `sol` that is not a `Solution` is a
    `Structural` violation each, and nothing else is checked.
    """
    refused = tuple(Violation("Structural", repr(x), f"{label} is not a {kind.__name__}") for label, x, kind in (("network", n, Network), ("solution", sol, Solution)) if not isinstance(x, kind))
    if refused:
        return ValidationReport(refused)
    out: list[Violation] = []
    nodes = set(n.node_names)
    edges = set(n.edges)

    for label, mapping, expect in (
        ("susceptance", sol.susceptance, edges),
        ("flow", sol.flow, edges),
        ("angle", sol.angle, nodes),
        ("gen", sol.gen, nodes),
        ("load", sol.load, nodes),
    ):
        got = set(mapping)
        for missing in sorted(expect - got, key=str):
            out.append(Violation("Structural", str(missing), f"{label} entry missing"))
        for extra in sorted(got - expect, key=str):
            out.append(Violation("Structural", str(extra), f"{label} entry for unknown {'edge' if expect is edges else 'node'}"))
        out += [Violation("Structural", str(k), f"{label} value {x!r} is not an int or a Fraction") for k, x in mapping.items() if type(x) is not Fraction and (type(x) is bool or not isinstance(x, int))]
    if out:
        return ValidationReport(tuple(out))

    names, gen, load, angle = n.node_names, sol.gen, sol.load, sol.angle
    flows = [sol.flow[e] for e in n.edges]
    # flow, gen and load as integer multiples of 1/unit, angles of 1/angle_unit
    unit = math.lcm(*[x.denominator for x in flows], *[gen[v].denominator for v in names], *[load[v].denominator for v in names])
    scaled = [x.numerator * (unit // x.denominator) for x in flows]
    angle_unit = math.lcm(*[angle[v].denominator for v in names])
    theta = {v: angle[v].numerator * (angle_unit // angle[v].denominator) for v in names}

    net = dict.fromkeys(names, 0)  # (outflow - inflow) * unit
    for e, f in zip(n.edges, scaled):
        net[e.a] += f
        net[e.b] -= f
    for v, x in net.items():
        g, d = gen[v], load[v]
        if x != g.numerator * (unit // g.denominator) - d.numerator * (unit // d.denominator):
            out.append(Violation("Kirchhoff", v, f"outflow - inflow = {rat_str(Fraction(x, unit))} but gen - load = {rat_str(g - d)}"))

    for e, x, f in zip(n.edges, flows, scaled):
        loc = f"{e.a}--{e.b}"
        s = sol.susceptance[e]
        p, q = s.numerator, s.denominator
        # x = s * (angle(b) - angle(a)), both sides times unit * q * angle_unit
        if f * q * angle_unit != p * (theta[e.b] - theta[e.a]) * unit:
            expected = s * (angle[e.b] - angle[e.a])
            out.append(Violation("PowerLaw", loc, f"flow {rat_str(x)} != susceptance * angle difference {rat_str(expected)}"))
        lo, hi = e.s_min, e.s_max
        if lo.numerator * q > p * lo.denominator or p * hi.denominator > hi.numerator * q:
            out.append(Violation("SusceptanceBound", loc, f"susceptance {rat_str(s)} outside [{rat_str(lo)}, {rat_str(hi)}]"))
        if abs(f) * e.cap.denominator > e.cap.numerator * unit:
            out.append(Violation("CapacityBound", loc, f"|flow| = {rat_str(abs(x))} exceeds capacity {rat_str(e.cap)}"))

    roles = n.roles
    for v in names:
        role, g, d = roles[v], gen[v].numerator, load[v].numerator  # signs through numerators
        if g < 0:
            out.append(Violation("RoleBound", v, "negative generation"))
        if d < 0:
            out.append(Violation("RoleBound", v, "negative load"))
        if role is not NodeRole.GENERATOR and g != 0:
            out.append(Violation("RoleBound", v, "generation at a non-generator"))
        if role is not NodeRole.LOAD and d != 0:
            out.append(Violation("RoleBound", v, "load at a non-load"))

    return ValidationReport(tuple(out))

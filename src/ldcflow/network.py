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

Construction is deliberately permissive: `validate_network` reports
structural defects (duplicate pairs, self-loops, empty intervals, ...)
instead of the constructors raising, so that candidate inputs can be
checked wholesale.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .errors import EdgeOverlap, InvalidNetwork, RoleConflict, UnknownEdge
from .rational import Rational, ZERO, rat, rat_str

NodeId = str


class NodeRole(enum.Enum):
    GENERATOR = "generator"
    LOAD = "load"
    PLAIN = "plain"


@dataclass(frozen=True, order=True)
class Edge:
    """Undirected edge; endpoints are stored in canonical (lexicographic) order."""

    a: NodeId
    b: NodeId
    s_min: Rational
    s_max: Rational
    cap: Rational

    def __post_init__(self):
        if self.a > self.b:
            a, b = self.a, self.b
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

    `nodes` is stored as a sorted tuple of (name, role) pairs and `edges`
    as a sorted tuple, so equal networks compare and hash equal and all
    iteration orders are deterministic.
    """

    nodes: tuple[tuple[NodeId, NodeRole], ...]
    edges: tuple[Edge, ...]

    def __init__(self, nodes: Iterable[tuple[NodeId, NodeRole]], edges: Iterable[Edge] = ()):
        object.__setattr__(self, "nodes", tuple(sorted(nodes, key=lambda nr: (nr[0], nr[1].value))))
        object.__setattr__(self, "edges", tuple(sorted(edges)))

    @cached_property
    def roles(self) -> dict[NodeId, NodeRole]:
        return dict(self.nodes)

    @cached_property
    def node_names(self) -> tuple[NodeId, ...]:
        return tuple(sorted({name for name, _ in self.nodes}))

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
    def _report(self) -> ValidationReport:
        # what `require_valid` reads; `subnetwork` hands on a passed one
        return validate_network(self)

    @cached_property
    def incident(self) -> dict[NodeId, tuple[Edge, ...]]:
        by_node: dict[NodeId, list[Edge]] = {n: [] for n in self.node_names}
        for e in self.edges:
            if e.a in by_node:
                by_node[e.a].append(e)
            if e.b in by_node and e.b != e.a:
                by_node[e.b].append(e)
        return {n: tuple(es) for n, es in by_node.items()}

    def role(self, name: NodeId) -> NodeRole:
        return self.roles[name]

    def is_fixed(self) -> bool:
        """True when every susceptance interval is a single point (no FACTS)."""
        return not self.facts_edges


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


def zero_solution(n: Network) -> Solution:
    """The all-zero state; it satisfies both flow laws on any network."""
    return Solution(
        susceptance={e: e.s_min for e in n.edges},
        angle={v: ZERO for v in n.node_names},
        flow={e: ZERO for e in n.edges},
        gen={v: ZERO for v in n.node_names},
        load={v: ZERO for v in n.node_names},
    )


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


def validate_network(n: Network) -> ValidationReport:
    """Report every structural defect; never raises."""
    out: list[Violation] = []
    names = set()
    for name, _role in n.nodes:
        if not name:
            out.append(Violation("Structural", repr(name), "empty node name"))
        if name in names:
            out.append(Violation("Structural", name, "node declared more than once"))
        names.add(name)
    seen_pairs: set[tuple[NodeId, NodeId]] = set()
    for e in n.edges:
        a, b, s_min, s_max = e.a, e.b, e.s_min, e.s_max
        repeated = (a, b) in seen_pairs
        seen_pairs.add((a, b))
        # signs through numerators (denominators are positive); the location only for a defect
        interval_ok = s_min.numerator > 0 and (s_min is s_max or s_min.numerator * s_max.denominator <= s_max.numerator * s_min.denominator)
        if a != b and not repeated and a in names and b in names and interval_ok and e.cap.numerator > 0:
            continue
        loc = f"{a}--{b}"
        if a == b:
            out.append(Violation("Structural", loc, "self-loop"))
        if repeated:
            out.append(Violation("Structural", loc, "second edge on the same node pair"))
        for endpoint in (a, b):
            if endpoint not in names:
                out.append(Violation("Structural", loc, f"endpoint {endpoint} is not a declared node"))
        if not interval_ok:
            out.append(Violation("Structural", loc, f"susceptance interval [{rat_str(s_min)}, {rat_str(s_max)}] is not within the positive reals"))
        if e.cap.numerator <= 0:
            out.append(Violation("Structural", loc, f"capacity {rat_str(e.cap)} is not positive"))
    return ValidationReport(tuple(out))


def require_valid(n: Network) -> None:
    """Raise `InvalidNetwork`, carrying the `validate_network` report, unless n is valid.

    The report is made once per network and kept with it.
    """
    report = n._report
    if not report.ok:
        raise InvalidNetwork(report)


# the cached properties that depend on the nodes alone
_NODE_CACHES = ("roles", "node_names", "generators", "loads")


def subnetwork(n: Network, switched: Iterable[Edge]) -> Network:
    """The network with the switched edges removed; nodes and roles unchanged.

    It equals `Network(n.nodes, kept)` but keeps n's sorted order and
    starts from what n knows of its nodes (`roles`, `node_names`,
    `generators`, `loads`).  Removing edges adds no FACTS edge and no
    defect, so a sub-network of a fixed network knows it is fixed, and
    one of a network that passed `require_valid` is not validated again.
    """
    removed = frozenset(switched)
    kept = tuple([e for e in n.edges if e not in removed])  # a list first: a tuple grown from a generator raised peak RSS
    report = n.__dict__.get("_report")
    valid = report is not None and report.ok
    # a valid network holds no edge twice, so then the count shows that every removed edge was found
    if not valid or len(kept) + len(removed) != len(n.edges):
        have = set(n.edges)
        for e in removed:
            if e not in have:
                raise UnknownEdge(f"{e} is not an edge of the network")
    sub = object.__new__(Network)
    cache = vars(sub)
    cache.update(nodes=n.nodes, edges=kept)
    cache.update((name, getattr(n, name)) for name in _NODE_CACHES)
    if not n.facts_edges:
        cache["facts_edges"] = ()
    if valid:
        cache["_report"] = report
    return sub


def network_sum(n1: Network, n2: Network) -> Network:
    """Componentwise union of two networks sharing no edge pair.

    Shared node names merge into a single node; a plain node may be
    promoted by the other operand's generator or load role, but a node
    that would be both generator and load is an error.
    """
    pairs1 = {e.pair for e in n1.edges}
    for e in n2.edges:
        if e.pair in pairs1:
            raise EdgeOverlap(f"both networks carry an edge on {e.a}--{e.b}")
    roles: dict[NodeId, NodeRole] = dict(n1.nodes)
    for name, role in n2.nodes:
        old = roles.get(name)
        if old is None or old is NodeRole.PLAIN:
            roles[name] = role
        elif role is not NodeRole.PLAIN and role is not old:
            raise RoleConflict(f"node {name} would be both generator and load")
    return Network(roles.items(), n1.edges + n2.edges)


def total_generation(sol: Solution) -> Rational:
    """Sum of generation over all nodes (the objective of every problem here)."""
    return sum(sol.gen.values(), ZERO)


def validate_solution(n: Network, sol: Solution) -> ValidationReport:
    """Check a claimed solution with exact arithmetic.

    Verifies, in order: map domains, conservation at every node, the
    power law and both bound families on every edge, and the role/sign
    constraints on generation and load.
    """
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
    for e in n.edges:
        for endpoint in (e.a, e.b):
            if endpoint not in nodes:
                out.append(Violation("Structural", f"{e.a}--{e.b}", f"endpoint {endpoint} is not a declared node"))
    if out:
        return ValidationReport(tuple(out))

    net = dict.fromkeys(n.node_names, ZERO)  # outflow - inflow
    for e in n.edges:
        net[e.a] += sol.flow[e]
        net[e.b] -= sol.flow[e]
    for v, x in net.items():
        if x != sol.gen[v] - sol.load[v]:
            out.append(Violation("Kirchhoff", v, f"outflow - inflow = {rat_str(x)} but gen - load = {rat_str(sol.gen[v] - sol.load[v])}"))

    for e in n.edges:
        loc = f"{e.a}--{e.b}"
        s = sol.susceptance[e]
        expected = s * (sol.angle[e.b] - sol.angle[e.a])
        if sol.flow[e] != expected:
            out.append(Violation("PowerLaw", loc, f"flow {rat_str(sol.flow[e])} != susceptance * angle difference {rat_str(expected)}"))
        if not (e.s_min <= s <= e.s_max):
            out.append(Violation("SusceptanceBound", loc, f"susceptance {rat_str(s)} outside [{rat_str(e.s_min)}, {rat_str(e.s_max)}]"))
        if abs(sol.flow[e]) > e.cap:
            out.append(Violation("CapacityBound", loc, f"|flow| = {rat_str(abs(sol.flow[e]))} exceeds capacity {rat_str(e.cap)}"))

    for v in n.node_names:
        role = n.role(v)
        if sol.gen[v] < 0:
            out.append(Violation("RoleBound", v, "negative generation"))
        if sol.load[v] < 0:
            out.append(Violation("RoleBound", v, "negative load"))
        if role is not NodeRole.GENERATOR and sol.gen[v] != 0:
            out.append(Violation("RoleBound", v, "generation at a non-generator"))
        if role is not NodeRole.LOAD and sol.load[v] != 0:
            out.append(Violation("RoleBound", v, "load at a non-load"))

    return ValidationReport(tuple(out))

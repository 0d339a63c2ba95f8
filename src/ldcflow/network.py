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
structural defects (duplicate pairs, self-loops, empty intervals, roles
that are not a `NodeRole`, ...) instead of the constructors raising, so
that candidate inputs can be checked wholesale.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import attrgetter, itemgetter
from typing import Iterable, Mapping

from .errors import EdgeOverlap, InvalidNetwork, RoleConflict, UnknownEdge
from .rational import Rational, ZERO, rat, rat_str

NodeId = str


class NodeRole(enum.Enum):
    GENERATOR = "generator"
    LOAD = "load"
    PLAIN = "plain"


# each role's place in the order of the role names, which ranks two declarations of one node
_ROLE_RANK = {role: rank for rank, role in enumerate(sorted(NodeRole, key=lambda r: r.value))}


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


# the fields in declaration order: sorting by this key gives the order of the generated `Edge.__lt__`
edge_key = attrgetter("a", "b", "s_min", "s_max", "cap")
_node_name = itemgetter(0)


def _node_key(node: tuple[NodeId, NodeRole]) -> tuple[NodeId, int]:
    # a role that is not a NodeRole sorts after the roles; `validate_network` reports it
    return node[0], _ROLE_RANK[node[1]] if type(node[1]) is NodeRole else len(_ROLE_RANK)


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

    `nodes` is stored as a tuple of (name, role) pairs sorted by name and
    then role name, and `edges` as a tuple sorted by `edge_key`, so equal
    networks compare and hash equal and all iteration orders are
    deterministic.
    """

    nodes: tuple[tuple[NodeId, NodeRole], ...]
    edges: tuple[Edge, ...]

    def __init__(self, nodes: Iterable[tuple[NodeId, NodeRole]], edges: Iterable[Edge] = ()):
        nodes = sorted(nodes, key=_node_name)
        if len(set(map(_node_name, nodes))) < len(nodes):  # a name declared twice: its declarations by role
            nodes.sort(key=_node_key)
        object.__setattr__(self, "nodes", tuple(nodes))
        object.__setattr__(self, "edges", tuple(sorted(edges, key=edge_key)))

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
    for name, role in n.nodes:
        if not name:
            out.append(Violation("Structural", repr(name), "empty node name"))
        if name in names:
            out.append(Violation("Structural", name, "node declared more than once"))
        if type(role) is not NodeRole:
            out.append(Violation("Structural", name, f"role {role!r} is not a NodeRole"))
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


def network_sum(first: Network, *rest: Network) -> Network:
    """Componentwise union of networks of which no two share an edge pair.

    Shared node names merge into a single node; a plain node may be
    promoted by a later operand's generator or load role, but a node
    that would be both generator and load is an error.  The operands are
    taken in turn, so `network_sum(a, b, c)` equals
    `network_sum(network_sum(a, b), c)` and raises the same error for the
    same operand, but sorts the edges of all of them once.
    """
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
    `int`s.  Flows, generations and loads are compared as multiples of
    one common denominator and angles as multiples of another, so every
    check is integer arithmetic; a `Fraction` is built only to word a
    violation.
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

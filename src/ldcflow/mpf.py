"""Maximum potential flow of a fixed-susceptance network.

The problem is a pure LP: choose phase angles, generations and loads
maximizing total generation subject to conservation at every node, the
power law on every edge (substituted into the conservation rows), and the
edge capacities.  One node per connected component is pinned to angle
zero, which removes the translation degeneracy without losing solutions.

A component without both a generator and a load is solved in closed
form: its only feasible point is zero (susceptances are positive and a
pinned angle fixes the rest), so `solve_mpf` formulates only the
components that carry flow and needs no LP when none does.  The program
is block-diagonal across components and the simplex's every choice stays
within one block, so the vertex returned is the one the whole program
would give.  The solution is built from it on first read.

Trees never need the LP: absent cycles the angles carry no constraints of
their own, so any classical max flow can be replayed exactly by
reconstructing angles edge by edge.
"""

from __future__ import annotations

from functools import partial

from .classify import connected_components, is_tree
from .errors import NotATree, NotFixedSusceptance
from .lp import DeferredRecord, LinearProgram, LpStatus, solve_lp
from .maxflow import _classical_flow_detail
from .network import Network, NodeId, NodeRole, Solution, require_valid, zero_solution
from .rational import ONE, Rational, ZERO

_MINUS_ONE = -ONE


class MpfOutcome(DeferredRecord):
    """MPF value and an optimal solution; `solve_mpf` builds the solution on first read."""

    __slots__ = ("value",)
    FIELDS = ("value", "solution")

    def __init__(self, value: Rational, solution: Solution):
        self._set(value=value, _last=solution, _build=None)

    solution = property(DeferredRecord.last)


def _th(v: NodeId) -> str:
    return f"th[{v}]"


def _gen(v: NodeId) -> str:
    return f"gen[{v}]"


def _load(v: NodeId) -> str:
    return f"load[{v}]"


def _require_fixed(n: Network) -> None:
    if not n.is_fixed():
        bad = n.facts_edges[0]
        raise NotFixedSusceptance(f"edge {bad} has an adjustable susceptance")


def pinned_nodes(n: Network) -> set[NodeId]:
    """Smallest node name of each connected component (angle anchors)."""
    return {min(comp) for comp in connected_components(n)}


def formulate_mpf(n: Network) -> LinearProgram:
    """The MPF linear program: free angles, nonnegative gen/load variables."""
    _require_fixed(n)
    pins = pinned_nodes(n)
    th = {v: _th(v) for v in n.node_names}
    p = LinearProgram()
    for v in n.node_names:
        if v in pins:
            p.add_variable(th[v], lower=ZERO, upper=ZERO)
        else:
            p.add_variable(th[v])
    for g in n.generators:
        p.add_variable(_gen(g), lower=ZERO)
    for l in n.loads:
        p.add_variable(_load(l), lower=ZERO)

    for v in n.node_names:
        # net outflow picks up s*(th_other - th_v) for either orientation
        coeffs: dict[str, Rational] = {}
        diagonal = []
        for e in n.incident[v]:
            other = e.b if e.a == v else e.a
            if other == v:
                continue  # a self-loop's two terms cancel
            name = th[other]
            coeffs[name] = coeffs[name] + e.s_min if name in coeffs else e.s_min
            diagonal.append(e.s_min)
        coeffs = {name: c for name, c in coeffs.items() if c}
        total = sum(diagonal, ZERO)
        if total:
            coeffs[th[v]] = -total
        if n.role(v) is NodeRole.GENERATOR:
            coeffs[_gen(v)] = _MINUS_ONE
        if n.role(v) is NodeRole.LOAD:
            coeffs[_load(v)] = ONE
        p.add_constraint(coeffs, "=", ZERO)

    for e in n.edges:
        flow = {th[e.b]: e.s_min, th[e.a]: -e.s_min}
        p.add_constraint(flow, "<=", e.cap)
        p.add_constraint(flow, ">=", -e.cap)

    p.set_objective({_gen(g): ONE for g in n.generators})
    return p


def _solution_from_assignment(n: Network, assignment: dict[str, Rational]) -> Solution:
    """The solution an MPF vertex stands for; nodes it does not name stay at zero."""
    angle = {v: assignment.get(_th(v), ZERO) for v in n.node_names}
    return Solution(
        susceptance={e: e.s_min for e in n.edges},
        angle=angle,
        flow={e: e.s_min * (angle[e.b] - angle[e.a]) for e in n.edges},
        gen={v: assignment.get(_gen(v), ZERO) for v in n.node_names},
        load={v: assignment.get(_load(v), ZERO) for v in n.node_names},
    )


def solve_mpf(n: Network) -> MpfOutcome:
    """Exact MPF value and an optimal solution (never infeasible: zero flow works).

    A component without both a generator and a load carries no flow, so
    only the others go to the LP; the solution is built on first read.
    An invalid network raises `InvalidNetwork`.
    """
    require_valid(n)
    _require_fixed(n)
    comps = connected_components(n)
    gens, loads = set(n.generators), set(n.loads)
    flowing = [c for c in comps if not (c.isdisjoint(gens) or c.isdisjoint(loads))]
    if not flowing:
        return MpfOutcome.deferred(ZERO, build=partial(zero_solution, n))
    sub = n
    if len(flowing) < len(comps):
        keep = set().union(*flowing)
        sub = Network([(v, r) for v, r in n.nodes if v in keep], [e for e in n.edges if e.a in keep])
    result = solve_lp(formulate_mpf(sub))
    if result.status is not LpStatus.OPTIMAL:  # pragma: no cover - MPF is always bounded
        raise AssertionError(f"MPF solve ended {result.status}")
    return MpfOutcome.deferred(result.value, build=lambda: _solution_from_assignment(n, result.assignment))


def solve_tree(n: Network) -> MpfOutcome:
    """MPF of a tree without the LP: replay a classical max flow with angles."""
    require_valid(n)
    if not is_tree(n):
        raise NotATree("network is not a tree")
    _require_fixed(n)
    value, flows = _classical_flow_detail(n)

    adj: dict[NodeId, list] = {v: [] for v in n.node_names}
    for e in n.edges:
        adj[e.a].append(e)
        adj[e.b].append(e)
    angle: dict[NodeId, Rational] = {}
    for comp in connected_components(n):
        root = min(comp)
        angle[root] = ZERO
        stack = [root]
        while stack:
            u = stack.pop()
            for e in adj[u]:
                other = e.b if e.a == u else e.a
                if other in angle:
                    continue
                # power law: flow = s * (angle(b) - angle(a))
                if e.a == u:
                    angle[other] = angle[u] + flows[e] / e.s_min
                else:
                    angle[other] = angle[u] - flows[e] / e.s_min
                stack.append(other)

    net_out: dict[NodeId, Rational] = {v: ZERO for v in n.node_names}
    for e in n.edges:
        net_out[e.a] += flows[e]
        net_out[e.b] -= flows[e]
    sol = Solution(
        susceptance={e: e.s_min for e in n.edges},
        angle=angle,
        flow=dict(flows),
        gen={v: net_out[v] if n.role(v) is NodeRole.GENERATOR else ZERO for v in n.node_names},
        load={v: -net_out[v] if n.role(v) is NodeRole.LOAD else ZERO for v in n.node_names},
    )
    return MpfOutcome(value, sol)

"""Maximum switching flow: optimize MPF over all sub-networks.

Removing edges can increase the maximum deliverable power because an edge
on a cycle couples phase angles (the Braess effect), so every subset of
edges is a candidate.  Two searches are provided: a plain exhaustive scan
bounded to small edge counts, and a depth-first branch-and-bound that
prunes with the classical max-flow upper bound (valid because ignoring
the power law only relaxes the problem, and removing more edges never
raises the classical value).

Both return identical outcomes: among all optimal switch sets, the one
whose canonically-ordered edge tuple is lexicographically smallest.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .errors import TooLarge
from .lp import LinearProgram, VarId, write_lp_text
from .maxflow import classical_max_flow
from .mpf import MpfOutcome, _gen, _load, _require_fixed, _th, pinned_nodes, solve_mpf
from .network import Edge, Network, NodeRole, Solution, SwitchSet, require_valid, subnetwork
from .parallel import optima, ordered_map
from .rational import ONE, Rational, ZERO, rat_str

EXHAUSTIVE_EDGE_LIMIT = 20


@dataclass(frozen=True)
class MsfOutcome:
    value: Rational
    switched: SwitchSet
    solution: Solution


def switch_key(edges) -> tuple[Edge, ...]:
    """Canonical tie-break key: the sorted edge tuple, compared lexicographically."""
    return tuple(sorted(edges))


def _better(value, key, best_value, best_key) -> bool:
    if best_value is None or value > best_value:
        return True
    return value == best_value and key < best_key


def _removed(n: Network, mask: int) -> tuple[Edge, ...]:
    return tuple(e for i, e in enumerate(n.edges) if mask >> i & 1)


def _mask_value(n: Network, mask: int) -> Rational:
    return solve_mpf(subnetwork(n, _removed(n, mask))).value


def _optimal_sets(n: Network, limit: int) -> list[tuple[Edge, ...]]:
    """All optimal switch sets, as switch keys in canonical order.

    Large scans fan out over a process pool (capped by LDC_THREADS); the
    reduction runs in mask order, so the outcome never depends on the
    worker count.
    """
    require_valid(n)
    _require_fixed(n)
    if len(n.edges) > limit:
        raise TooLarge(f"{len(n.edges)} edges exceed the exhaustive limit of {limit}")
    masks = range(1 << len(n.edges))
    return sorted(switch_key(_removed(n, mask)) for mask in optima(masks, ordered_map(partial(_mask_value, n), masks)))


def solve_msf_exhaustive(n: Network, *, limit: int = EXHAUSTIVE_EDGE_LIMIT) -> MsfOutcome:
    """Scan all 2^|E| switch sets; exact but only sensible at desk scale."""
    removed = _optimal_sets(n, limit)[0]
    out = solve_mpf(subnetwork(n, removed))
    return MsfOutcome(out.value, frozenset(removed), out.solution)


def optimal_switch_sets(n: Network, *, limit: int = EXHAUSTIVE_EDGE_LIMIT) -> list[tuple[SwitchSet, MpfOutcome]]:
    """All switch sets attaining the MSF value, in canonical order."""
    return [(frozenset(removed), solve_mpf(subnetwork(n, removed))) for removed in _optimal_sets(n, limit)]


def _solve_msf_bnb(n: Network, threshold: Rational | None) -> MsfOutcome:
    """Depth-first subset search over edges in canonical order.

    Each recursion level owns a fixed removed-set and scans extensions by
    ever-larger edges, so the lexicographically smallest completion of a
    branch is its own removed-set; that makes the exhaustive tie-break
    reproducible under pruning.  With `threshold` set, the search stops as
    soon as the incumbent proves the decision and prunes anything that
    cannot reach the threshold.
    """
    _require_fixed(n)
    edges = list(n.edges)
    state = {"value": None, "key": None, "removed": None, "solution": None}

    def record(removed: tuple[Edge, ...], out: MpfOutcome) -> None:
        key = switch_key(removed)
        if _better(out.value, key, state["value"], state["key"]):
            state.update(value=out.value, key=key, removed=removed, solution=out.solution)

    def done() -> bool:
        return threshold is not None and state["value"] is not None and state["value"] >= threshold

    def explore(start: int, removed: tuple[Edge, ...], candidate: MpfOutcome) -> None:
        record(removed, candidate)
        if done():
            return
        for i in range(start, len(edges)):
            child = removed + (edges[i],)
            sub = subnetwork(n, child)
            bound = classical_max_flow(sub)
            if threshold is not None and bound < threshold:
                continue
            if state["value"] is not None:
                if bound < state["value"]:
                    continue
                if bound == state["value"] and not switch_key(child) < state["key"]:
                    continue
            explore(i + 1, child, solve_mpf(sub))
            if done():
                return

    explore(0, (), solve_mpf(n))
    return MsfOutcome(state["value"], frozenset(state["removed"]), state["solution"])


def solve_msf_bnb(n: Network) -> MsfOutcome:
    """Branch-and-bound MSF; same outcome as the exhaustive search."""
    require_valid(n)
    return _solve_msf_bnb(n, None)


def decide_msf(n: Network, x: Rational) -> bool:
    """Is the maximum switching flow at least x?  Exact in both directions."""
    require_valid(n)
    if x <= 0:
        return True  # the zero solution is always available
    return _solve_msf_bnb(n, x).value >= x


# ---------------------------------------------------------------------------
# Mixed-integer formulation (big-M) for external solvers.
# ---------------------------------------------------------------------------


def _flow_var(e: Edge) -> str:
    return f"f[{e.a}|{e.b}]"


def _z_var(e: Edge) -> str:
    return f"z[{e.a}|{e.b}]"


def angle_spread_bound(n: Network) -> Rational:
    """Sum of cap/s over edges: caps the angle spread of translated optima."""
    return sum((e.cap / e.s_min for e in n.edges), ZERO)


def build_switching_milp(n: Network) -> tuple[LinearProgram, list[VarId]]:
    """The switching problem as a big-M MILP; returns (program, binary vars).

    Per edge a binary z decides whether the edge is kept.  |f| <= cap*z
    disables flow on removed edges, and |f - s*(th_b - th_a)| <= M*(1-z)
    enforces the power law only on kept edges.  M = s * Theta with Theta
    the sum of cap/s over all edges: within any kept component the angle
    spread along a path is at most Theta, and disconnected components can
    always be translated to overlap, so some optimal solution survives
    every cut the M introduces.
    """
    _require_fixed(n)
    p = LinearProgram()
    pins = pinned_nodes(n)
    theta = angle_spread_bound(n)
    for v in n.node_names:
        if v in pins:
            p.add_variable(_th(v), lower=ZERO, upper=ZERO)
        else:
            p.add_variable(_th(v))
    for e in n.edges:
        p.add_variable(_flow_var(e))
    for g in n.generators:
        p.add_variable(_gen(g), lower=ZERO)
    for l in n.loads:
        p.add_variable(_load(l), lower=ZERO)
    binaries = [p.add_variable(_z_var(e), lower=ZERO, upper=ONE) for e in n.edges]

    for v in n.node_names:
        coeffs: dict[str, Rational] = {}
        for e in n.incident[v]:
            coeffs[_flow_var(e)] = ONE if e.a == v else -ONE
        if n.role(v) is NodeRole.GENERATOR:
            coeffs[_gen(v)] = -ONE
        if n.role(v) is NodeRole.LOAD:
            coeffs[_load(v)] = ONE
        p.add_constraint(coeffs, "=", ZERO)

    for e in n.edges:
        f, z = _flow_var(e), _z_var(e)
        m = e.s_min * theta
        p.add_constraint({f: ONE, z: -e.cap}, "<=", ZERO)
        p.add_constraint({f: -ONE, z: -e.cap}, "<=", ZERO)
        p.add_constraint({f: ONE, _th(e.b): -e.s_min, _th(e.a): e.s_min, z: m}, "<=", m)
        p.add_constraint({f: -ONE, _th(e.b): e.s_min, _th(e.a): -e.s_min, z: m}, "<=", m)

    p.set_objective({_gen(g): ONE for g in n.generators})
    return p, binaries


def export_milp(n: Network) -> str:
    """Textual big-M MILP for the switching problem (LP file format)."""
    p, binaries = build_switching_milp(n)
    theta = angle_spread_bound(n)
    comments = [
        "Switching reconfiguration as a big-M MILP.",
        "Binary z[a|b] = 1 keeps edge a--b, 0 removes it.",
        "Per edge: |f| <= cap * z  and  |f - s*(th_b - th_a)| <= M * (1 - z),",
        f"with M = s * Theta and Theta = sum over edges of cap/s = {rat_str(theta)}.",
        "Theta bounds the attainable angle spread after translating each",
        "connected component, so the M never cuts off an optimal solution.",
        "Objective: total generation.",
    ]
    return write_lp_text(p, binaries=binaries, comments=comments)

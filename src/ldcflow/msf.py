"""Maximum switching flow: optimize MPF over all sub-networks.

Removing edges can increase the maximum deliverable power because an edge
on a cycle couples phase angles (the Braess effect), so every subset of
edges is a candidate.  Two searches are provided: a plain exhaustive scan
bounded to small edge counts, and a depth-first branch-and-bound that
prunes with the classical max-flow upper bound (valid because ignoring
the power law only relaxes the problem, and removing more edges never
raises the classical value).

Many switch sets leave the same edges able to carry flow: a plain leaf's
edge carries nothing, and neither does a component without both a
generator and a load.  `flow_cores` maps a switch set to the edges that
remain, and the MPF value depends on them alone, so each search solves
every such core once.  The scan solves only the distinct non-empty cores
(an empty one is worth zero) and re-solves its winners on their own
sub-networks; branch-and-bound skips the solve of a node whose core it
has solved before, and such a node never becomes the incumbent.

Both return identical outcomes: among all optimal switch sets, the one
whose canonically-ordered edge tuple is lexicographically smallest.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import partial
from typing import Iterable

from .errors import TooLarge
from .lp import LinearProgram, VarId, write_lp_text
from .maxflow import classical_max_flow
from .mpf import MpfOutcome, _gen, _load, _require_fixed, _th, flow_cores, pinned_nodes, solve_mpf
from .network import Edge, Network, NodeRole, Solution, SwitchSet, require_valid, subnetwork
from .rational import ONE, Rational, ZERO, rat_str

EXHAUSTIVE_EDGE_LIMIT = 20

ordered_map = map  # the scans' one map; perfbench hooks this name to trace their solves


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


def optima(tasks: Iterable, values: Iterable) -> list:
    """Every task whose value is the largest, in task order.

    `tasks` is zipped first, so a lazy `values` (an `ordered_map` result)
    is never asked for a value past the last task.
    """
    best, winners = None, []
    for task, value in zip(tasks, values):
        if not winners or value > best:
            best, winners = value, [task]
        elif value == best:
            winners.append(task)
    return winners


def _removed(n: Network, mask: int) -> tuple[Edge, ...]:
    return tuple(e for i, e in enumerate(n.edges) if mask >> i & 1)


def _core_value(n: Network, core: int) -> Rational:
    return solve_mpf(subnetwork(n, _removed(n, ~core))).value


def _optimal_sets(n: Network) -> list[tuple[Edge, ...]]:
    """All optimal switch sets, as switch keys in canonical order.

    Each mask's flow core is found first and only the distinct non-empty
    cores are solved.  The reduction runs in mask order, so ties go to
    the first mask.
    """
    require_valid(n)
    _require_fixed(n)
    if len(n.edges) > EXHAUSTIVE_EDGE_LIMIT:
        raise TooLarge(f"{len(n.edges)} edges exceed the exhaustive limit of {EXHAUSTIVE_EDGE_LIMIT}")
    masks = range(1 << len(n.edges))
    cores = array("L", map(flow_cores(n), masks))
    solved = [core for core in dict.fromkeys(cores) if core]
    values = dict(zip(solved, ordered_map(partial(_core_value, n), solved)))
    winners = optima(masks, (values.get(core, ZERO) for core in cores))
    return sorted(switch_key(_removed(n, mask)) for mask in winners)


def solve_msf_exhaustive(n: Network) -> MsfOutcome:
    """Scan all 2^|E| switch sets; exact but only sensible at desk scale."""
    removed = _optimal_sets(n)[0]
    out = solve_mpf(subnetwork(n, removed))
    return MsfOutcome(out.value, frozenset(removed), out.solution)


def optimal_switch_sets(n: Network) -> list[tuple[SwitchSet, MpfOutcome]]:
    """All switch sets attaining the MSF value, in canonical order."""
    return [(frozenset(removed), solve_mpf(subnetwork(n, removed))) for removed in _optimal_sets(n)]


def _solve_msf_bnb(n: Network, threshold: Rational | None) -> MsfOutcome:
    """Depth-first subset search over edges in canonical order.

    Each recursion level owns a fixed removed-set and scans extensions by
    ever-larger edges, so the lexicographically smallest completion of a
    branch is its own removed-set; that makes the exhaustive tie-break
    reproducible under pruning.  With `threshold` set, the search stops as
    soon as the incumbent proves the decision and prunes anything that
    cannot reach the threshold.

    A node carries its flow core (`flow_cores`), and the MPF value is the
    core's.  A child whose new edge lies outside its parent's core has the
    parent's core; a child whose core was solved before is not solved
    again.  Neither is recorded: its value was first reached at a
    removed-set the search recorded earlier, so it cannot beat the
    incumbent, whose solution therefore comes from its own solve.
    """
    _require_fixed(n)
    edges = list(n.edges)
    core_of = flow_cores(n)
    solved: set[int] = set()
    state = {"value": None, "key": None, "removed": None, "outcome": None}

    def record(removed: tuple[Edge, ...], out: MpfOutcome) -> None:
        key = switch_key(removed)
        if _better(out.value, key, state["value"], state["key"]):
            state.update(value=out.value, key=key, removed=removed, outcome=out)

    def done() -> bool:
        return threshold is not None and state["value"] is not None and state["value"] >= threshold

    def explore(start: int, removed: tuple[Edge, ...], mask: int, core: int) -> None:
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
            child_mask, child_core = mask | 1 << i, core
            if core >> i & 1:
                child_core = core_of(child_mask)
                if child_core not in solved:
                    solved.add(child_core)
                    record(child, solve_mpf(sub))
            explore(i + 1, child, child_mask, child_core)
            if done():
                return

    root_core = core_of(0)
    solved.add(root_core)
    record((), solve_mpf(n))
    explore(0, (), 0, root_core)
    # the incumbent's solution is the only one the search reads
    return MsfOutcome(state["value"], frozenset(state["removed"]), state["outcome"].solution)


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

"""Maximum switching flow: optimize MPF over all sub-networks.

Removing edges can increase the maximum deliverable power because an edge
on a cycle couples phase angles (the Braess effect), so every subset of
edges is a candidate.  Two searches are provided: a plain exhaustive scan
bounded to small edge counts, and a branch-and-bound that visits switch
sets one size at a time and prunes with the classical max-flow upper
bound (valid because ignoring the power law only relaxes the problem, and
removing more edges never raises the classical value).

Many switch sets leave the same edges able to carry flow: a plain leaf's
edge carries nothing, and neither does a component without both a
generator and a load.  `flow_cores` maps a switch set to the edges that
remain, and the MPF value and the classical max flow depend on them
alone (an edge outside the core carries no generator-to-load flow), so
each search solves every such core once.  The scan solves only the
distinct non-empty cores (an empty one is worth zero), each on its own
sub-network, reads their values alone, and re-solves only the winners it
returns on their own sub-networks for their solutions.  Branch-and-bound
bounds each core once, when it first meets it, and solves it then unless
the bound prunes it; a node whose core it has met before is neither
bounded nor solved again, and never becomes the incumbent.  It solves
full sub-networks, since its incumbent's solution comes from its own
solve.  A first-met core is settled in the first of three ways that
applies: it inherits its parent's bound when the parent's max flow leaves
the removed edge empty; a min cut of a max flow run on its path, less the
removed edges that cross it, prunes it; or else a max flow on its own
sub-network bounds it.  A cut's capacity is never
below the exact bound, so every prune is one the exact bound makes, and
the solves, the incumbents and the stops are the same as with a max flow
on every core.  It visits switch sets in tie-break order, so a bound
that only ties the incumbent prunes, and a node stops scanning its
children once its own bound does.  It never creates a child that removes
an edge outside its parent's core or a bridge of the core's edges: such
a set is dominated by the smaller set without that edge, since removing
a bridge never raises MPF.

Both return identical outcomes: among all optimal switch sets, the one of
smallest `switch_key`, fewest edges first and then the lexicographically
smallest canonically-ordered edge tuple.  So the returned set is
inclusion-minimal: putting back any one of its edges loses value.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable

from .errors import TooLarge
from .lp import Lazy, LinearProgram, VarId, write_lp_text
from .maxflow import classical_max_flow
from .mpf import MpfOutcome, _gen, _load, _require_fixed, core_maps, flow_cores, pinned_nodes, solve_mpf
from .network import Edge, Network, NodeId, NodeRole, Solution, SwitchSet, require_valid, subnetwork, zero_solution
from .rational import ONE, Rational, ZERO, rat_str

EXHAUSTIVE_EDGE_LIMIT = 20

ordered_map = map  # the scans' one map; perfbench hooks this name to trace their solves


@dataclass(frozen=True)
class MsfOutcome:
    value: Rational
    switched: SwitchSet
    solution: Solution


def switch_key(edges) -> tuple[int, tuple[Edge, ...]]:
    """Canonical tie-break key: fewest removed edges first, then the sorted edge tuple, compared lexicographically."""
    edges = tuple(sorted(edges))
    return len(edges), edges


def optima(items: Iterable, key: Callable) -> list:
    """Every item whose `key` is the largest, in item order.

    Only the current winners are kept, so a lazy `items` (tasks zipped
    with an `ordered_map` result) holds no more results than there are ties.
    """
    best, winners = None, []
    for item in items:
        value = key(item)
        if not winners or value > best:
            best, winners = value, [item]
        elif value == best:
            winners.append(item)
    return winners


def _removed(n: Network, mask: int) -> tuple[Edge, ...]:
    return tuple(e for i, e in enumerate(n.edges) if mask >> i & 1)


def _core_value(n: Network, core: int) -> Rational:
    """The MPF value of a flow core: its sub-network's, whose solution is never built."""
    return solve_mpf(subnetwork(n, _removed(n, ~core))).value


def _optimal_sets(n: Network) -> list[int]:
    """All optimal switch sets, as removed-edge masks in ascending order.

    Each mask's flow core is found first and only the distinct non-empty
    cores are valued (`_core_value`).
    """
    require_valid(n)
    _require_fixed(n)
    if len(n.edges) > EXHAUSTIVE_EDGE_LIMIT:
        raise TooLarge(f"{len(n.edges)} edges exceed the exhaustive limit of {EXHAUSTIVE_EDGE_LIMIT}")
    masks = range(1 << len(n.edges))
    cores = array("L", map(flow_cores(n), masks))
    solved = [core for core in dict.fromkeys(cores) if core]
    values = dict(zip(solved, ordered_map(partial(_core_value, n), solved)))
    return optima(masks, key=lambda mask: values.get(cores[mask], ZERO))


def solve_msf_exhaustive(n: Network) -> MsfOutcome:
    """Scan all 2^|E| switch sets; exact but only sensible at desk scale."""
    _, removed = min(switch_key(_removed(n, mask)) for mask in _optimal_sets(n))
    out = solve_mpf(subnetwork(n, removed))
    return MsfOutcome(out.value, frozenset(removed), out.solution)


def optimal_switch_sets(n: Network) -> list[tuple[SwitchSet, MpfOutcome]]:
    """All switch sets attaining the MSF value, in canonical order."""
    keys = sorted(switch_key(_removed(n, mask)) for mask in _optimal_sets(n))
    return [(frozenset(removed), solve_mpf(subnetwork(n, removed))) for _, removed in keys]


def _solve_msf_bnb(n: Network, threshold: Rational | None) -> tuple[MpfOutcome, tuple[Edge, ...]]:
    """Branch-and-bound over switch sets one size at a time: the incumbent's MPF outcome and removed-set.

    Each level holds the nodes of one size that may still have children.
    A node's children add one edge past its last, in increasing index, and
    the levels keep their parents' order, so switch sets are visited in
    switch-key order (`n.edges` is sorted).  With `threshold` set, the
    search stops as soon as the incumbent proves the decision and prunes
    anything that cannot reach the threshold; when the root's classical
    bound is below the threshold, no LP is solved and the zero flow is
    returned.  No solution is built until it is read, so a decision builds
    none.  The root is solved first, and the core and bridge maps are
    built only if its bound leaves room to beat it.

    Every incumbent's key is smaller than that of any set met later, so a
    child whose bound equals the incumbent's value cannot win and is
    pruned.  A child's bound is never above its parent's, so once a node's
    own bound (`limit`) can no longer win, neither can any of its
    remaining children, and the node stops.

    A child is created only when its new edge lies in its parent's flow
    core (`core_maps`) and is not a bridge of the core's edges.  An edge
    outside the core carries nothing, and removing a bridge never raises
    MPF; both stay so as more edges are removed.  So a set whose sorted
    prefix adds such an edge is no better than the set without that edge,
    which has a smaller key, and the winner, the optimal set of smallest
    key, is inclusion-minimal: every prefix of it is created.  A pruned
    child takes no core, sub-network, bound or solve.

    Both the MPF value and the classical bound are the core's.  A core is
    settled once, when it is first met, in the first of three ways that
    applies, and solved right then if its bound does not prune it:

    1. The parent's max flow (`flowing`, a bitmask of the edges it uses)
       carries nothing on the new edge.  Then it is a max flow of the
       child too, and the child inherits the parent's bound and flow.  Its
       min cut is the parent's: every edge crossing that cut is saturated,
       so the new edge crosses none.
    2. A min cut on the node's path prunes it.  Each max flow the search
       runs leaves the minimal min cut of its network (`classical_max_flow`'s
       witness), and its descendants keep it with its capacity in their
       own network (`cuts`): removing an edge that crosses it lowers it
       by that edge's capacity.  Such a side holds every generator and no
       load, so its capacity bounds the child's max flow.  If the least
       one cannot win, it is kept as the core's bound and the child is
       pruned.
    3. Otherwise a max flow on the child's sub-network bounds it, and its
       cut joins the path of the child's descendants.

    Every bound in 1 and 3 is the core's classical max flow, as before.
    A cut bound is at least that, so it prunes only a core the exact
    bound would prune; and since the incumbent only grows, it prunes the
    core again whenever it is met.  So every solve, incumbent and stop is
    the one an exact bound on every core gives.  A core met again is
    neither bounded nor solved again.  Its value was first reached at a
    removed-set the search visited earlier, so it cannot beat the
    incumbent, whose solution therefore comes from its own solve.
    Bounds are kept as integers over the LCM of the capacities'
    denominators, and each is compared with one integer, recomputed when
    the incumbent changes: the largest bound that cannot change the
    answer.  A cut's crossing edges are the XOR of its side's per-node
    incidence masks, and a sub-network's flowing edges go back onto the
    network's bits by putting a zero in at each removed edge.  So every
    comparison is exact, and no check builds a `Fraction`.
    """
    _require_fixed(n)
    edges = n.edges
    root_bound, root_flowing, root_side = classical_max_flow(n, witness=True)
    if threshold is not None and root_bound < threshold:
        # no sub-network reaches the threshold; the zero flow is feasible
        return MpfOutcome(ZERO, Lazy(partial(zero_solution, n))), ()
    best, best_removed = solve_mpf(n), ()
    # bounds are ints over the capacities' scale; one beats the incumbent when it exceeds `need`
    scale = math.lcm(*(e.cap.denominator for e in edges))

    def needed() -> int | None:
        """The largest bound that cannot change the answer, or None when nothing can."""
        if threshold is None:
            return best.value.numerator * scale // best.value.denominator
        if best.value >= threshold:
            return None
        return -(-threshold.numerator * scale // threshold.denominator) - 1

    need = needed()
    root = root_bound.numerator * (scale // root_bound.denominator)
    if need is None or root <= need:
        return best, best_removed
    core_of, bridges_of = core_maps(n)
    caps = [e.cap.numerator * (scale // e.cap.denominator) for e in edges]
    index = {v: i for i, v in enumerate(n.node_names)}
    incident = [0] * len(index)  # per node, the bitmask of its edges
    for j, e in enumerate(edges):
        incident[index[e.a]] |= 1 << j
        incident[index[e.b]] |= 1 << j

    def crossing(side: int) -> int:
        """The edges crossing a node mask: the XOR of its nodes' edges, in which an edge inside it cancels."""
        edges_out = 0
        while side:
            low = side & -side
            edges_out ^= incident[low.bit_length() - 1]
            side ^= low
        return edges_out

    root_core = core_of(0)
    # a core's bound and the edges its max flow uses; None for a cut bound that pruned it
    known: dict[int, tuple[int, int | None]] = {root_core: (root, root_flowing)}
    # (removed-set, its mask, the index its children start at, its core, its bound, its flow's edges, its path's cuts)
    level = [((), 0, 0, root_core, root, root_flowing, ((crossing(root_side), root),))]
    while level:
        children = []
        for removed, mask, start, core, limit, flowing, cuts in level:
            free = core >> start << start
            if free and limit > need:
                free &= ~bridges_of(core)
            while free and limit > need:
                bit = free & -free
                free ^= bit
                i = bit.bit_length() - 1
                child, child_mask = removed + (edges[i],), mask | bit
                child_core = core_of(child_mask)
                seen, sub, own = known.get(child_core), None, ()
                if seen is not None:
                    bound, child_flowing = seen
                elif not flowing & bit:  # 1. the parent's max flow is the child's
                    bound, child_flowing = limit, flowing
                else:
                    least = min(c - caps[i] if edges_out & bit else c for edges_out, c in cuts)
                    if least <= need:  # 2. a cut on the path prunes it
                        known[child_core] = least, None
                        continue
                    # 3. a max flow of its own; `sub` numbers its edges without the removed ones
                    sub = subnetwork(n, child)
                    value, used, side = classical_max_flow(sub, witness=True)
                    bound = value.numerator * (scale // value.denominator)
                    removing = child_mask
                    while removing:  # put each removed edge's bit back in, lowest first
                        low = removing & -removing
                        removing ^= low
                        used = used & (low - 1) | (used & -low) << 1
                    child_flowing, own = used, ((crossing(side), bound),)
                if seen is None:
                    known[child_core] = bound, child_flowing
                if bound > need:
                    if seen is None:
                        out = solve_mpf(sub if sub is not None else subnetwork(n, child))
                        if out.value > best.value:  # a tie never wins: the incumbent's key is smaller
                            best, best_removed = out, child
                            need = needed()
                            if need is None:  # the decision is proven
                                return best, best_removed
                    child_cuts = tuple((edges_out, c - caps[i] if edges_out & bit else c) for edges_out, c in cuts) + own
                    children.append((child, child_mask, i + 1, child_core, bound, child_flowing, child_cuts))
        level = children
    return best, best_removed


def solve_msf_bnb(n: Network) -> MsfOutcome:
    """Branch-and-bound MSF; same outcome as the exhaustive search."""
    require_valid(n)
    best, removed = _solve_msf_bnb(n, None)
    return MsfOutcome(best.value, frozenset(removed), best.solution)


def decide_msf(n: Network, x: Rational) -> bool:
    """Is the maximum switching flow at least x?  Exact in both directions."""
    require_valid(n)
    _require_fixed(n)
    if x <= 0:
        return True  # the zero solution is always available
    return _solve_msf_bnb(n, x)[0].value >= x


# ---------------------------------------------------------------------------
# Mixed-integer formulation (big-M) for external solvers.
# ---------------------------------------------------------------------------


def _th(v: NodeId) -> str:
    return f"th[{v}]"


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
    every cut the M introduces.  An invalid network raises `InvalidNetwork`.
    """
    require_valid(n)
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

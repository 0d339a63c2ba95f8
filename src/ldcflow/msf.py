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
generator and a load.  `core_maps(n)[0]` maps a switch set to the edges
that remain, and the MPF value and the classical max flow depend on them
alone (an edge outside the core carries no generator-to-load flow), so
each search solves every such core at most once.  The scan finds every
mask's core first, from the core of the mask without its lowest removed edge:
when that edge lies outside it, the mask takes that core as it is, since
removing an edge outside a core leaves the core unchanged, and otherwise
the core map runs once per distinct kept-edge set, that core without the
edge.  An empty core is worth zero.  Each distinct non-empty core gets
a cut bound, the capacity of its edges with one end at a generator or,
if less, of those with one end at a load: no flow from the generators to
the loads exceeds either cut.  The scan solves the cores in descending
bound order, each on its own sub-network, and stops at the first whose
bound is below the best value found so far, since neither it nor any
core after it can reach that value.  Per mask it makes one integer
lookup, and per core still in play one solve.  It re-solves only the
winners it returns on their own sub-networks for their solutions.

Branch-and-bound bounds each core when it first meets it, and solves it
then unless the bound prunes it; a node whose core it has met before
takes no max flow and no solve, and never becomes the incumbent.  It
solves full sub-networks, since its incumbent's solution comes from its
own solve.  A first-met core is settled in the first of three ways that
applies: it inherits its parent's bound when the parent's max flow leaves
the removed edge empty; the min cut of any max flow the search has run,
counted on the core's edges alone, prunes it; or else a max flow on its
own sub-network bounds it, and its min cut joins that one pool of cuts.
A sub-network's classical max flow is its core's, and a cut's capacity on
the core is never below it, so every prune is one the exact bound makes,
and the solves, the incumbents and the stops are the same as with a max
flow on every core.  It visits switch sets in tie-break order, so a bound
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

from array import array
from dataclasses import dataclass
from functools import partial
from itertools import takewhile
from typing import Callable, Iterable

from .errors import TooLarge
from .lp import Lazy, LinearProgram, VarId, write_lp_text
from .maxflow import classical_max_flow
from .mpf import MpfOutcome, _gen, _load, _require_fixed, core_maps, pinned_nodes, solve_mpf
from .network import Edge, Network, NodeId, Solution, SwitchSet, _spread, subnetwork, zero_solution
from .rational import ONE, Rational, ZERO, rat, rat_str

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


def _crossing(n: Network, side: int) -> list[tuple[int, int]]:
    """The (bit, capacity) pairs of n's edges with exactly one end in the node mask `side`: bits over `n.edges`, capacities over its view's scale.

    A view edge j that n holds is n's edge number k, where k counts the
    edges n holds below j.
    """
    view, kept = n._view, n._kept
    return [(1 << (kept & (1 << j) - 1).bit_count(), cap) for j, ((a, b), cap) in enumerate(zip(view.ends, view.caps)) if kept >> j & 1 and (side >> a ^ side >> b) & 1]


def _core_value(n: Network, core: int) -> Rational:
    """The MPF value of a flow core: its sub-network's, whose solution is never built."""
    return solve_mpf(subnetwork(n, _removed(n, ~core))).value


def _cores(n: Network) -> array:
    """The flow core of every removed-edge mask, indexed by the mask.

    Removing edges never adds to a core, and removing an edge outside a
    core leaves the core as it is (`core_maps`).  So a mask's core is that
    of its parent, the mask without its lowest removed edge, when that
    edge lies outside the parent's core; otherwise it is the core of the
    parent's core without that edge, since every other kept edge lies
    outside both cores.  Only the distinct such kept-edge sets run the
    core map.
    """
    core_of = core_maps(n)[0]
    cores = array("L", [core_of(0)]) * (1 << len(n.edges))
    of_kept: dict[int, int] = {}  # a kept-edge mask's core
    for mask in range(1, len(cores)):
        low = mask & -mask
        core = cores[mask ^ low]
        if core & low:
            kept = core ^ low
            core = of_kept.get(kept)
            if core is None:
                core = of_kept[kept] = core_of(~kept)
        cores[mask] = core
    return cores


def _optimal_sets(n: Network) -> list[int]:
    """All optimal switch sets, as removed-edge masks in ascending order.

    Each mask's flow core is found first (`_cores`); the empty core is
    worth zero.  Each distinct non-empty core gets an integer cut bound
    over the view's capacity scale (`_crossing`): the smaller of the
    capacity of its edges with exactly one end at a generator and that
    of its edges with exactly one end at a load.  Either edge set
    separates every generator from every load, so the core's max flow,
    and with it its MPF value, is at most the bound.  The cores are valued
    (`_core_value`) in descending bound order, ties in first-seen mask
    order, until the first core whose bound is below the best value so
    far: neither it nor any later core can reach that value, so none of
    them is valued, and the winners, the masks whose core reaches the
    largest value, are those of valuing every core.  The map's results
    are zipped behind the stopping iterator, so it is never asked for a
    skipped core.
    """
    _require_fixed(n)
    if len(n.edges) > EXHAUSTIVE_EDGE_LIMIT:
        raise TooLarge(f"{len(n.edges)} edges exceed the exhaustive limit of {EXHAUSTIVE_EDGE_LIMIT}")
    cores = _cores(n)
    cuts = [_crossing(n, n._view.gens), _crossing(n, n._view.loads)]
    bounds = {core: min(sum(cap for bit, cap in cut if core & bit) for cut in cuts) for core in dict.fromkeys(cores) if core}
    order = sorted(bounds, key=bounds.__getitem__, reverse=True)  # a stable sort: ties stay in first-seen order
    values = {0: ZERO}  # the all-removed mask's core is always empty
    best = ZERO
    in_play = takewhile(lambda core: bounds[core] * best.denominator >= best.numerator * n._view.scale, order)
    for core, value in zip(in_play, ordered_map(partial(_core_value, n), order)):
        values[core] = value
        best = max(best, value)
    winners = {core for core, value in values.items() if value == best}
    return [mask for mask, core in enumerate(cores) if core in winners]


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

    Each level holds the nodes of one size that may still have children,
    each as (removed-edge mask, core, bound, flowing).  A node's children
    add one edge past its last, in increasing index (from
    `mask.bit_length()`), and the levels keep their parents' order, so
    switch sets are visited in switch-key order (`n.edges` is sorted).
    The removed-edge tuple is built only for a sub-network or a new
    incumbent.  With `threshold` set, the
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
       child too, and the child inherits the parent's bound and flow, a
       bound that beats `need` since the parent scans only while its own
       does.
    2. A pooled min cut prunes it.  Each max flow the search runs leaves
       the minimal min cut of its network (`classical_max_flow`'s
       witness), and `pool` keeps every one, keyed by its source side,
       as the (bit, capacity) pairs of the edges crossing it, starting
       with the root's.  Such a side holds every generator and no load,
       so the capacity of the crossing edges inside the child's core
       bounds the core's max flow, which is the child's.  If one of
       these cannot win, the least cannot, and the child is pruned.
    3. Otherwise a max flow on the child's sub-network bounds it, and its
       cut joins the pool.

    Every bound in 1 and 3 is the core's classical max flow, as before,
    and `known` holds only these exact bounds.  A cut bound is at least
    the exact one, so it prunes only a core the exact bound would prune.
    A pruned core needs no entry in `known`: the pool only grows and
    `need` only rises, so the same cut prunes it again whenever it is
    met, and 1 never meets it, since the bound 1 inherits beats `need`.
    So every solve, incumbent and stop is the one an exact bound on every
    core gives.  A core met again takes no max flow and no solve.
    Its value was first reached at a removed-set the search visited
    earlier, so it cannot beat the incumbent, whose solution therefore
    comes from its own solve.  Bounds are kept as integers over the
    capacity scale of n's integer view (`network._View`), and each is
    compared with one integer, recomputed when the incumbent changes:
    the largest bound that cannot change the answer.  A new cut's
    crossing edges come from `_crossing`, which the scan's cut bounds
    also use, and a sub-network's flowing edges go back onto the
    network's bits by putting a zero in at each removed edge
    (`network._spread`).  So every comparison is exact, and no check
    builds a `Fraction`.
    """
    _require_fixed(n)
    root_bound, root_flowing, root_side = classical_max_flow(n, witness=True)
    if threshold is not None and root_bound < threshold:
        # no sub-network reaches the threshold; the zero flow is feasible
        return MpfOutcome(ZERO, Lazy(partial(zero_solution, n))), ()
    best, best_removed = solve_mpf(n), ()
    # bounds are ints over the view's capacity scale; one beats the incumbent when it exceeds `need`
    scale = n._view.scale

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
    # every min cut found, by its source side: a side holds every generator and no load
    pool = {root_side: _crossing(n, root_side)}
    root_core = core_of(0)
    # a core's exact bound and the edges its max flow uses
    known = {root_core: (root, root_flowing)}
    # (removed-edge mask, its core, its bound, its max flow's edges); children start at mask.bit_length()
    level = [(0, root_core, root, root_flowing)]
    while level:
        children = []
        for mask, core, limit, flowing in level:
            free = core >> mask.bit_length() << mask.bit_length()
            if free and limit > need:
                free &= ~bridges_of(core)
            while free and limit > need:
                bit = free & -free
                free ^= bit
                child = mask | bit
                child_core = core_of(child)
                seen = known.get(child_core)
                if seen is None:
                    if flowing & bit and any(sum(c for b, c in cut if b & child_core) <= need for cut in pool.values()):
                        continue  # 2. a pooled cut prunes it
                    removed = _removed(n, child)
                    sub = subnetwork(n, removed)
                    if flowing & bit:  # 3. a max flow of its own; `sub` numbers its edges without the removed ones
                        value, used, side = classical_max_flow(sub, witness=True)
                        if side not in pool:
                            pool[side] = _crossing(n, side)
                        # put each removed edge's bit back in
                        seen = value.numerator * (scale // value.denominator), _spread(used, child)
                    else:  # 1. the parent's max flow is the child's
                        seen = limit, flowing
                    known[child_core] = seen
                    if seen[0] > need:
                        out = solve_mpf(sub)
                        if out.value > best.value:  # a tie never wins: the incumbent's key is smaller
                            best, best_removed = out, removed
                            need = needed()
                            if need is None:  # the decision is proven
                                return best, best_removed
                if seen[0] > need:
                    children.append((child, child_core, *seen))
        level = children
    return best, best_removed


def solve_msf_bnb(n: Network) -> MsfOutcome:
    """Branch-and-bound MSF; same outcome as the exhaustive search."""
    best, removed = _solve_msf_bnb(n, None)
    return MsfOutcome(best.value, frozenset(removed), best.solution)


def decide_msf(n: Network, x: Rational) -> bool:
    """Is the maximum switching flow at least x?  Exact in both directions; x is read by `rat`."""
    _require_fixed(n)
    x = rat(x)
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

    # each node's balance, outflow - inflow - gen + load = 0, its coefficients in one pass over the edges
    balance: dict[NodeId, dict[str, Rational]] = {v: {} for v in n.node_names}
    for e in n.edges:
        balance[e.a][_flow_var(e)], balance[e.b][_flow_var(e)] = ONE, -ONE
    for g in n.generators:
        balance[g][_gen(g)] = -ONE
    for l in n.loads:
        balance[l][_load(l)] = ONE
    for coeffs in balance.values():
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

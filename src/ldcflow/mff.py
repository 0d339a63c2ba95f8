"""Maximum FACTS flow: optimize MPF over susceptance assignments.

With adjustable susceptances the problem is bilinear (susceptance times
angle difference), so no finite search certifies a global optimum in
general.  The searches here evaluate an exact MPF LP per candidate
assignment -- interval endpoints, or a uniform grid that always contains
the endpoints -- and report the best value found.  That is a true lower
bound on the MFF, and it is exact for the gadget family this package
constructs, whose optima provably sit at interval endpoints.  An outcome
is flagged `certified` only in the trivial case of zero FACTS edges,
where MFF and MPF coincide; accordingly the decision operation answers
Yes or Unknown, never No.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from functools import partial

from .errors import TooManyFactsEdges
from .mpf import solve_mpf
from .network import Edge, Network, Solution, fixed_edge, require_valid
from .parallel import ordered_map
from .rational import Rational

FACTS_EDGE_LIMIT = 12
_POOL_MATERIALIZE_CAP = 1 << 16

SusAssignment = dict[Edge, Rational]


@dataclass(frozen=True)
class MffOutcome:
    value: Rational
    assignment: SusAssignment
    solution: Solution
    certified: bool


class MffDecision(enum.Enum):
    YES = "yes"
    UNKNOWN = "unknown"


def pin_susceptances(n: Network, assignment: SusAssignment) -> Network:
    """Fix every FACTS edge to its assigned value, yielding an LDC network."""
    new_edges = []
    for e in n.edges:
        if e in assignment:
            value = assignment[e]
            if not (e.s_min <= value <= e.s_max):
                raise ValueError(f"susceptance {value} outside {e}")
            new_edges.append(fixed_edge(e.a, e.b, value, e.cap))
        else:
            new_edges.append(e)
    return Network(n.nodes, new_edges)


def _relabel(n: Network, sol: Solution) -> Solution:
    """Key a pinned-network solution by the original (interval) edges."""
    by_pair = {e.pair: e for e in n.edges}
    sus = {}
    flow = {}
    for e, s in sol.susceptance.items():
        orig = by_pair[e.pair]
        sus[orig] = s
        flow[orig] = sol.flow[e]
    return Solution(sus, dict(sol.angle), flow, dict(sol.gen), dict(sol.load))


def _combo_value(n: Network, facts: list[Edge], combo: tuple[Rational, ...]) -> Rational:
    return solve_mpf(pin_susceptances(n, dict(zip(facts, combo)))).value


def _search(n: Network, points: list[list[Rational]], facts: list[Edge]) -> MffOutcome:
    """Best MPF over the cartesian product of per-edge susceptance points.

    Combinations are visited in lexicographic order of the assignment
    vector (edges in canonical order, points ascending), and only strict
    improvements replace the incumbent, so ties resolve to the smallest
    vector.  Moderate-sized products may fan out over a process pool; the
    in-order reduction keeps the result identical either way.
    """
    total = math.prod(len(p) for p in points)
    if total <= _POOL_MATERIALIZE_CAP:
        combos = list(itertools.product(*points))
        values = ordered_map(partial(_combo_value, n, facts), combos)
    else:  # too many to hold; stream sequentially
        combos = itertools.product(*points)
        values = (_combo_value(n, facts, c) for c in itertools.product(*points))
    best: tuple[tuple[Rational, ...], Rational] | None = None
    for combo, value in zip(combos, values):
        if best is None or value > best[1]:
            best = (combo, value)
    combo, _value = best
    assignment = dict(zip(facts, combo))
    out = solve_mpf(pin_susceptances(n, assignment))
    return MffOutcome(
        value=out.value,
        assignment=assignment,
        solution=_relabel(n, out.solution),
        certified=not facts,
    )


def _facts(n: Network, limit: int) -> list[Edge]:
    facts = list(n.facts_edges)
    if len(facts) > limit:
        raise TooManyFactsEdges(f"{len(facts)} FACTS edges exceed the search limit of {limit}")
    return facts


def solve_mff_endpoints(n: Network, *, limit: int = FACTS_EDGE_LIMIT) -> MffOutcome:
    """Evaluate every combination of interval endpoints (2^k LPs)."""
    require_valid(n)
    facts = _facts(n, limit)
    return _search(n, [[e.s_min, e.s_max] for e in facts], facts)


def grid_points(e: Edge, k: int) -> list[Rational]:
    """k+1 uniformly spaced susceptances from s_min to s_max inclusive."""
    step = (e.s_max - e.s_min) / k
    pts = {e.s_min + j * step for j in range(k + 1)}
    pts.update((e.s_min, e.s_max))  # guard against k degeneracies
    return sorted(pts)


def solve_mff_grid(n: Network, k: int, *, limit: int = FACTS_EDGE_LIMIT) -> MffOutcome:
    """Endpoint search refined by a uniform grid; dominates the endpoints for every k."""
    if k < 1:
        raise ValueError("grid refinement k must be >= 1")
    require_valid(n)
    facts = _facts(n, limit)
    return _search(n, [grid_points(e, k) for e in facts], facts)


def enumerate_endpoint_optima(n: Network, *, limit: int = FACTS_EDGE_LIMIT) -> list[tuple[SusAssignment, MffOutcome]]:
    """All endpoint assignments attaining the endpoint-search value."""
    facts = _facts(n, limit)
    best = solve_mff_endpoints(n, limit=limit).value
    out = []
    for combo in itertools.product(*[[e.s_min, e.s_max] for e in facts]):
        assignment = dict(zip(facts, combo))
        res = solve_mpf(pin_susceptances(n, assignment))
        if res.value == best:
            out.append((assignment, MffOutcome(res.value, assignment, _relabel(n, res.solution), not facts)))
    return out


def decide_mff(n: Network, x: Rational, *, k: int | None = None, limit: int = FACTS_EDGE_LIMIT) -> MffDecision:
    """Yes when some evaluated assignment reaches x; otherwise Unknown.

    The search is a lower bound, so a sound "no" cannot be issued.
    """
    out = solve_mff_grid(n, k, limit=limit) if k else solve_mff_endpoints(n, limit=limit)
    return MffDecision.YES if out.value >= x else MffDecision.UNKNOWN

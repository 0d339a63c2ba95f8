"""Maximum FACTS flow: optimize MPF over susceptance assignments.

With adjustable susceptances the problem is bilinear (susceptance times
angle difference), so no finite search certifies a global optimum in
general.  The searches here evaluate an exact MPF LP per candidate
assignment on a uniform k-step grid per FACTS edge -- k = 1 is the
interval endpoints -- and report the best value found.  That is a true lower
bound on the MFF, and it is exact for the gadget family this package
constructs, whose optima provably sit at interval endpoints.  An outcome
is flagged `certified` only in the trivial case of zero FACTS edges,
where MFF and MPF coincide; accordingly the decision operation answers
Yes or Unknown, never No.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from functools import partial

from .errors import TooManyFactsEdges
from .mpf import solve_mpf
from .msf import optima, ordered_map
from .network import Edge, Network, Solution, fixed_edge, require_valid
from .rational import Rational

FACTS_EDGE_LIMIT = 12

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


def _assignment_value(n: Network, assignment: SusAssignment) -> Rational:
    return solve_mpf(pin_susceptances(n, assignment)).value


def _facts(n: Network) -> list[Edge]:
    facts = list(n.facts_edges)
    if len(facts) > FACTS_EDGE_LIMIT:
        raise TooManyFactsEdges(f"{len(facts)} FACTS edges exceed the search limit of {FACTS_EDGE_LIMIT}")
    return facts


def solve_mff_endpoints(n: Network) -> MffOutcome:
    """The grid search at k = 1: every combination of interval endpoints."""
    return solve_mff_grid(n, 1)


def grid_points(e: Edge, k: int) -> list[Rational]:
    """k+1 uniformly spaced susceptances from s_min to s_max inclusive."""
    step = (e.s_max - e.s_min) / k
    pts = {e.s_min + j * step for j in range(k + 1)}
    pts.update((e.s_min, e.s_max))  # guard against k degeneracies
    return sorted(pts)


def _grid_optima(n: Network, k: int) -> list[SusAssignment]:
    """All best assignments on the k-step grid, in search order.

    Combinations are visited in lexicographic order of the assignment
    vector (edges in canonical order, points ascending), so the first
    optimum is the smallest vector.
    """
    if k < 1:
        raise ValueError("grid refinement k must be >= 1")
    require_valid(n)
    facts = _facts(n)
    assignments = [dict(zip(facts, c)) for c in itertools.product(*(grid_points(e, k) for e in facts))]
    return optima(assignments, ordered_map(partial(_assignment_value, n), assignments))


def _outcome(n: Network, assignment: SusAssignment) -> MffOutcome:
    out = solve_mpf(pin_susceptances(n, assignment))
    return MffOutcome(out.value, assignment, _relabel(n, out.solution), certified=not assignment)


def solve_mff_grid(n: Network, k: int) -> MffOutcome:
    """Endpoint search refined by a uniform grid; dominates the endpoints for every k."""
    return _outcome(n, _grid_optima(n, k)[0])


def enumerate_endpoint_optima(n: Network) -> list[tuple[SusAssignment, MffOutcome]]:
    """All endpoint assignments attaining the endpoint-search value."""
    return [(a, _outcome(n, a)) for a in _grid_optima(n, 1)]


def decide_mff(n: Network, x: Rational, *, k: int = 1) -> MffDecision:
    """Yes when some assignment on the k-step grid reaches x; otherwise Unknown.

    The search is a lower bound, so a sound "no" cannot be issued.
    """
    return MffDecision.YES if solve_mff_grid(n, k).value >= x else MffDecision.UNKNOWN

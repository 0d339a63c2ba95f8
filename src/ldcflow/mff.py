"""Maximum FACTS flow: optimize MPF over susceptance assignments.

With adjustable susceptances the problem is bilinear (susceptance times
angle difference), so no finite search certifies a global optimum in
general.  The searches here evaluate an exact MPF LP per candidate
assignment on a uniform k-step grid per FACTS edge -- k = 1 is the
interval endpoints -- and report the best value found.  That is a true lower
bound on the MFF, and it is exact for the gadget family this package
constructs, whose optima provably sit at interval endpoints.  It is
exact in general only on a network without FACTS edges (read from the
network, `n.facts_edges`), where MFF and MPF coincide; accordingly the
decision operation answers Yes or Unknown, never No.

Each candidate is solved once, and only the best ones' outcomes are kept,
their solutions unbuilt: a search relabels the winners it returns, and
the decision reads a value alone.
"""

from __future__ import annotations

import enum
import itertools
from collections.abc import Mapping
from dataclasses import dataclass
from functools import partial

from .errors import NonpositiveRefinement, SusceptanceOutOfRange, TooManyFactsEdges, UnknownEdge
from .mpf import MpfOutcome, solve_mpf
from .msf import optima, ordered_map
from .network import Edge, Network, Solution, _require_network
from .rational import Rational, rat

FACTS_EDGE_LIMIT = 12

SusAssignment = dict[Edge, Rational]


@dataclass(frozen=True)
class MffOutcome:
    value: Rational
    assignment: SusAssignment
    solution: Solution


class MffDecision(enum.Enum):
    YES = "yes"
    UNKNOWN = "unknown"


def pin_susceptances(n: Network, assignment: SusAssignment) -> Network:
    """Fix every assigned edge to its value: `InvalidNetwork` for an n that is not a `Network` and for a value that is not an int or a `Fraction`, `UnknownEdge` for an assignment that is not a mapping or a key not in n, `SusceptanceOutOfRange` off its interval."""
    _require_network(n)
    if not isinstance(assignment, Mapping):
        raise UnknownEdge(f"{assignment!r} is not a mapping of edges")
    unknown = assignment.keys() - n.edges
    if unknown:
        raise UnknownEdge(f"{min(unknown)} is not an edge of the network")
    new_edges = []
    for e in n.edges:
        if e in assignment:
            value = assignment[e]
            pinned = Edge(e.a, e.b, value, value, e.cap)
            if not (e.s_min <= pinned.s_min <= e.s_max):
                raise SusceptanceOutOfRange(f"susceptance {value} outside {e}")
            new_edges.append(pinned)
        else:
            new_edges.append(e)
    return Network(n.nodes, new_edges)


def _relabel(n: Network, sol: Solution) -> Solution:
    """Key a pinned-network solution by the original (interval) edges."""
    original = {e.pair: e for e in n.edges}
    sus = {original[e.pair]: s for e, s in sol.susceptance.items()}
    flow = {original[e.pair]: f for e, f in sol.flow.items()}
    return Solution(sus, dict(sol.angle), flow, dict(sol.gen), dict(sol.load))


def _solve_pinned(n: Network, assignment: SusAssignment) -> MpfOutcome:
    return solve_mpf(pin_susceptances(n, assignment))


def solve_mff_endpoints(n: Network) -> MffOutcome:
    """The grid search at k = 1: every combination of interval endpoints."""
    return solve_mff_grid(n, 1)


def grid_points(e: Edge, k: int) -> list[Rational]:
    """k+1 uniformly spaced susceptances from s_min to s_max inclusive."""
    step = (e.s_max - e.s_min) / k
    return sorted({e.s_min + j * step for j in range(k + 1)})


def _require_grid(n: Network, k: int) -> None:
    """Refuse an n that is not a `Network` (`InvalidNetwork`), then a k that is not an int of at least 1 (`NonpositiveRefinement`)."""
    _require_network(n)
    if not isinstance(k, int) or type(k) is bool:  # as `rat`, a bool is refused with every other non-int
        raise NonpositiveRefinement(f"grid refinement k must be an int, got {k!r}")
    if k < 1:
        raise NonpositiveRefinement("grid refinement k must be >= 1")


def _grid_optima(n: Network, k: int) -> list[tuple[SusAssignment, MpfOutcome]]:
    """All best assignments on the k-step grid with their pinned-network outcomes, in search order.

    Combinations are visited in lexicographic order of the assignment
    vector (edges in canonical order, points ascending), so the first
    optimum is the smallest vector.
    """
    _require_grid(n, k)
    facts = n.facts_edges
    # (k + 1) ** len(facts) candidates; the first test keeps the power small
    if len(facts) > FACTS_EDGE_LIMIT or (k + 1) ** len(facts) > 2**FACTS_EDGE_LIMIT:
        raise TooManyFactsEdges(f"a {k}-step grid on {len(facts)} FACTS edges exceeds the search limit of 2^{FACTS_EDGE_LIMIT} candidates")
    assignments = [dict(zip(facts, c)) for c in itertools.product(*(grid_points(e, k) for e in facts))]
    outcomes = ordered_map(partial(_solve_pinned, n), assignments)
    return optima(zip(assignments, outcomes), key=lambda pair: pair[1].value)


def _outcome(n: Network, assignment: SusAssignment, out: MpfOutcome) -> MffOutcome:
    return MffOutcome(out.value, assignment, _relabel(n, out.solution))


def solve_mff_grid(n: Network, k: int) -> MffOutcome:
    """Endpoint search refined by a uniform grid; dominates the endpoints for every k."""
    return _outcome(n, *_grid_optima(n, k)[0])


def enumerate_endpoint_optima(n: Network) -> list[tuple[SusAssignment, MffOutcome]]:
    """All endpoint assignments attaining the endpoint-search value."""
    return [(a, _outcome(n, a, out)) for a, out in _grid_optima(n, 1)]


def decide_mff(n: Network, x: Rational, *, k: int = 1) -> MffDecision:
    """Yes when some assignment on the k-step grid reaches x; otherwise Unknown.

    The search is a lower bound, so a sound "no" cannot be issued.  For
    x <= 0 the zero flow answers Yes without a search, as in `decide_msf`.
    x is read by `rat`.
    """
    _require_grid(n, k)
    x = rat(x)
    if x <= 0:
        return MffDecision.YES
    _, best = _grid_optima(n, k)[0]
    return MffDecision.YES if best.value >= x else MffDecision.UNKNOWN

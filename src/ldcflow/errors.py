"""Exception hierarchy. Every library-raised error derives from LdcError."""


class LdcError(Exception):
    """Base class for all errors raised by this package."""


class UnknownEdge(LdcError):
    """A switch set references an edge that is not part of the network."""


class EdgeOverlap(LdcError):
    """Two networks being summed carry an edge on the same node pair."""


class RoleConflict(LdcError):
    """A node would end up being both a generator and a load."""


class InvalidNetwork(LdcError):
    """A network fails structural validation; `report` holds every violation found."""

    def __init__(self, report):
        super().__init__(f"invalid network:\n{report}")
        self.report = report


class MalformedProgram(LdcError):
    """A linear program that `solve_lp` or `write_lp_text` cannot read, or one out of standard form, which `solve_lp` refuses.

    A program cannot be read when its variables are declared twice or lack
    a bound entry, its bounds are inverted, its objective or a constraint
    names an undeclared variable, or a row has the wrong width, a
    denominator that is not a positive int or a relation other than <=, =
    and >=.  It is out of standard form when a variable is not in
    [0, inf), a row is not <= or a right-hand side is negative; the
    message names the first such variable or row.
    """


class NotFixedSusceptance(LdcError):
    """An operation requiring fixed susceptances got a network with FACTS edges."""


class TooLarge(LdcError):
    """Exhaustive switching search refused: too many edges."""


class TooManyFactsEdges(LdcError):
    """FACTS assignment search refused: its grid holds more than 2^`mff.FACTS_EDGE_LIMIT` candidates.

    A k-step grid on f adjustable edges holds (k + 1)^f of them, so too many
    adjustable edges or too fine a grid is refused before any is built.
    """


class NonpositiveX(LdcError):
    """Gadget constructors require a strictly positive size parameter."""


class NonpositiveRefinement(LdcError, ValueError):
    """A FACTS grid search was asked for a refinement k below 1."""


class PortCollision(LdcError, ValueError):
    """A gadget's port name is the name of one of its internal nodes."""


class SusceptanceOutOfRange(LdcError, ValueError):
    """A susceptance to pin an edge to lies outside the edge's interval."""


class InvalidInstance(LdcError):
    """A combinatorial problem instance violates its structural requirements."""


class NotACertificate(LdcError):
    """A claimed subset-sum certificate does not sum to the target."""


class NotOptimal(LdcError):
    """Decoding was attempted on an outcome below the predicted optimal value."""


class DecodingFailed(LdcError):
    """An optimal outcome did not decode to a valid combinatorial certificate."""

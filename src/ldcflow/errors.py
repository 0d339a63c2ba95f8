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
    """`Network` or `Edge` refuses its records; `report` holds every violation found.

    `Edge` refuses an endpoint that is not a str and a susceptance or
    capacity that is not an int or a `Fraction`.  `Network` refuses nodes
    or edges that are not iterable, a node record that is not a (str,
    NodeRole) pair and an edge record that is not an `Edge`, and then
    every structural defect of the records: an empty name, a node
    declared twice, a self-loop, a second edge on a node pair, an
    undeclared endpoint, a susceptance interval not within the positive
    reals and a capacity that is not positive.  `network_sum` refuses an
    operand that is not a `Network`, and every solver, search and predicate
    that takes a network refuses an argument that is not one: `subnetwork`,
    `zero_solution`, the MPF and MSF solvers, the MFF searches and
    `decide_mff`, `classical_max_flow`, `classify`'s predicates, and
    `serialize`'s readers of solutions and outcomes.
    """

    def __init__(self, report):
        super().__init__(f"invalid network:\n{report}")
        self.report = report


class MalformedProgram(LdcError):
    """A linear program that `solve_lp` or `write_lp_text` cannot read, or one out of standard form, which `solve_lp` refuses.

    Neither reads an argument that is not a `LinearProgram`; the message
    names its type.  A program cannot be read when its variables are
    declared twice or lack a bound entry, its bounds are inverted, its
    objective or a constraint names an undeclared variable, or a row has
    the wrong width, a denominator that is not a positive int or a
    relation other than <=, =, >= and the range row `lp.RANGE` (|<=|).  It is out of standard form
    when a variable is not in [0, inf), a row is neither <= nor a range
    row or a right-hand side is negative; the message names the first
    such variable or row.
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
    """A combinatorial problem instance violates its structural requirements, or is not of the kind asked for.

    `SubsetSumInstance`, `ExactCover3Instance` and `HamiltonianInstance`
    raise it when built from malformed fields, so every instance that
    exists is valid.  `reductions.predicted_value`, which every encoder and
    decoder calls first, raises it for an unknown encoding kind or an
    instance of another kind; `decode_subset_sum` for a kind that is not a
    subset-sum encoding; `gadgets` for a polarity that is not a `Polarity`.
    """


class NotACertificate(LdcError):
    """A claimed subset-sum certificate is not a set of ints, or does not sum to the target with values of the instance."""


class NotOptimal(LdcError):
    """Decoding was attempted on an outcome below the predicted optimal value."""


class DecodingFailed(LdcError):
    """An outcome is not an `MsfOutcome` or `MffOutcome`, or an optimal one did not decode to a valid combinatorial certificate."""

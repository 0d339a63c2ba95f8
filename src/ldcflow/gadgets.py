"""Generator-choice gadgets.

Each gadget is a small network with one designated port node.  At the
gadget's own optimum the port exchanges exactly 0 or x units with
whatever the port is wired to -- never anything in between -- which turns
a continuous flow problem into a binary choice and is what the
NP-hardness encodings in `reductions` are built from.

gsch: three nodes, fixed susceptances; the choice is exercised by
switching its port--load edge.  MSF of the stand-alone load-port variant
is 3x, with port load 0 (edge kept) or x (edge switched).

gfch: six nodes with one adjustable-susceptance edge; the choice is
exercised through that edge.  MFF of the stand-alone load-port variant is
6.1x, attained exactly at the two interval endpoints, with port load 0
(susceptance 2/5) or x (susceptance 8/5).
"""

from __future__ import annotations

import enum

from .errors import InvalidInstance, NonpositiveX, PortCollision
from .network import Network, NodeId, NodeRole, facts_edge, fixed_edge
from .rational import Rational, rat


class Polarity(enum.Enum):
    """Role of the gadget port: load, generator, or plain connection point."""

    MINUS = "minus"  # port is a load
    PLUS = "plus"  # port is a generator
    PORT = "port"  # port is plain, ready to be summed into a glue network


_ROLE = {
    Polarity.MINUS: NodeRole.LOAD,
    Polarity.PLUS: NodeRole.GENERATOR,
    Polarity.PORT: NodeRole.PLAIN,
}


def _check(x: Rational, port: NodeId, polarity: Polarity, internal: tuple[NodeId, ...]) -> NodeRole:
    """The port's role, once the size, the port name and the polarity are checked."""
    if x <= 0:
        raise NonpositiveX(f"gadget size must be positive, got {x}")
    if port in internal:
        raise PortCollision(f"port name {port!r} collides with an internal gadget node")
    if not isinstance(polarity, Polarity):
        raise InvalidInstance(f"polarity {polarity!r} is not one of {', '.join(map(str, Polarity))}")
    return _ROLE[polarity]


def gsch(x, port: NodeId = "v", polarity: Polarity = Polarity.MINUS, prefix: str = "") -> Network:
    """Switching-choice gadget of size x with the given port node.

    Internal nodes are `prefix`g (generator) and `prefix`l (load); pass
    distinct prefixes when summing several gadgets into one network.
    """
    x = rat(x)
    g, l = prefix + "g", prefix + "l"
    role = _check(x, port, polarity, (g, l))
    return Network(
        [(g, NodeRole.GENERATOR), (l, NodeRole.LOAD), (port, role)],
        [
            fixed_edge(g, port, 1, x),
            fixed_edge(g, l, 1, 2 * x),
            fixed_edge(port, l, 1, x),
        ],
    )


def gfch(x, port: NodeId = "v", polarity: Polarity = Polarity.MINUS, prefix: str = "") -> Network:
    """FACTS-choice gadget of size x with the given port node.

    Internal nodes are `prefix`g/`prefix`e/`prefix`t (generators),
    `prefix`l (load) and `prefix`c (plain).  The e--port edge carries the
    one adjustable susceptance, interval [2/5, 8/5].
    """
    x = rat(x)
    g, e, t, l, c = (prefix + s for s in ("g", "e", "t", "l", "c"))
    role = _check(x, port, polarity, (g, e, t, l, c))
    return Network(
        [
            (g, NodeRole.GENERATOR),
            (e, NodeRole.GENERATOR),
            (t, NodeRole.GENERATOR),
            (l, NodeRole.LOAD),
            (c, NodeRole.PLAIN),
            (port, role),
        ],
        [
            fixed_edge(g, port, 1, x),
            facts_edge(e, port, Rational(2, 5), Rational(8, 5), Rational(2, 5) * x),
            fixed_edge(e, c, 1, Rational(13, 20) * x),
            fixed_edge(port, c, 1, Rational(9, 10) * x),
            fixed_edge(t, c, 1, x),
            fixed_edge(t, l, 1, Rational(71, 20) * x),
            fixed_edge(c, l, 1, Rational(51, 20) * x),
        ],
    )

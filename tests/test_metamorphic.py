"""Metamorphic relations: a change of the input whose effect on the answer is known.

Renaming every node by a `z` prefix keeps the names' order, so it keeps
the MSF value, maps the switch set edge for edge and makes the search
solve as many sub-networks.  Reversing the sorted names keeps the value
alone: the tie-break among optimal sets, and so the search's order,
follow the names.
"""

from typing import Callable

import pytest

from conftest import deep_searches
from ldcflow.msf import solve_msf_bnb
from ldcflow.mpf import solve_mpf
from ldcflow.network import Edge, Network

DEEP = deep_searches()


def renamed(n: Network, name) -> tuple[Network, Callable[[Edge], Edge]]:
    """n with each node v renamed name(v), and the map from n's edges to the renamed network's."""

    def edge(e: Edge) -> Edge:
        return Edge(name(e.a), name(e.b), e.s_min, e.s_max, e.cap)

    return Network([(name(v), role) for v, role in n.nodes], map(edge, n.edges)), edge


@pytest.fixture
def solves(monkeypatch):
    calls = []
    monkeypatch.setattr("ldcflow.msf.solve_mpf", lambda n: calls.append(n) or solve_mpf(n))
    return calls


@pytest.mark.parametrize("name, count", [("cover", 244), ("random-1", 108), ("random-2", 56)])
def test_a_prefix_on_every_name_keeps_the_value_the_switch_set_and_the_solves(name, count, solves):
    n, value = DEEP[name]
    out = solve_msf_bnb(n)
    assert (out.value, len(solves)) == (value, count)
    solves.clear()
    m, edge = renamed(n, lambda v: "z" + v)
    moved = solve_msf_bnb(m)
    assert (moved.value, moved.switched, len(solves)) == (value, frozenset(map(edge, out.switched)), count)


@pytest.mark.parametrize("name", DEEP)
def test_reversing_the_sorted_names_keeps_the_value(name):
    n, value = DEEP[name]
    names = n.node_names
    m, _ = renamed(n, dict(zip(names, reversed(names))).__getitem__)
    assert solve_msf_bnb(m).value == value

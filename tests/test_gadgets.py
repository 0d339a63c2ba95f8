import re
from fractions import Fraction as F

import pytest

from ldcflow.classify import is_cactus, max_degree
from ldcflow.errors import InvalidInstance, LdcError, NonpositiveX
from ldcflow.gadgets import Polarity, gfch, gsch
from ldcflow.lp import LpStatus
from ldcflow.mpf import _gen, formulate_mpf
from ldcflow.msf import optimal_switch_sets, solve_msf_exhaustive
from ldcflow.network import NodeRole, network_sum, subnetwork, validate_network
from oracles import reference_general_lp


class TestGsch:
    def test_structure_at_unit_size(self):
        n = gsch(1, "v", Polarity.MINUS)
        assert len(n.node_names) == 3 and len(n.edges) == 3
        caps = sorted(e.cap for e in n.edges)
        assert caps == [1, 1, 2]
        assert all(e.s_min == e.s_max == 1 for e in n.edges)
        assert n.role("v") is NodeRole.LOAD

    def test_port_polarity_and_scaling(self):
        n = gsch(3, "v", Polarity.PORT)
        assert n.role("v") is NodeRole.PLAIN
        assert sorted(e.cap for e in n.edges) == [3, 3, 6]

    def test_generator_polarity(self):
        assert gsch(1, "v", Polarity.PLUS).role("v") is NodeRole.GENERATOR

    def test_rational_sizes(self):
        n = gsch(F(7, 2), "v", Polarity.MINUS)
        assert sorted(e.cap for e in n.edges) == [F(7, 2), F(7, 2), F(7)]

    def test_nonpositive_size_rejected(self):
        with pytest.raises(NonpositiveX):
            gsch(0, "v", Polarity.MINUS)
        with pytest.raises(NonpositiveX):
            gsch(F(-1, 2), "v", Polarity.MINUS)

    @pytest.mark.parametrize("gadget", [gsch, gfch])
    def test_a_bool_size_is_refused(self, gadget):
        # True was read as the size 1
        with pytest.raises(TypeError, match="refusing bool True"):
            gadget(True, "v", Polarity.MINUS)

    def test_prefix_isolates_internal_nodes(self):
        a = gsch(1, "shared", Polarity.PORT, prefix="A.")
        b = gsch(2, "shared", Polarity.PORT, prefix="B.")
        total = network_sum(a, b)
        assert len(total.node_names) == 5  # shared port + 2x2 internals
        assert validate_network(total).ok


class TestGfch:
    def test_structure_at_unit_size(self):
        n = gfch(1, "v", Polarity.MINUS)
        assert len(n.node_names) == 6 and len(n.edges) == 7
        assert len(n.facts_edges) == 1
        ev = n.facts_edges[0]
        assert (ev.s_min, ev.s_max, ev.cap) == (F(2, 5), F(8, 5), F(2, 5))
        assert {n.role(v) for v in ("g", "e", "t")} == {NodeRole.GENERATOR}
        assert n.role("l") is NodeRole.LOAD

    def test_capacities_scale_exactly(self):
        n = gfch(3, "v", Polarity.PORT)
        caps = sorted(e.cap for e in n.edges)
        assert caps == sorted([F(3), F(6, 5), F(39, 20), F(27, 10), F(3), F(213, 20), F(153, 20)])

    def test_gadgets_are_low_degree_cacti(self):
        assert is_cactus(gsch(1, "v", Polarity.MINUS)) and max_degree(gsch(1, "v", Polarity.MINUS)) <= 3
        assert is_cactus(gfch(1, "v", Polarity.MINUS)) and max_degree(gfch(1, "v", Polarity.MINUS)) <= 4

    def test_port_name_collision_rejected(self):
        with pytest.raises(ValueError):
            gsch(1, "g", Polarity.MINUS)

    @pytest.mark.parametrize("gadget, polarity", [(gsch, "minus"), (gfch, "plus"), (gsch, None), (gfch, NodeRole.LOAD)])
    def test_a_polarity_that_is_not_a_polarity_is_an_invalid_instance(self, gadget, polarity):
        # "minus" and "plus" used to raise KeyError from the role table
        with pytest.raises(InvalidInstance, match=re.escape(f"polarity {polarity!r} is not one of Polarity.MINUS, Polarity.PLUS, Polarity.PORT")):
            gadget(1, "v", polarity)

    @pytest.mark.parametrize("gadget, port", [(gsch, "g"), (gsch, "A.l"), (gfch, "c"), (gfch, "A.e")])
    def test_port_name_collision_is_a_library_error(self, gadget, port):
        with pytest.raises(LdcError, match="collides with an internal gadget node"):
            gadget(1, port, Polarity.MINUS, prefix="A." if port.startswith("A.") else "")


@pytest.mark.parametrize("x", [F(1), F(2), F(7, 2)])
def test_switching_gadget_offers_exactly_zero_or_x(x):
    n = gsch(x, "v", Polarity.MINUS)
    out = solve_msf_exhaustive(n)
    assert out.value == 3 * x
    assert {sol.solution.load["v"] for _, sol in optimal_switch_sets(n)} == {F(0), x}


def test_generator_port_cannot_help_without_displacing_internal_supply():
    # with the port generating, any positive port generation at an optimal
    # configuration forces internal generation strictly below 3x
    x = F(1)
    n = gsch(x, "v", Polarity.PLUS)
    best = solve_msf_exhaustive(n).value
    for switched, _ in optimal_switch_sets(n):
        sub = subnetwork(n, switched)

        # force the port to inject a little and look at the internal source
        p = formulate_mpf(sub)
        p.add_constraint({_gen(g): F(1) for g in sub.generators}, "=", best)
        p.add_constraint({_gen("v"): F(1)}, ">=", F(1, 100))
        p.set_objective({_gen("g"): F(1)})
        r = reference_general_lp(p)
        if r.status is LpStatus.OPTIMAL:
            assert r.value < 3 * x

        # contrapositive at the boundary: full internal output leaves the
        # port exactly nothing to inject
        q = formulate_mpf(sub)
        q.add_constraint({_gen(g): F(1) for g in sub.generators}, "=", best)
        q.add_constraint({_gen("g"): F(1)}, "=", 3 * x)
        q.set_objective({_gen("v"): F(1)})
        r = reference_general_lp(q)
        if r.status is LpStatus.OPTIMAL:
            assert r.value == 0

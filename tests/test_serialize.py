import re
from fractions import Fraction as F

import pytest
from hypothesis import example, given, strategies as st

from conftest import random_ldc_network
from ldcflow import serialize
from ldcflow.gadgets import Polarity, gfch, gsch
from ldcflow.mff import solve_mff_endpoints
from ldcflow.mpf import solve_mpf
from ldcflow.msf import solve_msf_bnb
from ldcflow.network import Network
from ldcflow.rational import decimal_str, is_decimal_exact, rat, rat_str
from ldcflow.reductions import SubsetSumInstance, encode_subset_sum_cactus_msf


class TestRationals:
    def test_decimal_strings_parse_exactly(self):
        assert rat("6.1") == F(61, 10)
        assert rat("18.3") == F(183, 10)
        assert rat("-0.25") == F(-1, 4)

    def test_fraction_and_integer_strings(self):
        assert rat("7/3") == F(7, 3)
        assert rat("-4") == -4
        assert rat(5) == 5

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            rat(0.1)

    @pytest.mark.parametrize("text", ["1/0", "-3/0", " 0/0 "])
    def test_zero_denominator_is_a_value_error(self, text):
        with pytest.raises(ValueError, match="zero denominator"):
            rat(text)

    @pytest.mark.parametrize("text, value", [(" 7/3\n", F(7, 3)), ("+5", F(5)), ("-.5", F(-1, 2)), ("5.", F(5)), ("007", F(7))])
    def test_every_listed_form_parses(self, text, value):
        assert rat(text) == value

    @pytest.mark.parametrize("text", ["1e9999999", "1E5", "2.5e-3", "1_000", "1/2_0", "\u0663", "1\uff10", "3/-4", "1/2/3", "+-1", ".", "", "inf", "nan", "0x10"])
    def test_other_strings_are_value_errors(self, text):
        # Fraction would read the exponents, underscores and non-ASCII digits, and expand 1e9999999 for seconds
        with pytest.raises(ValueError, match="not a rational"):
            rat(text)

    def test_rat_str_round_trips(self):
        for value in (F(0), F(-7, 3), F(61, 10), F(12)):
            assert rat(rat_str(value)) == value

    @given(num=st.integers(-(10**30), 10**30), twos=st.integers(0, 40), fives=st.integers(0, 25), other=st.sampled_from([1, 1, 3, 7, 9, 11]))
    @example(num=-3, twos=1, fives=0, other=1)
    @example(num=1, twos=0, fives=1, other=3)
    def test_decimal_str_is_exact_or_truncated_to_12_places(self, num, twos, fives, other):
        r = F(num, 2**twos * 5**fives * other)
        text = decimal_str(r)
        if is_decimal_exact(r):
            assert F(text) == r and not ("." in text and text.endswith("0"))
        else:
            truncated = F(int(abs(r) * 10**12), 10**12)
            assert len(text.split(".")[1]) == 12 and F(text) == (-truncated if r < 0 else truncated)


class TestNetworkJson:
    def test_round_trip_is_exact(self, rng):
        for build in (
            lambda: gfch(F(7, 2), "v", Polarity.MINUS),
            lambda: random_ldc_network(rng),
            lambda: Network([], []),
        ):
            n = build()
            assert serialize.network_from_json(serialize.network_to_json(n)) == n

    def test_decimal_edge_fields_accepted(self):
        doc = {
            "nodes": [{"id": "g", "role": "generator"}, {"id": "l", "role": "load"}],
            "edges": [{"a": "g", "b": "l", "s_min": "0.4", "s_max": "1.6", "cap": "6.1"}],
        }
        n = serialize.network_from_json(doc)
        e = n.edges[0]
        assert (e.s_min, e.s_max, e.cap) == (F(2, 5), F(8, 5), F(61, 10))

    def test_float_fields_rejected(self):
        doc = {
            "nodes": [{"id": "g", "role": "generator"}, {"id": "l", "role": "load"}],
            "edges": [{"a": "g", "b": "l", "s_min": 0.4, "s_max": "1.6", "cap": "1"}],
        }
        with pytest.raises(ValueError):
            serialize.network_from_json(doc)


class TestSolutionJson:
    def test_solution_round_trip(self):
        n = gsch(1, "v", Polarity.MINUS)
        sol = solve_mpf(n).solution
        doc = serialize.solution_to_json(sol)
        again = serialize.solution_from_json(doc, n)
        assert again == sol

    def test_msf_outcome_round_trip(self):
        n = encode_subset_sum_cactus_msf(SubsetSumInstance((1, 2), 2)).network
        out = solve_msf_bnb(n)
        doc = serialize.msf_outcome_to_json(out)
        again = serialize.msf_outcome_from_json(doc, n)
        assert (again.value, again.switched, again.solution) == (out.value, out.switched, out.solution)

    def test_mff_outcome_round_trip(self):
        n = gfch(2, "v", Polarity.MINUS)
        out = solve_mff_endpoints(n)
        doc = serialize.mff_outcome_to_json(out)
        again = serialize.mff_outcome_from_json(doc, n)
        assert (again.value, again.assignment, again.certified) == (out.value, out.assignment, out.certified)
        assert again.solution == out.solution

    def test_unknown_edge_in_solution_rejected(self):
        n = gsch(1, "v", Polarity.MINUS)
        doc = serialize.solution_to_json(solve_mpf(n).solution)
        doc["flow"].append({"a": "v", "b": "zz", "value": "1"})
        with pytest.raises(ValueError):
            serialize.solution_from_json(doc, n)

    @pytest.mark.parametrize(
        "record, field",
        [
            ({"a": "v", "value": "1"}, "solution.flow[0] has no field 'b'"),
            ({"b": "v", "value": "1"}, "solution.flow[0] has no field 'a'"),
            ({"a": "v", "b": 3, "value": "1"}, "solution.flow[0].b must be a str"),
            ({"a": "v", "b": "zz", "value": "1"}, "solution.flow[0]: no edge v--zz in the network"),
            ("v--zz", "solution.flow[0] must be an object"),
        ],
    )
    def test_edge_records_are_named_by_position(self, record, field):
        n = gsch(1, "v", Polarity.MINUS)
        doc = serialize.solution_to_json(solve_mpf(n).solution)
        doc["flow"].insert(0, record)
        with pytest.raises(ValueError, match=re.escape(field)):
            serialize.solution_from_json(doc, n)

    def test_switched_records_are_named_by_position(self):
        n = gsch(1, "v", Polarity.MINUS)
        doc = serialize.msf_outcome_to_json(solve_msf_bnb(n))
        doc["switched"].append({"a": "v"})
        with pytest.raises(ValueError, match=re.escape(f"outcome.switched[{len(doc['switched']) - 1}] has no field 'b'")):
            serialize.msf_outcome_from_json(doc, n)


class TestInstanceJson:
    def test_subset_sum(self):
        inst = serialize.subset_sum_from_json({"M": [2, 1, 3], "w": 5})
        assert inst == SubsetSumInstance((2, 1, 3), 5)
        assert serialize.subset_sum_to_json(inst) == {"M": [2, 1, 3], "w": 5}

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"M": [1.9, True, "3"], "w": 3.5}, "instance.M[0]"),
            ({"M": [2, True, 3], "w": 5}, "instance.M[1]"),
            ({"M": [2, 1], "w": 3.0}, "instance.w"),
            ({"M": [2, 1], "w": False}, "instance.w"),
            ({"M": "213", "w": 3}, "instance.M must be a list"),
        ],
    )
    def test_subset_sum_rejects_floats_and_bools(self, doc, field):
        with pytest.raises(ValueError, match=re.escape(field)):
            serialize.subset_sum_from_json(doc)

    def test_subset_sum_accepts_integer_strings(self):
        assert serialize.subset_sum_from_json({"M": ["2", 1], "w": "3"}) == SubsetSumInstance((2, 1), 3)

    def test_exact_cover(self):
        doc = {"M": ["a", "b", "c"], "S": [["a", "b", "c"]]}
        inst = serialize.exact_cover_from_json(doc)
        assert inst.universe == ("a", "b", "c") and inst.sets == (("a", "b", "c"),)
        assert serialize.exact_cover_to_json(inst) == doc

    def test_hamiltonian(self):
        doc = {"nodes": ["a", "c", "b"], "edges": [["a", "c"], ["c", "b"]], "a": "a", "b": "b"}
        inst = serialize.hamiltonian_from_json(doc)
        assert inst.a == "a" and inst.b == "b" and len(inst.edges) == 2
        assert serialize.hamiltonian_to_json(inst) == doc

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"M": [1.5, True, None], "S": [[1.5, True, None]]}, "instance.M[0] must be a string name, got 1.5"),
            ({"M": ["a", "b", "c"], "S": [["a", "b", None]]}, "instance.S[0][2] must be a string name"),
            ({"M": "xyz", "S": ["xyz"]}, "instance.M must be a list"),
            ({"M": ["x", "y", "z"], "S": ["xyz"]}, "instance.S[0] must be a list"),
            ({"M": ["x", "y", "z"], "S": "xyz"}, "instance.S must be a list"),
            ({"M": ["x", "y", "z"]}, "instance has no field 'S'"),
        ],
    )
    def test_exact_cover_rejects_what_is_not_a_name(self, doc, field):
        with pytest.raises(ValueError, match=re.escape(field)):
            serialize.exact_cover_from_json(doc)

    @pytest.mark.parametrize(
        "change, field",
        [
            ({"edges": ["ab"]}, "instance.edges[0] must be a list"),
            ({"edges": [["a", "c", "b"]]}, "instance.edges[0] must list 2 nodes, got 3"),
            ({"edges": [["a", 1]]}, "instance.edges[0][1] must be a string name"),
            ({"edges": "ab"}, "instance.edges must be a list"),
            ({"a": 1.5}, "instance.a must be a str, got float"),
            ({"b": None}, "instance.b must be a str"),
            ({"nodes": ["a", True, "b"]}, "instance.nodes[1] must be a string name, got True"),
            ({"nodes": "acb"}, "instance.nodes must be a list"),
        ],
    )
    def test_hamiltonian_rejects_what_is_not_a_name(self, change, field):
        doc = {"nodes": ["a", "c", "b"], "edges": [["a", "c"], ["c", "b"]], "a": "a", "b": "b", **change}
        with pytest.raises(ValueError, match=re.escape(field)):
            serialize.hamiltonian_from_json(doc)

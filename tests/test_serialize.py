import re
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import DECIMALS, random_ldc_network
from ldcflow import serialize
from ldcflow.errors import InvalidNetwork
from ldcflow.gadgets import Polarity, gfch, gsch
from ldcflow.mff import solve_mff_endpoints
from ldcflow.mpf import solve_mpf
from ldcflow.msf import solve_msf_bnb
from ldcflow.network import Network, NodeRole, Solution, fixed_edge
from ldcflow.rational import decimal_str, is_decimal_exact, rat, rat_str
from ldcflow.reductions import SubsetSumInstance, encode_subset_sum_cactus_msf
from oracles import ByPair, reference_edge_map_in, reference_network_from_json, reference_node_map_in, reference_rat, reference_switch_set_in


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

    @pytest.mark.parametrize("value", [True, False])
    def test_bools_rejected(self, value):
        # a bool is an int to Python, and was read as 1 or 0
        with pytest.raises(TypeError, match=f"refusing bool {value}"):
            rat(value)

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

    @given(num=st.integers(-(10**30), 10**30), den=st.integers(1, 10**12), as_int=st.booleans())
    def test_the_writers_str_is_rat_str(self, num, den, as_int):
        value = num if as_int else F(num, den)
        assert str(value) == rat_str(value)

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


# the accepted forms: an optional sign, then digits with "/q" or one decimal point
GRAMMAR = r"[+-]?(?:[0-9]{1,25}(?:/[0-9]{1,25}|\.[0-9]{0,25})?|\.[0-9]{1,25})"
# what str.strip removes, ASCII and not
WHITESPACE = " \t\n\r\x0b\x0c\x1c\x85\xa0\u1680\u2003\u2028\u3000"


def parsed(parse, value):
    """What `parse(value)` gives: the value, or the type and message of the error it raises."""
    try:
        r = parse(value)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return type(r), r.numerator, r.denominator


class TestRatMatchesReference:
    """`rat` reads every string exactly as the match-then-`Fraction(text)` parser it replaced."""

    @given(
        core=st.from_regex(GRAMMAR, fullmatch=True) | st.from_regex(DECIMALS, fullmatch=True) | st.text(max_size=8),
        before=st.text(WHITESPACE, max_size=2),
        after=st.text(WHITESPACE, max_size=2),
    )
    @example(core="-.5", before="", after="")
    @example(core="1.", before="", after="")
    @example(core="+5", before="", after="")
    @example(core="007", before="", after="")
    @example(core="0/0", before="", after="")
    @example(core="-12345678901234567890/3", before="", after="")
    @example(core="1" * 3000 + "." + "7" * 3000, before="", after="")
    @example(core="9" * 3000 + "/" + "3" * 3000, before="", after="")
    @example(core="1" * 5000, before="", after="")
    @example(core="." + "1" * 5000, before="", after="")
    @example(core="1/" + "0" * 5000, before="", after="")
    @example(core="1 /2", before="\u3000", after="\xa0")
    def test_same_value_or_same_error(self, core, before, after):
        text = before + core + after
        assert parsed(rat, text) == parsed(reference_rat, text)

    @given(value=st.integers() | st.fractions() | st.floats(allow_nan=False) | st.booleans() | st.none() | st.lists(st.integers(), max_size=1))
    def test_other_values_alike(self, value):
        assert parsed(rat, value) == parsed(reference_rat, value)

    def test_the_digit_limit_applies_to_each_part(self):
        # a whole part and a fraction of 3,000 digits each are read; an integer of 5,000 digits is not
        assert rat("1" * 3000 + "." + "1" * 3000) == int("1" * 3000) + F(int("1" * 3000), 10**3000)
        with pytest.raises(ValueError, match="Exceeds the limit"):
            rat("1" * 5000)


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
        assert (again.value, again.assignment) == (out.value, out.assignment)
        assert again.solution == out.solution
        # a document written while outcomes still carried `certified` reads the same
        assert "certified" not in doc and serialize.mff_outcome_from_json({**doc, "certified": False}, n) == again

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

    @pytest.mark.parametrize("at_end", [False, True], ids=["first", "last"])
    @pytest.mark.parametrize("key", ["susceptance", "flow"])
    def test_an_edge_listed_twice_is_refused_naming_the_second_record(self, key, at_end):
        n = gsch(1, "v", Polarity.MINUS)
        doc = serialize.solution_to_json(solve_mpf(n).solution)
        records = doc[key]
        i = next(i for i, r in enumerate(records) if (r["a"], r["b"]) == ("g", "l"))
        records.insert(len(records) if at_end else 0, {"a": "l", "b": "g", "value": "999"})
        second = len(records) - 1 if at_end else i + 1
        with pytest.raises(ValueError, match=re.escape(f"solution.{key}[{second}]: edge g--l listed twice")):
            serialize.solution_from_json(doc, n)

    def test_an_assignment_edge_listed_twice_is_refused(self):
        n = gfch(2, "v", Polarity.MINUS)
        doc = serialize.mff_outcome_to_json(solve_mff_endpoints(n))
        first = doc["assignment"][0]
        doc["assignment"].append(dict(first))
        at = len(doc["assignment"]) - 1
        with pytest.raises(ValueError, match=re.escape(f"outcome.assignment[{at}]: edge {first['a']}--{first['b']} listed twice")):
            serialize.mff_outcome_from_json(doc, n)

    def test_each_distinct_string_is_parsed_once_per_document(self, monkeypatch):
        n = encode_subset_sum_cactus_msf(SubsetSumInstance((1, 2, 3), 5)).network
        net_doc = serialize.network_to_json(n)
        out_doc = serialize.msf_outcome_to_json(solve_msf_bnb(n))
        calls = []
        monkeypatch.setattr(serialize, "rat", lambda text: calls.append(text) or rat(text))

        def strings(doc):
            if isinstance(doc, dict):
                return {s for k, v in doc.items() if k not in ("a", "b") for s in strings(v)}
            if isinstance(doc, list):
                return {s for v in doc for s in strings(v)}
            return {doc}

        for _ in range(2):  # no value outlives its call: the second read parses again
            calls.clear()
            assert serialize.network_from_json(net_doc) == n
            assert sorted(calls) == sorted(strings(net_doc["edges"]))
            calls.clear()
            serialize.msf_outcome_from_json(out_doc, n)
            assert sorted(calls) == sorted(strings({"value": out_doc["value"], "solution": out_doc["solution"]}))

    def test_a_switched_edge_listed_twice_is_refused_naming_the_second_record(self):
        n = encode_subset_sum_cactus_msf(SubsetSumInstance((1, 2, 3), 5)).network
        doc = serialize.msf_outcome_to_json(solve_msf_bnb(n))
        first = doc["switched"][0]
        doc["switched"].append(dict(first))
        at = len(doc["switched"]) - 1
        with pytest.raises(ValueError, match=re.escape(f"outcome.switched[{at}]: edge {first['a']}--{first['b']} listed twice")):
            serialize.msf_outcome_from_json(doc, n)

    def test_a_solution_record_naming_a_switched_edge_is_refused(self):
        n = encode_subset_sum_cactus_msf(SubsetSumInstance((1, 2, 3), 5)).network
        doc = serialize.msf_outcome_to_json(solve_msf_bnb(n))
        e = doc["switched"][0]
        doc["solution"]["flow"].append({**e, "value": "0"})
        with pytest.raises(ValueError, match=re.escape(f"solution.flow[{len(doc['solution']['flow']) - 1}]: no edge {e['a']}--{e['b']} in the network")):
            serialize.msf_outcome_from_json(doc, n)

    @pytest.mark.parametrize("n", [None, "g--v"], ids=["None", "str"])
    @pytest.mark.parametrize(
        "reader",
        [serialize.solution_from_json, serialize.outcome_from_json, serialize.mpf_outcome_from_json, serialize.msf_outcome_from_json, serialize.mff_outcome_from_json],
        ids=["solution", "outcome", "mpf", "msf", "mff"],
    )
    def test_a_reader_refuses_what_is_not_a_network_before_it_reads_the_document(self, reader, n):
        # None raised AttributeError: 'NoneType' object has no attribute 'edges'
        for doc in (None, {}, serialize.msf_outcome_to_json(solve_msf_bnb(gsch(1, "v", Polarity.MINUS)))):
            with pytest.raises(InvalidNetwork) as caught:
                reader(doc, n)
            assert str(caught.value.report) == f"Structural at {n!r}: network is not a Network"

    def test_switched_records_are_named_by_position(self):
        n = gsch(1, "v", Polarity.MINUS)
        doc = serialize.msf_outcome_to_json(solve_msf_bnb(n))
        doc["switched"].append({"a": "v"})
        with pytest.raises(ValueError, match=re.escape(f"outcome.switched[{len(doc['switched']) - 1}] has no field 'b'")):
            serialize.msf_outcome_from_json(doc, n)


class Record(dict):
    """A record that is a dict subclass, which every reader takes as it takes a dict."""


class Name(str):
    """A name or value string that is a str subclass."""


# edges a--b, a--c, b--c and c--d: the pairs a--d and b--d name no edge, and z is no node
RECORD_NET = Network(
    [("a", NodeRole.GENERATOR), ("b", NodeRole.PLAIN), ("c", NodeRole.PLAIN), ("d", NodeRole.LOAD)],
    [fixed_edge("a", "b", 1, 1), fixed_edge("a", "c", 2, 1), fixed_edge("b", "c", 1, 3), fixed_edge("c", "d", 1, 1)],
)
RECORD_BY_PAIR: ByPair = {e.pair: e for e in RECORD_NET.edges}  # the map the reference readers resolve records in
GOOD_VALUES = st.sampled_from(["1", "2/3", "-1.5", "0", "1/2", 7, 0, -2])
NAMES = st.sampled_from("abcdz") | st.builds(Name, st.sampled_from("abcd"))
ENDS = NAMES | st.sampled_from([1, None, ["a"]])
OTHER_VALUES = st.builds(Name, st.sampled_from(["1", "2/3"])) | st.sampled_from([1.5, True, "x", None, "1/0", ["1"]])
VALUES = GOOD_VALUES | OTHER_VALUES
PAIRS = [("a", "b"), ("a", "c"), ("b", "c"), ("c", "d")]


@st.composite
def valid_record(draw, pair=st.sampled_from(PAIRS), values=GOOD_VALUES):
    a, b = draw(pair)
    if draw(st.booleans()):
        a, b = b, a
    return {"a": a, "b": b, "value": draw(values)}


@st.composite
def odd_record(draw):
    rec = {"a": draw(ENDS), "b": draw(ENDS), "value": draw(VALUES)}
    for key in draw(st.sets(st.sampled_from(["a", "b", "value"]), max_size=2)):
        del rec[key]
    return Record(rec) if draw(st.booleans()) else rec


@st.composite
def record_lists(draw):
    """Valid records on distinct edges, with up to two others put in anywhere: a repeat, a bad value, an odd record, a subclass or a non-object."""
    pairs = draw(st.permutations(PAIRS))[: draw(st.integers(0, len(PAIRS)))]
    records = [draw(valid_record(st.just(pair))) for pair in pairs]
    for _ in range(draw(st.integers(0, 2))):
        other = valid_record() | valid_record(values=OTHER_VALUES) | odd_record() | st.builds(Record, valid_record()) | st.sampled_from(["a--b", 3, None, [["a", "b"]]])
        records.insert(draw(st.integers(0, len(records))), draw(other))
    return records


def read(reader, *args):
    """What `reader(*args)` gives: its result, or the type and message of the ValueError or `InvalidNetwork` it raises."""
    try:
        return reader(*args)
    except (ValueError, InvalidNetwork) as exc:
        return type(exc), str(exc)


ROLES = st.sampled_from(["generator", "load", "plain"])
OTHER_ROLES = st.builds(Name, ROLES) | st.sampled_from(["source", "Load", "", 1, 1.5, True, None, ["load"], {"load": 1}])
POSITIVE = st.sampled_from(["1", "2/3", "1.5", "1/2", 2, 7]) | st.builds(Name, st.sampled_from(["1", "2/3"]))
NON_OBJECTS = st.sampled_from(["a", 3, None, ["a", "load"]])


def missing(draw, rec: dict, keys: list[str]):
    """rec without up to two of the keys, as a dict or a `Record`."""
    for key in draw(st.sets(st.sampled_from(keys), max_size=2)):
        del rec[key]
    return Record(rec) if draw(st.booleans()) else rec


@st.composite
def odd_node(draw):
    return missing(draw, {"id": draw(ENDS), "role": draw(ROLES | OTHER_ROLES)}, ["id", "role"])


@st.composite
def odd_edge(draw):
    rec = {"a": draw(ENDS), "b": draw(ENDS), "s_min": draw(VALUES), "s_max": draw(VALUES), "cap": draw(VALUES)}
    return missing(draw, rec, list(rec))


@st.composite
def network_documents(draw):
    """A network on nodes a-d and edges among PAIRS, with up to two odd records or a document of the wrong shape."""
    nodes = [{"id": draw(st.sampled_from([v, Name(v)])), "role": draw(ROLES)} for v in "abcd"]
    edges = []
    for a, b in draw(st.permutations(PAIRS))[: draw(st.integers(0, len(PAIRS)))]:
        s = draw(POSITIVE)
        edges.append({"a": a, "b": b, "s_min": s, "s_max": draw(st.sampled_from([s, "3"])), "cap": draw(POSITIVE)})
    for _ in range(draw(st.integers(0, 2))):
        records, odd = draw(st.sampled_from([(nodes, odd_node() | NON_OBJECTS), (edges, odd_edge() | NON_OBJECTS)]))
        records.insert(draw(st.integers(0, len(records))), draw(odd))
    doc = {"nodes": nodes, "edges": edges}
    shape = draw(st.integers(0, 9))
    if shape == 7:
        del doc[draw(st.sampled_from(["nodes", "edges"]))]
    elif shape == 8:
        doc[draw(st.sampled_from(["nodes", "edges"]))] = draw(NON_OBJECTS | st.builds(dict))
    elif shape == 9:
        return Record(doc)
    return doc


@st.composite
def node_maps(draw):
    """A node-keyed map of values, with up to two odd values, or a map that is not an object."""
    values = {draw(NAMES): draw(GOOD_VALUES) for _ in range(draw(st.integers(0, 4)))}
    for _ in range(draw(st.integers(0, 2))):
        values[draw(st.sampled_from("abcdz"))] = draw(OTHER_VALUES)
    kind = draw(st.integers(0, 9))
    return draw(NON_OBJECTS) if kind == 9 else Record(values) if kind == 8 else values


class TestEdgeReadersMatchTheReference:
    """Each reader of a document's records reads it as the two-path readers it replaced do: the edge maps, the switch set, networks and node maps."""

    @settings(max_examples=300)  # records are cheap to read; most lists carry an odd record or a repeat
    @given(records=record_lists())
    @example(records=[{"a": "a", "b": "b", "value": "1"}, {"a": "b", "b": "a", "value": 1.5}])
    @example(records=[{"a": "a", "b": "b", "value": 1.5}, {"a": "z", "b": "a", "value": "1"}])
    @example(records=[Record(a="c", b="d", value="1"), {"a": "d", "b": "c", "value": "2"}])
    @example(records=[{"a": Name("a"), "b": "c", "value": Name("2/3")}, {"a": "c", "b": "a"}])
    def test_same_result_or_same_error(self, records):
        for where in ("solution.flow", "outcome.assignment"):
            assert read(serialize._edge_map_in, records, where, RECORD_NET, {}) == read(reference_edge_map_in, records, where, RECORD_BY_PAIR, {})
        assert read(serialize._switch_set_in, records, RECORD_NET) == read(reference_switch_set_in, records, RECORD_BY_PAIR)

    @settings(max_examples=300)
    @given(doc=network_documents())
    @example(doc={"nodes": [{"id": "a", "role": "generator"}, {"id": "b", "role": "load"}], "edges": [{"a": "a", "b": "b", "s_min": "2/3", "s_max": "2/3", "cap": "2/3"}]})
    @example(doc={"nodes": [{"id": "a", "role": Name("generator")}, {"id": Name("b"), "role": "load"}], "edges": []})
    @example(doc={"nodes": [{"id": "a", "role": ["load"]}], "edges": []})
    @example(doc={"nodes": [{"id": "a", "role": "plain"}, {"id": "b", "role": "plain"}], "edges": [{"a": "a", "b": "b", "s_min": "1", "s_max": "1", "cap": "1/0"}]})
    def test_a_network_document_reads_as_the_reference_reads_it(self, doc):
        assert read(serialize.network_from_json, doc) == read(reference_network_from_json, doc)

    @settings(max_examples=300)
    @given(maps=st.tuples(node_maps(), node_maps(), node_maps()), records=record_lists())
    @example(maps=({"a": "2/3", "b": "2/3"}, {"c": Name("2/3")}, {}), records=[{"a": "a", "b": "b", "value": "2/3"}])
    @example(maps=({"a": ["1"]}, {"b": None}, {"c": True}), records=[])
    def test_node_maps_and_solutions_read_as_the_reference_reads_them(self, maps, records):
        doc = {"susceptance": records, "flow": list(reversed(records)), **dict(zip(["angle", "gen", "load"], maps))}
        for key in ("angle", "gen", "load"):
            assert read(serialize._node_map_in, doc, key, {}) == read(reference_node_map_in, doc, key, {})

        def reference(doc, seen):
            return Solution(
                susceptance=reference_edge_map_in(doc["susceptance"], "solution.susceptance", RECORD_BY_PAIR, seen),
                flow=reference_edge_map_in(doc["flow"], "solution.flow", RECORD_BY_PAIR, seen),
                angle=reference_node_map_in(doc, "angle", seen),
                gen=reference_node_map_in(doc, "gen", seen),
                load=reference_node_map_in(doc, "load", seen),
            )

        assert read(serialize.solution_from_json, doc, RECORD_NET) == read(reference, doc, {})


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

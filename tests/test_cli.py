import copy
import hashlib
import json

import pytest
from hypothesis import example, given, strategies as st

from conftest import DECIMALS, facts_path
from ldcflow import cli, mpf, serialize
from ldcflow.cli import main
from ldcflow.gadgets import Polarity


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# its one exact cover is abc + def; ade meets both
COVER_ABCDEF_BY_ADE = {"M": ["a", "b", "c", "d", "e", "f"], "S": [["a", "b", "c"], ["d", "e", "f"], ["a", "d", "e"]]}


@pytest.fixture
def gsch_file(tmp_path, capsys):
    path = tmp_path / "gsch1.json"
    code, _, _ = run(capsys, "gadget", "gsch", "--x", "1", "--polarity", "minus", "--out", str(path))
    assert code == 0
    return str(path)


class TestSolve:
    def test_mpf_prints_exact_value(self, capsys, gsch_file):
        code, out, _ = run(capsys, "solve", "mpf", gsch_file)
        assert code == 0 and out.strip() == "3"

    def test_mpf_decimal_rendering(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        assert run(capsys, "gadget", "gfch", "--x", "1", "--polarity", "minus", "--out", str(path))[0] == 0
        code, out, _ = run(capsys, "solve", "mff", str(path))
        assert code == 0 and out.splitlines()[0] == "61/10 (= 6.1)"

    def test_msf_decide_no(self, capsys, gsch_file):
        code, out, _ = run(capsys, "solve", "msf", gsch_file, "--decide", "31/10")
        assert code == 0 and out.strip() == "NO"

    def test_msf_decide_yes(self, capsys, gsch_file):
        code, out, _ = run(capsys, "solve", "msf", gsch_file, "--decide", "3")
        assert code == 0 and out.strip() == "YES"

    @pytest.mark.parametrize("x, answer", [("3", "YES"), ("31/10", "NO")])
    def test_msf_decide_by_either_method(self, capsys, gsch_file, monkeypatch, x, answer):
        scans = []
        scan = cli.solve_msf_exhaustive
        monkeypatch.setattr(cli, "solve_msf_exhaustive", lambda n: scans.append(n) or scan(n))
        assert run(capsys, "solve", "msf", gsch_file, "--decide", x, "--method", "bnb") == (0, answer + "\n", "")
        assert run(capsys, "solve", "msf", gsch_file, "--decide", x) == (0, answer + "\n", "")
        assert scans == []
        assert run(capsys, "solve", "msf", gsch_file, "--decide", x, "--method", "exhaustive") == (0, answer + "\n", "")
        assert len(scans) == 1

    def test_mff_decide_unknown(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        run(capsys, "gadget", "gfch", "--x", "1", "--polarity", "minus", "--out", str(path))
        code, out, _ = run(capsys, "solve", "mff", str(path), "--decide", "7")
        assert code == 0 and out.strip() == "UNKNOWN"

    def test_json_output_parses_back(self, capsys, gsch_file):
        code, out, _ = run(capsys, "solve", "msf", gsch_file, "--method", "exhaustive", "--json")
        assert code == 0
        doc = json.loads(out)
        n = serialize.network_from_json(serialize.load(gsch_file))
        outcome = serialize.msf_outcome_from_json(doc, n)
        assert outcome.value == 3

    def test_mff_json_output(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        assert run(capsys, "gadget", "gfch", "--x", "1", "--polarity", "minus", "--out", str(path))[0] == 0
        code, out, _ = run(capsys, "solve", "mff", str(path), "--json")
        doc = json.loads(out)
        assert code == 0 and (doc["problem"], doc["value"]) == ("mff", "61/10") and "certified" not in doc

    def test_a_plain_solve_builds_no_solution(self, capsys, gsch_file, monkeypatch):
        # the value alone is printed, so the lazily built solution is never read
        builds = []
        build = mpf._solution
        monkeypatch.setattr(mpf, "_solution", lambda *a: builds.append(a) or build(*a))
        assert run(capsys, "solve", "mpf", gsch_file) == (0, "3\n", "")
        assert builds == []
        assert run(capsys, "solve", "mpf", gsch_file, "--json")[0] == 0 and len(builds) == 1

    @pytest.mark.parametrize(
        "problem, digest",
        [
            ("mpf", "f13ac7b9867d6d139a5201a7e050ce060a991055d8d5634dfaadf41923f7449e"),
            ("msf", "a5390065a87ac27a984f13b6902851a58aa178995b11817793804b10fc7a94ab"),
            ("mff", "d4b52ec012afebb82b06a5625bc2e5326cbea042eae16eef5df360a541ae5582"),
        ],
    )
    def test_the_outcome_document_is_the_same_text_on_stdout_and_in_the_file(self, capsys, gsch_file, tmp_path, problem, digest):
        # sha256 of the document `solve <problem> --json` prints for gsch with x = 1
        out = tmp_path / "o.json"
        code, printed, _ = run(capsys, "solve", problem, gsch_file, "--json", "--out", str(out))
        assert code == 0 and hashlib.sha256(printed.encode()).hexdigest() == digest
        assert out.read_text() == printed
        assert run(capsys, "solve", problem, gsch_file, "--out", str(out))[1] == run(capsys, "solve", problem, gsch_file)[1]
        assert out.read_text() == printed


class TestChains:
    @pytest.mark.parametrize("gadget", ["gsch", "gfch"])
    @pytest.mark.parametrize("polarity", [p.value for p in Polarity])
    def test_gadget_solve_verify_round_trip(self, capsys, tmp_path, gadget, polarity):
        """`solve --out` writes exactly what `solve --json` prints, and `verify` accepts it."""
        net = tmp_path / "net.json"
        sol = tmp_path / "sol.json"
        assert run(capsys, "gadget", gadget, "--x", "2", "--polarity", polarity, "--out", str(net))[0] == 0
        for problem in ["mff"] if gadget == "gfch" else ["mpf", "msf"]:
            assert run(capsys, "solve", problem, str(net), "--out", str(sol))[0] == 0
            code, printed, _ = run(capsys, "solve", problem, str(net), "--json")
            assert code == 0 and sol.read_text() == printed and json.loads(printed)["problem"] == problem
            assert run(capsys, "verify", str(net), str(sol)) == (0, "OK\n", "")

    def test_encode_solve_decode_chain(self, capsys, tmp_path):
        inst = tmp_path / "inst.json"
        enc = tmp_path / "enc.json"
        net = tmp_path / "net.json"
        outcome = tmp_path / "out.json"
        inst.write_text(json.dumps({"M": [1, 2], "w": 2}))
        assert run(capsys, "encode", "subset-sum-cactus-msf", str(inst), "--out", str(enc))[0] == 0
        doc = json.loads(enc.read_text())
        assert doc["predicted_value"] == "14"  # 3 + w + 3*(1+2)
        net.write_text(json.dumps(doc["network"]))
        assert run(capsys, "solve", "msf", str(net), "--out", str(outcome))[0] == 0
        code, out, _ = run(capsys, "decode", "subset-sum-cactus-msf", str(inst), str(outcome))
        assert code == 0 and json.loads(out) == {"V": [2]}

    @pytest.mark.parametrize(
        "kind, instance, problem, decoded",
        [
            ("exact-cover-msf", COVER_ABCDEF_BY_ADE, "msf", {"cover": [["a", "b", "c"], ["d", "e", "f"]]}),
            ("exact-cover-mff", COVER_ABCDEF_BY_ADE, "mff", {"cover": [["a", "b", "c"], ["d", "e", "f"]]}),
            ("subset-sum-cactus-mff", {"M": [1, 2], "w": 2}, "mff", {"V": [2]}),
        ],
    )
    def test_encode_solve_decode_chain_for_each_kind(self, capsys, tmp_path, kind, instance, problem, decoded):
        inst, enc, net, outcome = (str(tmp_path / name) for name in ("inst.json", "enc.json", "net.json", "out.json"))
        serialize.dump(instance, inst)
        assert run(capsys, "encode", kind, inst, "--out", enc)[0] == 0
        serialize.dump(serialize.load(enc)["network"], net)
        assert run(capsys, "solve", problem, net, "--out", outcome)[0] == 0
        code, out, _ = run(capsys, "decode", kind, inst, outcome)
        assert code == 0 and json.loads(out) == decoded

    def test_decode_refuses_an_mpf_document(self, capsys, tmp_path):
        inst, enc, net, doc = (str(tmp_path / name) for name in ("inst.json", "enc.json", "net.json", "mpf.json"))
        serialize.dump({"M": [1, 2], "w": 2}, inst)
        assert run(capsys, "encode", "subset-sum-cactus-msf", inst, "--out", enc)[0] == 0
        serialize.dump(serialize.load(enc)["network"], net)
        assert run(capsys, "solve", "mpf", net, "--out", doc)[0] == 0 and serialize.load(doc)["problem"] == "mpf"
        code, _, err = run(capsys, "decode", "subset-sum-cactus-msf", inst, doc)
        assert code == 3 and "outcome file must come from `solve msf --out` or `solve mff --out`" in err

    def test_decode_refuses_a_problem_that_is_not_a_string(self, capsys, tmp_path):
        inst, doc = tmp_path / "inst.json", tmp_path / "doc.json"
        inst.write_text(json.dumps({"M": [1, 2], "w": 2}))
        doc.write_text(json.dumps({"problem": [], "value": "3", "switched": [], "solution": {}}))
        code, out, err = run(capsys, "decode", "subset-sum-cactus-msf", str(inst), str(doc))
        assert code == 3 and out == "" and "outcome.problem must be a str, got list" in err


class TestVerify:
    def test_tampered_solution_fails(self, capsys, tmp_path, gsch_file):
        sol = tmp_path / "sol.json"
        run(capsys, "solve", "mpf", gsch_file, "--out", str(sol))
        doc = json.loads(sol.read_text())["solution"]  # a bare solution
        doc["flow"][0]["value"] = "99"
        sol.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", gsch_file, str(sol))
        assert code == 1
        assert "PowerLaw" in out or "Kirchhoff" in out or "CapacityBound" in out

    def test_mpf_json_document_verifies(self, capsys, tmp_path, gsch_file):
        doc = tmp_path / "mpf.json"
        code, out, _ = run(capsys, "solve", "mpf", gsch_file, "--json")
        assert code == 0 and json.loads(out)["problem"] == "mpf"
        doc.write_text(out)
        assert run(capsys, "verify", gsch_file, str(doc)) == (0, "OK\n", "")

    @pytest.mark.parametrize("problem", ["mpf", "msf"])
    def test_a_value_that_is_not_the_solutions_generation_fails(self, capsys, tmp_path, gsch_file, problem):
        doc = tmp_path / "doc.json"
        code, out, _ = run(capsys, "solve", problem, gsch_file, "--json")
        assert code == 0 and json.loads(out)["value"] == "3"
        doc.write_text(out)
        assert run(capsys, "verify", gsch_file, str(doc)) == (0, "OK\n", "")
        doc.write_text(out.replace('"value": "3"', '"value": "99"'))
        assert run(capsys, "verify", gsch_file, str(doc)) == (1, "value 99 is not the solution's total generation 3\n", "")

    @pytest.mark.parametrize(
        "changes, said",
        [
            ({"assignment": [{"a": "e", "b": "v", "value": "1"}]}, ["assignment e--v = 1 is not the solution's susceptance"]),
            ({"assignment": []}, ["the assignment does not name exactly the network's FACTS edges"]),
            ({"assignment": [{"a": "e", "b": "v", "value": "2/5"}, {"a": "c", "b": "e", "value": "1"}]}, ["the assignment does not name exactly the network's FACTS edges"]),
        ],
        ids=["susceptance", "missing", "foreign"],
    )
    def test_an_mff_outcome_that_its_solution_belies_fails(self, capsys, tmp_path, changes, said):
        net, doc = tmp_path / "net.json", tmp_path / "doc.json"
        run(capsys, "gadget", "gfch", "--x", "1", "--polarity", "minus", "--out", str(net))
        assert run(capsys, "solve", "mff", str(net), "--out", str(doc))[0] == 0
        outcome = json.loads(doc.read_text())
        assert outcome["assignment"] == [{"a": "e", "b": "v", "value": "2/5"}] and "certified" not in outcome
        assert run(capsys, "verify", str(net), str(doc)) == (0, "OK\n", "")
        doc.write_text(json.dumps({**outcome, **changes}))
        assert run(capsys, "verify", str(net), str(doc)) == (1, "".join(line + "\n" for line in said), "")

    def test_an_invalid_network_prints_its_report_and_fails(self, capsys, tmp_path, gsch_file):
        net, sol = tmp_path / "net.json", tmp_path / "sol.json"
        assert run(capsys, "solve", "mpf", gsch_file, "--out", str(sol))[0] == 0
        doc = serialize.load(gsch_file)
        doc["edges"].append(doc["edges"][0])
        net.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", str(net), str(sol))
        assert (code, out) == (1, "Structural at g--l: second edge on the same node pair\n")


class TestClassify:
    def test_gadget_report(self, capsys, gsch_file):
        code, out, _ = run(capsys, "classify", gsch_file, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc == {"tree": False, "cactus": True, "max_degree": 2, "connected": True}


class TestExport:
    def test_milp_to_stdout(self, capsys, gsch_file):
        code, out, _ = run(capsys, "export", "milp", gsch_file)
        assert code == 0 and out.startswith("\\") and "Binary" in out

    def test_milp_to_a_file(self, capsys, tmp_path, gsch_file):
        path = tmp_path / "gsch1.lp"
        assert run(capsys, "export", "milp", gsch_file, "--out", str(path)) == (0, "", "")
        assert path.read_text() == run(capsys, "export", "milp", gsch_file)[1]


class TestErrors:
    def test_missing_file_is_exit_3(self, capsys):
        code, _, err = run(capsys, "solve", "mpf", "/nonexistent.json")
        assert code == 3 and err

    def test_solver_precondition_is_exit_4(self, capsys, tmp_path):
        path = tmp_path / "facts.json"
        run(capsys, "gadget", "gfch", "--x", "1", "--polarity", "minus", "--out", str(path))
        code, _, err = run(capsys, "solve", "msf", str(path))
        assert code == 4 and "susceptance" in err

    @pytest.mark.parametrize("x", ["0", "1"])
    def test_msf_decide_on_facts_edges_is_exit_4_at_any_threshold(self, capsys, tmp_path, x):
        path = tmp_path / "facts.json"
        run(capsys, "gadget", "gfch", "--x", "1", "--polarity", "minus", "--out", str(path))
        code, out, err = run(capsys, "solve", "msf", str(path), "--decide", x)
        assert code == 4 and out == "" and "susceptance" in err

    @pytest.mark.parametrize("x", ["0", "1"])
    def test_an_exhaustive_msf_decision_on_facts_edges_is_exit_4_too(self, capsys, tmp_path, x):
        path = tmp_path / "facts.json"
        run(capsys, "gadget", "gfch", "--x", "1", "--polarity", "minus", "--out", str(path))
        code, out, err = run(capsys, "solve", "msf", str(path), "--decide", x, "--method", "exhaustive")
        assert code == 4 and out == "" and "susceptance" in err

    def test_usage_error_is_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "nonsense", "x.json"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("given", [["--out"], ["--json"], ["--out", "--json"]])
    def test_a_decision_with_an_outcome_option_is_a_usage_error(self, capsys, gsch_file, tmp_path, given):
        # a decision builds no outcome, so --out would write no file and --json print no document
        out = tmp_path / "o.json"
        argv = ["solve", "msf", gsch_file, "--decide", "3"] + [x for o in given for x in ([o, str(out)] if o == "--out" else [o])]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == "" and not out.exists()
        assert f"argument --decide: not allowed with {' or '.join(given)}" in captured.err

    @pytest.mark.parametrize(
        "problem, option",
        [
            ("mpf", ["--grid", "5"]),
            ("msf", ["--grid", "1"]),
            ("mpf", ["--method", "exhaustive"]),
            ("mff", ["--method", "bnb"]),
            ("mpf", ["--grid", "2", "--decide", "3"]),
        ],
        ids=["grid on mpf", "grid on msf", "method on mpf", "method on mff", "grid on an mpf decision"],
    )
    def test_an_option_of_another_problem_is_a_usage_error(self, capsys, gsch_file, problem, option):
        with pytest.raises(SystemExit) as exc:
            main(["solve", problem, gsch_file, *option])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert f"argument {option[0]}: not allowed with {problem}" in captured.err

    @pytest.mark.parametrize("k", ["0", "-2"])
    def test_grid_below_one_is_a_usage_error(self, capsys, tmp_path, k):
        path = tmp_path / "f.json"
        run(capsys, "gadget", "gfch", "--x", "1", "--polarity", "minus", "--out", str(path))
        with pytest.raises(SystemExit) as exc:
            main(["solve", "mff", str(path), "--grid", k])
        assert exc.value.code == 2

    def test_mff_decide_zero_is_yes_on_more_facts_edges_than_a_search_takes(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(serialize.network_to_json(facts_path())))
        assert run(capsys, "solve", "mff", str(path), "--decide", "1")[0] == 4
        assert run(capsys, "solve", "mff", str(path), "--decide", "0") == (0, "YES\n", "")

    @pytest.mark.parametrize("k", ["٢", "２"])
    def test_a_grid_in_other_than_ascii_digits_is_a_usage_error(self, capsys, tmp_path, k):
        path = tmp_path / "f.json"
        run(capsys, "gadget", "gfch", "--x", "1", "--polarity", "minus", "--out", str(path))
        with pytest.raises(SystemExit) as exc:
            main(["solve", "mff", str(path), "--grid", k])
        assert exc.value.code == 2 and "expected a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [[], ["--decide", "1"]])
    def test_a_grid_past_the_candidate_limit_is_exit_4(self, capsys, tmp_path, argv):
        path = tmp_path / "f.json"
        run(capsys, "gadget", "gfch", "--x", "1", "--polarity", "minus", "--out", str(path))
        code, out, err = run(capsys, "solve", "mff", str(path), "--grid", "1000000000", *argv)
        assert code == 4 and out == "" and "search limit of 2^12 candidates" in err

    def test_invalid_instance_is_exit_4(self, capsys, tmp_path):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({"M": [1, 1], "w": 2}))
        code, _, err = run(capsys, "encode", "subset-sum-cactus-msf", str(inst))
        assert code == 4 and "distinct" in err

    @pytest.mark.parametrize(
        "edge, reported",
        [
            ({"a": "g", "b": "l", "s_min": "1", "s_max": "1", "cap": "-1"}, "capacity -1 is not positive"),
            ({"a": "g", "b": "zz", "s_min": "1", "s_max": "1", "cap": "2"}, "endpoint zz is not a declared node"),
        ],
    )
    @pytest.mark.parametrize("argv", [["solve", "mpf"], ["solve", "msf"], ["solve", "mff"], ["export", "milp"], ["classify"]])
    def test_invalid_network_is_exit_4_with_report(self, capsys, tmp_path, argv, edge, reported):
        path = tmp_path / "bad.json"
        nodes = [{"id": "g", "role": "generator"}, {"id": "l", "role": "load"}]
        path.write_text(json.dumps({"nodes": nodes, "edges": [edge]}))
        code, out, err = run(capsys, *argv, str(path))
        assert code == 4 and out == ""
        assert "Structural at " in err and reported in err

    @pytest.mark.parametrize(
        "argv",
        [["solve", "mpf", "{net}"], ["solve", "msf", "{net}", "--decide", "1"], ["solve", "mff", "{net}", "--json"], ["export", "milp", "{net}"], ["classify", "{net}", "--json"]],
    )
    def test_a_repeated_pair_is_refused_while_the_document_is_read(self, capsys, tmp_path, argv):
        path = tmp_path / "twice.json"
        nodes = [{"id": "g", "role": "generator"}, {"id": "l", "role": "load"}]
        edges = [{"a": a, "b": b, "s_min": s, "s_max": s, "cap": "1"} for a, b, s in (("g", "l", "1"), ("l", "g", "2"))]
        path.write_text(json.dumps({"nodes": nodes, "edges": edges}))
        said = "error: invalid network:\nStructural at g--l: second edge on the same node pair\n"
        assert run(capsys, *(arg.format(net=path) for arg in argv)) == (4, "", said)

    @pytest.mark.parametrize(
        "argv",
        [["solve", "mpf", "{net}"], ["classify", "{net}"], ["export", "milp", "{net}"], ["solve", "mpf", "{good}", "--decide", "1/0"]],
    )
    def test_zero_denominator_is_exit_3(self, capsys, tmp_path, gsch_file, argv):
        path = tmp_path / "zero.json"
        nodes = [{"id": "g", "role": "generator"}, {"id": "l", "role": "load"}]
        path.write_text(json.dumps({"nodes": nodes, "edges": [{"a": "g", "b": "l", "s_min": "1", "s_max": "1", "cap": "1/0"}]}))
        code, out, err = run(capsys, *(arg.format(net=path, good=gsch_file) for arg in argv))
        assert code == 3 and out == "" and "zero denominator" in err

    @pytest.mark.parametrize("problem", ["mpf", "msf", "mff"])
    def test_an_exponent_in_decide_is_exit_3(self, capsys, gsch_file, problem):
        code, out, err = run(capsys, "solve", problem, gsch_file, "--decide", "1e9999999")
        assert code == 3 and out == "" and "not a rational" in err

    @pytest.mark.parametrize("argv", [["solve", "mpf"], ["classify"], ["export", "milp"]])
    def test_an_exponent_in_a_capacity_is_exit_3(self, capsys, tmp_path, argv):
        path = tmp_path / "exponent.json"
        nodes = [{"id": "g", "role": "generator"}, {"id": "l", "role": "load"}]
        path.write_text(json.dumps({"nodes": nodes, "edges": [{"a": "g", "b": "l", "s_min": "1", "s_max": "1", "cap": "1e9999999"}]}))
        code, out, err = run(capsys, *argv, str(path))
        assert code == 3 and out == "" and "not a rational" in err

    @pytest.mark.parametrize("gadget, port", [("gsch", "g"), ("gsch", "l"), ("gfch", "c")])
    def test_gadget_port_collision_is_exit_4(self, capsys, gadget, port):
        code, out, err = run(capsys, "gadget", gadget, "--x", "1", "--polarity", "minus", "--port", port)
        assert code == 4 and out == "" and "collides with an internal gadget node" in err

    def test_zero_denominator_gadget_size_is_exit_3(self, capsys):
        code, out, err = run(capsys, "gadget", "gsch", "--x", "1/0", "--polarity", "plus")
        assert code == 3 and out == "" and "zero denominator" in err

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"edges": []}, "network has no field 'nodes'"),
            ({"nodes": [{"id": "g", "role": "generator"}], "edges": 5}, "network.edges must be a list"),
            ({"nodes": [{"id": "g", "role": "generator"}, {"id": "l", "role": "load"}], "edges": [{"a": "g", "b": "l", "s_min": "1", "s_max": "1"}]}, "edges[0] has no field 'cap'"),
            ({"nodes": [{"id": "g", "role": "boss"}], "edges": []}, "nodes[0].role must be one of"),
            ({"nodes": [{"id": "g", "role": "generator"}], "edges": [{"a": "g", "b": "g", "s_min": [], "s_max": "1", "cap": "1"}]}, "edges[0].s_min"),
            ([], "network must be an object"),
        ],
    )
    @pytest.mark.parametrize("argv", [["solve", "mpf"], ["classify"], ["export", "milp"]])
    def test_malformed_network_document_is_exit_3_naming_the_field(self, capsys, tmp_path, argv, doc, field):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, *argv, str(path))
        assert code == 3 and out == ""
        assert field in err

    def test_float_in_subset_sum_instance_is_exit_3(self, capsys, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"M": [1.9, True, "3"], "w": 3.5}))
        code, out, err = run(capsys, "encode", "subset-sum-tree", str(path))
        assert code == 3 and out == "" and "instance.M[0]" in err

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"M": ["1_000", "3"], "w": 5}, "instance.M[0]"),
            ({"M": [" 3 ", "٣"], "w": 5}, "instance.M[1]"),
            ({"M": [3], "w": "５"}, "instance.w"),
            ({"M": [[1], 2], "w": 5}, "instance.M[0]"),
            ({"M": [1, 2], "w": None}, "instance.w"),
        ],
    )
    def test_an_instance_integer_that_is_not_an_int_or_ascii_digits_is_exit_3(self, capsys, tmp_path, doc, field):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "encode", "subset-sum-tree", str(path))
        assert code == 3 and out == "" and field in err

    @pytest.mark.parametrize(
        "kind, doc, field",
        [
            ("exact-cover-msf", {"M": "xyz", "S": ["xyz"]}, "instance.M must be a list"),
            ("exact-cover-mff", {"M": ["x", "y", "z"], "S": ["xyz"]}, "instance.S[0] must be a list"),
            ("exact-cover-msf", {"M": [1.5, True, None], "S": [[1.5, True, None]]}, "instance.M[0] must be a string name"),
            ("hamiltonian", {"nodes": ["a", "b"], "edges": ["ab"], "a": "a", "b": "b"}, "instance.edges[0] must be a list"),
            ("hamiltonian", {"nodes": ["a", "b"], "edges": [["a", "b"]], "a": 1.5, "b": "b"}, "instance.a must be a str"),
        ],
    )
    def test_malformed_name_instance_is_exit_3(self, capsys, tmp_path, kind, doc, field):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "encode", kind, str(path))
        assert code == 3 and out == "" and field in err


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


# One instance document per `encode` kind, each of which encodes as it stands.
SUBSET_SUM = {"M": [1, 2], "w": 2}
EXACT_COVER = {"M": ["a", "b", "c", "d", "e", "f"], "S": [["a", "b", "c"], ["d", "e", "f"], ["b", "c", "d"]]}
HAMILTONIAN = {"nodes": ["a", "c", "b"], "edges": [["a", "c"], ["c", "b"]], "a": "a", "b": "b"}
INSTANCES = {
    "exact-cover-mff": EXACT_COVER,
    "exact-cover-msf": EXACT_COVER,
    "hamiltonian": HAMILTONIAN,
    "subset-sum-cactus-mff": SUBSET_SUM,
    "subset-sum-cactus-msf": SUBSET_SUM,
    "subset-sum-tree": SUBSET_SUM,
}
NETWORK_COMMANDS = (["solve", "mpf"], ["solve", "msf"], ["solve", "mff"], ["classify"], ["export", "milp"])


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """A gadget network, a subset-sum instance, and the solution and outcome documents solved from them.

    Each document passes `verify` or `decode` as it stands, and each of
    `INSTANCES` encodes, so a tampered copy differs from an accepted
    document in one place.
    """
    d = tmp_path_factory.mktemp("documents")
    paths = {name: str(d / f"{name}.json") for name in ("net", "inst", "enc", "tree", "mpf", "mpf_json", "msf", "mff", "tree_msf", "doc")}
    assert main(["gadget", "gsch", "--x", "1", "--polarity", "minus", "--out", paths["net"]]) == 0
    for problem, name in (("mpf", "mpf_json"), ("msf", "msf"), ("mff", "mff")):
        assert main(["solve", problem, paths["net"], "--out", paths[name]]) == 0
    serialize.dump(serialize.load(paths["mpf_json"])["solution"], paths["mpf"])  # a bare solution
    assert all(main(["verify", paths["net"], paths[name]]) == 0 for name in ("mpf", "mpf_json", "msf", "mff"))
    serialize.dump({"M": [1, 2], "w": 2}, paths["inst"])
    assert main(["encode", "subset-sum-tree", paths["inst"], "--out", paths["enc"]]) == 0
    serialize.dump(serialize.load(paths["enc"])["network"], paths["tree"])
    assert main(["solve", "msf", paths["tree"], "--out", paths["tree_msf"]]) == 0
    assert main(["decode", "subset-sum-tree", paths["inst"], paths["tree_msf"]]) == 0
    assert all(encode(paths, kind, doc) == 0 for kind, doc in INSTANCES.items())
    return paths


def verify_and_decode(paths, doc) -> list[int]:
    """Exit codes of `verify` and `decode subset-sum-tree` with `doc` as the solution/outcome argument."""
    serialize.dump(doc, paths["doc"])
    return [main(["verify", paths["net"], paths["doc"]]), main(["decode", "subset-sum-tree", paths["inst"], paths["doc"]])]


def network_commands(paths, doc) -> list[int]:
    """Exit codes of every subcommand that reads a network, with `doc` as the network."""
    serialize.dump(doc, paths["doc"])
    return [main([*argv, paths["doc"]]) for argv in NETWORK_COMMANDS]


def encode(paths, kind, doc) -> int:
    """Exit code of `encode kind` with `doc` as the instance."""
    serialize.dump(doc, paths["doc"])
    return main(["encode", kind, paths["doc"]])


@st.composite
def tampered(draw, doc):
    """`doc` with one nested value replaced by arbitrary JSON or removed; the root itself may be replaced."""
    doc = copy.deepcopy(doc)
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node and draw(st.booleans()):
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        parent, node = node, node[key]
    if parent is None:
        return draw(JSON_VALUES)
    if draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(JSON_VALUES)
    return doc


class TestMalformedDocuments:
    """Every subcommand exits 0-4 on any JSON network, instance, solution or outcome, and never raises."""

    @given(doc=JSON_VALUES)
    @example(doc=[])
    @example(doc={"susceptance": [], "flow": [], "angle": [], "gen": {}, "load": {}})
    def test_any_json_value(self, documents, doc):
        assert all(0 <= code <= 4 for code in verify_and_decode(documents, doc))

    @given(data=st.data())
    def test_tampered_documents(self, documents, data):
        name = data.draw(st.sampled_from(["mpf", "mpf_json", "msf", "mff", "tree_msf"]))
        doc = data.draw(tampered(serialize.load(documents[name])))
        assert all(0 <= code <= 4 for code in verify_and_decode(documents, doc))

    @given(doc=JSON_VALUES)
    @example(doc={"nodes": [], "edges": []})
    def test_any_json_network(self, documents, doc):
        assert all(0 <= code <= 4 for code in network_commands(documents, doc))

    @given(data=st.data())
    def test_tampered_networks(self, documents, data):
        doc = data.draw(tampered(serialize.load(documents["net"])))
        assert all(0 <= code <= 4 for code in network_commands(documents, doc))

    @given(problem=st.sampled_from(["mpf", "msf", "mff"]), text=st.text(max_size=8) | st.from_regex(DECIMALS, fullmatch=True))
    @example(problem="msf", text="1e9999999")
    @example(problem="mpf", text="-")
    def test_any_decide_text(self, documents, problem, text):
        assert 0 <= main(["solve", problem, documents["net"], f"--decide={text}"]) <= 4

    @given(kind=st.sampled_from(sorted(INSTANCES)), doc=JSON_VALUES)
    def test_any_json_instance(self, documents, kind, doc):
        assert 0 <= encode(documents, kind, doc) <= 4

    @given(data=st.data())
    def test_tampered_instances(self, documents, data):
        kind = data.draw(st.sampled_from(sorted(INSTANCES)))
        doc = data.draw(tampered(INSTANCES[kind]))
        assert 0 <= encode(documents, kind, doc) <= 4

    @pytest.mark.parametrize(
        "doc, field",
        [
            ([], "solution must be an object, got list"),
            ({"susceptance": [], "flow": [], "angle": [], "gen": {}, "load": {}}, "solution.angle must be a dict"),
            ({"problem": "msf", "value": "3", "switched": {}, "solution": {}}, "outcome.switched must be a list"),
            ({"problem": [], "value": "3", "solution": {}}, "outcome.problem must be a str, got list"),
            ({"problem": "msf", "value": 3.5, "switched": [], "solution": {}}, "outcome.value"),
            ({"susceptance": [], "flow": [{"a": "v", "value": "1"}], "angle": {}, "gen": {}, "load": {}}, "solution.flow[0] has no field 'b'"),
            ({"problem": "msf", "value": "3", "switched": [{"a": "v"}], "solution": {}}, "outcome.switched[0] has no field 'b'"),
            ({"susceptance": [], "flow": [], "angle": {"g": "abc"}, "gen": {}, "load": {}}, "solution.angle.g: not a rational: 'abc'"),
            ({"susceptance": [], "flow": [], "angle": {}, "gen": {"g": 1.5}, "load": {}}, "solution.gen.g: expected an exact rational (string or int), got 1.5"),
            ({"susceptance": [], "flow": [], "angle": {}, "gen": {}, "load": {"l": "1/0"}}, "solution.load.l: zero denominator in '1/0'"),
            ({"problem": {}, "value": "3", "solution": {}}, "outcome.problem must be a str, got dict"),
            ({"problem": 3, "value": "3", "solution": {}}, "outcome.problem must be a str, got int"),
            ({"problem": "foo", "value": "3", "solution": {}}, "outcome.problem must be one of mpf, msf, mff, got 'foo'"),
        ],
    )
    def test_malformed_solution_is_exit_3_naming_the_field(self, capsys, documents, doc, field):
        serialize.dump(doc, documents["doc"])
        code, out, err = run(capsys, "verify", documents["net"], documents["doc"])
        assert code == 3 and out == "" and field in err

    @pytest.mark.parametrize("at_end", [False, True], ids=["prepended", "appended"])
    @pytest.mark.parametrize("name, keys", [("mpf_json", ("solution", "flow")), ("msf", ("solution", "susceptance")), ("mff", ("assignment",))])
    def test_an_edge_listed_twice_is_exit_3(self, capsys, documents, name, keys, at_end):
        # the last record used to win: a prepended bogus flow passed `verify`, an appended one failed it
        doc = serialize.load(documents[name])
        *path, key = keys
        parent = doc
        for k in path:
            parent = parent[k]
        records = parent[key]
        if not records:  # a network without FACTS edges assigns nothing, so give the assignment one record
            records.append({"a": "g", "b": "l", "value": "1"})
        first = next(i for i, r in enumerate(records) if (r["a"], r["b"]) == ("g", "l"))
        records.insert(len(records) if at_end else 0, {"a": "g", "b": "l", "value": "999"})
        where = ".".join(["outcome", *keys] if name == "mff" else keys)
        second = len(records) - 1 if at_end else first + 1
        serialize.dump(doc, documents["doc"])
        code, out, err = run(capsys, "verify", documents["net"], documents["doc"])
        assert code == 3 and out == "" and f"{where}[{second}]: edge g--l listed twice" in err

    def test_a_switched_edge_listed_twice_is_exit_3(self, capsys, tmp_path):
        # the switch set used to collapse the repeat: `verify` printed OK and `decode` the subset
        paths = {name: str(tmp_path / f"{name}.json") for name in ("inst", "enc", "net", "out")}
        serialize.dump({"M": [1, 2, 3], "w": 5}, paths["inst"])
        assert main(["encode", "subset-sum-cactus-msf", paths["inst"], "--out", paths["enc"]]) == 0
        serialize.dump(serialize.load(paths["enc"])["network"], paths["net"])
        assert main(["solve", "msf", paths["net"], "--out", paths["out"]]) == 0
        doc = serialize.load(paths["out"])
        first = doc["switched"][0]
        doc["switched"].append(dict(first))
        serialize.dump(doc, paths["out"])
        capsys.readouterr()
        message = f"outcome.switched[{len(doc['switched']) - 1}]: edge {first['a']}--{first['b']} listed twice"
        for argv in (["verify", paths["net"]], ["decode", "subset-sum-cactus-msf", paths["inst"]]):
            code, out, err = run(capsys, *argv, paths["out"])
            assert code == 3 and out == "" and message in err

    def test_mff_outcome_of_the_tree_encoding_is_exit_4(self, capsys, documents):
        doc = serialize.load(documents["tree_msf"])
        doc.update(problem="mff", assignment=[], certified=True)
        del doc["switched"]
        serialize.dump(doc, documents["doc"])
        code, _, err = run(capsys, "decode", "subset-sum-tree", documents["inst"], documents["doc"])
        assert code == 4 and "MSF outcome" in err

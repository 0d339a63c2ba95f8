import json

import pytest

from ldcflow import serialize
from ldcflow.cli import main
from ldcflow.gadgets import Polarity


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


class TestChains:
    @pytest.mark.parametrize("gadget", ["gsch", "gfch"])
    @pytest.mark.parametrize("polarity", [p.value for p in Polarity])
    def test_gadget_solve_verify_round_trip(self, capsys, tmp_path, gadget, polarity):
        net = tmp_path / "net.json"
        sol = tmp_path / "sol.json"
        assert run(capsys, "gadget", gadget, "--x", "2", "--polarity", polarity, "--out", str(net))[0] == 0
        problem = "mff" if gadget == "gfch" else "msf"
        assert run(capsys, "solve", problem, str(net), "--out", str(sol))[0] == 0
        code, out, _ = run(capsys, "verify", str(net), str(sol))
        assert code == 0 and out.strip().endswith("OK")

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


class TestVerify:
    def test_tampered_solution_fails(self, capsys, tmp_path, gsch_file):
        sol = tmp_path / "sol.json"
        run(capsys, "solve", "mpf", gsch_file, "--out", str(sol))
        doc = json.loads(sol.read_text())
        doc["flow"][0]["value"] = "99"
        sol.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", gsch_file, str(sol))
        assert code == 1
        assert "PowerLaw" in out or "Kirchhoff" in out or "CapacityBound" in out


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


class TestErrors:
    def test_missing_file_is_exit_3(self, capsys):
        code, _, err = run(capsys, "solve", "mpf", "/nonexistent.json")
        assert code == 3 and err

    def test_solver_precondition_is_exit_4(self, capsys, tmp_path):
        path = tmp_path / "facts.json"
        run(capsys, "gadget", "gfch", "--x", "1", "--polarity", "minus", "--out", str(path))
        code, _, err = run(capsys, "solve", "msf", str(path))
        assert code == 4 and "susceptance" in err

    def test_usage_error_is_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "nonsense", "x.json"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("k", ["0", "-2"])
    def test_grid_below_one_is_a_usage_error(self, capsys, tmp_path, k):
        path = tmp_path / "f.json"
        run(capsys, "gadget", "gfch", "--x", "1", "--polarity", "minus", "--out", str(path))
        with pytest.raises(SystemExit) as exc:
            main(["solve", "mff", str(path), "--grid", k])
        assert exc.value.code == 2

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
    @pytest.mark.parametrize("argv", [["solve", "mpf"], ["solve", "msf"], ["solve", "mff"], ["export", "milp"]])
    def test_invalid_network_is_exit_4_with_report(self, capsys, tmp_path, argv, edge, reported):
        path = tmp_path / "bad.json"
        nodes = [{"id": "g", "role": "generator"}, {"id": "l", "role": "load"}]
        path.write_text(json.dumps({"nodes": nodes, "edges": [edge]}))
        code, out, err = run(capsys, *argv, str(path))
        assert code == 4 and out == ""
        assert "Structural at " in err and reported in err

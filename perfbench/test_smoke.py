"""Smoke check of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Every metric BENCHMARK.json names must come out with its unit and nothing
may fail; the traced run must match the layer map; and without the
library the benchmark must exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)


def result_of(workload: str, trace: int) -> tuple[dict, dict]:
    done = run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    *_, report, result = done.stdout.strip().splitlines()
    return json.loads(report)["report"], json.loads(result)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_comes_with_its_unit(workload, trace):
    report, result = result_of(workload, trace)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and report["failed_frac"] == 0
    assert result["attempted"] >= len(report["instances"]) >= 1
    env = report["env"]
    assert {"python", "nproc", "gmpy2", "LDC_THREADS", "seed", "commit"} <= set(env) and env["seed"] == 7
    if trace:
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        assert report["absent_hooks"] == []
        assert (metrics["mff.candidates"] > 0) == (workload == "reductions")
        assert (metrics["maxflow.calls"] > 0) == (workload != "scan_random")
        assert metrics["lp.calls"] > 0 and 0 < metrics["lp.share"] < 1


def test_without_the_library_it_exits_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__", "results"))
    done = run(tmp_path, WORKLOADS[0], 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_a_missing_entry_point_is_reported_absent(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    gone = (("ldcflow.mpf", "formulate_mpf_removed", "mpf.formulate"), ("ldcflow.no_such_module", "solve", "lp"))
    monkeypatch.setattr(tracing, "HOOKS", tracing.HOOKS + gone)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["ldcflow.mpf.formulate_mpf_removed", "ldcflow.no_such_module.solve"]


def test_the_pass_count_depends_on_the_workload_and_seconds_only(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import run

    seconds = SPEC["run_seconds"]
    for workload in WORKLOADS:
        untraced = run.pass_count(workload, seconds, traced=False)
        traced = run.pass_count(workload, seconds, traced=True)
        assert untraced >= 2 and 1 <= traced < untraced
        # Nominally the passes fill about `seconds`.
        assert 0.75 * seconds <= untraced * run.PASS_SECONDS[workload] <= 1.25 * seconds


def test_a_long_call_is_scaled_by_the_kernel_samples_during_it(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import time

    import calibration

    with calibration.Sampler() as sampler:
        _, wall, scaled = calibration.timed(sampler, time.sleep, 0.2)
        during = sampler.between(0.0, float("inf"))
    assert wall >= 0.2 and len(during) >= 3
    # The kernel time the call was scaled by is a median over the two ends and the
    # samples during the call, so with three or more of those it lies among them.
    kernel = calibration.KERNEL_REFERENCE_S * wall / scaled
    assert min(during) <= kernel <= max(during)

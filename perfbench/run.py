"""Run one workload of the ldcflow benchmark and print its metrics.

    python3 perfbench/run.py --workload bnb_random --seed 2015 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from `src/`.
The run makes a fixed number of passes over the workload's seeded
instance set, checking every output outside the timed region.  The count
depends only on the workload and `--seconds` (PASS_SECONDS holds a
nominal pass time), never on the speed of the code measured, so
every commit is measured with the same estimator; a run stops early only
when it would otherwise take CUTOFF times `--seconds`, and then says so
in its report.

Times are reported at a fixed reference speed of the host (see
`calibration.py`).  An instance's time is the low median of its scaled
times over the passes, and the end-to-end figures are taken over those
instance times; `setup_s` is the median of the scaled set-up samples.
The report keeps each instance's fastest wall time.
The metric names and units are the ones `BENCHMARK.json` declares.

`--trace 0` reports the end-to-end metrics.  `--trace 1` solves every
instance untraced and then traced, reports the per-layer metrics (medians
over passes) and the tracing overhead, and writes the spans to
`perfbench/results/`.  The last line of standard output is the result
object; the line before it is a report with the environment, the instance
shapes and any failures.  Exit code 2 means the library could not be
imported and nothing was measured.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from functools import partial
from pathlib import Path
from time import perf_counter

import calibration
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ("bnb_random", "scan_random", "reductions")
# Nominal seconds of one untraced pass over the full instance set (an unloaded host
# takes about this long; a busy one up to 1.7 times as long); `--seconds` over it is
# the pass count.  A traced pass solves every instance twice and costs about
# TRACE_COST untraced ones.
PASS_SECONDS = {"bnb_random": 3.3, "scan_random": 7.0, "reductions": 10.0}
TRACE_COST = 2.5
CUTOFF = 3
SETUP_SAMPLES = 16
# A set-up sample runs in a fresh interpreter, which times the kernel on its own core
# before it imports ldcflow and after it has built the inputs, and prints both times.
SETUP_CODE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import calibration; before = calibration.kernel_seconds(); "
    "import workloads; workloads.build(sys.argv[3], int(sys.argv[4]), sys.argv[5]); "
    "print(before, calibration.kernel_seconds())"
)
MAX_REPORTED_FAILURES = 20


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: the benchmark's own smoke check")
    return p.parse_args(argv)


def time_setup(args, sampler, repeats: int) -> list[float]:
    """Set-up times, at the reference speed, of fresh interpreters importing ldcflow and generating the inputs."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(BENCH_DIR), str(SRC), args.workload, str(args.seed), args.size]
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        # No timeout: its polling would quantise the time.
        done = subprocess.run(cmd, check=True, capture_output=True, text=True)
        elapsed = perf_counter() - t0
        times.append(calibration.scale(elapsed, [*map(float, done.stdout.split()), *sampler.between(t0, t0 + elapsed)]))
    return times


def pass_count(workload: str, seconds: float, traced: bool) -> int:
    """Passes a run makes: fixed by the workload and `--seconds`, whatever the code's speed."""
    return max(1, round(seconds / (PASS_SECONDS[workload] * (TRACE_COST if traced else 1))))


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ldcflow").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "LDC_THREADS": os.environ.get("LDC_THREADS"),
        "seed": seed,
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def solve(inst, index: int, tracer, arg):
    with tracer.instance(index):
        return inst.solve(arg, tracer)


def solve_one(inst, index: int, tracer, sampler):
    """Time one solve and check its output.

    Returns its time at the reference speed (None when it failed), its
    wall time, the output and the problems the checks found.
    """
    try:
        out, wall, scaled = calibration.timed(sampler, solve, inst, index, tracer, inst.make())
        found = inst.check(out)
    except Exception as exc:  # a failing instance is counted and the run goes on
        traceback.print_exc(file=sys.stderr)
        return None, None, None, [f"{type(exc).__name__}: {exc}"]
    return (None if found else scaled), wall, out, found


def run_pass(workload, tracer, passes, sampler):
    """Solve every instance once untraced and, given a tracer, once traced next to it.

    Solving the traced copy next to the untraced one exposes both to the
    same host speed, so their ratio gives the tracing overhead; which of
    the two goes first alternates, so that neither gains from the other
    having warmed the caches.
    """
    null = tracing.NullTracer()
    for i, inst in enumerate(workload.instances):
        order = (False,) if tracer is None else (False, True) if i % 2 else (True, False)
        for traced_run in order:
            if not traced_run:
                t, wall, out, found = solve_one(inst, i, null, sampler)
                passes.untraced[i].append(t)
                passes.wall_s[i].append(wall)
                passes.outputs[i] = out
            else:
                tracer.install()
                try:
                    t, _, _, found = solve_one(inst, i, tracer, sampler)
                finally:
                    tracer.uninstall()
                passes.traced[i].append(t)
            passes.attempted += 1
            passes.failed += t is None
            passes.fail([(inst.label, msg) for msg in found])


def stop_children():
    """End any pool worker a failed instance left behind."""
    gc.collect()
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(30)


class Passes:
    """Every instance's times over the passes, with the failures they met."""

    def __init__(self, size: int):
        # Per instance, one entry a pass: seconds at the reference speed, None for a failed solve.
        self.untraced: list[list] = [[] for _ in range(size)]
        self.traced: list[list] = [[] for _ in range(size)]
        self.wall_s: list[list] = [[] for _ in range(size)]  # untraced wall times, for the report
        self.layers: list[dict] = []  # per-layer metrics of each traced pass
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.outputs: list = [None] * size  # of the last pass
        self.done = 0
        self.cut_short = False
        self.pass_s: list[float] = []  # seconds each pass took, checks included
        self.setup: list[float] = []  # set-up times sampled between the passes

    def fail(self, labelled):
        self.failures += [f"{label}: {msg}" for label, msg in labelled]

    def instance_times(self) -> list:
        """Each instance's low median untraced time at the reference speed; None if a solve failed.

        The low median of two passes is the faster one: a stall of the host
        that one solve met and the kernel around it did not is left out.
        """
        return [None if None in ts else statistics.median_low(ts) for ts in self.untraced]


def setup_breaks(count: int, samples: int = SETUP_SAMPLES) -> list[int]:
    """How many set-up samples to take before each of `count` passes and after the last."""
    cuts = [round(samples * j / (count + 1)) for j in range(count + 2)]
    return [b - a for a, b in zip(cuts, cuts[1:])]


def measure(workload, count: int, limit: float, tracer, sampler, sample_setup) -> Passes:
    """`count` passes, or fewer when the next one would end after `limit` seconds (at least one).

    `sample_setup(k)` takes k set-up samples; they are spread over the
    breaks before, between and after the passes, so that they sample the
    host all through the run: a slow spell shorter than the run then
    cannot hold all of them.
    """
    passes = Passes(len(workload.instances))
    breaks = setup_breaks(count)
    started = perf_counter()
    for index in range(count):
        passes.setup += sample_setup(breaks[index])
        t0 = perf_counter()
        offset = len(tracer.spans) if tracer else 0
        run_pass(workload, tracer, passes, sampler)
        if tracer:
            passes.layers.append(tracing.layer_metrics(tracer.spans[offset:], offset))
        passes.pass_s.append(perf_counter() - t0)
        passes.done = index + 1
        if passes.done < count and (perf_counter() - started) * (passes.done + 1) / passes.done > limit:
            passes.cut_short = True
            break
    passes.setup += sample_setup(sum(breaks[passes.done :]))
    return passes


def end_to_end(setup_s: float, times: list, peak_rss_mb: float) -> dict:
    ok = [t for t in times if t is not None]
    ms = sorted(1000 * t for t in ok) or [0.0]
    return {
        "setup_s": setup_s,
        "instances_per_s": len(ok) / sum(ok) if ok else 0.0,
        "instance_ms_p50": statistics.median(ms),
        "instance_ms_p90": statistics.quantiles(ms, n=10, method="inclusive")[8] if len(ms) > 1 else ms[0],
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(passes: Passes) -> dict:
    pairs = [
        (u, t) for us, ts in zip(passes.untraced, passes.traced) for u, t in zip(us, ts) if u is not None and t is not None
    ]
    metrics = tracing.median_metrics(passes.layers)
    metrics["trace.overhead_frac"] = sum(t for _, t in pairs) / sum(u for u, _ in pairs) - 1
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    try:
        import ldcflow  # noqa: F401  - fail before measuring anything
    except ImportError as exc:
        print(f"perfbench: cannot import ldcflow from {SRC}: {exc}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.build(args.workload, args.seed, args.size)
    tracer = tracing.Tracer() if args.trace else None
    try:
        count = pass_count(args.workload, args.seconds, bool(args.trace))
        # Set-up time is reported only untraced; a traced run does not sample it.
        with calibration.Sampler() as sampler:
            sample_setup = (lambda k: []) if args.trace else partial(time_setup, args, sampler)
            passes = measure(workload, count, CUTOFF * args.seconds, tracer, sampler, sample_setup)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        try:
            mismatches = workload.cross_check(passes.outputs)
        except Exception as exc:  # the reference search itself failed
            traceback.print_exc(file=sys.stderr)
            mismatches = [(None, f"cross-check raised {type(exc).__name__}: {exc}")]
    finally:
        stop_children()
    passes.failed += len(mismatches)
    passes.fail([("cross-check" if i is None else workload.instances[i].label, msg) for i, msg in mismatches])

    times = passes.instance_times()
    if args.trace:
        metrics, declared = per_layer(passes), SPEC["per_layer"]
    else:
        metrics, declared = end_to_end(statistics.median(passes.setup), times, peak_rss_mb), SPEC["end_to_end"]
    report = {
        "workload": args.workload,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(args.seed),
        "instances": [
            dict(label=inst.label, **inst.shape, ms=None if t is None else 1000 * t, wall_ms=None if t is None else 1000 * min(walls))
            for inst, t, walls in zip(workload.instances, times, passes.wall_s)
        ],
        "passes": {"done": passes.done, "planned": count, "traced": bool(args.trace)},
        "pass_s": passes.pass_s,
        "cut_short": passes.cut_short,
        "setup_times_s": passes.setup,
        "failed_frac": passes.failed / passes.attempted,
        "failures": passes.failures[:MAX_REPORTED_FAILURES],
    }
    if args.trace:
        results = BENCH_DIR / "results"
        results.mkdir(exist_ok=True)
        spans_path = results / f"trace-{args.workload}-{args.seed}.json"
        tracer.write(spans_path, {"workload": args.workload, "seed": args.seed, "size": args.size})
        report["absent_hooks"] = tracer.absent
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    print(json.dumps({"report": report}))
    result = {
        "correct": passes.failed == 0,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Outside-in tracing of ldcflow's layers.

The tracer records spans from this directory only.  It replaces functions
on the module attribute through which their caller reaches them: `solve_mpf`
calls `ldcflow.mpf.solve_lp`, branch-and-bound calls
`ldcflow.msf.classical_max_flow`, and so on (see HOOKS).  The benchmark's
own calls into the library (the search itself, encoders, JSON, validation)
are spans it opens with `Tracer.span`.  Nothing under `src/` changes.

Spans are kept in memory and written once, when the run ends.  A span's
self time is its duration minus the part its child spans cover; the
bookkeeping a hook does after the call (LP shape, result size) counts as
covered, so it lands in no layer's self time.  Work done in a process-pool
worker is not observed: the map hook counts the tasks that completed there
(no span opened in this process while the result was fetched), and those
tasks are reported as unobserved LPs rather than as zero.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
from collections import Counter
from collections.abc import Sized
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name).  Each wrapper sits on the attribute its caller looks up.
HOOKS = (
    ("ldcflow.mpf", "solve_lp", "lp"),
    ("ldcflow.mpf", "formulate_mpf", "mpf.formulate"),
    ("ldcflow.mpf", "connected_components", "classify.components"),
    ("ldcflow.msf", "solve_mpf", "mpf"),
    ("ldcflow.msf", "classical_max_flow", "maxflow"),
    ("ldcflow.msf", "subnetwork", "network.subnetwork"),
    ("ldcflow.msf", "ordered_map", "parallel.map"),
    ("ldcflow.mff", "solve_mpf", "mpf"),
    ("ldcflow.mff", "pin_susceptances", "mff.pin"),
    ("ldcflow.mff", "ordered_map", "parallel.map"),
    ("ldcflow.serialize", "subnetwork", "network.subnetwork"),
)


class Span:
    __slots__ = ("name", "caller", "parent", "instance", "start", "end", "done", "info")

    def __init__(self, name, caller, parent, instance, start):
        self.name = name
        self.caller = caller  # module whose attribute was hooked, or "bench"
        self.parent = parent  # index of the enclosing span, or None
        self.instance = instance
        self.start = start
        self.end = None  # the call returned
        self.done = None  # the hook's bookkeeping finished
        self.info = None


class MapInfo:
    """What one `ordered_map` call did: tasks handed in, results fetched, how many of them
    were computed out of process, and when the last one arrived."""

    __slots__ = ("tasks", "fetched", "remote", "exhausted")

    def __init__(self, tasks):
        self.tasks = tasks
        self.fetched = 0
        self.remote = 0
        self.exhausted = None


class NullTracer:
    """The untraced run: benchmark spans cost one context-manager entry, hooks are not installed."""

    @contextmanager
    def span(self, name):
        yield _SCRATCH

    @contextmanager
    def instance(self, index):
        yield


_SCRATCH = Span("", "bench", None, None, 0.0)


def _lp_info(args, result):
    """(rows, columns, non-zeros) of the program passed in and the widest numerator/denominator returned."""
    p = args[0]
    constraints = p.constraints
    bits = 0
    for v in (result.assignment or {}).values():
        bits = max(bits, v.numerator.bit_length(), v.denominator.bit_length())
    return len(constraints), len(p.variables), sum(len(c.coeffs) for c in constraints), bits


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.recording = False
        self.absent: list[str] = []
        self._open: list[int] = []
        self._instance = None
        self._saved = []
        # A forked pool worker inherits the hooks; it must not record into its copy of the spans.
        os.register_at_fork(after_in_child=self._stop)

    def _stop(self):
        self.recording = False

    # --- span bookkeeping ---------------------------------------------------

    def _begin(self, name, caller) -> Span:
        span = Span(name, caller, self._open[-1] if self._open else None, self._instance, perf_counter())
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def _finish(self, span):
        if span.end is None:
            span.end = perf_counter()
        span.done = perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name):
        """A span around one of the benchmark's own calls into the library."""
        span = self._begin(name, "bench")
        try:
            yield span
        finally:
            self._finish(span)

    @contextmanager
    def instance(self, index):
        """Record spans while one instance is solved; checks outside it stay untraced."""
        self._instance = index
        self.recording = True
        try:
            with self.span("instance"):
                yield
        finally:
            self.recording = False

    # --- hooks ----------------------------------------------------------------

    def install(self):
        """Wrap every hook that exists; a missing one is reported as absent, not fatal."""
        self.absent = []
        for module_name, attr, name in HOOKS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            caller = module_name.rsplit(".", 1)[-1]
            if name == "parallel.map":
                wrapper = self._wrap_map(fn, caller)
            else:
                wrapper = self._wrap(fn, name, caller, _lp_info if name == "lp" else None)
            setattr(module, attr, wrapper)
            self._saved.append((module, attr, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, name, caller, describe):
        tracer = self

        def hooked(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            span = tracer._begin(name, caller)
            try:
                result = fn(*args, **kwargs)
                span.end = perf_counter()
                if describe is not None:
                    try:
                        span.info = describe(args, result)
                    except (AttributeError, TypeError):  # the layer changed shape; keep timing it
                        pass
                return result
            finally:
                tracer._finish(span)

        return hooked

    def _wrap_map(self, fn, caller):
        tracer = self

        def hooked(func, tasks, *args, **kwargs):
            if not tracer.recording:
                return fn(func, tasks, *args, **kwargs)
            span = tracer._begin("parallel.map", caller)
            span.info = MapInfo(len(tasks) if isinstance(tasks, Sized) else None)
            try:
                result = fn(func, tasks, *args, **kwargs)
            finally:
                tracer._finish(span)
            return tracer._drain(iter(result), span.info, caller)

        return hooked

    def _drain(self, results, info, caller):
        """Yield a map's results, timing each fetch and noting the ones computed elsewhere.

        Callers zip the map with their task list, so the map is never asked
        for a result past the last one; the last task's arrival marks the end.
        """
        while True:
            span = self._begin("parallel.next", caller)
            opened = len(self.spans)
            try:
                value = next(results)
            except StopIteration:
                return
            finally:
                self._finish(span)
            info.fetched += 1
            if len(self.spans) == opened:
                info.remote += 1
            if info.fetched == info.tasks:
                info.exhausted = span.done
            yield value

    # --- output ---------------------------------------------------------------

    def write(self, path, meta):
        """All spans, times in seconds from the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        rows = [
            [s.name, s.caller, s.parent, s.instance, round(s.start - t0, 7), round(s.end - t0, 7), _plain(s.info)]
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"meta": meta, "columns": ["name", "caller", "parent", "instance", "start", "end", "info"], "spans": rows}, fh)
            fh.write("\n")


def _plain(info):
    if isinstance(info, MapInfo):
        return {"tasks": info.tasks, "fetched": info.fetched, "remote": info.remote}
    return info


# --- per-layer metrics ----------------------------------------------------------


def _ratio(num, den):
    return num / den if den else 0.0


def _search_counts(spans: list[Span], maps: list[Span]):
    """Counts read off the order of the calls `msf` and `mff` make within each instance.

    A bound (`classical_max_flow` from `msf`) followed by a solve became a
    branch-and-bound node; one followed by another bound, or by the end of
    the instance, was pruned.  A solve issued after the instance's map had
    delivered its last result repeats one the scan already made.
    """
    scan_end = {}
    for m in maps:
        if m.info.exhausted is not None:
            scan_end.setdefault((m.caller, m.instance), m.info.exhausted)
    bound_open: dict = {}
    pruned = 0
    solves, resolves = Counter(), Counter()
    for s in spans:
        if s.name == "maxflow":
            pruned += bound_open.get(s.instance, False)
            bound_open[s.instance] = True
        elif s.name == "mpf":
            if s.caller == "msf":
                bound_open[s.instance] = False
            solves[s.caller] += 1
            resolves[s.caller] += s.start > scan_end.get((s.caller, s.instance), float("inf"))
    pruned += sum(bound_open.values())
    return pruned, solves, resolves


def layer_metrics(spans: list[Span], offset: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass: `spans` is `Tracer.spans[offset:]` for that pass."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent - offset] += s.done - s.start
    self_time, count = Counter(), Counter()
    for s, cover in zip(spans, covered):
        self_time[s.name] += (s.end - s.start) - cover
        count[s.name] += 1

    lp = [s.info for s in spans if s.name == "lp" and s.info is not None]
    maps = [s for s in spans if s.name == "parallel.map"]
    remote = Counter()
    for m in maps:
        remote[m.caller] += m.info.remote
    pruned, solves, resolves = _search_counts(spans, maps)
    msf_instances = {s.instance for s in spans if s.name == "msf"}
    msf_lps = sum(1 for s in spans if s.name == "lp" and s.instance in msf_instances) + remote["msf"]
    traced_s = sum(s.end - s.start for s in spans if s.name == "instance")

    return {
        "lp.calls": count["lp"],
        "lp.unobserved_calls": sum(remote.values()),
        "lp.self_s": self_time["lp"],
        "lp.ms_per_call": 1000 * _ratio(self_time["lp"], count["lp"]),
        "lp.share": _ratio(self_time["lp"], traced_s),
        "lp.rows_mean": _ratio(sum(i[0] for i in lp), len(lp)),
        "lp.cols_mean": _ratio(sum(i[1] for i in lp), len(lp)),
        "lp.nnz_mean": _ratio(sum(i[2] for i in lp), len(lp)),
        "lp.result_bits_max": max((i[3] for i in lp), default=0),
        "mpf.calls": count["mpf"],
        "mpf.formulate_s": self_time["mpf.formulate"],
        "mpf.self_s": self_time["mpf"],
        "classify.components_s": self_time["classify.components"],
        "network.subnetwork_calls": count["network.subnetwork"],
        "network.subnetwork_s": self_time["network.subnetwork"],
        "network.validate_s": self_time["network.validate"],
        "maxflow.calls": count["maxflow"],
        "maxflow.self_s": self_time["maxflow"],
        "maxflow.ms_per_call": 1000 * _ratio(self_time["maxflow"], count["maxflow"]),
        "msf.nodes": solves["msf"] + remote["msf"],
        "msf.pruned": pruned,
        "msf.prune_frac": _ratio(pruned, count["maxflow"]),
        "msf.resolves": resolves["msf"],
        "msf.lp_per_instance": _ratio(msf_lps, len(msf_instances)),
        "msf.self_s": self_time["msf"],
        "mff.candidates": solves["mff"] - resolves["mff"] + remote["mff"],
        "mff.pin_s": self_time["mff.pin"],
        "mff.self_s": self_time["mff"],
        "reductions.encode_s": self_time["reductions.encode"],
        "reductions.decode_s": self_time["reductions.decode"],
        "serialize.s": self_time["serialize"],
        "serialize.bytes": sum(s.info for s in spans if s.name == "serialize"),
        "parallel.pool_engaged": sum(1 for m in maps if m.info.remote),
        "parallel.tasks": sum(m.info.fetched for m in maps),
        "parallel.wait_s": self_time["parallel.map"] + self_time["parallel.next"],
    }


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median_low(m[name] for m in per_pass) for name in per_pass[0]}

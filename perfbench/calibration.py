"""Times at a fixed reference speed of the host.

Other tenants of a shared host slow its cores by up to 1.7 times, in
spells that last from a tenth of a second to minutes, so a wall time
alone does not repeat.  A timed call therefore runs between two runs of
a small fixed Fraction kernel, and a background thread (`Sampler`) runs
the kernel again every 20 ms while the call lasts.  The call's wall time
is scaled by the kernel's reference time over the median of the kernel
times around and during it.  The kernel slows down with most of what
slows the call, so the scaled time repeats far better than the wall
time; stalls it does not see are left to the caller, which takes a low
median over repeated calls.  The reference, KERNEL_REFERENCE_S, is what the
kernel takes on an unloaded 2-vCPU x86_64 VM, so scaled times read as
seconds there.  The kernel is the benchmark's own code, so code that
gets slower still reads slower.

This module imports nothing but the standard library, because the
fresh interpreters that time `setup_s` import it first.
"""

import bisect
import statistics
import threading
from fractions import Fraction
from time import perf_counter

KERNEL = tuple(Fraction(i, i + 3) for i in range(1, 60))
KERNEL_REFERENCE_S = 1.55e-4


def kernel_seconds() -> float:
    """Time one run of the kernel: how fast the host runs Python right now."""
    t0 = perf_counter()
    total = Fraction(0)
    for x in KERNEL:
        total += x * x
    return perf_counter() - t0


def scale(elapsed: float, kernel_times) -> float:
    """`elapsed` at the reference speed, given the kernel's times around and during it."""
    return elapsed * KERNEL_REFERENCE_S / statistics.median(kernel_times)


def _end(sample):
    return sample[0]


class Sampler:
    """Times the kernel every PERIOD_S seconds in a background thread while it is running.

    A call that lasts longer than a period is then scaled by the kernel's
    speed all through it, not only at its two ends; that matters most
    while a process pool works and this process waits.  A sample costs
    about 1 % of a period.
    """

    PERIOD_S = 0.02

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (when it ended, kernel seconds), in order
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="kernel-sampler", daemon=True)

    def _run(self):
        while not self._stop.wait(self.PERIOD_S):
            k = kernel_seconds()
            self.samples.append((perf_counter(), k))

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def between(self, start: float, end: float) -> list[float]:
        """Kernel times of the samples that ran between `start` and `end`."""
        first = bisect.bisect_left(self.samples, start, key=_end)
        return [k for when, k in self.samples[first:] if when <= end]


def timed(sampler: Sampler, fn, *args):
    """Call fn(*args); return its result, its wall time and that time at the reference speed."""
    before = kernel_seconds()
    t0 = perf_counter()
    result = fn(*args)
    elapsed = perf_counter() - t0
    return result, elapsed, scale(elapsed, [before, kernel_seconds(), *sampler.between(t0, t0 + elapsed)])

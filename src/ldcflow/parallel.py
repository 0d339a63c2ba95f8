"""Optional process-level parallelism for embarrassingly parallel searches.

The exhaustive switching scans and the FACTS assignment searches evaluate
one independent LP per candidate; those evaluations may run in a process
pool.  `optima` reduces them in task order, so the outcome is identical to
a sequential run no matter the worker count.  LDC_THREADS caps the pool
(default: all cores); pools only engage from POOL_THRESHOLD tasks on
because each worker re-imports the package.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Callable, Iterable, Sequence

POOL_THRESHOLD = 4096


def thread_count() -> int:
    raw = os.environ.get("LDC_THREADS", "")
    try:
        count = int(raw)
    except ValueError:
        count = 0
    if count <= 0:
        count = os.cpu_count() or 1
    return count


def ordered_map(fn: Callable, tasks: Sequence) -> Iterable:
    """Map preserving task order; uses a process pool for large batches.

    `fn` must be picklable (a module-level function or functools.partial
    over one).  Falls back to a sequential map if the pool cannot start.
    """
    workers = thread_count()
    if workers <= 1 or len(tasks) < POOL_THRESHOLD:
        return map(fn, tasks)
    try:
        pool = multiprocessing.Pool(workers)
    except OSError:
        return map(fn, tasks)

    def run():
        try:
            chunk = max(16, len(tasks) // (workers * 8))
            yield from pool.imap(fn, tasks, chunksize=chunk)
        finally:
            pool.close()
            pool.join()

    return run()


def optima(tasks: Iterable, values: Iterable) -> list:
    """Every task whose value is the largest, in task order.

    `tasks` is zipped first, so a lazy `values` (an `ordered_map` result)
    is never asked for a value past the last task.
    """
    best, winners = None, []
    for task, value in zip(tasks, values):
        if not winners or value > best:
            best, winners = value, [task]
        elif value == best:
            winners.append(task)
    return winners

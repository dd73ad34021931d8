"""The process-pool policy shared by every scan and verification suite."""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor


def parallel_map(fn, tasks, jobs: int):
    """Yield fn(task) for each task, in task order.

    Uses min(jobs, len(tasks), cpu count) worker processes: one or fewer runs
    in-process, more opens one pool for this call.  Results are identical
    for every job count; ``fn`` and the tasks must be picklable.
    """
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        yield from map(fn, tasks)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, tasks)

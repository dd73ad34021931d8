"""The process-pool policy shared by every scan and verification suite.

Back-to-back `parallel_map` calls share one pool: a call that finds a pool of
its worker count open takes it, and a pool left unused for `_IDLE_S` seconds
is shut down (its workers exit and are reaped).  The workers are forked when
the pool opens, so they see the modules as they were then: a module patched
later in the same burst of calls is not patched in them.  Output does not
depend on the job count.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

_IDLE_S = 0.1  # seconds an unused pool stays open for the next call

_lock = threading.Lock()
_kept = None  # (worker count, executor) of the open pool
_closer = None  # the timer that closes the open pool once it is idle


def _take(workers: int) -> ProcessPoolExecutor:
    """The open pool of `workers` workers; a pool of another size is shut
    down first, and a new one opened when none is left."""
    global _kept, _closer
    with _lock:
        if _closer is not None:
            _closer.cancel()
            _closer = None
        if _kept is not None and _kept[0] != workers:
            _kept[1].shutdown()
            _kept = None
        if _kept is None:
            _kept = (workers, ProcessPoolExecutor(max_workers=workers))
        return _kept[1]


def _release(executor: ProcessPoolExecutor) -> None:
    """Close `executor` after `_IDLE_S` seconds unless a call takes it first."""
    global _closer
    with _lock:
        if _kept is None or _kept[1] is not executor:
            return
        _closer = threading.Timer(_IDLE_S, _close, (executor, True))
        _closer.daemon = True
        _closer.start()


def _close(executor: ProcessPoolExecutor, idle: bool = False) -> None:
    """Shut `executor` down and stop keeping it; from the idle timer, only if
    no call has taken the pool since that timer started."""
    global _kept, _closer
    with _lock:
        if idle and _closer is not threading.current_thread():
            return
        if _kept is not None and _kept[1] is executor:
            _kept = _closer = None  # a timer still running finds itself replaced
        executor.shutdown()  # under the lock: no pool opens before this one is reaped


def parallel_map(fn, tasks, jobs: int):
    """Yield fn(task) for each task, in task order.

    Uses min(jobs, len(tasks), cpu count) worker processes: one or fewer runs
    in-process, more runs on the shared pool of that many workers.  Tasks are
    submitted last first, since the scans' last tasks are their largest
    levels; stopping early or a raising task cancels the tasks not started.
    Results are identical for every job count; ``fn`` and the tasks must be
    picklable.
    """
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        yield from map(fn, tasks)
        return
    executor, futures = _take(workers), []
    try:
        futures = [executor.submit(fn, task) for task in reversed(tasks)][::-1]
        for future in futures:
            yield future.result()
    except BrokenProcessPool:  # a worker died: the next call opens a fresh pool
        _close(executor)
        raise
    finally:
        for future in futures:
            future.cancel()
        _release(executor)

import ast
import multiprocessing
import os
import time
from concurrent.futures.process import BrokenProcessPool
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

from mldlab import pool, regions, spectrum, verifiers


def _wait_for(done, timeout=10.0):
    """Poll done() until it holds or `timeout` seconds pass; its last value."""
    deadline = time.monotonic() + timeout
    while not (ok := done()) and time.monotonic() < deadline:
        time.sleep(0.02)
    return ok


def test_worker_cap(monkeypatch):
    # a recording stand-in for the executor: no process is ever started
    seen, shut, submitted = [], [], []

    class RecordingFuture:
        def __init__(self, value):
            self.value = value

        def result(self):
            return self.value

        def cancel(self):
            return False

    class RecordingPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def submit(self, fn, task):
            submitted.append(task)
            return RecordingFuture(fn(task))

        def shutdown(self):
            shut.append(self)

    assert _wait_for(lambda: pool._kept is None)  # no real pool left from earlier calls
    monkeypatch.setattr(pool, "ProcessPoolExecutor", RecordingPool)
    huge = 10**9
    monkeypatch.setattr(pool.os, "cpu_count", lambda: 64)
    assert verifiers.fourfold_gap_scan(6, jobs=huge) == []  # 5 tasks
    assert submitted == [6, 5, 4, 3, 2]  # the largest level goes in first
    assert verifiers.terminal_bruteforce(4, jobs=huge) == []  # 3 tasks
    assert verifiers.fivefold_scan(5, Fraction(1, 100), "4a", jobs=huge) == []  # 4 tasks
    assert seen == [5, 3, 4]

    monkeypatch.setattr(pool.os, "cpu_count", lambda: 3)
    cfg = spectrum.ScanConfig(r_max=8, lo=Fraction(5, 6), hi=Fraction(1), jobs=huge)
    assert list(spectrum.scan(cfg)) == list(spectrum.scan(
        spectrum.ScanConfig(r_max=8, lo=Fraction(5, 6), hi=Fraction(1), jobs=1)))
    assert len(list(regions.verify_cases([4, 5], [1, 2], jobs=huge))) == 4  # 2 level tasks
    assert seen == [5, 3, 4, 3, 2]

    # one core, or a single task, runs in-process without a pool
    monkeypatch.setattr(pool.os, "cpu_count", lambda: None)
    assert len(regions.verify_s_grid(4, jobs=huge)) == 41
    monkeypatch.setattr(pool.os, "cpu_count", lambda: 64)
    assert verifiers.fourfold_gap_scan(2, jobs=huge) == []
    assert seen == [5, 3, 4, 3, 2]
    # a pool of another size replaces the open one; the last closes once idle
    assert _wait_for(lambda: len(shut) == 5)
    assert pool._kept is None


@pytest.fixture(autouse=True)
def two_cores(monkeypatch):
    # jobs=2 below must run on a pool of two workers, never in-process
    monkeypatch.setattr(pool.os, "cpu_count", lambda: 2)


def _square(x):
    return x * x


def _fail_at(x, bad):
    if x == bad:
        raise ValueError(x)
    return x


def _exit_at(x, bad):
    if x == bad:
        os._exit(1)
    return x


def test_results_in_task_order():
    # tasks go in last first; the results still come back in task order
    assert list(pool.parallel_map(_square, range(40), 2)) == [x * x for x in range(40)]
    assert list(pool.parallel_map(_square, [7, 3, 5], 2)) == [49, 9, 25]


def test_pool_closes_once_idle():
    assert list(pool.parallel_map(_square, range(6), 2)) == [x * x for x in range(6)]
    time.sleep(pool._IDLE_S)
    assert _wait_for(lambda: multiprocessing.active_children() == [])
    assert pool._kept is None


def test_back_to_back_calls_share_one_pool():
    list(pool.parallel_map(_square, range(4), 2))
    kept = pool._kept
    list(pool.parallel_map(_square, range(4), 2))
    assert kept is not None and pool._kept is kept


def test_a_raising_task_leaves_the_pool_usable():
    with pytest.raises(ValueError):
        list(pool.parallel_map(partial(_fail_at, bad=3), range(8), 2))
    assert list(pool.parallel_map(_square, range(8), 2)) == [x * x for x in range(8)]


def test_a_dead_worker_leaves_no_broken_pool():
    with pytest.raises(BrokenProcessPool):
        list(pool.parallel_map(partial(_exit_at, bad=3), range(8), 2))
    assert list(pool.parallel_map(_square, range(8), 2)) == [x * x for x in range(8)]


def test_no_environment_settings():
    # one setting per value: the package reads no environment variable, so
    # no constant (the pool's idle time included) can become an outside knob
    src = Path(pool.__file__).resolve().parent
    for path in sorted(src.rglob("*.py")):
        text = path.read_text()
        assert "environ" not in text and "getenv" not in text, path.name


def test_no_assert_statements():
    # a check written as assert vanishes under python -O, so the package
    # states every check as an if that raises
    paths = sorted(Path(pool.__file__).resolve().parent.glob("*.py"))
    assert paths
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, (path.name, lines)

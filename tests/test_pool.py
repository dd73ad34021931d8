from fractions import Fraction

from mldlab import pool, regions, spectrum, verifiers


def test_worker_cap(monkeypatch):
    # a recording stand-in for the executor: no process is ever started
    seen = []

    class RecordingPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(pool, "ProcessPoolExecutor", RecordingPool)
    huge = 10**9
    monkeypatch.setattr(pool.os, "cpu_count", lambda: 64)
    assert verifiers.fourfold_gap_scan(6, jobs=huge) == []  # 5 tasks
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

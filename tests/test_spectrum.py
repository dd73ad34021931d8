import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import mld_oracle
from mldlab import quotient, spectrum
from mldlab.qarith import units
from mldlab.quotient import CyclicQuotient, mld, toroidal_ld
from mldlab.spectrum import (ScanConfig, accumulation_report, canonical_weights,
                             distinct_values, family_example, format_rat,
                             record_to_json, records_to_csv, scan)


def test_family_examples():
    X, value = family_example(1, 1)
    assert (X.r, X.weights, value) == (7, (2, 3, 1), Fraction(6, 7))
    X, value = family_example(2, 3)
    assert (X.r, X.weights, value) == (15, (4, 6, 3), Fraction(13, 15))
    assert mld_oracle(15, (4, 6, 3)) == Fraction(13, 15)
    X, value = family_example(1, 5)
    assert (X.r, X.weights, value) == (11, (2, 3, 5), Fraction(10, 11))


def test_family_preconditions():
    with pytest.raises(ValueError):
        family_example(0, 1)
    with pytest.raises(ValueError):
        family_example(1, 0)
    with pytest.raises(ValueError):
        family_example(1, 6)


def test_canonical_weights_examples():
    assert canonical_weights(13, (3, 4, 5)) == (1, 4, 11)
    assert canonical_weights(4, (1, 3, 1)) == (1, 1, 3)
    assert canonical_weights(1, (0, 0, 0)) == (0, 0, 0)


def test_canonical_idempotent_and_invariant(rng):
    for _ in range(200):
        r = rng.randint(2, 40)
        w = tuple(rng.randrange(r) for _ in range(3))
        cw = canonical_weights(r, w)
        assert canonical_weights(r, cw) == cw
        units = [u for u in range(1, r) if math.gcd(u, r) == 1]
        u = rng.choice(units)
        perm = list(u * a % r for a in w)
        rng.shuffle(perm)
        assert canonical_weights(r, tuple(perm)) == cw


def test_canonical_rows_against_scalar_oracle(rng):
    # zero and non-unit entries included; r = 6_601 at dim 5 is where a
    # base-r row key r**5 would wrap int64
    cases = [(r, d, 40) for r in (1, 2, 13, 60, 210) for d in range(1, 6)]
    cases.append((6_601, 5, 6))
    for r, d, n in cases:
        W = np.asarray([[rng.choice((0, r // 2, rng.randrange(r))) for _ in range(d)]
                        for _ in range(n)], dtype=np.int64)
        got = spectrum._canonical_rows(r, W)
        assert got.dtype == np.int64 and got.shape == (n, d)
        assert [tuple(row) for row in got.tolist()] == [
            canonical_weights(r, tuple(row)) for row in W.tolist()]


@pytest.mark.parametrize("chunk", [1, 7])
def test_scan_at_small_chunks(monkeypatch, chunk):
    # the chunk size splits the k steps and the canonicalized rows only
    cfgs = [ScanConfig(dim=3, r_max=18, lo=Fraction(0)),
            ScanConfig(dim=4, r_max=9, lo=Fraction(1), hi=Fraction(3, 2))]
    want = [list(scan(cfg)) for cfg in cfgs]
    monkeypatch.setattr(quotient, "_K_CHUNK", chunk)
    assert [list(scan(cfg)) for cfg in cfgs] == want


def test_scan_small_isolated_window():
    cfg = ScanConfig(dim=3, r_max=7, lo=Fraction(5, 6), hi=Fraction(1),
                     isolated_only=True)
    recs = list(scan(cfg))
    assert any(rec.r == 7 and rec.weights == (1, 2, 3)
               and rec.mld == Fraction(6, 7) for rec in recs)


def test_scan_includes_terminal_points():
    cfg = ScanConfig(dim=3, r_max=4, lo=Fraction(1), hi=Fraction(3),
                     include_lo=True, include_hi=True)
    recs = list(scan(cfg))
    assert any(rec.r == 4 and rec.weights == (1, 1, 3)
               and rec.mld == Fraction(5, 4) for rec in recs)


def test_scan_empty_window_at_tiny_r():
    cfg = ScanConfig(dim=3, r_max=2, lo=Fraction(5, 6), hi=Fraction(1),
                     include_lo=False)
    assert list(scan(cfg)) == []


def test_scan_deterministic_order():
    cfg = ScanConfig(dim=3, r_max=25, lo=Fraction(0), hi=Fraction(1),
                     isolated_only=True)
    recs = list(scan(cfg))
    keys = [(rec.r, rec.weights) for rec in recs]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_scan_parallel_matches_sequential():
    base = dict(dim=3, r_max=40, lo=Fraction(5, 6), hi=Fraction(1),
                include_lo=False)
    seq = list(scan(ScanConfig(**base, jobs=1)))
    par = list(scan(ScanConfig(**base, jobs=2)))
    assert seq == par


def test_distinct_values_windows():
    open_left = ScanConfig(dim=3, r_max=13, lo=Fraction(12, 13), hi=Fraction(1),
                           include_lo=False, isolated_only=True)
    assert distinct_values(open_left) == []
    closed_left = ScanConfig(dim=3, r_max=13, lo=Fraction(12, 13), hi=Fraction(1),
                             include_lo=True, isolated_only=True)
    assert distinct_values(closed_left) == [Fraction(12, 13)]


def test_distinct_values_dim2_gap():
    # isolated surface quotients have no mld in (2/3, 1); presentations with
    # quasi-reflection weights (e.g. 1/10(2,5) -> 7/10 by the raw formula)
    # are excluded by the isolated flag
    cfg = ScanConfig(dim=2, r_max=20, lo=Fraction(2, 3), hi=Fraction(1),
                     include_lo=False, isolated_only=True)
    assert distinct_values(cfg) == []
    general = ScanConfig(dim=2, r_max=20, lo=Fraction(2, 3), hi=Fraction(1),
                         include_lo=False)
    assert Fraction(7, 10) in distinct_values(general)


def test_scan_records_revalidate(rng):
    cfg = ScanConfig(dim=3, r_max=40, lo=Fraction(0), hi=None)
    recs = list(scan(cfg))
    sample = rng.sample(recs, min(150, len(recs)))
    for rec in sample:
        X = CyclicQuotient(rec.r, rec.weights)
        assert mld(X) == rec.mld
        if rec.r > 1:
            assert toroidal_ld(X, rec.argmin_k) == rec.mld


def test_accumulation_report_examples():
    cfg = ScanConfig(dim=3, r_max=61)
    table = accumulation_report(cfg, Fraction(5, 6), [Fraction(1, 42)])
    assert table[0][1] >= 1  # 6/7 sits at the right end of the window
    cfg = ScanConfig(dim=3, r_max=7)
    table = accumulation_report(cfg, Fraction(5, 6), [Fraction(1, 1000)])
    assert table[0][1] == 0


def test_accumulation_monotone_in_rmax():
    windows = [Fraction(1, 42), Fraction(1, 12), Fraction(1, 7)]
    small = accumulation_report(ScanConfig(dim=3, r_max=30), Fraction(5, 6), windows)
    large = accumulation_report(ScanConfig(dim=3, r_max=60), Fraction(5, 6), windows)
    for (w1, c1), (w2, c2) in zip(small, large):
        assert w1 == w2 and c2 >= c1


def test_accumulation_target_domain():
    with pytest.raises(ValueError):
        accumulation_report(ScanConfig(dim=3, r_max=10), Fraction(7, 2), [Fraction(1, 6)])


def test_wire_formats():
    cfg = ScanConfig(dim=3, r_max=13, lo=Fraction(12, 13), hi=Fraction(1),
                     isolated_only=True)
    recs = list(scan(cfg))
    assert len(recs) == 1
    line = record_to_json(recs[0])
    assert json.loads(line) == {"r": 13, "weights": [1, 4, 11],
                                "mld": "12/13", "k": 4}
    csv_text = records_to_csv(recs)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "r,weights,mld_num,mld_den,k"
    assert lines[1] == "13,1 4 11,12,13,4"
    assert format_rat(Fraction(3)) == "3"
    assert format_rat(Fraction(5, 4)) == "5/4"


def test_scan_config_validation():
    with pytest.raises(ValueError):
        ScanConfig(dim=0, r_max=10)
    with pytest.raises(ValueError):
        ScanConfig(dim=3, r_max=1)
    with pytest.raises(ValueError):
        ScanConfig(dim=3, r_max=10, lo=Fraction(1), hi=Fraction(1, 2))


# Classification oracles: each expected set comes from a classical result
# through the scalar canonical_weights, never from the scan under test.

def _classes(cfg):
    return {(rec.r, rec.weights) for rec in scan(cfg)}


def test_scan_matches_terminal_lemma():
    # an isolated 3-dim class has mld > 1 exactly when it is 1/r(1, -1, a)
    # with gcd(a, r) = 1 (White; Morrison-Stevens); r = 1 is the smooth point
    got = _classes(ScanConfig(dim=3, r_max=60, lo=Fraction(1), include_lo=False,
                              isolated_only=True))
    want = {(1, (0, 0, 0))} | {(r, canonical_weights(r, (1, r - 1, a)))
                               for r in range(2, 61) for a in units(r)}
    assert len(want) == 552 and got == want


def test_scan_matches_morrison_canonical_list():
    # isolated classes with mld exactly 1: the Gorenstein ones (weight sum
    # 0 mod r) plus the two exceptions 1/9(1,4,7) and 1/14(1,9,11) (Morrison,
    # 1985); no value 1 + j/r with r <= 60 lies below 62/61
    got = _classes(ScanConfig(dim=3, r_max=60, lo=Fraction(1), hi=Fraction(62, 61),
                              isolated_only=True))
    want = {(r, canonical_weights(r, (1, b, -1 - b))) for r in range(2, 61)
            for b in units(r) if math.gcd(-1 - b, r) == 1}
    exceptions = {(9, (1, 4, 7)), (14, (1, 9, 11))}
    assert all(canonical_weights(r, w) == w and mld_oracle(r, w) == 1
               for r, w in exceptions)
    assert len(want | exceptions) == 120 and got == want | exceptions


@pytest.mark.parametrize("dim, r_max, orbits",
                         [(1, 30, 111), (2, 20, 305), (3, 14, 509), (4, 9, 365), (5, 7, 303)])
def test_scan_orbit_completeness(dim, r_max, orbits):
    # the full-window scan yields exactly one record per orbit of (Z/r)^dim
    # under units and permutations
    got = _classes(ScanConfig(dim=dim, r_max=r_max, lo=Fraction(0)))
    want = {(r, canonical_weights(r, w)) for r in range(1, r_max + 1)
            for w in itertools.product(range(r), repeat=dim)}
    assert len(want) == orbits and got == want

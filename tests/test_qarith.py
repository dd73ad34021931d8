import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import fracsum_identity_oracle
from mldlab.hyperquot import HyperquotientDatum, MonomialSupport
from mldlab.qarith import (TermTuple, consecutive_integers, count_nondivisible,
                           first_fracsum_identity_failure, format_rat, frac,
                           fracsum_identity_failures, gcd_table, ragged_ranges,
                           sorted_tuples, units, window_bounds, window_eps)


def test_frac_examples():
    assert frac(Fraction(7, 3)) == Fraction(1, 3)
    assert frac(Fraction(-1, 4)) == Fraction(3, 4)
    assert frac(Fraction(12, 4)) == 0


def test_frac_shift_invariance(rng):
    for _ in range(2000):
        q = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
        n = rng.randint(-50, 50)
        assert frac(q + n) == frac(q)
        assert 0 <= frac(q) < 1


def test_frac_reflection(rng):
    for _ in range(2000):
        q = Fraction(rng.randint(-10**5, 10**5), rng.randint(1, 997))
        total = frac(q) + frac(-q)
        assert total == (0 if q.denominator == 1 else 1)


def test_consecutive_examples():
    count, witness = consecutive_integers(Fraction(6, 5), Fraction(9, 2))
    assert (count, witness) == (3, [2, 3, 4])
    count, witness = consecutive_integers(Fraction(1, 6), Fraction(5, 6))
    assert (count, witness) == (0, [])
    # odd integers in (0, 21/2); bound ceil(21/2)/2 - 1 = 9/2 <= 5
    count, witness = consecutive_integers(0, Fraction(21, 2), odd_only=True)
    assert witness == [1, 3, 5, 7, 9]
    assert count == 5


def test_consecutive_empty_interval():
    with pytest.raises(ValueError):
        consecutive_integers(Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ValueError):
        consecutive_integers(3, 2)


def test_consecutive_randomized_against_enumeration(rng):
    for _ in range(10**4):
        a = Fraction(rng.randint(-1000, 1000), rng.randint(1, 40))
        b = a + Fraction(rng.randint(1, 4000), rng.randint(1, 40))
        odd = rng.random() < 0.5
        count, witness = consecutive_integers(a, b, odd_only=odd)
        lo, hi = math.floor(a) - 1, math.ceil(b) + 1
        expected = [n for n in range(lo, hi + 1)
                    if a < n < b and (not odd or n % 2)]
        assert witness == expected
        assert count == len(expected)
        bound = (Fraction(math.ceil(b - a), 2) - 1 if odd
                 else Fraction(math.ceil(b - a) - 1))
        if bound >= 0:
            assert count >= bound


def test_count_nondivisible_examples():
    size, bound = count_nondivisible(1, 10, 3)
    assert size == 4 and bound == Fraction(8, 3)
    size, bound = count_nondivisible(1, 1, 3)
    assert size >= 0 and bound < 0
    size, bound = count_nondivisible(5, 7, 5)
    # direct enumeration: {6, 7, 8, 11}
    assert size == 4 and size >= 3


def test_count_nondivisible_preconditions():
    with pytest.raises(ValueError):
        count_nondivisible(0, 5, 2)
    with pytest.raises(ValueError):
        count_nondivisible(0, 0, 3)


def test_count_nondivisible_randomized(rng):
    for _ in range(10**4):
        start = rng.randint(-500, 500)
        k = rng.randint(1, 60)
        p = rng.randint(3, 23)
        size, bound = count_nondivisible(start, k, p)
        brute = sum(1 for s in range(start, start + k)
                    if s % p != 0 and (s + 1) % p != 0)
        assert size == brute
        assert size >= bound


def test_fracsum_identity_scanner():
    # {x} + {-x} = 1 off integers makes (a, r-a, 1, 0; 0) satisfy the identity
    assert fracsum_identity_failures(5, (2, 3, 1, 0), 0) == []
    assert fracsum_identity_failures(5, (1, 1, 1, 1), 0) == [1, 2, 3, 4]


def test_fracsum_identity_against_oracle(rng):
    # random TermTuples, half of them built to satisfy the identity, passed
    # both reduced and as raw integers shifted by multiples of r (so out of
    # range and negative); the failing j must match the Fraction oracle
    holds = 0
    for _ in range(1500):
        r = rng.randint(2, 30)
        if rng.random() < 0.5:  # (x, -x, 1, z; z) holds for every unit x
            x, z = rng.choice(units(r)), rng.randrange(r)
            a = [x, -x, 1, z]
            rng.shuffle(a)
            t = TermTuple(r, tuple(a), z)
        else:
            t = TermTuple(r, tuple(rng.randrange(r) for _ in range(4)), rng.randrange(r))
        raw = tuple(w + r * rng.randint(-5, 5) for w in t.a)
        e = t.e + r * rng.randint(-5, 5)
        want = fracsum_identity_oracle(r, t.a, t.e)
        assert fracsum_identity_failures(t.r, t.a, t.e) == want, t
        assert fracsum_identity_failures(r, raw, e) == want, (r, raw, e)
        assert fracsum_identity_oracle(r, raw, e) == want
        assert first_fracsum_identity_failure(r, raw, e) == (want[0] if want else None)
        holds += not want
    assert holds > 600


def test_first_fracsum_identity_failure_stops_at_the_first_j():
    # (1, -1, y, y; 2y - 1) with y = r/2 - 1 holds at j = 1 and first fails
    # at j = 2, where 2*(2y - 1) wraps mod r and 2y does not; at r = 10**15
    # a scan past the first failing j would not finish
    for r in (20, 10**15):
        y = r // 2 - 1
        assert first_fracsum_identity_failure(r, (1, r - 1, y, y), 2 * y - 1) == 2
    assert fracsum_identity_oracle(20, (1, 19, 9, 9), 17)[0] == 2


def test_fracsum_identity_needs_four_weights():
    for weights in ((1, 2, 3), (1, 2, 3, 4, 5)):
        with pytest.raises(ValueError):
            fracsum_identity_failures(7, weights, 0)
        with pytest.raises(ValueError):
            first_fracsum_identity_failure(7, weights, 0)


def test_window_bounds_against_fractions(rng):
    # thresholds with denominators far beyond int64 against direct Fraction
    # comparisons of every numerator in [0, top]
    for _ in range(200):
        r = rng.randrange(1, 40)
        top = 3 * r
        big = 10**rng.randrange(1, 25)
        lo = Fraction(rng.randrange(-2 * big, 4 * big), big)
        hi = None if rng.random() < 0.2 else lo + Fraction(rng.randrange(0, 3 * big), big)
        inc_lo, inc_hi = rng.random() < 0.5, rng.random() < 0.5
        numer = np.arange(top + 1, dtype=np.int64)
        first, stop = window_bounds(r, top, lo, hi, inc_lo, inc_hi)
        got = ((numer >= first) & (numer < stop)).tolist()
        want = []
        for n in range(top + 1):
            v = Fraction(n, r)
            ok = v >= lo if inc_lo else v > lo
            if hi is not None:
                ok = ok and (v <= hi if inc_hi else v < hi)
            want.append(ok)
        assert got == want, (r, lo, hi, inc_lo, inc_hi)


def test_residue_helpers():
    assert units(1) == [] and units(2) == [1]
    assert units(12) == [1, 5, 7, 11]
    assert gcd_table(12).tolist() == [12, 1, 2, 3, 4, 1, 6, 1, 4, 3, 2, 1]
    assert gcd_table(12).dtype == np.int64
    assert format_rat(Fraction(-6, 4)) == "-3/2" and format_rat(Fraction(4)) == "4"


def _assert_ragged_ranges(lo, hi):
    owner, value = ragged_ranges(lo, hi)
    his = [hi] * len(lo) if np.ndim(hi) == 0 else list(hi)
    want = [(i, v) for i, (a, b) in enumerate(zip(lo, his)) for v in range(a, b)]
    assert owner.dtype == value.dtype == np.int64 and owner.shape == value.shape
    assert list(zip(owner.tolist(), value.tolist())) == want


def test_ragged_ranges_against_python_ranges(rng):
    for _ in range(200):
        n = rng.randrange(12)
        lo = [rng.randint(-6, 6) for _ in range(n)]
        # spans run from inverted through empty to a few values, some negative
        _assert_ragged_ranges(lo, [a + rng.randint(-3, 5) for a in lo])
        _assert_ragged_ranges(lo, rng.randint(-4, 8))  # one scalar hi for every row


def test_ragged_ranges_over_no_rows():
    _assert_ragged_ranges([], [])
    _assert_ragged_ranges([], 5)
    _assert_ragged_ranges([3, 7], 2)  # every row inverted


def _assert_sorted_tuples(values, count):
    got = sorted_tuples(values, count)
    want = list(itertools.combinations_with_replacement(list(values), count))
    assert got.dtype == np.int64 and got.shape == (len(want), count)
    assert [tuple(row) for row in got.tolist()] == want  # same rows, same order


@pytest.mark.parametrize("count", range(6))
def test_sorted_tuples_over_ranges(count):
    for n in range(8):
        _assert_sorted_tuples(range(n), count)


@pytest.mark.parametrize("count", range(5))
def test_sorted_tuples_over_sparse_values(count):
    _assert_sorted_tuples(units(15), count)
    _assert_sorted_tuples(np.flatnonzero(gcd_table(36) >= 4), count)  # a divisor slab


def test_sorted_tuples_over_no_values():
    assert sorted_tuples([], 0).shape == (1, 0)
    for count in (1, 2, 5):
        assert sorted_tuples([], count).shape == (0, count)
        assert sorted_tuples(np.zeros(0, dtype=np.int64), count).shape == (0, count)


_SUPPORT = MonomialSupport.of((1, 1, 0, 0))


@pytest.mark.parametrize("make", [
    TermTuple, lambda r, a, e: HyperquotientDatum(r, a, e, _SUPPORT),
], ids=["TermTuple", "HyperquotientDatum"])
def test_action_validates_and_reduces(make):
    with pytest.raises(ValueError, match="^r must be at least 2$"):
        make(1, (0, 0, 0, 0), 0)
    with pytest.raises(ValueError, match="^exactly four weights required$"):
        make(5, (1, 2, 3), 0)
    t = make(5, (7, -1, 5, 13), -2)
    assert isinstance(t, TermTuple)
    assert (t.r, t.a, t.e) == (5, (2, 4, 0, 3), 3)


def test_gcd_failure_outcomes():
    assert TermTuple(6, (1, 5, 1, 2), 4).gcd_failure() is None
    assert TermTuple(6, (1, 2, 1, 2), 4).gcd_failure() == "gcd(a2, r) != 1"
    assert TermTuple(6, (1, 5, 1, 3), 2).gcd_failure() == "gcd(a4, r) != gcd(e, r)"


@pytest.mark.parametrize("eps", [0, Fraction(1, 6), Fraction(-1, 100)])
def test_window_eps_rejects_outside_domain(eps):
    with pytest.raises(ValueError, match=r"^eps must lie in \(0, 1/6\)$"):
        window_eps(eps)


def test_window_eps_returns_fraction():
    got = window_eps("1/7")
    assert got == Fraction(1, 7) and isinstance(got, Fraction)

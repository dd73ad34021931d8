import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import ld_oracle, mld_oracle, traced_peak
from mldlab import quotient
from mldlab.quotient import (CyclicQuotient, index_gcd, is_isolated, ld_numerators,
                             mld, mld_argmin, mld_argmin_batch, residues,
                             toroidal_ld, toroidal_weight)


def argmin_oracle(r, weights):
    """Smallest k attaining mld_oracle, with the value, by a full Fraction scan."""
    values = [ld_oracle(r, weights, k) for k in range(1, r)]
    best = min(values)
    return values.index(best) + 1, best


def test_toroidal_ld_examples():
    X = CyclicQuotient(7, (2, 3, 1))
    assert toroidal_ld(X, 2) == Fraction(12, 7)
    assert toroidal_ld(X, 1) == Fraction(6, 7)
    # the summand hits 1 when r divides a_i * k
    Y = CyclicQuotient(4, (2, 1, 1))
    assert toroidal_ld(Y, 2) == 2


def test_toroidal_ld_range():
    X = CyclicQuotient(7, (2, 3, 1))
    with pytest.raises(IndexError):
        toroidal_ld(X, 0)
    with pytest.raises(IndexError):
        toroidal_ld(X, 7)


def test_toroidal_weight_components(rng):
    for _ in range(200):
        r = rng.randint(2, 40)
        X = CyclicQuotient(r, tuple(rng.randrange(r) for _ in range(3)))
        k = rng.randint(1, r - 1)
        comps = toroidal_weight(X, k)
        assert sum(comps) == toroidal_ld(X, k)
        for c, a in zip(comps, X.weights):
            assert 0 < c <= 1
            assert c == (1 if a * k % r == 0 else Fraction(a * k % r, r))


def test_mld_examples():
    assert mld(CyclicQuotient(7, (2, 3, 1))) == Fraction(6, 7)
    assert mld(CyclicQuotient(2, (1, 1))) == 1
    assert mld(CyclicQuotient(13, (3, 4, 5))) == Fraction(12, 13)
    assert mld(CyclicQuotient(13, (3, 4, 5))) == mld_oracle(13, (3, 4, 5))


def test_mld_smooth_convention():
    assert mld(CyclicQuotient(1, (0, 0, 0))) == 3
    assert mld(CyclicQuotient(1, (0, 0))) == 2


def test_mld_argmin_examples():
    assert mld_argmin(CyclicQuotient(7, (2, 3, 1))) == (1, Fraction(6, 7))
    assert mld_argmin(CyclicQuotient(2, (1, 1))) == (1, Fraction(1))
    assert mld_argmin(CyclicQuotient(13, (3, 4, 5))) == (1, Fraction(12, 13))
    with pytest.raises(ValueError):
        mld_argmin(CyclicQuotient(1, (0, 0, 0)))


@pytest.mark.parametrize("chunk", [1, 4, 7])
def test_mld_argmin_small_k_chunks(rng, monkeypatch, chunk):
    # the chunk size only changes how k is split; the smallest minimizing k
    # must survive ties inside a chunk and across chunk boundaries
    monkeypatch.setattr(quotient, "_K_CHUNK", chunk)
    for _ in range(150):
        r = rng.randint(2, 40)
        w = tuple(rng.randrange(r) for _ in range(rng.randint(1, 5)))
        X = CyclicQuotient(r, w)
        assert mld_argmin(X) == argmin_oracle(r, w)
        assert mld(X) == mld_oracle(r, w)
        k = rng.randint(1, r - 1)
        assert toroidal_ld(X, k) == ld_oracle(r, w, k)


def test_mld_argmin_at_the_k_chunk_size(rng):
    C = quotient._K_CHUNK
    r = C + 2  # k = C + 1 is alone in the second chunk
    u = pow(C + 1, -1, r)
    cases = [  # (r, weights, the smallest minimizing k when known in advance)
        (C - 1, tuple(rng.randrange(C - 1) for _ in range(3)), None),  # one chunk
        (C + 1, (C, C, C), C),  # ld(k) = 3{-k/r}: unique minimum at the last k of chunk one
        (r, (u, u, u), C + 1),  # unique minimum at the first k of chunk two
        (r, (1, r - 1), 1),     # ld(k) = 1 for every k: the tie keeps k = 1
    ]
    for n, w, k in cases:
        X = CyclicQuotient(n, w)
        got = mld_argmin(X)
        assert got == argmin_oracle(n, w)
        assert mld(X) == got[1]
        assert k is None or got[0] == k


def test_ld_numerators_against_oracle(rng):
    for _ in range(40):
        r = rng.randint(1, 50)
        d = rng.randint(1, 5)
        W = [[rng.randrange(r) for _ in range(d)] for _ in range(rng.randint(0, 6))]
        ks = [rng.randrange(r) for _ in range(rng.randint(0, 8))]
        got = ld_numerators(r, np.asarray(W, dtype=np.int64).reshape(len(W), d), ks)
        assert got.shape == (len(W), len(ks)) and got.dtype == np.int64
        for row, values in zip(W, got.tolist()):
            assert values == [r * ld_oracle(r, row, k) for k in ks]
    # a wide block (many rows, one k) and a long one (one row, every k)
    r = 499
    W = [[rng.randrange(r) for _ in range(5)] for _ in range(1200)]
    k = rng.randrange(1, r)
    got = ld_numerators(r, np.asarray(W, dtype=np.int64), [k])
    assert got.shape == (1200, 1)
    assert got[:, 0].tolist() == [r * ld_oracle(r, row, k) for row in W]
    row = [rng.randrange(r) for _ in range(3)]
    got = ld_numerators(r, [row], np.arange(1, r))
    assert got.shape == (1, r - 1)
    assert got[0].tolist() == [r * ld_oracle(r, row, k) for k in range(1, r)]


def assert_kernel_matches_oracle(r, W, ks):
    W = np.asarray(W, dtype=np.int64).reshape(len(W), -1)
    got = ld_numerators(r, W, ks)
    assert got.shape == (len(W), len(ks)) and got.dtype == np.int64
    assert got.tolist() == [[r * ld_oracle(r, row, k) for k in ks] for row in W.tolist()]


def test_ld_numerators_residue_blocks(rng):
    r = 11
    ks = [1, 2, 5, 10]
    # rows repeating residues within and across rows, with residue 0
    assert_kernel_matches_oracle(r, [[3, 3, 0], [0, 3, 7], [7, 7, 7], [3, 0, 0]], ks)
    # every residue of [0, r) occurs, so the table holds all r of them
    W = [[(3 * i + j) % r for j in range(3)] for i in range(r)]
    assert len({a for row in W for a in row}) == r
    assert_kernel_matches_oracle(r, W, ks)
    # far fewer residues than entries
    W = [[rng.choice((2, 9)) for _ in range(4)] for _ in range(50)]
    assert_kernel_matches_oracle(r, W, ks)
    # k = 0 reads every summand as 1; duplicates and k >= r are plain k
    assert_kernel_matches_oracle(r, [[1, 4, 0], [6, 6, 2]], [0, 3, 3, 0, r, r + 4, 2 * r - 1])
    # an empty row block, and an empty k block
    for W, k in (([], ks), ([[1, 2, 3]], [])):
        got = ld_numerators(r, np.asarray(W, dtype=np.int64).reshape(len(W), 3), k)
        assert got.shape == (len(W), len(k)) and got.dtype == np.int64
    # r = 1: every residue is 0 and every summand is 1
    assert_kernel_matches_oracle(1, [[0, 0], [5, -2]], [0, 1, 2])
    # one row over every k at a large prime r
    r = 5701
    assert_kernel_matches_oracle(r, [[rng.randrange(r) for _ in range(5)]], range(1, r))


def test_ld_numerators_reduces_weights_mod_r():
    # out-of-range weights read as their residues, exactly as CyclicQuotient
    # reduces them; 2**62 + 3 once wrapped int64 in the product with k
    assert ld_numerators(7, [[2**62 + 3]], [3]).tolist() == [[7]]
    for r in (7, 13, 101):
        raw = (-4, r + 3, 2**62 + 3)
        reduced = CyclicQuotient(r, raw).weights
        assert reduced == (r - 4, 3, (2**62 + 3) % r)
        ks = range(r + 2)
        got = ld_numerators(r, [raw], ks)
        assert got.tolist() == [[r * ld_oracle(r, reduced, k) for k in ks]]
        # the batch leaves the reduction to the kernel
        numer, argk = mld_argmin_batch(r, [raw])
        assert (Fraction(int(numer[0]), r), int(argk[0])) == (mld_oracle(r, reduced),
                                                              argmin_oracle(r, reduced)[0])


def test_ld_numerators_memory_below_the_product_block(rng):
    r, n, k, d = 97, 4096, 8, 5
    W = np.asarray([[rng.randrange(r) for _ in range(d)] for _ in range(n)], dtype=np.int64)
    ks = np.arange(1, k + 1, dtype=np.int64)
    got, peak = traced_peak(lambda: ld_numerators(r, W, ks))
    assert got.shape == (n, k)
    assert peak < d * n * k * 8  # the (d, N, K) int64 block of products alone


def test_kernel_memory_does_not_grow_with_r():
    # one k needs no array of length r; the smallest r comes first, so a
    # kernel that allocates by r fails there, long before r = 2e9
    for r in (10_007, 1_000_003, 2_000_000_011):
        X = CyclicQuotient(r, (1, r - 2, 12345, 7))
        got, peak = traced_peak(lambda: toroidal_ld(X, r - 5))
        assert got == ld_oracle(r, X.weights, r - 5)
        assert peak < 32 * 1024
    # a one-row mld steps through chunks of k and holds one chunk's arrays:
    # the (d, K) table, the (1, K) total, one gathered row and the ks
    r, d = 1_000_003, 5
    X = CyclicQuotient(r, (1, 2, 3, 4, r - 10))
    got, peak = traced_peak(lambda: mld(X))
    assert got == 1  # k = 1 gives (1 + 2 + 3 + 4 + r - 10) / r
    assert peak < 8 * quotient._K_CHUNK * (d + 5)


def test_floored_batch_table_covers_the_rows_left_only():
    # 200 rows of 600 distinct weights all fall below the floor in the first
    # step, leaving the zero row (r*ld = 3r at every k) for the rest: a table
    # kept over every distinct weight would hold 601 rows of a full k chunk
    r = 65_537
    W = np.vstack([np.arange(1, 601).reshape(200, 3), np.zeros((1, 3), dtype=np.int64)])
    (numer, _), peak = traced_peak(lambda: mld_argmin_batch(r, W, floor=3 * r))
    assert numer[-1] == 3 * r and (numer[:-1] < 3 * r).all()
    assert peak < 4 * 2**20


def test_residues_match_remainder():
    gen = np.random.default_rng(20261020)
    big = 2_999_999_929  # the largest prime below the int64 limit on r
    assert big <= quotient._INT64_R_LIMIT
    n = 2 * quotient._K_CHUNK + 7  # crosses two block edges
    for r in (1, 2, 3, 97, 65_537, big):
        for shape in ((n,), (5, n // 5), (3, 4, n // 12), (1, 1, 1), (0,)):
            x = gen.integers(-r * r, r * r, size=shape, endpoint=True)
            x.reshape(-1)[:1] = -1  # the table's v = 0 row is -1
            want = x % r
            assert residues(x, r) is x and np.array_equal(x, want)
    # views that reshape(-1) would copy are reduced where they lie, not in a copy
    for view in (lambda b: b[:, ::2], lambda b: b.T, lambda b: b[::-1, 1:]):
        base = gen.integers(-10**6, 10**6, size=(300, 400))
        want = base.copy()
        view(want)[...] %= 97
        v = view(base)
        assert residues(v, 97) is v and np.array_equal(base, want)


def test_residues_hold_one_block():
    x = np.arange(8 * quotient._K_CHUNK, dtype=np.int64) * 12_345 - 7
    want = x % 1009
    got, peak = traced_peak(lambda: residues(x, 1009))
    assert got is x and np.array_equal(x, want)
    assert peak < 1.25 * quotient._K_CHUNK * x.itemsize  # x % 1009 holds eight blocks


def test_ld_numerators_int64_limit():
    X = CyclicQuotient(10**10, (1, 2, 3))
    for call in (lambda: mld(X), lambda: mld_argmin(X), lambda: toroidal_ld(X, 5),
                 lambda: ld_numerators(X.r, [X.weights], [1]),
                 lambda: mld_argmin_batch(X.r, [X.weights])):
        with pytest.raises(OverflowError):
            call()


def test_is_isolated_and_index_gcd():
    assert is_isolated(CyclicQuotient(13, (3, 4, 5)))
    assert not is_isolated(CyclicQuotient(15, (4, 6, 3)))
    assert is_isolated(CyclicQuotient(7, (2, 3, 1)))
    assert index_gcd(CyclicQuotient(13, (3, 4, 5))) == 1
    assert index_gcd(CyclicQuotient(15, (4, 6, 3))) == 1
    assert index_gcd(CyclicQuotient(6, (2, 2, 2))) == 6


def test_mld_agrees_with_oracle(rng):
    for _ in range(300):
        r = rng.randint(2, 60)
        d = rng.randint(2, 5)
        w = tuple(rng.randrange(r) for _ in range(d))
        X = CyclicQuotient(r, w)
        assert mld(X) == mld_oracle(r, w)
        k, value = mld_argmin(X)
        assert value == mld(X) == toroidal_ld(X, k)


def test_mld_unit_orbit_invariance(rng):
    for _ in range(200):
        r = rng.randint(2, 50)
        w = tuple(rng.randrange(r) for _ in range(3))
        X = CyclicQuotient(r, w)
        units = [u for u in range(1, r) if math.gcd(u, r) == 1]
        u = rng.choice(units)
        assert mld(CyclicQuotient(r, tuple(u * a % r for a in w))) == mld(X)


def test_mld_permutation_invariance(rng):
    for _ in range(200):
        r = rng.randint(2, 50)
        w = [rng.randrange(r) for _ in range(4)]
        X = CyclicQuotient(r, tuple(w))
        rng.shuffle(w)
        assert mld(CyclicQuotient(r, tuple(w))) == mld(X)


def test_mld_bounded_by_dim(rng):
    for _ in range(300):
        r = rng.randint(1, 40)
        d = rng.randint(1, 5)
        w = tuple(rng.randrange(max(r, 1)) for _ in range(d))
        assert mld(CyclicQuotient(r, w)) <= d


def test_du_val_a_type():
    for r in range(2, 31):
        assert mld(CyclicQuotient(r, (1, r - 1))) == 1


def test_opposite_twists_sum_to_integer(rng):
    # ld(k) + ld(r-k) is an integer whenever no a_i * k is divisible by r
    for _ in range(300):
        r = rng.randint(3, 60)
        w = tuple(rng.randrange(1, r) for _ in range(4))
        k = rng.randint(1, r - 1)
        if any(a * k % r == 0 for a in w):
            continue
        X = CyclicQuotient(r, w)
        total = toroidal_ld(X, k) + toroidal_ld(X, r - k)
        assert total.denominator == 1


def test_batch_matches_scalar(rng):
    # the scalar reference is the Fraction scan: mld and mld_argmin are
    # one-row batches themselves, so comparing with them proves nothing
    for _ in range(40):
        r = rng.randint(2, 80)
        d = rng.randint(2, 5)
        rows = [[rng.randrange(r) for _ in range(d)] for _ in range(30)]
        numer, argk = mld_argmin_batch(r, np.asarray(rows))
        assert [(int(k), Fraction(int(num), r)) for num, k in zip(numer, argk)] == [
            argmin_oracle(r, row) for row in rows]


@pytest.mark.parametrize("chunk", [None, 1, 16])
def test_mld_argmin_batch_floor(rng, monkeypatch, chunk):
    # rows never below their floor keep the exact first argmin, however k is
    # chunked as rows leave; rows below it report an upper bound under it
    if chunk is not None:
        monkeypatch.setattr(quotient, "_K_CHUNK", chunk)
    for _ in range(40):
        r = rng.randint(2, 60)
        d = rng.randint(1, 5)
        rows = [tuple(rng.randrange(r) for _ in range(d))
                for _ in range(rng.randint(1, 25))]
        W = np.asarray(rows, dtype=np.int64).reshape(len(rows), d)
        exact = [argmin_oracle(r, w) for w in rows]
        want_k = np.asarray([k for k, _ in exact])
        want = np.asarray([int(v * r) for _, v in exact])
        numer, argk = mld_argmin_batch(r, W)
        assert numer.tolist() == want.tolist() and argk.tolist() == want_k.tolist()
        scalar = int(want[rng.randrange(len(rows))])  # some row sits exactly on it
        per_row = want + np.asarray([rng.choice((-1, 0, 1)) for _ in rows])
        for floor in (scalar, per_row):
            numer, argk = mld_argmin_batch(r, W, floor)
            kept = want >= floor
            assert numer[kept].tolist() == want[kept].tolist()
            assert argk[kept].tolist() == want_k[kept].tolist()
            assert (numer < floor)[~kept].all() and (numer >= want)[~kept].all()


def test_batch_smooth_point():
    numer, argk = mld_argmin_batch(1, np.zeros((4, 3), dtype=int))
    assert list(numer) == [3, 3, 3, 3]


def test_weights_reduced_mod_r():
    X = CyclicQuotient(7, (9, -1, 14))
    assert X.weights == (2, 6, 0)
    assert X.dim == 3
    assert X.v(0) == Fraction(2, 7)

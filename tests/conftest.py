import math
import os
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest


def package_env():
    """The environment with the package sources first on PYTHONPATH, for
    tests that run the package in a subprocess."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parent.parent / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def traced_peak(call):
    """call() and the tracemalloc peak, in bytes, while it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def ld_oracle(r, weights, k):
    """Reference log discrepancy sum_i (1 + a_i*k/r - ceil(a_i*k/r)) via
    Fractions and explicit ceilings; independent of the integer-residue
    implementation in the package."""
    total = Fraction(0)
    for a in weights:
        q = Fraction(a * k, r)
        total += 1 + q - math.ceil(q)
    return total


def mld_oracle(r, weights):
    """Reference mld: the minimum of ld_oracle over k in [1, r-1]."""
    if r == 1:
        return Fraction(len(weights))
    return min(ld_oracle(r, weights, k) for k in range(1, r))


def fracsum_identity_oracle(r, weights, e):
    """Reference failing j in [1, r-1] of sum_i {j*w_i/r} = {j*e/r} + j/r + 1,
    with fractional parts taken as Fractions through math.floor, so any
    integer input is read mod r."""
    def frac(num):
        q = Fraction(num, r)
        return q - math.floor(q)

    return [j for j in range(1, r)
            if sum(frac(j * w) for w in weights) != frac(j * e) + Fraction(j, r) + 1]


def transfer_oracle(t, eps):
    """Reference TransferReport of `verifiers.transfer_classify`, scanning k
    one at a time with Fraction fractional parts and comparing k/r with the
    window bound as Fractions."""
    from mldlab.verifiers import TransferReport

    r, a, e = t.r, t.a, t.e

    def violated(failure, k=None, gamma=()):
        return TransferReport(tuple(gamma), False, failure, k, "violated", None)

    def frac(num):
        q = Fraction(num, r)
        return q - math.floor(q)

    for i in range(3):
        if math.gcd(a[i], r) != 1:
            return violated(f"gcd(a{i + 1}, r) != 1")
    if math.gcd(a[3], r) != math.gcd(e, r):
        return violated("gcd(a4, r) != gcd(e, r)")
    if (sum(a) - e - 1) % r != 0:
        return violated("a1+a2+a3+a4 - e != 1 mod r")
    alt1 = (a[0] + a[1] - e) % r == 0
    alt2 = (2 * a[3] - e) % r == 0
    alt3 = (2 * a[0] - e) % r == 0 and math.gcd(e, r) <= 2
    if not (alt1 or alt2 or alt3):
        return violated("no pair congruence holds")
    gamma = []
    for k in range(1, r):
        lhs = sum(frac(x * k) for x in a)
        if lhs == frac(e * k) + Fraction(k, r):
            if Fraction(k, r) < Fraction(5, 6) + eps:
                return violated(f"Gamma member k={k} below the index window", k, gamma)
            gamma.append(k)
        elif not lhs > frac(e * k) + 1:
            return violated(f"dichotomy fails at k={k}", k, gamma)
    if not gamma:
        return violated("Gamma is empty")
    p = math.gcd(e, r)
    case1 = all(frac(e * k) == 0 for k in gamma)
    conclusions = {"pair_congruence": alt2 and not alt1, "gcd_e_r": p,
                   "gcd_e_r_at_least_7": p >= 7, "gamma_killed_by_e": case1}
    if case1:
        return TransferReport(tuple(gamma), True, None, None, "case1", conclusions,
                              p, r // p)
    return TransferReport(tuple(gamma), True, None, None, "case2", conclusions)


def gap_oracle(coords, support):
    """Reference discrepancy gap w(x1 x2 x3 x4) - w(f) of a weight, straight
    from the definition in Fractions: the coordinate sum minus the least
    weighted degree sum_i w_i*alpha_i over the support."""
    coords = [Fraction(c) for c in coords]
    degrees = [sum((c * x for c, x in zip(coords, alpha)), Fraction(0)) for alpha in support]
    return sum(coords, Fraction(0)) - min(degrees)


def psi_oracle(d, eps):
    """Reference (psi1, psi2, rest) of `hyperquot.psi_classify`: the box
    weights of `enumerate_N0`, split by `gap_oracle` and the Fraction window
    [5/6 + eps, 1), with psi2 the involution images of psi1 in psi1's order."""
    from mldlab.hyperquot import enumerate_N0

    n0 = enumerate_N0(d.r, d.a)
    lo = Fraction(5, 6) + Fraction(eps)
    psi1 = [w for w in n0
            if w.primitive and lo <= gap_oracle(w.coords, d.support.exponents) < 1]
    by_coords = {w.coords: w for w in n0}
    psi2 = []
    for w in psi1:
        mate = by_coords.get(tuple(1 - c for c in w.coords))
        if mate is not None and mate not in psi1 and mate not in psi2:
            psi2.append(mate)
    rest = [w for w in n0 if w not in psi1 and w not in psi2]
    return tuple(psi1), tuple(psi2), tuple(rest)


def floor_sum_holds(point, n, c):
    """Direct evaluation of the floor constraint at an exact rational point."""
    return sum(math.floor(n * Fraction(v)) for v in point) == n - 1 - c


def _cell_starts(lo, hi, moduli):
    """Left ends of the cells of [lo, hi) cut at every j/n (n in moduli):
    floor(n*v) is constant on each cell for every n."""
    starts = {lo}
    for n in moduli:
        starts.update(Fraction(j, n) for j in range(math.floor(lo * n) + 1, math.ceil(hi * n)))
    return sorted(starts)


def _rats(values):
    """Exact rationals as an int64 (numerators, denominators) pair."""
    return (np.array([Fraction(v).numerator for v in values], dtype=np.int64),
            np.array([Fraction(v).denominator for v in values], dtype=np.int64))


def _rat_pick(a, b, take_a):
    return np.where(take_a, a[0], b[0]), np.where(take_a, a[1], b[1])


def region_empty_oracle(boxes, pairs, ordered_simplex):
    """Reference emptiness test for a floor-constraint system, independent of
    the refinement in `regions`.

    The region is {v in the union of the half-open boxes [lo_i, hi_i) :
    sum_i floor(n*v_i) = n-1-c for each (n, c) in pairs}, cut down to
    v_1 <= v_2 <= v_3 when ordered_simplex is set.  Per box, v_1 sweeps the
    cell starts of the breakpoints j/n along axis 1, then v_2 along axis 2
    (from v_1 on, when ordered): the floors are constant on a cell, and its
    least point is the best choice for the ordering.  Axis 3 then needs
    floor(n*v_3) = n-1-c - floor(n*v_1) - floor(n*v_2) for every pair, so
    v_3 lies in the intersection of [t/n, (t+1)/n), [lo_3, hi_3) and, when
    ordered, [v_2, 1), decided by integer cross-multiplication.  The v_1
    cells go in blocks of 64, each against every axis-2 cell at once.  The
    cross products multiply two numerators or denominators, each at most a
    small multiple of the largest n or box denominator, so int64 holds them
    for any system this suite runs.
    """
    chunk = 64
    moduli = sorted({n for n, _ in pairs})
    for (l1, h1), (l2, h2), (l3, h3) in boxes:
        starts1 = _cell_starts(l1, h1, moduli)
        q = _cell_starts(l2, h2, moduli)
        qn, qd = _rats(q)
        en, ed = _rats(q[1:] + [h2])
        for block in range(0, len(starts1), chunk):
            v1n, v1d = (np.repeat(x, len(q)) for x in _rats(starts1[block:block + chunk]))
            reps = len(v1n) // len(q)
            v2, ends = (np.tile(qn, reps), np.tile(qd, reps)), (np.tile(en, reps), np.tile(ed, reps))
            lower = np.full_like(v1n, l3.numerator), np.full_like(v1n, l3.denominator)
            upper = np.full_like(v1n, h3.numerator), np.full_like(v1n, h3.denominator)
            alive = np.ones(len(v1n), dtype=bool)
            if ordered_simplex:
                v2 = _rat_pick(v2, (v1n, v1d), v2[0] * v1d >= v1n * v2[1])
                alive = v2[0] * ends[1] < ends[0] * v2[1]
                lower = _rat_pick(v2, lower, v2[0] * lower[1] >= lower[0] * v2[1])
            for n, c in pairs:
                keep = np.flatnonzero(alive)
                v1n, v1d = v1n[keep], v1d[keep]
                v2, lower, upper = ((a[keep], b[keep]) for a, b in (v2, lower, upper))
                t = n - 1 - c - (n * v1n) // v1d - (n * v2[0]) // v2[1]
                lower = _rat_pick((t, np.full_like(t, n)), lower, t * lower[1] > lower[0] * n)
                upper = _rat_pick((t + 1, np.full_like(t, n)), upper,
                                  (t + 1) * upper[1] < upper[0] * n)
                alive = lower[0] * upper[1] < upper[0] * lower[1]
            if alive.any():
                return False
    return True


@pytest.fixture
def rng():
    import random
    return random.Random(20260809)

"""Exact rational helpers, residue tables, the cyclic-action datum shared by
the lemma suites, and the elementary counting facts used by the scanners.

Everything here is pure integer / `fractions.Fraction` arithmetic; no floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


class VerificationError(RuntimeError):
    """An exact re-check disagreed with the result it guards: a bug, not a
    counterexample."""


@dataclass(frozen=True)
class TermTuple:
    """The cyclic action (r; a_1..a_4; e): four weights and a character,
    stored reduced mod r."""

    r: int
    a: tuple[int, int, int, int]
    e: int

    def __post_init__(self):
        if self.r < 2:
            raise ValueError("r must be at least 2")
        if len(self.a) != 4:
            raise ValueError("exactly four weights required")
        object.__setattr__(self, "a", tuple(x % self.r for x in self.a))
        object.__setattr__(self, "e", self.e % self.r)

    def gcd_failure(self) -> str | None:
        """The first failed gcd side condition (a_1..a_3 units mod r, then
        gcd(a_4, r) = gcd(e, r)), or None when both hold."""
        for i in range(3):
            if math.gcd(self.a[i], self.r) != 1:
                return f"gcd(a{i + 1}, r) != 1"
        if math.gcd(self.a[3], self.r) != math.gcd(self.e, self.r):
            return "gcd(a4, r) != gcd(e, r)"
        return None


def window_eps(eps) -> Fraction:
    """eps as a Fraction, which must lie in the lemma domain (0, 1/6)."""
    eps = Fraction(eps)
    if not 0 < eps < Fraction(1, 6):
        raise ValueError("eps must lie in (0, 1/6)")
    return eps


def format_rat(q: Fraction) -> str:
    """Exact wire format: 'p/q', or bare 'p' for integers."""
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def units(r: int) -> list[int]:
    """The residues in [1, r-1] coprime to r, ascending."""
    return [u for u in range(1, r) if math.gcd(u, r) == 1]


def gcd_table(r: int) -> np.ndarray:
    """int64 array of gcd(x, r) for x in [0, r); entry 0 is gcd(0, r) = r."""
    return np.gcd(np.arange(r, dtype=np.int64), r)


def ragged_ranges(lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Each row i in order extended by its integers lo[i] <= v < hi[i]:
    (owner, value) int64 arrays of equal length, owner holding i.  A row with
    hi[i] <= lo[i] contributes nothing; hi may be a scalar."""
    lo = np.asarray(lo, dtype=np.int64)
    span = np.maximum(np.asarray(hi, dtype=np.int64) - lo, 0)
    owner = np.repeat(np.arange(lo.size, dtype=np.int64), span)
    value = np.arange(owner.size, dtype=np.int64) - np.repeat(np.cumsum(span) - span - lo, span)
    return owner, value


def sorted_tuples(values, count: int) -> np.ndarray:
    """The non-decreasing ``count``-tuples over the ascending ``values``, in
    lexicographic order, as an (N, count) int64 array; one empty row when
    count is 0.

    Built column by column on index arrays: a row whose last index is i is
    extended by every index in [i, len(values)), so no Python tuple is made."""
    vals = np.asarray(values, dtype=np.int64)
    idx = np.zeros((1, 0), dtype=np.int64)
    last = np.zeros(1, dtype=np.int64)
    for _ in range(count):
        parent, last = ragged_ranges(last, len(vals))
        idx = np.column_stack([idx[parent], last])
    return vals[idx]


def window_bounds(r: int, top: int, lo, hi=None,
                  include_lo: bool = True, include_hi: bool = False) -> tuple[int, int]:
    """Integer thresholds (first, stop): first <= n < stop exactly when n/r
    lies between lo and hi (hi=None: unbounded), for n in [0, top].  They are
    exact and clipped to [0, top + 1], so numpy compares only small ints and
    no product of a huge numerator or denominator can wrap."""
    x = Fraction(lo) * r
    first = math.ceil(x) if include_lo else math.floor(x) + 1
    if hi is None:
        stop = top + 1
    else:
        y = Fraction(hi) * r
        stop = math.floor(y) + 1 if include_hi else math.ceil(y)
    return tuple(min(max(t, 0), top + 1) for t in (first, stop))


def frac(q) -> Fraction:
    """Fractional part {q} in [0, 1), defined via the mathematical floor.

    frac(7/3) == 1/3, frac(-1/4) == 3/4, frac(3) == 0.
    """
    q = Fraction(q)
    return q - math.floor(q)


def consecutive_integers(a, b, odd_only: bool = False):
    """Integers (odd integers when ``odd_only``) strictly inside the open interval (a, b).

    Returns ``(count, witness)`` with the witness list in increasing order.
    The interval always contains at least ceil(b-a)-1 consecutive integers,
    and at least ceil(b-a)/2 - 1 consecutive odd ones; whenever that lower
    bound is non-negative it is checked here.
    """
    a, b = Fraction(a), Fraction(b)
    if a >= b:
        raise ValueError(f"empty interval ({a}, {b})")
    lo = math.floor(a) + 1
    hi = math.ceil(b) - 1
    witness = list(range(lo, hi + 1))
    if odd_only:
        witness = [n for n in witness if n % 2 != 0]
        bound = Fraction(math.ceil(b - a), 2) - 1
    else:
        bound = Fraction(math.ceil(b - a) - 1)
    count = len(witness)
    if bound >= 0 and count < bound:
        raise VerificationError((a, b, odd_only, count, bound))
    return count, witness


def count_nondivisible(start: int, k: int, p: int):
    """Count s in [start, start+k-1] with p not dividing s nor s+1.

    Returns ``(size, bound)`` where bound = (k-2)(p-2)/p; the inequality
    size >= bound is checked (it is vacuous for k < 2, where the bound is
    negative).
    """
    if p < 3:
        raise ValueError("p must be at least 3")
    if k < 1:
        raise ValueError("k must be at least 1")
    size = sum(1 for s in range(start, start + k) if s % p != 0 and (s + 1) % p != 0)
    bound = Fraction((k - 2) * (p - 2), p)
    if size < bound:
        raise VerificationError((start, k, p, size, bound))
    return size, bound


def _fracsum_identity_failing(r: int, weights, e: int):
    # times r: sum_i (j*w_i mod r) == (j*e mod r) + j + r, the four w_i unpacked once
    if r < 1 or len(weights) != 4:
        raise ValueError("r must be positive, with exactly four weights")
    a1, a2, a3, a4 = weights
    return (j for j in range(1, r)
            if j * a1 % r + j * a2 % r + j * a3 % r + j * a4 % r != j * e % r + j + r)


def fracsum_identity_failures(r: int, weights, e: int) -> list[int]:
    """All j in [1, r-1] violating sum_i {j*w_i/r} == {j*e/r} + j/r + 1 (four w_i)."""
    return list(_fracsum_identity_failing(r, weights, e))


def first_fracsum_identity_failure(r: int, weights, e: int):
    """Smallest failing j of the identity above, or None if it holds for all j."""
    return next(_fracsum_identity_failing(r, weights, e), None)

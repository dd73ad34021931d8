"""Independent Fraction oracles for the benchmark's output checks.

Nothing here calls mldlab.  Each quantity is recomputed from its definition
with `fractions.Fraction` and `math.floor`/`math.ceil`, so a wrong kernel in
`mldlab.quotient`, `mldlab.verifiers` or `mldlab.hyperquot` cannot make the
oracle agree with it.  The oracles are slow; the benchmark runs them on a
seeded subset of its outputs, outside the timed region.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def _frac(q: Fraction) -> Fraction:
    return q - math.floor(q)


def family_tuple(k: int, m: int, arrangement: int):
    """(r, (a_1, a_2, a_3, a_4), e) of the case-2 transfer tuple built from
    the family member 1/(6k+m)(2k, 3k, m): the weights scaled by the inverse
    of 5k+m mod r, an ordered pair of them as (a_1, a_2), and a_4 = e = a_1 + a_2."""
    r = 6 * k + m
    u = pow(5 * k + m, -1, r)
    b = [u * w % r for w in (2 * k, 3 * k, m)]
    i, j, l = list(itertools.permutations(range(3)))[arrangement]
    e = (b[i] + b[j]) % r
    return r, (b[i], b[j], b[l], e), e


def transfer_gamma(r: int, a, e: int) -> tuple[int, ...]:
    """Gamma = {k in [1, r-1] : sum_i {a_i k / r} = {e k / r} + k / r}."""
    return tuple(k for k in range(1, r)
                 if sum(_frac(Fraction(x * k, r)) for x in a)
                 == _frac(Fraction(e * k, r)) + Fraction(k, r))


def mld(r: int, weights) -> Fraction:
    """min over k in [1, r-1] of sum_i (1 + a_i k / r - ceil(a_i k / r))."""
    if r == 1:
        return Fraction(len(weights))
    best = None
    for k in range(1, r):
        total = Fraction(0)
        for a in weights:
            q = Fraction(a * k, r)
            total += 1 + q - math.ceil(q)
        if best is None or total < best:
            best = total
    return best


def support_weight(coords, support) -> Fraction:
    """min over the exponent vectors of the weighted degree sum_i w_i alpha_i."""
    return min(sum(c * x for c, x in zip(coords, alpha)) for alpha in support)


def gap(coords, support) -> Fraction:
    """The discrepancy gap w(x1 x2 x3 x4) - w(f) of a box weight."""
    return sum(coords) - support_weight(coords, support)

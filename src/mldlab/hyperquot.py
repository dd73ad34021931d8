"""Weight calculus on power-series supports for hyperquotient singularities.

A power series is represented by its support alone (the set of exponent
vectors with nonzero coefficient); every quantity computed here depends only
on the support and on the diagonal cyclic action (r; a_1..a_4) with character
e.  Weights are rational vectors in the lattice generated by (a_1..a_4)/r and
the unit vectors; the interesting ones live in the box [0,1]^4.

A box weight is its integer numerators over r, and Fractions are made only
when its `coords` are read; support_weight and gap_value take any rationals,
the Psi-partition works on the numerators with window_bounds thresholds.
classify_type matches against the classification patterns of one table,
`_PATTERNS`: each pattern is one entry, its parameter position and its
residue 5-tuple together.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .qarith import TermTuple, fracsum_identity_failures, window_bounds, window_eps

SUPPORT_CAP = 10**4


@dataclass(frozen=True)
class MonomialSupport:
    """Finite set of nonzero exponent vectors in Z^4_{>=0}."""

    exponents: frozenset[tuple[int, int, int, int]]

    def __post_init__(self):
        exps = frozenset(tuple(int(x) for x in a) for a in self.exponents)
        if not exps:
            raise ValueError("support must be nonempty")
        if len(exps) > SUPPORT_CAP:
            raise ValueError(f"support exceeds the {SUPPORT_CAP}-monomial cap")
        for a in exps:
            if len(a) != 4:
                raise ValueError("exponent vectors live in Z^4")
            if any(x < 0 for x in a):
                raise ValueError(f"negative exponent in {a}")
            if not any(a):
                raise ValueError("the zero exponent vector is not allowed")
        object.__setattr__(self, "exponents", exps)

    @classmethod
    def of(cls, *exponents):
        return cls(frozenset(exponents))


@dataclass(frozen=True)
class HyperquotientDatum(TermTuple):
    """Cyclic action data (r; a_1..a_4; e) together with an equation support."""

    support: MonomialSupport


@dataclass(frozen=True)
class LatticeWeight:
    """A weight numers/r in [0,1]^4 (ints numers in [0, r]) with its class index."""

    numers: tuple[int, int, int, int]
    r: int
    class_index: int
    primitive: bool

    @property
    def coords(self) -> tuple[Fraction, ...]:
        """The weight as Fractions numers_i / r, made on each read."""
        return tuple(Fraction(x, self.r) for x in self.numers)

    def primed(self) -> tuple[Fraction, ...]:
        """The involution image (1,1,1,1) - coords."""
        return tuple(Fraction(self.r - x, self.r) for x in self.numers)


def _coords(w):
    return w.coords if isinstance(w, LatticeWeight) else tuple(Fraction(c) for c in w)


def support_weight(w, S: MonomialSupport) -> Fraction:
    """min over the support of the weighted degree sum_i w_i * alpha_i."""
    ws = _coords(w)
    return min(sum(c * x for c, x in zip(ws, a)) for a in S.exponents)


def semi_invariant_check(d: HyperquotientDatum):
    """None when every support vector satisfies sum_i alpha_i*a_i = e mod r;
    otherwise the smallest violating exponent vector."""
    for alpha in sorted(d.support.exponents):
        if (sum(x * a for x, a in zip(alpha, d.a)) - d.e) % d.r != 0:
            return alpha
    return None


def _is_primitive(numers: tuple[int, ...], r: int, alpha_patterns: frozenset) -> bool:
    # w is primitive iff w/l escapes the lattice for every integer l >= 2;
    # w/l lies in [0,1)^4, so membership means matching some class pattern.
    g = math.gcd(*numers)
    for l in range(2, g + 1):
        if g % l == 0 and tuple(x // l for x in numers) in alpha_patterns:
            return False
    return True


def enumerate_N0(r: int, a) -> list[LatticeWeight]:
    """All lattice weights in [0,1]^4 off the corners {0,1}^4, by ascending numerators.

    For each class j in [1, r-1] the base vector has coordinates {j*a_i/r};
    zero coordinates may also be lifted to 1.  Duplicates arising from
    different classes are emitted once (smallest class index wins).
    """
    a = TermTuple(r, a, 0).a
    alpha_patterns = frozenset(tuple(j * x % r for x in a) for j in range(r))
    found: dict[tuple[int, ...], int] = {}
    for j in range(1, r):
        base = tuple(j * x % r for x in a)
        # a zero coordinate may also be lifted to 1, i.e. numerator r
        for numers in itertools.product(*((0, r) if x == 0 else (x,) for x in base)):
            if not all(x in (0, r) for x in numers):  # off the corners of {0,1}^4
                found.setdefault(numers, j)
    return [LatticeWeight(numers, r, j, _is_primitive(numers, r, alpha_patterns))
            for numers, j in sorted(found.items())]


def gap_value(w, d: HyperquotientDatum) -> Fraction:
    """The discrepancy gap w(x1 x2 x3 x4) - w(f) = sum_i w_i - support_weight(w, f)."""
    violator = semi_invariant_check(d)
    if violator is not None:
        raise ValueError(f"support is not semi-invariant: {violator}")
    ws = _coords(w)
    return sum(ws) - support_weight(ws, d.support)


@dataclass(frozen=True)
class PsiPartition:
    psi1: tuple[LatticeWeight, ...]
    psi2: tuple[LatticeWeight, ...]
    rest: tuple[LatticeWeight, ...]


def psi_classify(d: HyperquotientDatum, eps) -> PsiPartition:
    """Split the box weights by gap: psi1 holds the primitive ones with gap in
    [5/6 + eps, 1); psi2 their involution images; rest everything else.

    Exact integer arithmetic on the numerators n over r: the gap of n/r is
    G/r with G = sum(n) - min over the support of sum_i n_i*alpha_i."""
    eps = window_eps(eps)
    r = d.r
    weights = enumerate_N0(r, d.a)
    violator = semi_invariant_check(d)
    if violator is not None and any(w.primitive for w in weights):
        raise ValueError(f"support is not semi-invariant: {violator}")
    first, stop = window_bounds(r, 4 * r, Fraction(5, 6) + eps, 1)
    psi1 = [w for w in weights if w.primitive and first <= sum(w.numers) - min(
        sum(map(mul, w.numers, alpha)) for alpha in d.support.exponents) < stop]
    in_psi1 = {w.numers for w in psi1}
    by_numers = {w.numers: w for w in weights}
    mates = (tuple(r - x for x in w.numers) for w in psi1)
    psi2 = {m: by_numers[m] for m in mates if m in by_numers and m not in in_psi1}
    rest = [w for w in weights if w.numers not in in_psi1 and w.numers not in psi2]
    return PsiPartition(tuple(psi1), tuple(psi2.values()), tuple(rest))


def identity5_check(r: int, a, e: int) -> list[int]:
    """Failing class indices of sum_i {j*a_i/r} = {j*e/r} + j/r + 1; [] means ok."""
    t = TermTuple(r, a, e)
    return fracsum_identity_failures(t.r, t.a, t.e)


# The classification patterns, one entry each: tag -> (the position of the
# unit parameter x in the residue 5-tuple, or None for a pattern without one;
# the residue 5-tuple of (r, x), or None when a side condition on the parity
# of r or a divisibility rules the pattern out).  As x lies in [1, r-1], a
# matching target holds x itself at that position.
_PATTERNS = {
    "1a": (0, lambda r, x: (x, r - x, 1, 0, 0)),
    "1b": (1, lambda r, x: (1, x, r - x, x + 1, x + 1) if math.gcd(x + 1, r) > 1 else None),
    "1c": (0, lambda r, x: (x, 1, r - x, x + 1, x + 1) if math.gcd(x + 1, r) == 1 else None),
    "1d": (0, lambda r, x:
           (x, r - x - 1, r - x, x + 1, r - 1) if math.gcd(x + 1, r) == 1 else None),
    "2a": (None, lambda r, x: (0, r // 2, r // 2, 0, 0) if r % 2 == 0 else None),
    "2b": (None, lambda r, x: (1, (r + 2) // 2, (r - 2) // 2, 2, 2) if r % 4 == 0 else None),
    "3a": (1, lambda r, x: (0, x, r - x, 1, 0)),
    "3b": (0, lambda r, x: (x, r - x, 1, 2 * x, 2 * x) if r % 2 == 0 else None),
    "3c": (1, lambda r, x: (1, x, r - x, 2, 2) if r % 2 == 0 else None),
    "3d": (2, lambda r, x:
           ((r - 1) // 2, (r + 1) // 2, x, r - x, r - 1) if r % 2 == 1 else None),
    "3e": (0, lambda r, x: (x, r - x, 2 * x, 1, 2 * x) if r % 2 == 1 else None),
    "3f": (1, lambda r, x: (1, x, r - x, 2, 2) if r % 2 == 1 else None),
}
TYPE_TAGS = tuple(_PATTERNS)


def _pattern(tag: str, r: int, x: int | None):
    """The residue 5-tuple of one pattern, or None if a side condition rules it out."""
    return _PATTERNS[tag][1](r, x)


def classify_type(r: int, a, e: int, all_matches: bool = False):
    """Match (a_1..a_4, e) mod r against the classification patterns.

    Patterns are tried in listed order; a parametrized one reads its unit
    parameter off the target, so each pattern is built at most once.
    Returns the first (tag, parameter) pair, or ("none", None); with
    all_matches every match is returned.
    """
    t = TermTuple(r, a, e)
    target = t.a + (t.e,)
    matches = []
    for tag, (at, _) in _PATTERNS.items():
        x = None if at is None else target[at]
        if x is not None and math.gcd(x, r) != 1:
            continue
        pat = _pattern(tag, r, x)
        if pat is not None and tuple(v % r for v in pat) == target:
            if not all_matches:
                return tag, x
            matches.append((tag, x))
    return matches if all_matches else ("none", None)


def two_monomials_verify(S: MonomialSupport, axis: int, w1, w2) -> bool:
    """Whether, for both weights, the pure axis power attaining the support
    weight has the same exponent.

    Preconditions (violations raise ValueError, meaning not-applicable): for
    each weight the support weight is positive and attained by a pure power
    of the given axis.  Under them the exponents must agree; False would be
    an implementation bug rather than a counterexample.
    """
    if not 1 <= axis <= 4:
        raise ValueError("axis must lie in [1, 4]")
    idx = axis - 1
    exponents = []
    for w in (w1, w2):
        ws = _coords(w)
        fw = support_weight(ws, S)
        if fw <= 0:
            raise ValueError("support weight must be positive")
        attaining = [alpha[idx] for alpha in S.exponents
                     if all(alpha[i] == 0 for i in range(4) if i != idx)
                     and ws[idx] * alpha[idx] == fw]
        if not attaining:
            raise ValueError("no pure power of the axis attains the support weight")
        exponents.append(attaining[0])  # unique: positive weight forces one exponent
    return exponents[0] == exponents[1]

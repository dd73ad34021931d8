"""Brute-force and structured checkers for the arithmetic lemmas.

Four families of checks live here:

* the four-variable congruence identity behind the terminal classification
  (`terminal_hypothesis` / `terminal_conclusion` / `terminal_bruteforce`;
  the conclusion is that a_1, a_2, a_3, a_4, -e, -1 pair into zero sums mod r),
* the fourfold discrepancy-gap scan (`fourfold_gap_scan`),
* the transfer classifier turning four weights plus a character into a
  fivefold quotient (`transfer_classify` / `lift_to_fivefold`), which tests
  Gamma and the dichotomy on plain residues k*a_i mod r, and
* desk-scale fivefold candidate scans (`fivefold_scan`).

The exhaustive scans build numpy rows, each sorted tuple extended by the range
of last coordinates its window allows (`qarith.ragged_ranges`), and filter them
in staged passes; surviving terminal tuples are re-checked against the full
hypothesis at every j at once, fivefold candidates (from the slab a_1 = 1) by
an mld batch with no floor, and reported results carry exact rationals only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from . import quotient
from .pool import parallel_map
from .qarith import (TermTuple, VerificationError, first_fracsum_identity_failure, gcd_table,
                     ragged_ranges, sorted_tuples, units, window_bounds, window_eps)
from .quotient import CyclicQuotient, mld, mld_argmin_batch, residues


def _levels(scan_r, r_max: int, jobs: int):
    """(r, scan_r(r)) for every level r in [2, r_max] through `parallel_map`,
    in r order."""
    if r_max < 2:
        raise ValueError("r_max must be at least 2")
    levels = range(2, r_max + 1)
    return zip(levels, parallel_map(scan_r, levels, jobs))


@dataclass(frozen=True)
class HypothesisCheck:
    ok: bool
    reason: str | None = None
    failing_j: int | None = None


def terminal_hypothesis(t: TermTuple) -> HypothesisCheck:
    """Check the identity sum_i {j*a_i/r} = {j*e/r} + j/r + 1 and the gcd sides.

    Returns ok, or the smallest failing j of the identity, or (when the
    identity holds everywhere) the failed gcd condition.
    """
    j = first_fracsum_identity_failure(t.r, t.a, t.e)
    if j is not None:
        return HypothesisCheck(False, "identity fails", j)
    failure = t.gcd_failure()
    return HypothesisCheck(failure is None, failure)


def _hypothesis_rows(r: int, cols: np.ndarray) -> np.ndarray:
    """Row-wise `terminal_hypothesis(...).ok` over (N, 5) rows (a_1..a_4, e) in
    [0, r): the identity at every j in [1, r-1] in one (N, r-1) evaluation,
    a weight column at a time, then the gcd sides."""
    j = np.arange(1, r, dtype=np.int64)
    # the identity holds where gap ends at 0
    gap = residues(np.multiply.outer(cols[:, 4], j), r) + j + r
    for i in range(4):
        gap -= residues(np.multiply.outer(cols[:, i], j), r)
    g = np.gcd(cols, r)
    return ~gap.any(axis=1) & (g[:, :3] == 1).all(axis=1) & (g[:, 3] == g[:, 4])


def _zero_sum_pairs(r: int, vals: np.ndarray) -> np.ndarray:
    """Row-wise: do the entries of each row (an even number) split into pairs
    summing to 0 mod r?  Exactly when the sorted residues equal their sorted
    negatives (x pairs with -x) and 0 occurs an even number of times; the
    other self-inverse residue, r/2, then occurs an even number of times too."""
    vals = np.sort(vals % r, axis=1)
    return (vals == np.sort(-vals % r, axis=1)).all(axis=1) & ((vals == 0).sum(axis=1) % 2 == 0)


def terminal_conclusion(t: TermTuple) -> bool:
    """The classification the identity forces; requires terminal_hypothesis(t).ok.

    The six residues a_1, a_2, a_3, a_4, -e, -1 pair into three zero sums
    mod r.  When gcd(e, r) > 1, a_4 and -e are the only non-units and pair
    with each other, so this is a_4 = e and {a_1, a_2, a_3} = {1, x, -x}."""
    if not terminal_hypothesis(t).ok:
        raise ValueError("tuple does not satisfy the terminal hypothesis")
    return bool(_zero_sum_pairs(t.r, np.array([t.a + (-t.e, -1)], dtype=np.int64))[0])


def _terminal_scan_r(r: int) -> list[TermTuple]:
    """Hypothesis-satisfying tuples at level r that violate the conclusion.

    Enumerates a_1 <= a_2 <= a_3 only: the hypothesis and the conclusion are
    both symmetric in the first three residues, so sorted enumeration finds a
    counterexample iff one exists.  Stage one solves the j = 1 identity for e
    (it pins e = a_1+a_2+a_3+a_4 - r - 1); stage two runs j in [2, r/2]
    with a shrinking mask; survivors get one exact all-j re-check.
    """
    triples = sorted_tuples(units(r), 3)
    s3 = triples.sum(axis=1)
    # j = 1: a4 ranges over the values that keep e a residue; gcd(e, r) = gcd(a4, r)
    ti, a4 = ragged_ranges(np.maximum(0, r + 1 - s3), np.minimum(r, 2 * r + 1 - s3))
    e = s3[ti] + a4 - r - 1
    gcds = gcd_table(r)
    cols = np.column_stack([triples[ti], a4, e])[gcds[e] == gcds[a4]]
    # after stage one the identity holds at r - j exactly when it holds at j:
    # a unit x gives {(r-j)x/r} = 1 - {jx/r}, and a_4 and e (gcd-matched)
    # vanish mod r at the same j, so the difference of the two sides only
    # changes sign; stage one covers j = r - 1, so j <= r/2 decides the rest
    for j in range(2, r // 2 + 1):
        lhs = residues(cols[:, :4] * j, r).sum(axis=1)
        rhs = residues(cols[:, 4] * j, r) + j + r
        cols = cols[lhs == rhs]
    if not (ok := _hypothesis_rows(r, cols)).all():  # exact re-check of the staged filter
        raise VerificationError((r, tuple(cols[ok.argmin()].tolist())))
    six = np.column_stack([cols[:, :4], -cols[:, 4], np.full(len(cols), -1)])
    return [TermTuple(r, tuple(row[:4]), row[4])
            for row in cols[~_zero_sum_pairs(r, six)].tolist()]


def terminal_bruteforce(r_max: int, jobs: int = 1) -> list[TermTuple]:
    """Scan all admissible tuples with r <= r_max; expected to return []."""
    return [t for _, sub in _levels(_terminal_scan_r, r_max, jobs) for t in sub]


def _fourfold_window_rows(r: int) -> np.ndarray:
    """The sorted tuples a <= b <= c <= d over [1, r-1] whose sum s lies in
    the gap window 11r/6 < s < 2r (alpha_1 in (2 - 1/6, 2)), in lexicographic
    order, as an (N, 4) int64 array.

    Each triple a <= b <= c (sum s3) gets the d in [max(c, 11r // 6 + 1 - s3),
    min(r, 2r - s3)), so memory follows the r**3 / 6 triples and the rows kept."""
    abc = sorted_tuples(np.arange(1, r), 3)
    s3 = abc.sum(axis=1)
    ti, d = ragged_ranges(np.maximum(abc[:, 2], 11 * r // 6 + 1 - s3), np.minimum(r, 2 * r - s3))
    rows = np.empty((d.size, 4), dtype=np.int64)
    rows[:, 3] = d
    del d  # then a column at a time: at most six int64 per row are live
    for i in range(3):
        rows[:, i] = abc[ti, i]
    return rows


def _fourfold_scan_r(r: int) -> list[tuple[Fraction, ...]]:
    """Tuples v in (0,1)^4 with denominator r, gap-window first coordinate sum,
    and every twisted sum at least the first one.  Expected none survive."""
    cand = _fourfold_window_rows(r)
    base = cand.sum(axis=1)
    # the entries lie in [1, r-1], so r*ld(1) is the coordinate sum: a row
    # survives exactly when no twisted sum drops below it
    numer, _ = mld_argmin_batch(r, cand, base)
    return [tuple(Fraction(int(b), r) for b in row) for row in cand[numer >= base]]


def fourfold_gap_scan(r_max: int, jobs: int = 1) -> list[tuple[Fraction, ...]]:
    """Exhaustive denominator-r scan of the fourfold gap window; expected []."""
    return [v for _, sub in _levels(_fourfold_scan_r, r_max, jobs) for v in sub]


@dataclass(frozen=True)
class TransferReport:
    """Outcome of classifying a TermTuple against the transfer hypotheses."""

    gamma: tuple[int, ...]
    hypothesis_ok: bool
    failure: str | None
    failure_k: int | None
    case_tag: str               # "case1" | "case2" | "violated"
    conclusions: dict | None    # flags for the three lemma conclusions
    p: int | None = None        # gcd(e, r), when case1
    q: int | None = None        # r / p, when case1


def transfer_classify(t: TermTuple, eps) -> TransferReport:
    """Compute Gamma = {k : sum_i {a_i*k/r} = {e*k/r} + k/r} and validate the hypotheses.

    Hypotheses: unit gcds on a_1..a_3, gcd(a4, r) = gcd(e, r), weight sum
    congruent to e + 1, one of the three pair congruences, Gamma nonempty
    with every member in the [5/6 + eps, 1) index window, and every
    non-member k satisfying the strict excess sum_i {a_i*k/r} > {e*k/r} + 1.
    Case 1 means r | e*k for all k in Gamma (p = gcd(e, r) and q = r/p are
    derived); case 2 otherwise.
    """
    eps = window_eps(eps)
    r, a, e = t.r, t.a, t.e

    def report(failure, failure_k=None, gamma=()):
        return TransferReport(tuple(gamma), False, failure, failure_k, "violated", None)

    failure = t.gcd_failure()
    if failure is not None:
        return report(failure)
    if (sum(a) - e - 1) % r != 0:
        return report("a1+a2+a3+a4 - e != 1 mod r")
    alt1 = (a[0] + a[1] - e) % r == 0
    alt2 = (2 * a[3] - e) % r == 0
    alt3 = (2 * a[0] - e) % r == 0 and math.gcd(e, r) <= 2
    if not (alt1 or alt2 or alt3):
        return report("no pair congruence holds")

    quotient._check_int64_safe(r)
    first, _ = window_bounds(r, r, Fraction(5, 6) + eps)
    gamma = []
    for start in range(1, r, quotient._K_CHUNK):
        ks = np.arange(start, min(start + quotient._K_CHUNK, r), dtype=np.int64)
        res = residues(np.multiply.outer(np.array((*a, e), dtype=np.int64), ks), r)
        lhs, ek = res[:4].sum(axis=0), res[4]  # lhs = r * sum_i {a_i*k/r}
        member = lhs == ek + ks
        bad = np.where(member, ks < first, lhs <= ek + r)
        if bad.any():  # the first bad k ends the scan, as in a loop over k
            i = int(bad.argmax())
            k = int(ks[i])
            gamma += ks[:i][member[:i]].tolist()
            failure = (f"Gamma member k={k} below the index window" if member[i]
                       else f"dichotomy fails at k={k}")
            return report(failure, k, gamma)
        gamma += ks[member].tolist()
    if not gamma:
        return report("Gamma is empty")

    case1 = all(e * k % r == 0 for k in gamma)
    p = math.gcd(e, r)
    conclusions = {
        "pair_congruence": alt2 and not alt1,
        "gcd_e_r": p,
        "gcd_e_r_at_least_7": p >= 7,
        "gamma_killed_by_e": case1,
    }
    if case1:
        return TransferReport(tuple(gamma), True, None, None, "case1",
                              conclusions, p, r // p)
    return TransferReport(tuple(gamma), True, None, None, "case2", conclusions)


def transfer_family_instance(k: int, m: int = 1, arrangement: int = 0):
    """A case-2 transfer tuple built from the family member 1/(6k+m)(2k, 3k, m).

    Scaling the weights by the inverse of k0 = 5k+m moves the minimizing
    index to k0, so every sub-unit log discrepancy of the quotient becomes a
    Gamma member sitting in [5/6 + m/(6r), 1).  Taking e = a_1 + a_2 with
    a_4 = e then satisfies all transfer hypotheses, and e*k0 is never a
    multiple of r, which forces case 2.  Needs m in {1, 5} with gcd(m, k)=1
    so the scaled weights stay units mod r = 6k+m.

    ``arrangement`` in [0, 6) picks which ordered pair of the three scaled
    weights plays (a_1, a_2); each choice is a distinct valid tuple.

    Returns (t, eps) with an eps for which transfer_classify(t, eps) is
    case 2 and lift_to_fivefold applies.
    """
    if m not in (1, 5):
        raise ValueError("only m = 1 and m = 5 keep all weights coprime to r")
    if k < 1 or math.gcd(m, k) != 1:
        raise ValueError("k must be positive with gcd(m, k) = 1")
    r = 6 * k + m
    k0 = 5 * k + m
    u = pow(k0, -1, r)
    b = tuple(u * w % r for w in (2 * k, 3 * k, m))
    if not all(math.gcd(x, r) == 1 for x in b):
        raise VerificationError((k, m, b))
    order = list(itertools.permutations(range(3)))[arrangement % 6]
    a1, a2, a3 = (b[i] for i in order)
    e = (a1 + a2) % r
    t = TermTuple(r, (a1, a2, a3, e), e)
    eps = Fraction(m, 7 * r)  # anything below m/(6r) keeps Gamma in the window
    return t, eps


def lift_to_fivefold(t: TermTuple, eps, rep: TransferReport | None = None) -> CyclicQuotient:
    """The fivefold quotient 1/r(a_1..a_4, r-e) attached to a case-2 tuple.

    Its mld equals 1 + k_1/r for the least k_1 in Gamma with r not dividing
    e*k_1; the equality is checked against the exhaustive mld formula.
    ``rep`` is transfer_classify(t, eps) when the caller already holds it.
    """
    if rep is None:
        rep = transfer_classify(t, eps)
    if rep.case_tag != "case2":
        raise ValueError(f"tuple is not case 2 for eps={eps} (got {rep.case_tag})")
    r = t.r
    X = CyclicQuotient(r, t.a + ((r - t.e) % r,))
    # Gamma ascends in k, so its first member with r not dividing e*k is the least
    k1 = next(k for k in rep.gamma if t.e * k % r)
    expected = 1 + Fraction(k1, r)
    got = mld(X)
    if got != expected:
        raise VerificationError((t, k1, got, expected))
    return X


_CONDITIONS = ("4a", "4b", "4c")


@dataclass(frozen=True)
class FivefoldCandidate:
    X: CyclicQuotient
    mld: Fraction


def _fivefold_scan_r(r: int, eps, condition: str) -> tuple[np.ndarray, np.ndarray]:
    """The candidates at level r from the slab a_1 = 1, as `_unit_orbits`
    arrays: a unit u mod r keeps the gcds, the linear homogeneous congruence
    fixing a_5, gcd(sum, r) and the mld (ld of u*a at k is ld of a at u*k),
    and a_1 is a unit, so each candidate is u times exactly one kept slab row."""
    u = np.asarray(units(r), dtype=np.int64)
    gcds = gcd_table(r)
    first, stop = window_bounds(r, 5 * r, Fraction(11, 6) + eps, 2)
    n, step, rows, numers = u.size ** 2 * r, quotient._K_CHUNK, [], []
    for start in range(0, n, step):  # blocks of the lex-ordered slab rows keep memory bounded
        i2, i3, a4 = np.unravel_index(np.arange(start, min(start + step, n)), (u.size, u.size, r))
        a1, a2, a3 = np.ones_like(a4), u[i2], u[i3]
        a5 = {"4a": -(a1 + a2), "4b": -2 * a4, "4c": -2 * a1}[condition] % r
        keep = gcds[a4] == gcds[a5]
        if condition == "4c":
            keep &= gcds[a4] <= 2
        keep &= np.gcd(a1 + a2 + a3 + a4 + a5, r) == 1
        W = np.column_stack([a1, a2, a3, a4, a5])[keep]
        numer, _ = mld_argmin_batch(r, W, first)
        sel = (numer >= first) & (numer < stop)
        rows.append(W[sel])
        numers.append(numer[sel])
    return _unit_orbits(r, np.vstack(rows), np.concatenate(numers), u)


def _unit_orbits(r: int, W: np.ndarray, numer: np.ndarray, mults) -> tuple[np.ndarray, np.ndarray]:
    """The rows E = m * W mod r for every m in ``mults``, in lexicographic
    order, and their mld numerators; a floor-0 batch re-checks each against
    the numerator of its row of W, so a wrong floored minimum or a multiplier
    that is not a unit raises."""
    E = residues(np.asarray(mults, dtype=np.int64)[:, None, None] * W, r).reshape(-1, W.shape[1])
    order = np.lexsort(E.T[::-1])  # the first column is the primary key
    E, numer = E[order], np.tile(numer, len(mults))[order]
    bad = np.flatnonzero(mld_argmin_batch(r, E)[0] != numer)
    if bad.size:
        raise VerificationError((r, tuple(E[bad[0]].tolist()), Fraction(int(numer[bad[0]]), r)))
    return E, numer


def _candidates(r: int, E: np.ndarray, numer: np.ndarray) -> list[FivefoldCandidate]:
    """The FivefoldCandidates of one level's `_unit_orbits` arrays, sharing
    one Fraction per distinct numerator."""
    mlds = {num: Fraction(num, r) for num in np.unique(numer).tolist()}
    return [FivefoldCandidate(CyclicQuotient(r, tuple(row)), mlds[num])
            for row, num in zip(E.tolist(), numer.tolist())]


def fivefold_scan(r_max: int, eps, condition: str, jobs: int = 1) -> list[FivefoldCandidate]:
    """Enumerate fivefold quotients passing the gcd/congruence hypotheses with
    mld in [11/6 + eps, 2).  The chosen congruence determines a_5, so the
    enumeration runs over (a_1, a_2, a_3, a_4) only; the levels return
    arrays, and the candidates are built here."""
    if condition not in _CONDITIONS:
        raise ValueError(f"condition must be one of {_CONDITIONS}")
    eps = window_eps(eps)
    scan_r = partial(_fivefold_scan_r, eps=eps, condition=condition)
    return [c for r, (E, numer) in _levels(scan_r, r_max, jobs) for c in _candidates(r, E, numer)]


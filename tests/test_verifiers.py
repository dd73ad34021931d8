import inspect
import itertools
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import fracsum_identity_oracle, ld_oracle, mld_oracle, traced_peak, transfer_oracle
from mldlab import quotient, spectrum, verifiers
from mldlab.qarith import VerificationError, sorted_tuples, units
from mldlab.quotient import CyclicQuotient, index_gcd, mld, toroidal_ld
from mldlab.verifiers import (TermTuple, fivefold_scan, fourfold_gap_scan,
                              lift_to_fivefold, terminal_bruteforce,
                              terminal_conclusion, terminal_hypothesis,
                              thm35_hypotheses, transfer_classify,
                              transfer_family_instance)


def fracsum(r, values, j):
    return sum(Fraction(j * v % r, r) for v in values)


def test_terminal_hypothesis_examples():
    assert terminal_hypothesis(TermTuple(5, (2, 3, 1, 0), 0)).ok
    chk = terminal_hypothesis(TermTuple(5, (1, 1, 1, 1), 0))
    assert not chk.ok and chk.failing_j == 1
    # r=7, a=(1,2,5,6), e=0: the identity already fails at j=1
    chk = terminal_hypothesis(TermTuple(7, (1, 2, 5, 6), 0))
    direct_ok = all(
        fracsum(7, (1, 2, 5, 6), j) == Fraction(j, 7) + 1 for j in range(1, 7))
    assert chk.ok == direct_ok is False


def test_terminal_hypothesis_gcd_sides():
    # identity holds but a_1 is not a unit
    chk = terminal_hypothesis(TermTuple(6, (2, 4, 1, 0), 0))
    assert not chk.ok
    # gcd(a4, r) != gcd(e, r) with the identity fine: (a, -a, 1, 0; e=3) on r=6
    chk = terminal_hypothesis(TermTuple(6, (1, 5, 1, 3), 0))
    assert not chk.ok


def test_terminal_conclusion_examples():
    assert terminal_conclusion(TermTuple(5, (2, 3, 1, 0), 0))
    assert terminal_conclusion(TermTuple(7, (1, 3, 4, 2), 2))
    assert terminal_conclusion(TermTuple(4, (1, 1, 3, 2), 2))
    with pytest.raises(ValueError):
        terminal_conclusion(TermTuple(5, (1, 1, 1, 1), 0))


def _pairs_off(vals, r):
    """Whether the residues split into pairs each summing to 0 mod r, by
    trying every perfect matching of the indices."""
    if not vals:
        return True
    return any((vals[0] + vals[i]) % r == 0
               and _pairs_off(vals[1:i] + vals[i + 1:], r) for i in range(1, len(vals)))


def _paper_conclusion(t):
    """The terminal lemma's two-case conclusion, as the paper states it."""
    r, (a1, a2, a3, a4), e = t.r, t.a, t.e
    if math.gcd(e, r) > 1:
        return a4 == e and any(
            x == 1 and (y + z) % r == 0 for x, y, z in itertools.permutations((a1, a2, a3)))
    return _pairs_off([a1, a2, a3, a4, -e % r, -1 % r], r)


def test_zero_sum_pairs_match_every_matching():
    # the closed-form pairing rule against a search over every perfect
    # matching, on every six-tuple of residues with r <= 7
    total = 0
    for r in range(1, 8):
        vals = list(itertools.product(range(r), repeat=6))
        got = verifiers._zero_sum_pairs(r, np.array(vals, dtype=np.int64))
        assert got.tolist() == [_pairs_off(list(v), r) for v in vals], r
        total += len(vals)
    assert total == 184820


def test_terminal_conclusion_matches_paper_statement():
    # under the gcd sides the library's pairing rule on a_1..a_4, -e, -1
    # says what the paper's two cases say, on every tuple with r <= 12, in
    # one batch per level
    total = false = 0
    for r in range(2, 13):
        rows = [(a1, a2, a3, a4, e) for a1, a2, a3 in itertools.product(units(r), repeat=3)
                for a4 in range(r) for e in range(r) if math.gcd(a4, r) == math.gcd(e, r)]
        cols = np.array(rows, dtype=np.int64)
        six = np.column_stack([cols[:, :4], -cols[:, 4], np.full(len(cols), -1)])
        want = [_paper_conclusion(TermTuple(r, row[:4], row[4])) for row in rows]
        assert verifiers._zero_sum_pairs(r, six).tolist() == want, r
        total += len(want)
        false += want.count(False)
    assert (total, false) == (124610, 122189)


def test_terminal_identity_reassertable(rng):
    # every tuple passing the hypothesis satisfies the identity as exact
    # Fractions, independently of the integer scan
    hits = 0
    for _ in range(4000):
        r = rng.randint(2, 20)
        t = TermTuple(r, tuple(rng.randrange(r) for _ in range(4)), rng.randrange(r))
        if not terminal_hypothesis(t).ok:
            continue
        hits += 1
        for j in range(1, r):
            assert fracsum(r, t.a, j) == Fraction(j * t.e % r, r) + Fraction(j, r) + 1
    assert hits > 0


def _hypothesis_oracle(r, row):
    a, e = row[:4], row[4]
    return (not fracsum_identity_oracle(r, a, e) and math.gcd(a[3], r) == math.gcd(e, r)
            and all(math.gcd(x, r) == 1 for x in a[:3]))


def test_hypothesis_rows_match_the_oracle(rng):
    # the batch re-check against the Fraction identity oracle and the gcd
    # sides, on random rows, on rows (1, u, -u, x; x) that satisfy the
    # hypothesis, on rows (d, u, -u, 1; d) whose identity holds with a_1
    # possibly a non-unit (then gcd(a_4, r) != gcd(e, r) too: no row at
    # r <= 12 breaks one gcd side alone with the identity holding), and on
    # rows whose identity fails only at j = r - 1
    by_r = {3: [(0, 0, 2, 2, 0)], 4: [(1, 1, 1, 2, 0)], 6: [(1, 1, 2, 3, 0)]}
    for r, rows in by_r.items():
        assert [fracsum_identity_oracle(r, row[:4], row[4]) for row in rows] == [[r - 1]]
    for _ in range(300):
        r = rng.randint(2, 30)
        u, x, d = rng.choice(units(r)), rng.randrange(r), rng.randrange(r)
        ones = [1, u, r - u]
        rng.shuffle(ones)
        by_r.setdefault(r, []).extend([tuple(rng.randrange(r) for _ in range(5)),
                                       (*ones, x, x), (d, u, r - u, 1, d)])
    kinds = set()
    for r, rows in by_r.items():
        want = [_hypothesis_oracle(r, row) for row in rows]
        assert verifiers._hypothesis_rows(r, np.array(rows, dtype=np.int64)).tolist() == want, r
        kinds |= {(ok, not fracsum_identity_oracle(r, row[:4], row[4]))
                  for row, ok in zip(rows, want)}
    assert kinds == {(True, True), (False, True), (False, False)}


def test_terminal_bruteforce_small():
    assert terminal_bruteforce(12) == []


def test_terminal_bruteforce_r60():
    assert terminal_bruteforce(60) == []


def _no_pairs(r, vals):
    return np.zeros(len(vals), dtype=bool)


def test_terminal_scan_keeps_every_survivor(monkeypatch):
    # with the conclusion forced false the scan returns every tuple its
    # stages keep; they must be, in order, exactly the hypothesis-satisfying
    # tuples of a scalar enumeration over every a_4 and every e
    monkeypatch.setattr(verifiers, "_zero_sum_pairs", _no_pairs)
    total = 0
    for r in range(2, 17):
        want = [t for a in itertools.combinations_with_replacement(units(r), 3)
                for a4 in range(r) for e in range(r)
                if terminal_hypothesis(t := TermTuple(r, a + (a4,), e)).ok]
        assert verifiers._terminal_scan_r(r) == want, r
        total += len(want)
    assert total == 1235


def test_terminal_scan_recheck_is_wired(monkeypatch):
    # every survivor of the numpy stages goes through the batch re-check,
    # and a single row it rejects fails the scan
    monkeypatch.setattr(verifiers, "_zero_sum_pairs", _no_pairs)
    assert len(verifiers._terminal_scan_r(5)) == 27
    seen = []

    def reject_last(r, cols):
        seen.append(len(cols))
        return np.arange(len(cols)) < len(cols) - 1

    monkeypatch.setattr(verifiers, "_hypothesis_rows", reject_last)
    with pytest.raises(VerificationError):
        verifiers._terminal_scan_r(5)
    assert seen == [27]


def test_terminal_bruteforce_structured_family():
    for r in range(2, 31):
        for a in range(1, r):
            if math.gcd(a, r) != 1:
                continue
            t = TermTuple(r, (a, r - a, 1, 0), 0)
            assert terminal_hypothesis(t).ok
            assert terminal_conclusion(t)


def test_fourfold_scan_small():
    assert fourfold_gap_scan(20) == []


def test_fourfold_oracle_agreement():
    # full Fraction-based enumeration for tiny r: nothing in the gap window
    # survives the twisted-sum hypothesis, matching the scan
    for r in range(2, 15):
        survivors = []
        for b in itertools.combinations_with_replacement(range(1, r), 4):
            alpha1 = sum(Fraction(x, r) for x in b)
            if not Fraction(11, 6) < alpha1 < 2:
                continue
            X = CyclicQuotient(r, b)

            def alpha(n):
                return sum(1 + Fraction(x * n, r) - math.ceil(Fraction(x * n, r))
                           for x in b)

            if all(alpha(n) >= alpha1 for n in range(1, r + 1)):
                survivors.append(b)
        assert survivors == []
    assert fourfold_gap_scan(14) == []


def test_fourfold_scan_keeps_every_survivor(monkeypatch):
    # on every sorted 4-tuple, not only the gap window, the scan keeps
    # exactly the rows whose mld is attained at k = 1, in order
    monkeypatch.setattr(verifiers, "_fourfold_window_rows",
                        lambda r: sorted_tuples(np.arange(1, r), 4))
    total = 0
    for r in range(2, 13):
        want = [tuple(Fraction(x, r) for x in row)
                for row in itertools.combinations_with_replacement(range(1, r), 4)
                if mld_oracle(r, row) == ld_oracle(r, row, 1)]
        assert verifiers._fourfold_scan_r(r) == want, r
        total += len(want)
    assert total == 720


def test_fourfold_window_rows_match_combinations():
    # the sorted triples extended by their ragged d-ranges yield exactly the
    # gap-window rows of the full sorted enumeration, in the same
    # (lexicographic) order
    for r in range(2, 26):
        want = [t for t in itertools.combinations_with_replacement(range(1, r), 4)
                if 11 * r < 6 * sum(t) < 12 * r]
        got = verifiers._fourfold_window_rows(r)
        assert got.dtype == np.int64 and got.shape == (len(want), 4)
        assert [tuple(row) for row in got.tolist()] == want


def test_fourfold_window_rows_memory():
    # at r = 80 the 185,793 kept rows outnumber the 85,320 triples; writing
    # triples and d into one (N, 4) array keeps the peak below nine int64 per
    # kept row, and stacking a gathered (N, 3) block beside them does not
    rows, peak = traced_peak(lambda: verifiers._fourfold_window_rows(80))
    assert rows.shape == (185_793, 4)
    assert peak < 9 * 8 * len(rows)


def test_fourfold_known_point_not_candidate():
    # (1/2, 1/3, 1/5, 1/7) has first twisted sum 247/210, below the window
    v = (Fraction(105, 210), Fraction(70, 210), Fraction(42, 210), Fraction(30, 210))
    assert sum(v) == Fraction(247, 210)
    assert not Fraction(11, 6) < sum(v) < 2


def test_transfer_family_case2():
    for (k, m, arr) in [(1, 1, 0), (2, 1, 3), (5, 1, 1), (3, 5, 4)]:
        t, eps = transfer_family_instance(k, m, arr)
        rep = transfer_classify(t, eps)
        assert rep.hypothesis_ok and rep.case_tag == "case2"
        assert rep.gamma
        lo = Fraction(5, 6) + eps
        for kk in rep.gamma:
            assert lo <= Fraction(kk, t.r) < 1


def test_transfer_family_smallest_instance():
    t, eps = transfer_family_instance(1, 1, 0)
    assert (t.r, t.a, t.e) == (7, (5, 4, 6, 2), 2)
    rep = transfer_classify(t, eps)
    assert rep.gamma == (6,)


def test_transfer_case1_via_trivial_character():
    # scaled family weights with a4 = e = 0: Gamma survives and e kills it
    t = TermTuple(7, (5, 4, 6, 0), 0)
    rep = transfer_classify(t, Fraction(1, 100))
    assert rep.hypothesis_ok and rep.case_tag == "case1"
    assert (rep.p, rep.q) == (7, 1)
    assert rep.conclusions["pair_congruence"]
    assert rep.conclusions["gcd_e_r_at_least_7"]
    t2 = TermTuple(13, (11, 10, 6, 0), 0)
    rep2 = transfer_classify(t2, Fraction(1, 100))
    assert rep2.case_tag == "case1" and (rep2.p, rep2.q) == (13, 1)


def test_transfer_hypothesis_failures():
    # weight sum incongruent to e + 1
    rep = transfer_classify(TermTuple(7, (2, 3, 1, 0), 0), Fraction(1, 100))
    assert not rep.hypothesis_ok and "mod r" in rep.failure
    # genuine dichotomy violation (found by exhaustive search): all gcd and
    # congruence hypotheses hold but the excess at k=25 is too small
    rep = transfer_classify(TermTuple(26, (15, 21, 23, 24), 4), Fraction(1, 100))
    assert not rep.hypothesis_ok and rep.failure.startswith("dichotomy")
    assert rep.failure_k == 25
    lhs = fracsum(26, (15, 21, 23, 24), 25)
    ek = Fraction(25 * 4 % 26, 26)
    assert lhs != ek + Fraction(25, 26) and lhs <= ek + 1  # neither branch
    # window violation: family instance with an eps that is too large
    t, _ = transfer_family_instance(1, 1, 0)
    rep = transfer_classify(t, Fraction(1, 7))
    assert not rep.hypothesis_ok and rep.failure_k == 6
    # eps domain
    with pytest.raises(ValueError):
        transfer_classify(t, Fraction(1, 6))
    with pytest.raises(ValueError):
        transfer_classify(t, 0)


def test_transfer_total_on_random_tuples(rng):
    # every tuple yields exactly one of: violation with detail, case1, case2
    for _ in range(800):
        r = rng.randint(2, 30)
        t = TermTuple(r, tuple(rng.randrange(r) for _ in range(4)), rng.randrange(r))
        rep = transfer_classify(t, Fraction(1, 100))
        if rep.hypothesis_ok:
            assert rep.case_tag in ("case1", "case2")
            assert rep.gamma
        else:
            assert rep.case_tag == "violated"
            assert rep.failure


# every scan at r <= 60 that ends in a dichotomy failure for small eps
# (exhaustive search over unit a_1..a_3 with a_2 <= a_3 and any e, a_4 fixed
# by the weight-sum congruence); the branch is rare enough to need a list
DICHOTOMY_FAILURES = [
    (26, (15, 21, 23, 24), 4), (31, (18, 24, 28, 29), 5), (31, (18, 24, 29, 28), 5),
    (31, (18, 28, 29, 24), 5), (31, (24, 28, 29, 18), 5), (31, (28, 24, 29, 18), 5),
    (31, (29, 24, 28, 18), 5),
]


def _transfer_tuple(rng, mode):
    """A seeded TermTuple; each mode leans towards some branches of the classifier."""
    if mode == "dichotomy":
        r, a, e = rng.choice(DICHOTOMY_FAILURES)
        return TermTuple(r, a, e)
    if mode in ("case2", "case1"):
        k = rng.randint(1, 8)
        m = 1 if k % 5 == 0 else rng.choice((1, 5))
        t, _ = transfer_family_instance(k, m, rng.randrange(6))
        # a_4 = e = 0 keeps Gamma (the same identity on a_1..a_3) and forces case 1
        return t if mode == "case2" else TermTuple(t.r, t.a[:3] + (0,), 0)
    r = rng.randint(2, 60)
    if mode == "random":
        return TermTuple(r, tuple(rng.randrange(r) for _ in range(4)), rng.randrange(r))
    units = [u for u in range(1, r) if math.gcd(u, r) == 1]
    a1, a2, a3 = (rng.choice(units) for _ in range(3))
    e = (a1 + a2) % r if mode == "alt1" else 2 * a1 % r
    return TermTuple(r, (a1, a2, a3, (e + 1 - a1 - a2 - a3) % r), e)


@pytest.mark.parametrize("chunk", [None, 1, 7])
def test_transfer_classify_matches_oracle(rng, monkeypatch, chunk):
    # whole reports against the Fraction scan in conftest, with the k-chunk
    # boundaries falling at different places of the scan
    if chunk is not None:
        monkeypatch.setattr(quotient, "_K_CHUNK", chunk)
    modes = ("case2", "case1", "alt1", "alt3", "random", "dichotomy")
    reached = set()
    for i in range(360):
        t = _transfer_tuple(rng, modes[i % len(modes)])
        eps = Fraction(rng.randint(1, 99), 600)
        gamma = transfer_oracle(t, Fraction(1, 10**9)).gamma
        if i % 12 < 2 and gamma:  # the window bound sits on a Gamma member
            eps = Fraction(rng.choice(gamma), t.r) - Fraction(5, 6)
        rep = transfer_classify(t, eps)
        assert rep == transfer_oracle(t, eps), (t, eps)
        reached.add(rep.case_tag if rep.hypothesis_ok
                    else re.sub(r"k=\d+", "k", rep.failure))
    assert reached >= {"case1", "case2", "Gamma is empty",
                       "Gamma member k below the index window",
                       "dichotomy fails at k"}


def test_lift_to_fivefold_family(rng):
    for k in (1, 2, 3, 4, 6, 9):
        t, eps = transfer_family_instance(k, 1, rng.randrange(6))
        rep = transfer_classify(t, eps)
        X = lift_to_fivefold(t, eps)
        assert X.dim == 5
        assert X.weights == t.a + ((t.r - t.e) % t.r,)
        k1 = min(kk for kk in rep.gamma if t.e * kk % t.r != 0)
        assert mld(X) == 1 + Fraction(k1, t.r)
        assert toroidal_ld(X, k1) == 1 + Fraction(k1, t.r)


def test_lift_requires_case2():
    with pytest.raises(ValueError):
        lift_to_fivefold(TermTuple(7, (5, 4, 6, 0), 0), Fraction(1, 100))


def test_fivefold_scan_examples():
    cands = fivefold_scan(13, Fraction(1, 100), "4a")
    assert cands
    for c in cands:
        assert index_gcd(c.X) == 1
        assert mld(c.X) == c.mld
        assert Fraction(11, 6) + Fraction(1, 100) <= c.mld < 2
        a = c.X.weights
        assert (a[0] + a[1] + a[4]) % c.X.r == 0
    for cond in ("4a", "4b", "4c"):
        assert fivefold_scan(6, Fraction(1, 100), cond) == []
    with pytest.raises(ValueError):
        fivefold_scan(13, Fraction(1, 100), "4d")


def test_fivefold_scan_tiny_eps():
    # no k/r with r <= 13 lies in (11/6, 11/6 + 1/100], so every eps below
    # 1/100 keeps the same candidates; a 10**18 denominator wrapped in int64
    assert (fivefold_scan(13, Fraction(1, 10**18), "4a")
            == fivefold_scan(13, Fraction(1, 100), "4a"))


def _fivefold_full(r_max, eps, condition):
    """(r, weights, mld) of every fivefold candidate, from the full scan over
    all phi(r)**3 * r rows (a_1, a_2, a_3 units, a_4 any residue) with plain
    integer filters and the window compared as Fractions."""
    out = []
    for r in range(2, r_max + 1):
        rows = []
        for a1, a2, a3 in itertools.product(units(r), repeat=3):
            for a4 in range(r):
                a5 = {"4a": -(a1 + a2), "4b": -2 * a4, "4c": -2 * a1}[condition] % r
                g4 = math.gcd(a4, r)
                if (g4 == math.gcd(a5, r) and (condition != "4c" or g4 <= 2)
                        and math.gcd(a1 + a2 + a3 + a4 + a5, r) == 1):
                    rows.append((a1, a2, a3, a4, a5))
        if not rows:
            continue
        numer, _ = quotient.mld_argmin_batch(r, rows)
        out += [(r, row, Fraction(int(n), r)) for row, n in zip(rows, numer)
                if Fraction(11, 6) + eps <= Fraction(int(n), r) < 2]
    return out


def test_fivefold_scan_row_blocks(monkeypatch):
    # the a_1 = 1 slab expanded by units gives, in order, the candidates of
    # the full enumeration; a _K_CHUNK of 7 puts block boundaries inside
    # every (a_2, a_3) run of the slab, and the candidates must not move
    eps = Fraction(1, 100)
    want = {cond: _fivefold_full(13, eps, cond) for cond in ("4a", "4b", "4c")}
    for chunk in (quotient._K_CHUNK, 7):
        monkeypatch.setattr(quotient, "_K_CHUNK", chunk)
        got = {cond: [(c.X.r, c.X.weights, c.mld) for c in fivefold_scan(13, eps, cond)]
               for cond in want}
        assert got == want, chunk


def test_fivefold_counts_at_r20():
    # candidate counts of the full enumeration at r <= 20
    counts = [len(fivefold_scan(20, Fraction(1, 100), cond)) for cond in ("4a", "4b", "4c")]
    assert counts == [1964, 6366, 6374]


def test_unit_orbits_recheck_catches_a_non_unit():
    # the slab rows of r = 10 under 4b, expanded by the units, are the level's
    # candidates; one multiplier that is not a unit fails the floor-0 re-check
    r, cands = 10, [c for c in fivefold_scan(10, Fraction(1, 100), "4b") if c.X.r == 10]
    slab = [c for c in cands if c.X.weights[0] == 1]
    W = np.array([c.X.weights for c in slab])
    numer = np.array([int(c.mld * r) for c in slab], dtype=np.int64)
    E, got = verifiers._unit_orbits(r, W, numer, units(r))
    assert ([(tuple(row), Fraction(num, r)) for row, num in zip(E.tolist(), got.tolist())]
            == [(c.X.weights, c.mld) for c in cands])
    with pytest.raises(VerificationError):
        verifiers._unit_orbits(r, W, numer, units(r) + [2])


def _wrong_floor(real):
    """mld_argmin_batch with a broken floor: a floored call reports every row
    above its floor at the floor, a wrong kept minimum."""
    def batch(r, W, *floor):
        numer, argk = real(r, W, *floor)
        return (np.minimum(numer, floor[0]) if floor else numer), argk
    return batch


@pytest.mark.parametrize("module, run", [
    (spectrum, lambda: spectrum._scan_r(13, spectrum.ScanConfig(
        dim=3, r_max=13, lo=Fraction(5, 6), hi=Fraction(1)))),
    (verifiers, lambda: verifiers._fivefold_scan_r(13, Fraction(1, 100), "4a")[1].size),
], ids=["spectrum", "fivefold"])
def test_batch_recheck_catches_a_wrong_floor(monkeypatch, module, run):
    # the floor-0 re-check over the kept rows is what guards the floor logic
    assert run()
    monkeypatch.setattr(module, "mld_argmin_batch", _wrong_floor(module.mld_argmin_batch))
    with pytest.raises(VerificationError):
        run()


def test_lift_check_survives_optimize():
    # the mld re-check in lift_to_fivefold, the batch re-check of the
    # fivefold scan and the batch re-check of the terminal scan must not
    # vanish under python -O
    script = "\n".join([
        "import numpy as np",
        "from fractions import Fraction",
        "from mldlab import verifiers",
        "from mldlab.qarith import VerificationError",
        "t, eps = verifiers.transfer_family_instance(2)",
        "verifiers.mld = lambda X: Fraction(0)",
        "try:",
        "    verifiers.lift_to_fivefold(t, eps)",
        "except VerificationError:",
        "    print('caught')",
        inspect.getsource(_wrong_floor),
        "verifiers.mld_argmin_batch = _wrong_floor(verifiers.mld_argmin_batch)",
        "try:",
        "    verifiers._fivefold_scan_r(13, Fraction(1, 100), '4a')",
        "except VerificationError:",
        "    print('caught')",
        "verifiers._hypothesis_rows = lambda r, cols: np.zeros(len(cols), dtype=bool)",
        "try:",
        "    verifiers._terminal_scan_r(5)",
        "except VerificationError:",
        "    print('caught')",
    ])
    src = str(Path(verifiers.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["caught"] * 3


def test_fivefold_scan_4b_congruence():
    for c in fivefold_scan(11, Fraction(1, 100), "4b"):
        a = c.X.weights
        assert (2 * a[3] + a[4]) % c.X.r == 0
        assert math.gcd(a[3], c.X.r) == math.gcd(a[4], c.X.r)


def test_thm35_failure_details():
    ok, detail = thm35_hypotheses(CyclicQuotient(211, (50, 60, 80, 150, 210)), 100)
    assert not ok and detail == "v4 window"
    ok, detail = thm35_hypotheses(CyclicQuotient(211, (50, 60, 80, 1, 150)), 100)
    assert not ok and detail == "v5 window"
    ok, detail = thm35_hypotheses(CyclicQuotient(210, (50, 60, 80, 1, 209)), 100)
    assert not ok and "positive integer" in detail
    ok, detail = thm35_hypotheses(CyclicQuotient(211, (10, 20, 30, 1, 210)), 100)
    assert not ok  # coordinate sum far below the window
    ok, detail = thm35_hypotheses(CyclicQuotient(211, (50, 60, 80, 1, 210)), 99)
    assert not ok and "mu < 100" in detail
    with pytest.raises(ValueError):
        thm35_hypotheses(CyclicQuotient(211, (1, 2, 3)), 100)
    with pytest.raises(ValueError):
        thm35_hypotheses(CyclicQuotient(211, (1, 2, 3, 4, 5)), 1)


def test_thm35_no_instance_at_desk_scale():
    # The window forces the first three weights to form a threefold whose mld
    # equals its coordinate sum, lands in (6/7, 1), and whose weights all
    # have order above 100.  No such threefold exists with r <= 120: values
    # in that window only arise from the accumulation family with k < m <= 5
    # (so r <= 29, orders far too small).  Freeze the negative search.
    from mldlab.spectrum import ScanConfig, scan
    cfg = ScanConfig(dim=3, r_max=120, lo=Fraction(6, 7), hi=Fraction(1),
                     include_lo=False)
    for rec in scan(cfg):
        viable = (sum(rec.weights) * rec.mld.denominator
                  == rec.mld.numerator * rec.r
                  and all(rec.r // math.gcd(a, rec.r) > 100 for a in rec.weights))
        assert not viable

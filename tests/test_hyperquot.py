import itertools
import math
import random
from fractions import Fraction

import pytest

from conftest import gap_oracle, psi_oracle
from mldlab import hyperquot
from mldlab.hyperquot import (HyperquotientDatum,
                              MonomialSupport, PsiPartition, classify_type,
                              enumerate_N0, gap_value, identity5_check,
                              psi_classify, semi_invariant_check,
                              support_weight, two_monomials_verify)
from mldlab.qarith import units


def test_support_weight_examples():
    S = MonomialSupport.of((1, 1, 0, 0), (0, 0, 2, 0), (0, 0, 0, 5))
    assert support_weight((Fraction(1, 2),) * 4, S) == 1
    assert support_weight((Fraction(1, 7), Fraction(2, 7), Fraction(3, 7),
                           Fraction(1, 7)), MonomialSupport.of((1, 1, 0, 0))) \
        == Fraction(3, 7)
    S = MonomialSupport.of((0, 3, 0, 0), (0, 0, 2, 0))
    assert support_weight((0, Fraction(1, 3), Fraction(2, 3), 1), S) == 1


def test_support_union_min():
    a = MonomialSupport.of((1, 1, 0, 0), (0, 0, 3, 0))
    b = MonomialSupport.of((0, 2, 0, 0), (0, 0, 0, 4))
    union = MonomialSupport(a.exponents | b.exponents)
    w = (Fraction(1, 5), Fraction(2, 5), Fraction(3, 5), Fraction(1, 5))
    assert support_weight(w, union) == min(support_weight(w, a),
                                           support_weight(w, b))


def test_support_validation():
    with pytest.raises(ValueError):
        MonomialSupport(frozenset())
    with pytest.raises(ValueError):
        MonomialSupport.of((0, 0, 0, 0))
    with pytest.raises(ValueError):
        MonomialSupport.of((1, -1, 0, 0))
    with pytest.raises(ValueError):
        MonomialSupport.of((1, 0, 0))


def test_semi_invariant_examples():
    d = HyperquotientDatum(4, (1, 3, 2, 1), 0,
                           MonomialSupport.of((1, 1, 0, 0), (0, 0, 2, 0)))
    assert semi_invariant_check(d) is None
    d = HyperquotientDatum(4, (1, 3, 2, 1), 0,
                           MonomialSupport.of((1, 1, 0, 0), (0, 0, 0, 3)))
    assert semi_invariant_check(d) == (0, 0, 0, 3)
    d = HyperquotientDatum(7, (2, 5, 1, 3), 0,
                           MonomialSupport.of((1, 1, 0, 0), (0, 0, 7, 0)))
    assert semi_invariant_check(d) is None


def test_enumerate_N0_small():
    n0 = enumerate_N0(2, (1, 1, 1, 1))
    assert len(n0) == 1
    assert n0[0].coords == (Fraction(1, 2),) * 4
    assert n0[0].primitive

    n0 = enumerate_N0(3, (1, 2, 1, 2))
    coords = {w.coords for w in n0}
    assert coords == {
        (Fraction(1, 3), Fraction(2, 3), Fraction(1, 3), Fraction(2, 3)),
        (Fraction(2, 3), Fraction(1, 3), Fraction(2, 3), Fraction(1, 3))}


def test_enumerate_N0_zero_expansion():
    n0 = enumerate_N0(4, (1, 3, 2, 0))
    # classes j=1, 3 expand the one zero coordinate; j=2 expands two
    assert len(n0) == 8
    for w in n0:
        assert all(0 <= c <= 1 for c in w.coords)
        assert any(0 < c < 1 for c in w.coords)
    halves = [w for w in n0 if w.class_index == 2]
    assert len(halves) == 4


def test_enumerate_N0_box_membership(rng):
    for _ in range(40):
        r = rng.randint(2, 20)
        a = tuple(rng.randrange(r) for _ in range(4))
        n0 = enumerate_N0(r, a)
        assert [w.numers for w in n0] == sorted(w.numers for w in n0)
        for w in n0:
            assert w.r == r
            assert w.coords == tuple(Fraction(n, r) for n in w.numers)
            j = w.class_index
            for c, ai in zip(w.coords, a):
                assert (c - Fraction(j * ai, r)).denominator == 1


def test_primitivity_by_direct_division(rng):
    for _ in range(30):
        r = rng.randint(2, 16)
        a = tuple(rng.randrange(r) for _ in range(4))
        n0 = enumerate_N0(r, a)
        lattice = {tuple((j * x) % r for x in a) for j in range(r)}
        for w in n0:
            numers = tuple(int(c * r) for c in w.coords)
            divisible = False
            for l in range(2, r + 1):
                if all(x % l == 0 for x in numers) \
                        and tuple(x // l for x in numers) in lattice:
                    divisible = True
            assert w.primitive == (not divisible)


def test_involution():
    n0 = enumerate_N0(7, (2, 5, 1, 3))
    coords = {w.coords for w in n0}
    for w in n0:
        primed = w.primed()
        assert tuple(1 - c for c in primed) == w.coords
        assert primed in coords  # N0 is closed under the involution


def test_gap_value_examples():
    d = HyperquotientDatum(2, (1, 1, 1, 1), 0,
                           MonomialSupport.of((1, 1, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)))
    w = (Fraction(1, 2),) * 4
    assert gap_value(w, d) == 1
    bad = HyperquotientDatum(4, (1, 3, 2, 1), 0,
                             MonomialSupport.of((0, 0, 0, 3)))
    with pytest.raises(ValueError):
        gap_value(w, bad)


def test_gap_congruence_for_pair_type(rng):
    # with a1+a2 = e and a1+a2+a3+a4 = e+1 mod r, the gap of every class
    # vector is j/r mod 1 when f contains the monomial x1*x2
    for _ in range(40):
        r = rng.randint(3, 24)
        a1 = rng.randrange(1, r)
        a2 = rng.randrange(1, r)
        e = (a1 + a2) % r
        a3 = rng.randrange(1, r)
        a4 = (e + 1 - a1 - a2 - a3) % r
        support = MonomialSupport.of((1, 1, 0, 0), (0, 0, max(1, r // 2), 2))
        exps = {x for x in support.exponents
                if (sum(c * w for c, w in zip(x, (a1, a2, a3, a4))) - e) % r == 0}
        if not exps:
            continue
        d = HyperquotientDatum(r, (a1, a2, a3, a4), e, MonomialSupport(exps))
        for j in (1, 2, r - 1):
            w = tuple(Fraction(j * x % r, r) for x in (a1, a2, a3, a4))
            gap = gap_value(w, d)
            assert (gap - Fraction(j, r)).denominator == 1


def test_psi_classify_terminal_examples():
    d = HyperquotientDatum(5, (2, 3, 1, 0), 0, MonomialSupport.of((1, 1, 0, 0)))
    part = psi_classify(d, Fraction(1, 100))
    assert part.psi1 == ()
    assert part.psi2 == ()
    assert len(part.rest) == len(enumerate_N0(5, (2, 3, 1, 0)))

    d = HyperquotientDatum(2, (1, 1, 1, 1), 0,
                           MonomialSupport.of((1, 1, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)))
    part = psi_classify(d, Fraction(1, 100))
    assert part.psi1 == ()


def test_psi_partition_properties(rng):
    for _ in range(25):
        r = rng.randint(2, 14)
        a = tuple(rng.randrange(r) for _ in range(4))
        e = (a[0] + a[1]) % r
        support = MonomialSupport.of((1, 1, 0, 0))
        d = HyperquotientDatum(r, a, e, support)
        part = psi_classify(d, Fraction(1, 50))
        n0 = enumerate_N0(r, a)
        together = list(part.psi1) + list(part.psi2) + list(part.rest)
        assert sorted(w.coords for w in together) == sorted(w.coords for w in n0)
        coords_sets = [set(w.coords for w in block)
                       for block in (part.psi1, part.psi2, part.rest)]
        for s1, s2 in itertools.combinations(coords_sets, 2):
            assert not s1 & s2
        lo = Fraction(5, 6) + Fraction(1, 50)
        for w in part.rest:
            if w.primitive:
                assert not lo <= gap_value(w, d) < 1


def type_1a_data(seed, count=16, lo=60, hi=220):
    """Seeded type-1a data (r; x, r-x, 1, 0; 0) with r spread over [lo, hi],
    each with the support {x1 x2, x3^r} plus one of x1^r, x2^r, x1^2 x2^2."""
    rng = random.Random(seed)
    data = []
    for i in range(count):
        r = rng.randint(lo + (hi - lo) * i // count, lo + (hi - lo) * (i + 1) // count)
        x = rng.choice([u for u in range(2, r - 1) if math.gcd(u, r) == 1])
        support = {(1, 1, 0, 0), (0, 0, r, 0),
                   rng.choice([(r, 0, 0, 0), (0, r, 0, 0), (2, 2, 0, 0)])}
        data.append(HyperquotientDatum(r, (x, r - x, 1, 0), 0,
                                       MonomialSupport(frozenset(support))))
    return data


def assert_matches_oracle(d, eps):
    part = psi_classify(d, eps)
    assert (part.psi1, part.psi2, part.rest) == psi_oracle(d, eps)
    return part


def test_psi_classify_matches_oracle(rng):
    # the benchmark's kind of data: non-empty psi1 and psi2 at r in [60, 220]
    for d in type_1a_data(20261019):
        part = assert_matches_oracle(d, Fraction(1, 100))
        assert part.psi1 and part.psi2
    # random actions, supports cut down to their semi-invariant monomials
    checked = 0
    while checked < 150:
        r = rng.randint(2, 30)
        a = tuple(rng.randrange(r) for _ in range(4))
        e = rng.randrange(r)
        exps = {tuple(rng.randint(0, 5) for _ in range(4)) for _ in range(10)}
        exps = {x for x in exps
                if any(x) and (sum(c * w for c, w in zip(x, a)) - e) % r == 0}
        if not exps:
            continue
        d = HyperquotientDatum(r, a, e, MonomialSupport(frozenset(exps)))
        for eps in (Fraction(1, 100), Fraction(1, 12), Fraction(1, 7)):
            assert_matches_oracle(d, eps)
        checked += 1


def test_psi_classify_window_ends():
    # (5/6 + 1/12) * 12 = 11: class 11 has gap exactly 11/12, the left end
    d = HyperquotientDatum(12, (5, 7, 1, 0), 0,
                           MonomialSupport.of((1, 1, 0, 0), (0, 0, 12, 0)))
    part = assert_matches_oracle(d, Fraction(1, 12))
    edge = [w for w in part.psi1 if gap_oracle(w.coords, d.support.exponents)
            == Fraction(11, 12)]
    assert [w.class_index for w in edge] == [11]
    # a primitive weight with gap exactly 1 stays out of psi1
    d = HyperquotientDatum(11, (1, 5, 3, 0), 9,
                           MonomialSupport.of((1, 1, 1, 0), (1, 1, 1, 3)))
    part = assert_matches_oracle(d, Fraction(1, 100))
    assert any(w.primitive and gap_oracle(w.coords, d.support.exponents) == 1
               for w in part.rest)


def test_psi_classify_huge_exponent():
    # x3^(r * 2**70) never attains the support weight, but n_3 times its
    # exponent is a multiple of 2**64, which int64 arithmetic reads as 0
    for d in type_1a_data(7, count=3):
        huge = MonomialSupport(d.support.exponents | {(0, 0, d.r * 2**70, 0)})
        d = HyperquotientDatum(d.r, d.a, d.e, huge)
        part = assert_matches_oracle(d, Fraction(1, 100))
        assert part.psi1


def test_psi_classify_rejects_non_semi_invariant_support():
    bad = HyperquotientDatum(4, (1, 3, 2, 1), 0,
                             MonomialSupport.of((1, 1, 0, 0), (0, 0, 0, 3)))
    with pytest.raises(ValueError, match=r"not semi-invariant: \(0, 0, 0, 3\)"):
        psi_classify(bad, Fraction(1, 100))
    # with an empty N0 no gap is ever evaluated, so nothing is rejected
    empty = HyperquotientDatum(3, (0, 0, 0, 0), 1, MonomialSupport.of((1, 0, 0, 0)))
    assert enumerate_N0(3, (0, 0, 0, 0)) == []
    assert psi_classify(empty, Fraction(1, 100)) == PsiPartition((), (), ())


def test_identity5_examples():
    assert identity5_check(5, (2, 3, 1, 0), 0) == []
    assert 1 in identity5_check(5, (1, 1, 1, 1), 0)
    assert identity5_check(11, (3, 8, 1, 0), 0) == []


def test_classify_type_examples():
    assert classify_type(11, (3, 8, 1, 0), 0) == ("1a", 3)
    assert classify_type(8, (1, 5, 3, 2), 2) == ("2b", None)
    # (9; 4,5,8,1; 8) matches both the half-pair and the doubled patterns;
    # first match in listed order is 3d (with parameter 8), while the doubled
    # reading 3e appears under all_matches with parameter 4
    assert classify_type(9, (4, 5, 8, 1), 8) == ("3d", 8)
    matches = classify_type(9, (4, 5, 8, 1), 8, all_matches=True)
    assert ("3d", 8) in matches and ("3e", 4) in matches
    assert classify_type(7, (1, 2, 3, 4), 5) == ("none", None)


def test_classify_type_patterns_roundtrip():
    # build an instance of each pattern and confirm it is recognized
    cases = [
        ("1a", 11, (3, 8, 1, 0), 0),
        ("1b", 12, (1, 5, 7, 6), 6),
        ("1c", 11, (5, 1, 6, 6), 6),
        ("1d", 11, (5, 5, 6, 6), 10),
        ("2a", 6, (0, 3, 3, 0), 0),
        ("2b", 8, (1, 5, 3, 2), 2),
        ("3a", 11, (0, 4, 7, 1), 0),
        ("3b", 10, (3, 7, 1, 6), 6),
        ("3c", 10, (1, 3, 7, 2), 2),
        ("3d", 11, (5, 6, 4, 7), 10),
        ("3e", 11, (4, 7, 8, 1), 8),
        ("3f", 11, (1, 4, 7, 2), 2),
    ]
    for tag, r, a, e in cases:
        got_tag, _ = classify_type(r, a, e)
        matches = [m[0] for m in classify_type(r, a, e, all_matches=True)]
        assert tag in matches, (tag, r, a, e, matches)
        assert got_tag == matches[0]


def _classify_by_search(r, a, e):
    """Every (tag, x) match of the patterns, searching x over all units mod r."""
    target = tuple(x % r for x in a) + (e % r,)
    matches = []
    for tag in hyperquot.TYPE_TAGS:
        for x in ((None,) if tag in ("2a", "2b") else units(r)):
            pat = hyperquot._pattern(tag, r, x)
            if pat is not None and tuple(v % r for v in pat) == target:
                matches.append((tag, x))
                break
    return matches


def test_classify_type_matches_unit_search():
    for r in range(2, 9):
        for *a, e in itertools.product(range(r), repeat=5):
            want = _classify_by_search(r, a, e)
            assert classify_type(r, a, e, all_matches=True) == want
            assert classify_type(r, a, e) == (want[0] if want else ("none", None))


def test_classify_type_matches_unit_search_on_patterns(rng):
    # larger r, on targets built from a random pattern and unit parameter
    for _ in range(300):
        r = rng.randrange(9, 201)
        x = rng.choice(units(r))
        pat = hyperquot._pattern(rng.choice(hyperquot.TYPE_TAGS), r, x)
        if pat is None:
            continue
        *a, e = pat
        assert classify_type(r, a, e, all_matches=True) == _classify_by_search(r, a, e)


def test_classify_type_builds_each_pattern_once(monkeypatch):
    calls = []
    real = hyperquot._pattern
    monkeypatch.setattr(hyperquot, "_pattern",
                        lambda *args: calls.append(args) or real(*args))
    assert classify_type(10007, (5, 7, 1, 0), 0, all_matches=True) == []
    assert 1 <= len(calls) <= 12  # at least one: a classify_type that bypasses _pattern fails


def test_two_monomials_examples():
    S = MonomialSupport.of((0, 0, 2, 0), (1, 1, 0, 0))
    w1 = (Fraction(1, 3), Fraction(1, 3), Fraction(1, 4), Fraction(1, 2))
    w2 = (Fraction(1, 2), Fraction(1, 2), Fraction(1, 4), Fraction(1, 2))
    assert two_monomials_verify(S, 3, w1, w2)
    single = MonomialSupport.of((0, 0, 2, 0))
    assert two_monomials_verify(single, 3, w1, w2)


def test_two_monomials_not_applicable():
    S = MonomialSupport.of((1, 1, 0, 0))
    w = (Fraction(1, 3),) * 4
    with pytest.raises(ValueError):
        two_monomials_verify(S, 3, w, w)  # no pure power of axis 3
    zero = (0, 0, Fraction(0), 0)
    with pytest.raises(ValueError):
        two_monomials_verify(MonomialSupport.of((0, 0, 2, 0)), 3, zero, zero)


def test_two_monomials_randomized(rng):
    checked = 0
    while checked < 1000:
        axis = rng.randint(1, 4)
        idx = axis - 1
        exps = set()
        l = rng.randint(1, 6)
        pure = [0, 0, 0, 0]
        pure[idx] = l
        exps.add(tuple(pure))
        for _ in range(rng.randint(0, 4)):
            exps.add(tuple(rng.randint(0, 4) for _ in range(4)))
        exps = {x for x in exps if any(x)}
        S = MonomialSupport(frozenset(exps))
        ws = []
        for _ in range(2):
            ws.append(tuple(Fraction(rng.randint(0, 12), 12) for _ in range(4)))
        try:
            result = two_monomials_verify(S, axis, ws[0], ws[1])
        except ValueError:
            continue
        assert result  # always holds under the preconditions; False means a bug
        checked += 1

import hashlib
import json
import random
from fractions import Fraction

import pytest

from conftest import floor_sum_holds, region_empty_oracle
from mldlab import regions
from mldlab.qarith import VerificationError
from mldlab.regions import (Box, BoxLimitExceeded, BoxUnion, FloorConstraint,
                            GammaSet, boxunion_equal, case_boxes,
                            case_initial_region, constraint_refine,
                            gamma_of_interval, s_grid_intervals, system_empty, unit_cube,
                            verify_case, verify_s_grid, verify_vl_step, vl_box)


def test_gamma_of_interval_unbounded():
    G = gamma_of_interval(13, None, 100)
    assert set(G) == {(n, 1) for n in range(2, 13)}


def test_gamma_of_interval_bounded():
    G = gamma_of_interval(11, 13, 25)
    expected = {(n, 1) for n in range(2, 11)} | {(n, 2) for n in range(14, 22)}
    assert set(G) == expected


def test_gamma_of_interval_fractional_endpoints():
    # oracle: direct scan of the defining inequalities, on one hand-picked
    # interval and on every grid interval at caps around and past the suites'
    cases = [(Fraction(6), Fraction(25, 4), 30)] + [
        (a, b, n_max) for n_max in (2, 3, 50, 100, 120) for a, b in s_grid_intervals()]
    for a, b, n_max in cases:
        if b is None:
            expected = {(n, 1) for n in range(2, n_max + 1) if n <= a - 1}
        else:  # (c - 1) * b + 1 <= n <= n_max forces c <= n_max, as b > 1
            bounds = [(c, (c - 1) * b + 1, c * a - 1) for c in range(1, n_max + 1)]
            expected = {(n, c) for c, lo, hi in bounds for n in range(2, n_max + 1)
                        if lo <= n <= hi}
        assert set(gamma_of_interval(a, b, n_max)) == expected, (a, b, n_max)


def test_gamma_domain_errors():
    with pytest.raises(ValueError):
        gamma_of_interval(1, None, 50)
    with pytest.raises(ValueError):
        gamma_of_interval(5, 4, 50)


def test_constraint_refine_single_cell():
    U = constraint_refine(unit_cube(False), FloorConstraint(2, 1))
    assert len(U.boxes) == 1
    half = Fraction(1, 2)
    assert U.boxes[0].intervals == (((0, half)), (0, half), (0, half))


def test_constraint_refine_three_cells():
    U = constraint_refine(unit_cube(False), FloorConstraint(3, 1))
    assert len(U.boxes) == 3
    third, two_thirds = Fraction(1, 3), Fraction(2, 3)
    mids = [tuple(iv == (third, two_thirds) for iv in box.intervals)
            for box in U.boxes]
    assert sorted(mids) == sorted([(True, False, False), (False, True, False),
                                   (False, False, True)])


def test_constraint_refine_membership_soundness(rng):
    # cached refinements, fresh random points: membership in the refined
    # union must coincide with the floor-sum predicate
    cache = {}
    for _ in range(2000):
        n = rng.randint(2, 20)
        c = rng.randint(1, 6)
        key = (n, c)
        if key not in cache:
            cache[key] = constraint_refine(unit_cube(False), FloorConstraint(n, c))
        point = tuple(Fraction(rng.randint(0, 500), 501) for _ in range(3))
        assert cache[key].contains(point) == floor_sum_holds(point, n, c)


def test_refine_inside_vl_box():
    region = constraint_refine(vl_box(4), FloorConstraint(28, 5))
    for box in region.boxes:
        corner = box.ordered_corner()
        assert floor_sum_holds(corner, 28, 5)
    # points of vl_box(4) violating the constraint must be gone
    rng = random.Random(5)
    (l1, h1), (l2, h2), (l3, h3) = vl_box(4).boxes[0].intervals
    for _ in range(500):
        point = (l1 + (h1 - l1) * Fraction(rng.randint(0, 99), 100),
                 l2 + (h2 - l2) * Fraction(rng.randint(0, 99), 100),
                 l3 + (h3 - l3) * Fraction(rng.randint(0, 99), 100))
        assert region.contains(point) == floor_sum_holds(point, 28, 5)


def test_system_witness_trivial():
    res = system_empty(unit_cube(True), GammaSet(((2, 1),)))
    assert res.verdict == "witness"
    assert res.witness == (0, 0, 0)


def test_system_empty_initial_region():
    # no point to witness, with or without constraints to apply
    for G in (GammaSet(()), GammaSet(((2, 1),))):
        res = system_empty(BoxUnion((), True), G)
        assert res.verdict == "empty" and res.witness is None
        assert res.applied == G.pairs[:1] and res.initial_boxes == 0
    assert system_empty(unit_cube(True), GammaSet(())).verdict == "witness"


def test_system_head_intervals_empty():
    for a, b in ((13, None), (11, 13)):
        res = system_empty(unit_cube(True), gamma_of_interval(a, b, 100))
        assert res.is_empty, (a, b)
        assert res.box_counts[-1] == 0
        assert len(res.applied) <= len(gamma_of_interval(a, b, 100))


def test_witness_satisfies_all_constraints():
    G = gamma_of_interval(11, None, 100)  # known nonempty system
    res = system_empty(unit_cube(True), G)
    assert res.verdict == "witness"
    v = res.witness
    assert v[0] <= v[1] <= v[2]
    for n, c in G:
        assert floor_sum_holds(v, n, c)


def test_verdict_order_independent(rng):
    G = list(gamma_of_interval(11, 13, 100))
    for _ in range(3):
        rng.shuffle(G)
        region = unit_cube(True)
        empty = False
        for n, c in G:
            region = constraint_refine(region, FloorConstraint(n, c))
            if region.is_empty:
                empty = True
                break
        assert empty


def test_floor_constraint_permutation_symmetric(rng):
    for _ in range(500):
        n = rng.randint(2, 15)
        c = rng.randint(1, 5)
        point = [Fraction(rng.randint(0, 100), 101) for _ in range(3)]
        base = floor_sum_holds(point, n, c)
        rng.shuffle(point)
        assert floor_sum_holds(point, n, c) == base


def test_vl_box_values():
    box = vl_box(4).boxes[0]
    assert box.intervals == ((Fraction(0), Fraction(1, 26)),
                             (Fraction(7, 22), Fraction(1, 3)),
                             (Fraction(11, 23), Fraction(1, 2)))
    box5 = vl_box(5).boxes[0]
    assert box5.intervals == ((Fraction(0), Fraction(1, 32)),
                              (Fraction(9, 28), Fraction(1, 3)),
                              (Fraction(14, 29), Fraction(1, 2)))
    with pytest.raises(ValueError):
        vl_box(3)


def test_vl_boxes_nested():
    outer = vl_box(4).boxes[0]
    inner = vl_box(5).boxes[0]
    for (lo_o, hi_o), (lo_i, hi_i) in zip(outer.intervals, inner.intervals):
        assert lo_o <= lo_i and hi_i <= hi_o


def test_verify_vl_steps():
    for l in (4, 7, 10):
        assert verify_vl_step(l)


def test_boxunion_equal_detects_difference():
    a = vl_box(4)
    b = vl_box(5)
    assert not boxunion_equal(a, b)
    assert boxunion_equal(a, a)


def test_boxunion_equal_across_decompositions():
    half = Fraction(1, 2)
    cube = unit_cube(False).boxes
    split = (Box(((0, half), (0, 1), (0, 1))), Box(((half, 1), (0, 1), (0, 1))))
    assert boxunion_equal(BoxUnion(cube, False), BoxUnion(split, False))
    # the two differ only where v_1 >= 1/2 > v_2, off the ordered simplex
    part = (Box(((0, half), (0, 1), (0, 1))), Box(((half, 1), (half, 1), (half, 1))))
    assert not boxunion_equal(BoxUnion(cube, False), BoxUnion(part, False))
    assert boxunion_equal(BoxUnion(cube, True), BoxUnion(part, True))
    with pytest.raises(ValueError):
        boxunion_equal(BoxUnion(cube, True), BoxUnion(cube, False))


def test_case_initial_regions_nonempty():
    for k in range(4, 9):
        region = case_initial_region(k)
        assert not region.is_empty
        assert region.witness() is not None


def test_verify_case_samples():
    assert verify_case(4, 1).is_empty
    assert verify_case(4, 6).is_empty
    assert verify_case(8, 10).is_empty
    with pytest.raises(ValueError):
        verify_case(3, 1)
    with pytest.raises(ValueError):
        verify_case(4, 11)


def test_verify_cases_block_parallel():
    seq = [(k, c, res.verdict)
           for k, c, res in regions.verify_cases((4, 5), (1, 2), jobs=1)]
    par = [(k, c, res.verdict)
           for k, c, res in regions.verify_cases((4, 5), (1, 2), jobs=2)]
    assert seq == par
    assert [v for _, _, v in seq] == ["empty"] * 4


def test_underconstrained_system_reports_witness():
    # with the constraint cap at n <= 10 the (11, 13) system is still
    # inhabited: a report, not a failure
    G = gamma_of_interval(11, 13, 10)
    res = system_empty(unit_cube(True), G)
    assert res.verdict == "witness"
    for n, c in G:
        assert floor_sum_holds(res.witness, n, c)


def test_s_grid_structure():
    intervals = regions.s_grid_intervals()
    assert len(intervals) == 41
    assert intervals[0] == (13, None)
    assert intervals[1] == (11, 13)
    for a, b in intervals[2:]:
        assert Fraction(25, 4) <= a < b <= 11


def test_s_grid_nmax100_known_verdicts():
    # 34 of the 41 systems die by n <= 100; the seven survivors all sit in
    # the (25/4, 63/10) range and die once n <= 120 is allowed.
    report = verify_s_grid(100)
    assert len(report) == 41
    witnesses = [entry for entry in report if entry["verdict"] == "witness"]
    assert len(witnesses) == 7
    for entry in witnesses:
        a = Fraction(entry["interval"][0])
        assert Fraction(25, 4) <= a <= Fraction(82, 13)
    report120 = verify_s_grid(120)
    assert all(entry["verdict"] == "empty" for entry in report120)


def test_box_limit_guard():
    with pytest.raises(BoxLimitExceeded):
        constraint_refine(unit_cube(False), FloorConstraint(30, 5), limit=3)


def test_box_validation():
    with pytest.raises(ValueError):
        Box(((Fraction(0), Fraction(2)), (0, 1), (0, 1)))
    empty = Box(((Fraction(1, 2), Fraction(1, 2)), (0, 1), (0, 1)))
    assert empty.is_empty
    assert BoxUnion((empty,), False).is_empty


def test_ordered_corner_greedy():
    box = Box(((Fraction(1, 3), Fraction(1, 2)),
               (Fraction(0), Fraction(2, 5)),
               (Fraction(0), Fraction(1))))
    assert box.ordered_corner() == (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
    infeasible = Box(((Fraction(1, 2), Fraction(1)),
                      (Fraction(0), Fraction(1, 4)),
                      (Fraction(0), Fraction(1))))
    assert infeasible.ordered_corner() is None


def _assert_oracle_agrees(boxes, prefix, res, ordered_simplex=True):
    """The certificate's verdict, and the region being inhabited just before
    its last constraint, agree with the independent oracle."""
    intervals = [box.intervals for box in boxes]
    assert region_empty_oracle(intervals, prefix, ordered_simplex) == res.is_empty
    if res.is_empty:
        before = len(res.box_counts) < 2 or res.box_counts[-2] > 0
        assert (not region_empty_oracle(intervals, prefix[:-1], ordered_simplex)) == before


def test_region_oracle_agrees_on_cases():
    # from the raw four boxes through the ten shared constraints, so the
    # oracle does not start from a region the prover made
    for k, cid, res in regions.verify_cases(range(4, 9), range(1, 11)):
        prefix = list(regions.shared_case_constraints(k)) + list(res.applied)
        _assert_oracle_agrees(case_boxes(k).boxes, prefix, res)


def test_region_oracle_agrees_on_s_grid_small_cap():
    verdicts = []
    for a, b in regions.s_grid_intervals():
        res = system_empty(unit_cube(True), gamma_of_interval(a, b, 40))
        _assert_oracle_agrees(unit_cube(True).boxes, list(res.applied), res)
        verdicts.append(res.verdict)
    assert "empty" in verdicts and "witness" in verdicts


def test_region_oracle_agrees_on_random_systems(rng):
    verdicts = []
    for _ in range(120):
        ordered = rng.random() < 0.5
        G = GammaSet(tuple((rng.randint(2, 16), rng.randint(1, 5))
                           for _ in range(rng.randint(1, 5))))
        lo = [Fraction(rng.randint(0, 6), 12) for _ in range(3)]
        box = Box(tuple((x, x + Fraction(rng.randint(1, 6), 12)) for x in lo))
        for initial in (unit_cube(ordered), BoxUnion((box,), ordered)):
            if initial.is_empty:
                continue
            res = system_empty(initial, G)
            _assert_oracle_agrees(initial.boxes, list(res.applied), res, ordered)
            verdicts.append(res.verdict)
    assert verdicts.count("empty") > 20 and verdicts.count("witness") > 20


@pytest.mark.parametrize("initial, pairs, corrupt, keeps_floor_sums", [
    # breaks the floor sum: 0 != 3 - 1 - 1
    (unit_cube(True), ((3, 1),), lambda v: (Fraction(0),) * 3, False),
    # keeps the floor sum but leaves the ordered simplex
    (unit_cube(True), ((3, 1),), lambda v: tuple(reversed(v)), True),
    # keeps the floor sum and the ordering but drops below the box's
    # axis-3 interval [11/23, 1/2)
    (vl_box(4), ((28, 5),), lambda v: (v[0], v[1], Fraction(13, 28)), True),
])
def test_corrupted_witness_is_caught(monkeypatch, initial, pairs, corrupt, keeps_floor_sums):
    honest = system_empty(initial, GammaSet(pairs))
    assert honest.verdict == "witness"
    bad = corrupt(honest.witness)
    assert all(floor_sum_holds(bad, n, c) for n, c in pairs) == keeps_floor_sums
    monkeypatch.setattr(BoxUnion, "witness", lambda self: bad)
    with pytest.raises(VerificationError):
        system_empty(initial, GammaSet(pairs))


def test_system_box_budget_is_exact():
    counts = system_empty(unit_cube(False), GammaSet(((30, 5),))).box_counts
    system_empty(unit_cube(False), GammaSet(((30, 5),)), limit=counts[0])
    with pytest.raises(BoxLimitExceeded):
        system_empty(unit_cube(False), GammaSet(((30, 5),)), limit=counts[0] - 1)


def test_verify_cases_refines_each_level_once(monkeypatch):
    built = []
    original = regions.case_initial_region

    def counting(k, limit):
        built.append(k)
        return original(k, limit)

    monkeypatch.setattr(regions, "case_initial_region", counting)
    results = list(regions.verify_cases(range(4, 7), range(1, 11)))
    assert [(k, cid) for k, cid, _ in results] == [(k, cid) for k in range(4, 7)
                                                   for cid in range(1, 11)]
    assert built == [4, 5, 6]


def _digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def test_certificates_pinned():
    # sha256 of the certificate JSON (verdicts, initial_boxes, constraints,
    # box_counts, witnesses), recorded with the Fraction refinement
    assert _digest(verify_s_grid(100)) == (
        "2414699eec5e28d50edb6f5b569659acfc5aa862bac287fce425e510820c1d25")
    assert _digest(verify_s_grid(120)) == (
        "b47932403730be2d78f9010c0fbf2ccd38a4943536347a346511e08efb399a05")
    cases = [[k, cid, res.certificate()]
             for k, cid, res in regions.verify_cases(range(4, 9), range(1, 11))]
    assert _digest(cases) == (
        "593b19d22951a9bcbe76e224398b48fb403864c25462cff68db1a8571a6a9c22")

"""Exact emptiness prover for floor-sum constraint systems on [0,1)^3.

A constraint (n, c) selects the points of the half-open unit cube whose
coordinates satisfy floor(n*v_1) + floor(n*v_2) + floor(n*v_3) = n-1-c.
Regions are unions of half-open rational boxes, optionally restricted to
the ordered simplex v_1 <= v_2 <= v_3.  Refining a box against a constraint
splits each axis at the multiples of 1/n it contains; on every resulting
cell the floor sum is constant, so membership is decided exactly.

`Box`, `BoxUnion`, `SystemResult` and witnesses hold `fractions.Fraction`s.
Refinement runs in Python ints on one scale L per system, the lcm of the
moduli n and of the initial endpoint denominators: v is held as v*L, so
floor(n*v) is n*(v*L) // L; one fold (`_fold`) applies every constraint
list, from a single constraint to a whole system.  Constraint pairs stay
integer (n, c) tuples from `gamma_of_interval` through `GammaSet` and the
fold to the certificate; `FloorConstraint` is only the argument type of
`constraint_refine`.  There is no floating point anywhere, so an "empty"
verdict is a proof of emptiness for the given system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import product

from .pool import parallel_map
from .qarith import VerificationError, format_rat

DEFAULT_BOX_LIMIT = 10**6


class BoxLimitExceeded(RuntimeError):
    """A refinement produced more boxes than the configured budget allows."""


@dataclass(frozen=True)
class FloorConstraint:
    """{v in [0,1)^3 : sum_i floor(n*v_i) = n-1-c}."""

    n: int
    c: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if self.c < 1:
            raise ValueError("c must be at least 1")


@dataclass(frozen=True)
class GammaSet:
    """A finite set of floor constraints, kept sorted by (n, c)."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        pairs = tuple(sorted({(int(n), int(c)) for n, c in self.pairs}))
        for n, c in pairs:
            if n < 2 or c < 1:
                raise ValueError(f"invalid constraint pair ({n}, {c})")
        object.__setattr__(self, "pairs", pairs)

    def __len__(self):
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)


def _greedy_corner(intervals):
    """Smallest point with v_1 <= v_2 <= v_3 in a product of three half-open
    intervals (Fractions, or integer numerators over one scale), or None.

    Greedy: v_1 = lo_1, then each later coordinate is the larger of its
    lower bound and the previous coordinate; feasible iff each stays
    strictly below its upper bound.
    """
    (lo1, hi1), (lo2, hi2), (lo3, hi3) = intervals
    v2 = max(lo1, lo2)
    v3 = max(v2, lo3)
    return (lo1, v2, v3) if lo1 < hi1 and v2 < hi2 and v3 < hi3 else None


@dataclass(frozen=True)
class Box:
    """Product of three half-open rational intervals [lo_i, hi_i) inside [0,1]."""

    intervals: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        ivs = tuple((Fraction(lo), Fraction(hi)) for lo, hi in self.intervals)
        if len(ivs) != 3:
            raise ValueError("boxes are three-dimensional here")
        for lo, hi in ivs:
            if not (0 <= lo <= hi <= 1):
                raise ValueError(f"interval [{lo}, {hi}) escapes [0, 1]")
        object.__setattr__(self, "intervals", ivs)

    @property
    def is_empty(self) -> bool:
        return any(lo == hi for lo, hi in self.intervals)

    def contains(self, point) -> bool:
        return all(lo <= Fraction(v) < hi
                   for (lo, hi), v in zip(self.intervals, point))

    def ordered_corner(self):
        """Smallest point of the box with v_1 <= v_2 <= v_3, or None."""
        return _greedy_corner(self.intervals)


@dataclass(frozen=True)
class BoxUnion:
    """A finite union of boxes, optionally cut down to the ordered simplex.

    Overlaps between boxes are permitted; no disjointness is maintained.
    Empty boxes, and simplex-infeasible ones when the flag is set, are
    dropped on construction.
    """

    boxes: tuple[Box, ...]
    ordered_simplex: bool = False

    def __post_init__(self):
        kept = tuple(b for b in self.boxes
                     if not b.is_empty
                     and (not self.ordered_simplex or b.ordered_corner() is not None))
        object.__setattr__(self, "boxes", kept)

    @property
    def is_empty(self) -> bool:
        return not self.boxes

    def contains(self, point) -> bool:
        point = tuple(Fraction(v) for v in point)
        if self.ordered_simplex and not all(a <= b for a, b in zip(point, point[1:])):
            return False
        return any(b.contains(point) for b in self.boxes)

    def witness(self):
        """A rational member point (greedy corner of the first box), or None.

        Every kept box is nonempty and, on the simplex, has a corner."""
        if not self.boxes:
            return None
        first = self.boxes[0]
        return first.ordered_corner() if self.ordered_simplex else tuple(
            lo for lo, _ in first.intervals)


def unit_cube(ordered_simplex: bool = True) -> BoxUnion:
    return BoxUnion((Box(((0, 1),) * 3),), ordered_simplex)


def _on_scale(U: BoxUnion, moduli):
    """(L, boxes): the boxes of U as integer numerators over L, the lcm of
    the moduli and of every endpoint denominator of U."""
    scale = math.lcm(*moduli, *{v.denominator for box in U.boxes
                                for iv in box.intervals for v in iv})
    return scale, [tuple((int(lo * scale), int(hi * scale)) for lo, hi in box.intervals)
                   for box in U.boxes]


def _union(scale: int, boxes, ordered_simplex: bool) -> BoxUnion:
    """The integer boxes over `scale` as a BoxUnion of Fraction boxes."""
    return BoxUnion(tuple(Box(tuple((Fraction(lo, scale), Fraction(hi, scale)) for lo, hi in box))
                          for box in boxes), ordered_simplex)


def _refine(boxes, scale: int, n: int, c: int, ordered_simplex: bool, limit: int) -> list:
    """The refinement step by the pair (n, c) on integer boxes over `scale`
    (a multiple of n).

    With s = scale/n, the cell m of an axis is [m*s, (m+1)*s), on which
    floor(n*v) = m.  Each axis-1 cell visits only the axis-2 cells whose
    complementary axis-3 cell meets the box, and on the ordered simplex a
    cell also needs a greedy corner.  The output keeps the order (box, m1,
    m2); BoxLimitExceeded is raised once it exceeds the box budget.
    """
    s, target = scale // n, n - 1 - c
    out = []
    for (l1, h1), (l2, h2), (l3, h3) in boxes:
        lo2, hi2 = l2 // s, (h2 - 1) // s
        lo3, hi3 = l3 // s, (h3 - 1) // s
        for m1 in range(l1 // s, (h1 - 1) // s + 1):
            cell1 = (max(l1, m1 * s), min(h1, m1 * s + s))
            for m2 in range(max(lo2, target - m1 - hi3), min(hi2, target - m1 - lo3) + 1):
                m3 = target - m1 - m2
                cell = (cell1, (max(l2, m2 * s), min(h2, m2 * s + s)),
                        (max(l3, m3 * s), min(h3, m3 * s + s)))
                if ordered_simplex and _greedy_corner(cell) is None:
                    continue
                out.append(cell)
                if len(out) > limit:
                    raise BoxLimitExceeded(
                        f"more than {limit} boxes while refining against (n={n}, c={c})")
    return out


def _fold(U: BoxUnion, pairs, limit: int):
    """(scale, boxes, counts): U on one integer scale for every modulus of
    `pairs`, refined by each (n, c) in order until no box is left; counts
    holds the box count after each applied pair."""
    scale, boxes = _on_scale(U, [n for n, _ in pairs])
    counts: list[int] = []
    for n, c in pairs:
        boxes = _refine(boxes, scale, n, c, U.ordered_simplex, limit)
        counts.append(len(boxes))
        if not boxes:
            break
    return scale, boxes, counts


def _refined(U: BoxUnion, pairs, limit: int) -> BoxUnion:
    """U refined by each (n, c) of `pairs` in order, as a BoxUnion."""
    scale, boxes, _ = _fold(U, pairs, limit)
    return _union(scale, boxes, U.ordered_simplex)


def constraint_refine(U: BoxUnion, fc: FloorConstraint,
                      limit: int = DEFAULT_BOX_LIMIT) -> BoxUnion:
    """U intersected with the constraint region, as a new BoxUnion.

    Each box splits along each axis at the contained multiples of 1/n; the
    sub-boxes with floor sum equal to the target survive.  Raises
    BoxLimitExceeded when the output would exceed the box budget.
    """
    return _refined(U, ((fc.n, fc.c),), limit)


@dataclass(frozen=True)
class SystemResult:
    """Outcome of running a constraint system against an initial region.

    verdict is "empty" (with the constraint prefix that killed the region)
    or "witness" (with a rational point of the residual region).
    """

    verdict: str
    applied: tuple[tuple[int, int], ...]
    box_counts: tuple[int, ...]
    witness: tuple[Fraction, ...] | None
    initial_boxes: int

    @property
    def is_empty(self) -> bool:
        return self.verdict == "empty"

    def certificate(self) -> dict:
        return {
            "verdict": self.verdict,
            "initial_boxes": self.initial_boxes,
            "constraints": [list(p) for p in self.applied],
            "box_counts": list(self.box_counts),
            "witness": None if self.witness is None else
                       [format_rat(v) for v in self.witness],
        }


def system_empty(initial: BoxUnion, G: GammaSet, limit: int = DEFAULT_BOX_LIMIT) -> SystemResult:
    """Apply the constraints of G in ascending (n, c) order and report.

    Small-n constraints prune hardest, so ascending order keeps intermediate
    box counts low.  The verdict itself does not depend on the order.  A
    witness is re-checked exactly against the initial region and every
    applied constraint; a mismatch raises VerificationError.
    """
    scale, boxes, counts = _fold(initial, G.pairs, limit)
    applied = G.pairs[:len(counts)]
    if not boxes:
        return SystemResult("empty", applied, tuple(counts), None, len(initial.boxes))
    witness = _union(scale, boxes[:1], initial.ordered_simplex).witness()
    if not (witness is not None and initial.contains(witness) and all(
            sum(math.floor(n * v) for v in witness) == n - 1 - c
            for n, c in applied)):
        raise VerificationError(("witness", witness, applied))
    return SystemResult("witness", applied, tuple(counts), witness, len(initial.boxes))


def gamma_of_interval(a, b, n_max: int) -> GammaSet:
    """Constraint pairs attached to the open interval (a, b), capped at n <= n_max.

    For finite b: all (n, c) with n >= 2 and (c-1)*b + 1 <= n <= c*a - 1.
    For b = None (infinity): c = 1 and 2 <= n <= a - 1.  With a = p/q and
    b = u/v in lowest terms, each c's range of n is found by integer floor
    and ceiling division.
    """
    a = Fraction(a)
    if a <= 1:
        raise ValueError("left endpoint must exceed 1")
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    p, q = a.numerator, a.denominator
    if b is None:
        return GammaSet(tuple((n, 1) for n in range(2, min(n_max, p // q - 1) + 1)))
    b = Fraction(b)
    if b <= a:
        raise ValueError("need a < b")
    u, v = b.numerator, b.denominator
    # c runs while (c-1)*b + 1 <= n_max; n from ceil((c-1)*b) + 1 to floor(c*a) - 1
    return GammaSet(tuple((n, c) for c in range(1, (n_max - 1) * v // u + 2)
                          for n in range(max(2, -(-(c - 1) * u // v) + 1),
                                         min(n_max, c * p // q - 1) + 1)))


def vl_box(l: int) -> BoxUnion:
    """The one-box region [0, 1/(6l+2)) x [(2l-1)/(6l-2), 1/3) x [(3l-1)/(6l-1), 1/2)."""
    if l < 4:
        raise ValueError("l must be at least 4")
    box = Box(((Fraction(0), Fraction(1, 6 * l + 2)),
               (Fraction(2 * l - 1, 6 * l - 2), Fraction(1, 3)),
               (Fraction(3 * l - 1, 6 * l - 1), Fraction(1, 2))))
    return BoxUnion((box,), ordered_simplex=True)


def boxunion_equal(A: BoxUnion, B: BoxUnion) -> bool:
    """Set equality of the two regions, via their common breakpoint grid.

    Both unions go on one integer scale and are cut at the merged per-axis
    endpoints, so each box is exactly a union of grid cells; the regions
    agree exactly when no cell of the symmetric difference meets the
    (shared) ordered-simplex restriction.
    """
    if A.ordered_simplex != B.ordered_simplex:
        raise ValueError("cannot compare unions with different simplex flags")
    _, boxes = _on_scale(BoxUnion(A.boxes + B.boxes), ())
    grids = [sorted({x for box in boxes for x in box[axis]}) for axis in range(3)]
    cells = (set(), set())
    for i, box in enumerate(boxes):
        cells[i >= len(A.boxes)].update(product(*(
            range(grid.index(lo), grid.index(hi)) for (lo, hi), grid in zip(box, grids))))
    return not any(not A.ordered_simplex
                   or _greedy_corner([(g[i], g[i + 1]) for i, g in zip(cell, grids)])
                   for cell in cells[0] ^ cells[1])


def verify_vl_step(l: int, limit: int = DEFAULT_BOX_LIMIT) -> bool:
    """Check that refining the level-l box by its three constraints gives level l+1."""
    pairs = ((6 * l + 4, l + 1), (6 * l + 5, l + 1), (6 * l + 8, l + 2))
    return boxunion_equal(_refined(vl_box(l), pairs, limit), vl_box(l + 1))


def shared_case_constraints(k: int) -> GammaSet:
    """The ten constraints carving the four-box region out of the simplex."""
    return GammaSet((
        (6 * k + 6, k + 1), (6 * k + 4, k + 1), (6 * k + 3, k + 1),
        (6 * k + 5, k + 1), (12 * k + 3, 2 * k + 1), (12 * k + 4, 2 * k + 1),
        (18 * k + 6, 3 * k + 1), (18 * k + 5, 3 * k + 1),
        (12 * k + 5, 2 * k + 1), (24 * k + 5, 4 * k + 1),
    ))


def case_boxes(k: int) -> BoxUnion:
    """The four-box union for level k, before the ten shared constraints."""
    if k < 4:
        raise ValueError("k must be at least 4")
    third, half = Fraction(1, 3), Fraction(1, 2)
    boxes = (
        Box(((Fraction(1, 6 * k + 3), Fraction(1, 6 * k + 2)),
             (third - Fraction(1, 18 * k + 6), third - Fraction(1, 18 * k + 12)),
             (half - Fraction(1, 12 * k + 4), half - Fraction(1, 12 * k + 6)))),
        Box(((Fraction(1, 6 * k + 4), Fraction(1, 6 * k + 3)),
             (third - Fraction(1, 18 * k + 6), third - Fraction(1, 18 * k + 12)),
             (half - Fraction(1, 12 * k + 6), half - Fraction(1, 12 * k + 10)))),
        Box(((Fraction(1, 6 * k + 5), Fraction(1, 6 * k + 4)),
             (third - Fraction(1, 18 * k + 12), third - Fraction(2, 54 * k + 15)),
             (half - Fraction(1, 12 * k + 6), half - Fraction(1, 12 * k + 10)))),
        Box(((Fraction(1, 6 * k + 6), Fraction(1, 6 * k + 5)),
             (third - Fraction(1, 18 * k + 12), third - Fraction(2, 54 * k + 15)),
             (half - Fraction(1, 12 * k + 10), half - Fraction(3, 48 * k + 10)))),
    )
    return BoxUnion(boxes, ordered_simplex=True)


def case_initial_region(k: int, limit: int = DEFAULT_BOX_LIMIT) -> BoxUnion:
    """The four-box union for level k, refined by the ten shared constraints."""
    return _refined(case_boxes(k), shared_case_constraints(k).pairs, limit)


def case_constraints(k: int, case_id: int) -> GammaSet:
    """The extra constraint list of one of the ten interval cases at level k."""
    if not 1 <= case_id <= 10:
        raise ValueError("case_id must lie in [1, 10]")
    table = {
        1: ((12 * k + 7, 2 * k + 1), (18 * k + 8, 3 * k + 1),
            (24 * k + 9, 4 * k + 1), (30 * k + 10, 5 * k + 1)),
        2: ((12 * k + 7, 2 * k + 1), (18 * k + 8, 3 * k + 1),
            (24 * k + 9, 4 * k + 1), (30 * k + 12, 5 * k + 2)),
        3: ((12 * k + 7, 2 * k + 1), (18 * k + 8, 3 * k + 1),
            (24 * k + 11, 4 * k + 2)),
        4: ((12 * k + 7, 2 * k + 1), (18 * k + 10, 3 * k + 2),
            (30 * k + 16, 5 * k + 2)),
        5: ((12 * k + 7, 2 * k + 1), (18 * k + 10, 3 * k + 2),
            (30 * k + 18, 5 * k + 3)),
        6: ((12 * k + 9, 3 * k + 2), (18 * k + 14, 3 * k + 2),
            (30 * k + 22, 5 * k + 3), (60 * k + 41, 10 * k + 6)),
        7: ((12 * k + 9, 3 * k + 2), (18 * k + 14, 3 * k + 2),
            (30 * k + 24, 5 * k + 4)),
        8: ((12 * k + 9, 3 * k + 2), (18 * k + 16, 3 * k + 3),
            (24 * k + 21, 4 * k + 3), (24 * k + 6, 4 * k + 1)),
        9: ((12 * k + 9, 3 * k + 2), (18 * k + 16, 3 * k + 3),
            (24 * k + 23, 4 * k + 4), (24 * k + 6, 4 * k + 1),
            (18 * k + 18, 3 * k + 3), (24 * k + 24, 4 * k + 4),
            (30 * k + 28, 5 * k + 4)),
        10: ((12 * k + 9, 3 * k + 2), (18 * k + 16, 3 * k + 3),
             (24 * k + 23, 4 * k + 4), (24 * k + 6, 4 * k + 1),
             (18 * k + 18, 3 * k + 3), (24 * k + 24, 4 * k + 4),
             (30 * k + 30, 5 * k + 5)),
    }
    return GammaSet(table[case_id])


def _case_level_task(k: int, case_ids, limit: int) -> list:
    initial = case_initial_region(k, limit)
    return [(k, cid, system_empty(initial, case_constraints(k, cid), limit))
            for cid in case_ids]


def verify_case(k: int, case_id: int, limit: int = DEFAULT_BOX_LIMIT) -> SystemResult:
    """Run one interval case at level k; an 'empty' verdict is the expected one."""
    return _case_level_task(k, (case_id,), limit)[0][2]


def verify_cases(ks, case_ids, limit: int = DEFAULT_BOX_LIMIT, jobs: int = 1):
    """Run a block of case verifications, optionally across a process pool.

    Each level's initial region is refined once and shared by its cases; the
    pool tasks are the levels.  Yields (k, case_id, SystemResult) in
    deterministic (k, case_id) order.
    """
    task = partial(_case_level_task, case_ids=tuple(case_ids), limit=limit)
    for results in parallel_map(task, tuple(ks), jobs):
        yield from results


# Breakpoints of the interval grid: 0, 1/5, 1/4, 1/3, 2/5, 1/2, 3/5, 2/3, 3/4, 4/5, 1.
GRID_ALPHAS = (Fraction(0), Fraction(1, 5), Fraction(1, 4), Fraction(1, 3),
               Fraction(2, 5), Fraction(1, 2), Fraction(3, 5), Fraction(2, 3),
               Fraction(3, 4), Fraction(4, 5), Fraction(1))


def s_grid_intervals() -> list[tuple[Fraction, Fraction | None]]:
    """The 41 intervals of the verification grid, as (a, b) with b=None for infinity.

    Two explicit head intervals (13, inf) and (11, 13), then the refinements
    (6 + 1/(l + alpha_{i+1}), 6 + 1/(l + alpha_i)) for l in [0, 3] and
    i in [0, 9], excluding (l, i) = (0, 0) whose right endpoint degenerates
    to infinity (that range is already covered by the two head intervals).
    """
    out: list[tuple[Fraction, Fraction | None]] = [
        (Fraction(13), None), (Fraction(11), Fraction(13))]
    for l in range(4):
        for i in range(10):
            if (l, i) == (0, 0):
                continue
            a = 6 + 1 / (l + GRID_ALPHAS[i + 1])
            b = 6 + 1 / (l + GRID_ALPHAS[i])
            out.append((a, b))
    return out


def _s_grid_task(interval, n_max: int, limit: int) -> dict:
    a, b = interval
    G = gamma_of_interval(a, b, n_max)
    result = system_empty(unit_cube(ordered_simplex=True), G, limit)
    return {"interval": [format_rat(a), "inf" if b is None else format_rat(b)],
            **result.certificate()}


def verify_s_grid(n_max: int, limit: int = DEFAULT_BOX_LIMIT, jobs: int = 1) -> list[dict]:
    """Run every interval of the grid against the unit cube; report per-interval."""
    task = partial(_s_grid_task, n_max=n_max, limit=limit)
    return list(parallel_map(task, s_grid_intervals(), jobs))

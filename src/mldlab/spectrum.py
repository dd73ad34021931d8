"""Enumeration of the cyclic-quotient mld spectrum.

A weight class is the orbit of a residue tuple under coordinate permutations
and multiplication by units mod r; both operations leave the mld unchanged.
`scan` emits one record per class, in a deterministic order, for every class
whose mld lands in a configured interval.

Enumeration strategy per r: every orbit contains a representative whose first
coordinate equals g, the minimal gcd(a_i, r) over the coordinates (scale the
minimizing coordinate by a suitable unit), and whose remaining coordinates
have gcd at least g.  So representatives are generated per divisor g of r and
deduplicated afterwards through the canonical form.  Isolated scans (all
gcds 1) only need the g = 1 slab with unit entries.  Each slab's free
coordinates are the non-decreasing (dim - 1)-tuples over its residues, held
in [1, r] with r standing for residue 0 (the kernel and the canonical form
read entries mod r).  All slabs of a level come out of one
`qarith.sorted_tuples` pass, each slab's residues one segment of a single
value array and g its rows' head, in slab order and lexicographic within a
slab, one code path for every dimension.

That pass also drops every row whose entry sum, r * ld(1), lies below the
window's integer floor `first`, a plain row-sum bound on the last column: for
r >= 2 the mld is at most ld(1) (at r = 1 it is d, the sum of the row of 1s),
so such a row could not pass the floor anyway, and every class in the window
keeps all of its rows.  With first = 0 (lo = 0) nothing is cut.

The rows whose mld lands in the interval are canonicalized together in numpy
(`_canonical_rows`); `canonical_weights` is the scalar definition it is
tested against.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial

import numpy as np

from . import quotient
from .pool import parallel_map
from .qarith import VerificationError, format_rat, sorted_tuples, units, window_bounds
from .quotient import CyclicQuotient, mld, mld_argmin_batch, residues


@dataclass(frozen=True)
class SpectrumRecord:
    r: int
    weights: tuple[int, ...]  # canonical form
    mld: Fraction
    argmin_k: int


@dataclass(frozen=True)
class ScanConfig:
    """Parameters of a spectrum scan.

    The interval defaults to half-open [lo, hi); the include flags cover the
    other variants needed by windowed queries.  ``hi=None`` means unbounded.
    """

    dim: int = 3
    r_max: int = 100
    lo: Fraction = Fraction(0)
    hi: Fraction | None = None
    include_lo: bool = True
    include_hi: bool = False
    isolated_only: bool = False
    jobs: int = 1

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be positive")
        if self.r_max < 2:
            raise ValueError("r_max must be at least 2")
        object.__setattr__(self, "lo", Fraction(self.lo))
        if self.hi is not None:
            object.__setattr__(self, "hi", Fraction(self.hi))
            if not self.lo < self.hi:
                raise ValueError("interval is empty")


def canonical_weights(r: int, weights) -> tuple[int, ...]:
    """Lexicographically smallest sorted unit multiple of the weight tuple.

    Presentations related by permuting coordinates or by changing the group
    generator (multiplying every weight by a unit mod r) canonicalize to the
    same tuple.  Idempotent.
    """
    ws = tuple(w % r for w in weights)
    if r == 1:
        return ws
    best = None
    for u in units(r):
        cand = tuple(sorted(u * w % r for w in ws))
        if best is None or cand < best:
            best = cand
    return best


def family_example(k: int, m: int) -> tuple[CyclicQuotient, Fraction]:
    """The accumulation family 1/(6k+m)(2k, 3k, m) with mld (5k+m)/(6k+m).

    The stated mld is verified against the exhaustive formula before
    returning.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    if not 1 <= m <= 5:
        raise ValueError("m must lie in [1, 5]")
    X = CyclicQuotient(6 * k + m, (2 * k, 3 * k, m))
    expected = Fraction(5 * k + m, 6 * k + m)
    got = mld(X)
    if got != expected:
        raise VerificationError((X, got, expected))
    return X, expected


def _representatives(r: int, dim: int, isolated_only: bool, first: int) -> np.ndarray:
    """Weight tuples meeting every class at least once (with redundancy),
    slab by slab, less the rows whose entry sum r * ld(1) lies below
    ``first``: mld <= ld(1), so none of those has its mld at or above first / r."""
    keys = np.arange(1, r + 1)  # key r stands for residue 0
    gcds = np.gcd(keys, r)
    heads = np.array([1]) if isolated_only else keys[r % keys == 0]
    member = (gcds == 1)[None] if isolated_only else gcds >= heads[:, None]  # row s: slab heads[s]
    return sorted_tuples(member.nonzero()[1] + 1, dim - 1, member.sum(axis=1).cumsum(),
                         heads, first)


def _canonical_rows(r: int, W: np.ndarray) -> np.ndarray:
    """`canonical_weights` of every row of the (M, d) residues W, as an
    (M, d) int64 array.

    units(r) is computed once.  Rows go in chunks whose (rows, phi(r), d)
    block of sorted unit multiples stays within the kernel's step budget of
    _K_CHUNK * d entries; each row keeps its lexicographically smallest
    multiple, selected column by column (a base-r key would wrap int64 at
    r**d >= 2**63)."""
    us = np.asarray(units(r) or [1], dtype=np.int64)  # Z/1 has the one unit 1
    out = np.empty_like(W)
    step = max(1, quotient._K_CHUNK // us.size)
    for start in range(0, len(W), step):
        B = residues(W[start:start + step, None, :] * us[:, None], r)
        B.sort(axis=2)
        cand = np.ones(B.shape[:2], dtype=bool)
        for c in range(B.shape[2]):
            col = np.where(cand, B[:, :, c], r)  # r exceeds every residue
            cand &= col == col.min(axis=1, keepdims=True)
        out[start:start + step] = B[np.arange(len(B)), cand.argmax(axis=1)]
    return out


def _scan_r(r: int, cfg: ScanConfig) -> list[SpectrumRecord]:
    first, stop = window_bounds(r, cfg.dim * r, cfg.lo, cfg.hi,
                                cfg.include_lo, cfg.include_hi)
    reps = _representatives(r, cfg.dim, cfg.isolated_only, first)
    numer, _ = mld_argmin_batch(r, reps, first)
    keep = (numer >= first) & (numer < stop)
    # sorted distinct classes; each expects the minimum of its first kept row
    canon, index = np.unique(_canonical_rows(r, reps[keep]), axis=0, return_index=True)
    expected = numer[keep][index]
    canon_numer, argk = mld_argmin_batch(r, canon)
    bad = np.flatnonzero(canon_numer != expected)
    if bad.size:  # unit transforms and permutations preserve the minimum
        i = bad[0]
        raise VerificationError((r, tuple(canon[i].tolist()), int(expected[i]),
                                 int(canon_numer[i])))
    return [SpectrumRecord(r, tuple(cw), Fraction(num, r), k)
            for cw, num, k in zip(canon.tolist(), canon_numer.tolist(), argk.tolist())]


def scan(cfg: ScanConfig):
    """Iterate SpectrumRecords for r in [1, r_max], mld inside the interval.

    Order is deterministic: r ascending, canonical weights lexicographic.
    The per-r work goes through `parallel_map` with cfg.jobs; the merged
    output is identical for every job count.
    """
    for recs in parallel_map(partial(_scan_r, cfg=cfg), range(1, cfg.r_max + 1), cfg.jobs):
        yield from recs


def distinct_values(cfg: ScanConfig) -> list[Fraction]:
    """Sorted, deduplicated mld values of scan(cfg)."""
    return sorted({rec.mld for rec in scan(cfg)})


def accumulation_report(cfg: ScanConfig, target: Fraction, windows) -> list[tuple[Fraction, int]]:
    """Count distinct mld values inside (target, target + w] for each window w.

    The right end is included so that a window of radius w catches a value
    sitting exactly at target + w.  Counts are monotone non-decreasing in
    r_max for a fixed window.
    """
    target = Fraction(target)
    if not 0 < target < cfg.dim:
        raise ValueError("target must lie in (0, dim)")
    windows = [Fraction(w) for w in windows]
    if not windows or any(w <= 0 for w in windows):
        raise ValueError("windows must be positive")
    wide = replace(cfg, lo=target, hi=target + max(windows), include_lo=False, include_hi=True)
    values = distinct_values(wide)
    return [(w, sum(1 for v in values if v <= target + w)) for w in windows]


def record_to_json(rec: SpectrumRecord) -> str:
    return json.dumps({"r": rec.r, "weights": list(rec.weights),
                       "mld": format_rat(rec.mld), "k": rec.argmin_k},
                      separators=(",", ":"))


CSV_HEADER = ("r", "weights", "mld_num", "mld_den", "k")


def records_to_csv(records) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for rec in records:
        writer.writerow([rec.r, " ".join(str(w) for w in rec.weights),
                         rec.mld.numerator, rec.mld.denominator, rec.argmin_k])
    return out.getvalue()

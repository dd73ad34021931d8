"""Cyclic quotient singularities and their toric minimal log discrepancy.

A quotient 1/r(a_1, ..., a_d) is the quotient of affine d-space by the cyclic
group of order r acting diagonally with the given weight residues.  Its mld is
the minimum over k in [1, r-1] of the log discrepancies

    ld(k) = sum_i (1 + a_i*k/r - ceil(a_i*k/r)),

each summand being {a_i*k/r} when r does not divide a_i*k and 1 when it does.
Multiplying through by r turns ld(k) into the integer

    r * ld(k) = sum_i ((a_i*k) mod r, with 0 read as r),

so the whole computation runs in exact integer arithmetic.  Reading a zero
residue as r is the kernel's convention alone.  One int64 kernel,
`_ld_table_sum`, evaluates it for a block of k and a block of rows given as
positions into their sorted distinct weights, through one table of
(v*k - 1) mod r: a scan level has thousands of rows but at most r residues.
`ld_numerators` and `mld_argmin_batch`, the one loop over chunks of k, call it.

Every hot int64 reduction mod r, here and in `verifiers` and `spectrum`, goes
through `residues`: x - (x // r) * r in place, a block of _K_CHUNK entries at
a time.  numpy divides by a scalar through a multiply-by-reciprocal path but
has none for %, so this is about twice as fast on a (5, 2850) table (25 against
58 us on a shared 2-core host), and the block keeps its quotient array small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


@dataclass(frozen=True)
class CyclicQuotient:
    """The quotient singularity 1/r(a_1, ..., a_d), weights reduced mod r."""

    r: int
    weights: tuple[int, ...]

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("group order r must be a positive integer")
        if len(self.weights) < 1:
            raise ValueError("at least one weight is required")
        object.__setattr__(self, "weights", tuple(w % self.r for w in self.weights))

    @property
    def dim(self) -> int:
        return len(self.weights)

    def v(self, i: int) -> Fraction:
        """v_i = a_i / r, a rational in [0, 1)."""
        return Fraction(self.weights[i], self.r)

    def __str__(self):
        return f"1/{self.r}({','.join(str(w) for w in self.weights)})"


_INT64_R_LIMIT = 3_000_000_000  # k*a < r**2 must stay below 2**63
_K_CHUNK = 1 << 15  # k per kernel call: about 1 MB of int64 at dim 5


def _check_int64_safe(r: int) -> None:
    if r > _INT64_R_LIMIT:
        raise OverflowError(f"r = {r} exceeds the int64-safe limit {_INT64_R_LIMIT}")


def residues(x: np.ndarray, r: int) -> np.ndarray:
    """x mod r, in [0, r), written into the int64 array x and returned.

    Equal to x % r for every entry of x above -2**63 + r.  A C-contiguous x
    goes by floor division through its flattened view, one _K_CHUNK block
    at a time, so the quotient array is one block at most; any other view
    (which reshape would copy) is reduced by % in place."""
    if not x.flags.c_contiguous:
        return np.remainder(x, r, out=x)
    flat = x.reshape(-1)
    for start in range(0, flat.size, _K_CHUNK):
        block = flat[start:start + _K_CHUNK]
        q = block // r
        q *= r
        block -= q
        del q  # freed before the next block's quotient is made
    return x


def _ld_table_sum(r: int, values: np.ndarray, rows: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """r * ld(k), (N, K) int64, for each column of the (d, N) positions
    ``rows`` into the distinct weights ``values`` and each k in ``ks``: d plus
    d gathered rows of the (m, K) table of (v*k - 1) mod r, as (x mod r, with
    0 read as r) = ((x - 1) mod r) + 1; v is reduced mod r first."""
    table = (values % r)[:, None] * ks
    table -= 1
    residues(table, r)
    total = table.take(rows[0], axis=0)
    total += rows.shape[0]
    for col in rows[1:]:
        total += table.take(col, axis=0)
    return total


def _distinct(C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct entries of C and, shaped as C, each one's index: one sort.

    Hand-rolled because np.unique(C, return_inverse=True) is about 4x slower
    on a scan level: 0.65 ms against 0.16 ms on the 4,754 rows of r = 97 at
    dim 3 (best of 7 x 50 calls on a shared 2-core host)."""
    s = np.sort(C, axis=None)
    new = np.empty(s.size, dtype=bool)
    new[:1] = True
    np.less(s[:-1], s[1:], out=new[1:])  # sorted: the first of each run
    values = s[new]
    return values, values.searchsorted(C)


def ld_numerators(r: int, W, ks) -> np.ndarray:
    """r * ld(k), (N, len(ks)) int64, for each row of the (N, d) integer
    weights ``W`` and each k in ``ks``; r above 3e9 raises OverflowError."""
    _check_int64_safe(r)
    C = np.asarray(W, dtype=np.int64).T
    return _ld_table_sum(r, *_distinct(C), np.asarray(ks, dtype=np.int64))


def toroidal_weight(X: CyclicQuotient, k: int) -> tuple[Fraction, ...]:
    """Component vector (1 + a_i*k/r - ceil(a_i*k/r))_i of the k-th toroidal weight.

    Each component lies in (0, 1]: the fractional part {a_i*k/r} when r does
    not divide a_i*k, and 1 when it does.
    """
    if not 1 <= k <= X.r - 1:
        raise IndexError(f"k must lie in [1, {X.r - 1}], got {k}")
    return tuple(Fraction((w * k) % X.r or X.r, X.r) for w in X.weights)


def toroidal_ld(X: CyclicQuotient, k: int) -> Fraction:
    """Log discrepancy sum_i (1 + a_i*k/r - ceil(a_i*k/r)) of the k-th toroidal weight."""
    if not 1 <= k <= X.r - 1:
        raise IndexError(f"k must lie in [1, {X.r - 1}], got {k}")
    return Fraction(int(ld_numerators(X.r, [X.weights], [k])[0, 0]), X.r)


def mld(X: CyclicQuotient) -> Fraction:
    """Minimal log discrepancy of X at the origin, as a one-row batch: the
    minimum of toroidal_ld over k in [1, r-1], or dim at the smooth point
    r = 1 (the ordinary blow-up gives it).  Always <= dim."""
    numer, _ = mld_argmin_batch(X.r, [X.weights])
    return Fraction(int(numer[0]), X.r)


def mld_argmin(X: CyclicQuotient) -> tuple[int, Fraction]:
    """The smallest k attaining the mld and the value, as a one-row batch.

    Requires r >= 2: the smooth point r = 1 carries no toroidal valuation
    with an index.
    """
    if X.r < 2:
        raise ValueError("no toroidal valuation index exists for r = 1")
    numer, argk = mld_argmin_batch(X.r, [X.weights])
    return int(argk[0]), Fraction(int(numer[0]), X.r)


def is_isolated(X: CyclicQuotient) -> bool:
    """True iff every weight is coprime to r (the quotient map is free off the origin)."""
    return all(math.gcd(w, X.r) == 1 for w in X.weights)


def index_gcd(X: CyclicQuotient) -> int:
    """gcd of the weight sum with r; equal to 1 exactly when r is the Gorenstein index."""
    return math.gcd(sum(X.weights), X.r)


def mld_argmin_batch(r: int, weights_matrix, floor=0) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized mld over many weight tuples sharing one denominator r.

    ``weights_matrix`` is an (N, d) integer array, read mod r.  Returns
    ``(numer, argk)`` int64 arrays: the mld of row i is numer[i]/r, first
    attained at k = argk[i].  A row whose running minimum of r*ld(k) drops
    below its ``floor`` (a scalar or one integer per row) leaves at once: its
    numer is then only an upper bound on r*mld, below the floor.  Each step
    runs the kernel on the rows left and the next _K_CHUNK // (rows left) k,
    taking the first minimum in each chunk; a later chunk replaces it only
    when strictly smaller, so argk is the smallest minimizing k.
    """
    _check_int64_safe(r)
    C = np.asarray(weights_matrix, dtype=np.int64).T
    d, n = C.shape
    if r == 1:
        return np.full(n, d, dtype=np.int64), np.zeros(n, dtype=np.int64)
    values, rows = _distinct(C)  # one sort per batch: the rows left only shrink
    best = np.full(n, d * r, dtype=np.int64)  # ld(k) <= d for every k
    argk = np.full(n, 1, dtype=np.int64)
    k, live = 1, np.arange(n)
    while k < r and live.size:
        ks = np.arange(k, min(k + max(1, _K_CHUNK // live.size), r), dtype=np.int64)
        R, used = rows[:, live], np.zeros(values.size, dtype=bool)
        used[R] = True  # remap to the rows left: keeps the table small once few are left
        s = _ld_table_sum(r, values[used], (used.cumsum() - 1)[R], ks)
        i = s.argmin(axis=1)  # the first minimum of each row in the chunk
        s = s[np.arange(live.size), i]
        better = s < best[live]  # strict: earlier chunks keep their ties
        best[live[better]], argk[live[better]] = s[better], ks[i[better]]
        k += ks.size
        live = (best >= floor).nonzero()[0]
    return best, argk

"""Contingency statistics for Boolean feature pairs.

Pearson r on 2x2 tables, the n*r^2 chi-square identity, normal
quantiles, risk-derived correlation thresholds, the expected-frequency
rule for candidate pruning, and the Kendall rank test.  This module alone
converts between Boolean columns and 64-bit words, and it holds the
popcount kernel that counts co-occurrences on the words.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class StatsError(ValueError):
    pass


class DegenerateTableError(StatsError):
    """A marginal is zero: the correlation coefficient is undefined."""


@dataclass(frozen=True)
class ContingencyTable:
    """2x2 joint counts: a = both true, b = first only, c = second only."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if min(self.a, self.b, self.c, self.d) < 0:
            raise ValueError("negative contingency count")
        if self.n < 1:
            raise ValueError("empty contingency table")

    @property
    def n(self) -> int:
        return self.a + self.b + self.c + self.d


def contingency(x: np.ndarray, y: np.ndarray) -> ContingencyTable:
    """Joint counts of two equal-length Boolean vectors."""
    x = np.asarray(x, dtype=bool)
    y = np.asarray(y, dtype=bool)
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    a = int(np.count_nonzero(x & y))
    b = int(np.count_nonzero(x & ~y))
    c = int(np.count_nonzero(~x & y))
    return ContingencyTable(a, b, c, x.size - a - b - c)


BLOCK_BYTES = 1 << 18  # bytes a loop over blocks takes at a time: about an L2 cache


def pack_columns(x: np.ndarray) -> np.ndarray:
    """(m, W) uint64 words of the columns of an (n, m) Boolean matrix,
    W = ceil(n / 64): row j holds column j as ``np.packbits`` bytes,
    zero-padded to whole words, so every bit past row n is zero.

    ``np.packbits`` is fast only along a contiguous axis, so a block of
    about ``BLOCK_BYTES`` of rows at a time is copied, transposed, into
    one (m, rows) buffer and packed from there: a C-ordered matrix packs
    as fast as an F-ordered one, which packs with no copy at all."""
    n, m = x.shape
    words = np.zeros((m, -(-n // 64)), dtype=np.uint64)
    out = words.view(np.uint8)
    if x.strides[0] == 1:  # F-ordered bools: each column is contiguous already
        out[:, :-(-n // 8)] = np.packbits(x.T, axis=1)
        return words
    rows = max(64, BLOCK_BYTES // max(1, m) // 64 * 64)
    buf = np.empty((m, min(rows, n)), dtype=bool)
    for top in range(0, n, rows):
        count = min(rows, n - top)
        buf[:, :count] = x[top:top + count].T
        out[:, top // 8:(top + count + 7) // 8] = np.packbits(buf[:, :count], axis=1)
    return words


def row_mask(n: int) -> np.ndarray:
    """The words of an all-true column of n rows in ``pack_columns``'
    layout: set exactly at the bits that hold rows 0 to n - 1.  Only a
    last word of fewer than 64 rows is packed; the others are all true."""
    words = np.full(-(-n // 64), np.iinfo(np.uint64).max, dtype=np.uint64)
    if n % 64:
        words[-1] = pack_columns(np.ones((n % 64, 1), dtype=bool))[0, 0]
    return words


def unpack_columns(words: np.ndarray, n: int, start: int = 0) -> np.ndarray:
    """(n, m) bool matrix of rows ``start`` to ``start + n`` of the m
    columns in ``words``, ``start`` a multiple of 8: the inverse of
    ``pack_columns``, a transposed view of one (m, n) array."""
    return np.unpackbits(words.view(np.uint8)[:, start // 8:], axis=1, count=n).view(bool).T


def pack_segments(columns: np.ndarray, row_sets) -> tuple[np.ndarray, np.ndarray]:
    """The words of S non-empty sets of rows of an (n, m) Boolean matrix,
    each set packed from a word boundary in ``pack_columns``' layout, and
    the word offsets at which the sets start: ``cooccurrence``'s
    ``words, starts``."""
    sizes = np.array([len(rows) for rows in row_sets])
    nwords = -(-sizes // 64)
    starts = np.cumsum(nwords) - nwords
    # row r of a set goes to row 64 * (its first word) + r
    shift = np.repeat(64 * starts - (np.cumsum(sizes) - sizes), sizes)
    bits = np.zeros((columns.shape[1], 64 * int(nwords.sum())), dtype=bool)
    bits[:, np.arange(shift.size) + shift] = columns.T[:, np.concatenate(row_sets)]
    # one scatter and one pack per batch: packing each set alone with
    # pack_columns took about twice as long over ufringe-M's 43 batches
    # (702 nodes, seed 0; 8.4 -> 18.8 ms on a 2-vCPU Xeon VM)
    return pack_columns(bits.T), starts  # bits.T packs with no transposed copy


def cooccurrence(words: np.ndarray, starts: np.ndarray | None = None,
                 out: np.ndarray | None = None) -> np.ndarray:
    """(m, m) int64 joint true-counts of m bit-packed columns, an (m, W)
    uint64 array laid out as ``pack_columns`` makes it, padding bits zero:
    entry (i, j) is the number of rows where columns i and j are both
    true, so the diagonal holds the column sums.

    With ``starts``, the ascending word offsets at which S segments of at
    least one word each begin (the first 0), the result is an (S, m, m)
    stack holding one such matrix per segment: the counts of several row
    sets, each packed from a word boundary, from one pass over the words.

    ``out``, an int64 array of the result's shape, receives the counts
    in place of a new array.

    ``cross_counts`` with both operands ``words``: only the blocks on and
    above the diagonal are counted, and each is mirrored below it."""
    return _popcount_blocks(words, None, starts, out)


def cross_counts(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(p, q) int64 joint true-counts of the columns in ``a`` against those
    in ``b``, (p, W) and (q, W) uint64 arrays laid out as ``pack_columns``
    makes them, padding bits zero: entry (i, j) is the number of rows
    where column i of ``a`` and column j of ``b`` are both true.

    A popcount over the words: exact for any n and single threaded.  Each
    popcount call counts one block of rows of ``a`` against a block of
    rows of ``b``, as many rows of ``a`` against all of ``b`` as fit in
    ``BLOCK_BYTES`` of AND-ed words; where one row against all of ``b``
    does not fit, one row against as many rows of ``b`` as fit.  So a
    small matrix takes one call, a large one a row or part of a row per
    call, and a block's AND-ed words exceed ``BLOCK_BYTES`` only where one
    pair's words do (n above 2^21 rows)."""
    return _popcount_blocks(a, b, None, None)


def _popcount_blocks(a, b, starts, out) -> np.ndarray:
    """The one popcount loop: ``cross_counts`` of ``a`` against ``b``, or
    with ``b`` None, ``cooccurrence`` of ``a`` (with ``starts``, segmented),
    written into ``out`` when it is given."""
    square = b is None
    b = a if square else b
    rows = max(1, BLOCK_BYTES // max(1, b.nbytes))  # n = 0: no words
    cols = len(b) if b.nbytes <= BLOCK_BYTES else BLOCK_BYTES // (8 * b.shape[1])
    cols = max(1, cols)
    shape = (len(a), len(b)) if starts is None else (len(starts), len(a), len(b))
    g = np.empty(shape, dtype=np.int64) if out is None else out
    # a uint32 sum of the per-word counts is exact below 2^32 rows, and
    # took 8-37% off a call at W = 79-1563 against the default uint64 one
    # on a 2-vCPU Xeon VM
    total = np.uint32 if a.shape[1] < 1 << 26 else np.uint64
    for i in range(0, len(a), rows):
        i2 = i + rows
        for j in range(i if square else 0, len(b), cols):
            j2 = j + cols
            counts = np.bitwise_count(a[i:i2, None] & b[None, j:j2])
            # the plain count stays its own path: as a one-segment stack
            # (reduceat or a keepdims sum) it took 20-26% longer at 5000x240
            # on a 2-vCPU Xeon VM (8.1 -> 10.3 ms), and tied at 20000x600
            if starts is None:
                g[i:i2, j:j2] = counts.sum(axis=2, dtype=total)
                if square:
                    g[j:j2, i:i2] = g[i:i2, j:j2].T
                continue
            if len(starts) < a.shape[1]:  # some segment spans several words
                counts = np.add.reduceat(counts, starts, axis=2, dtype=np.int64)
            g[:, i:i2, j:j2] = counts.transpose(2, 0, 1)
            g[:, j:j2, i:i2] = g[:, i:i2, j:j2].transpose(0, 2, 1)
    return g


def phi_coefficients(a, b, c, d) -> np.ndarray:
    """Pearson correlation (phi) of 2x2 tables, elementwise over
    non-negative integer counts: ``phi_from_supports`` of each table's
    joint count a, supports a + b and a + c, and size a + b + c + d."""
    a, b, c, d = (np.asarray(v, dtype=np.int64) for v in (a, b, c, d))
    return phi_from_supports(a, a + b, a + c, a + b + c + d)


def phi_from_supports(a, si, sj, n) -> np.ndarray:
    """Pearson correlation (phi) of pairs of Boolean columns, from integer
    arrays that broadcast: the rows n, the joint true-count a and the two
    supports si and sj.  That is r of the 2x2 table (a, si - a, sj - a,
    n - si - sj + a): (ad - bc) / sqrt of the product of the marginals.

    The numerator is taken as n*a - si*sj, which equals ad - bc and is
    exact in int64 below 3e9 rows; the marginals are multiplied as
    float64 in the order si * (n - si) * sj * (n - sj), so a pair gives
    the same bits alone, in an array or in a block broadcast from column
    si against row sj, where only the last two products span the block.
    NaN where a marginal is zero (a constant column), where r is
    undefined: there the numerator is zero too."""
    den = np.multiply(si, n - si, dtype=np.float64) * sj
    den *= n - sj
    num = n * a
    num -= si * sj
    with np.errstate(invalid="ignore"):  # 0 / 0 where r is undefined
        return num / np.sqrt(den)


def expected_counts_from_supports(si, sj, n) -> np.ndarray:
    """Elementwise over integer arrays that broadcast, the supports si and
    sj of two columns of n rows: all four expected cell counts of their
    2x2 table under independence are >= 5.  The smallest is
    min(si, n - si) * min(sj, n - sj) / n, compared exactly in integers."""
    return np.minimum(si, n - si) * np.minimum(sj, n - sj) >= 5 * n


def pearson_r(t: ContingencyTable) -> float:
    """Pearson correlation (phi) of one 2x2 table; see phi_coefficients."""
    r = float(phi_coefficients(t.a, t.b, t.c, t.d))
    if math.isnan(r):
        raise DegenerateTableError(f"constant feature in table {t}")
    return r


def chi2_obs(t: ContingencyTable) -> float:
    """Observed chi-square of independence; equals n * r^2."""
    r = pearson_r(t)
    return t.n * r * r


def expected_counts_ok(t: ContingencyTable) -> bool:
    """True iff all four expected cell counts under independence are >= 5."""
    return bool(expected_counts_from_supports(t.a + t.b, t.a + t.c, t.n))


# ---------------------------------------------------------------------------
# standard normal quantile (Acklam's rational approximation, |err| < 1.2e-9)

_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)

_P_LOW = 0.02425
_P_HIGH = 1 - _P_LOW


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF, absolute error well under 1e-6."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability must be in (0, 1), got {p}")
    if _P_LOW <= p <= _P_HIGH:
        q = p - 0.5
        r = q * q
        return (((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q / \
            (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1)
    # the upper tail is the lower tail's negative at 1 - p
    q = math.sqrt(-2 * math.log(min(p, 1 - p)))
    x = (((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]) / \
        ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1)
    return x if p < 0.5 else -x


def normal_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2))


def lambda_from_risk(alpha: float, n: int) -> float:
    """Correlation threshold u_{1-alpha} / sqrt(n) for the one-sided
    independence test on a dataset of n individuals."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"alpha must be in (0, 0.5), got {alpha}")
    return normal_quantile(1 - alpha) / math.sqrt(n)


# ---------------------------------------------------------------------------
# Kendall rank test

def _kendall_s(x: Sequence[float], y: Sequence[float]) -> int:
    s = 0
    for i in range(len(x)):
        for j in range(i + 1, len(x)):
            dx = (x[i] > x[j]) - (x[i] < x[j])
            dy = (y[i] > y[j]) - (y[i] < y[j])
            s += dx * dy
    return s


def _tie_sizes(values: Sequence[float]) -> list[int]:
    return [c for c in Counter(values).values() if c > 1]


def kendall_tau_test(x: Sequence[float], y: Sequence[float]) -> tuple[float, float]:
    """Tie-corrected tau-b and its two-sided normal-approximation p-value."""
    n = len(x)
    if n != len(y):
        raise ValueError("sequences must have equal length")
    if n < 3:
        raise ValueError("need at least 3 observations")
    tx = _tie_sizes(x)
    ty = _tie_sizes(y)
    n0 = n * (n - 1) // 2
    n1 = sum(t * (t - 1) // 2 for t in tx)
    n2 = sum(t * (t - 1) // 2 for t in ty)
    if n1 == n0 or n2 == n0:
        raise StatsError("tau undefined: a sequence is entirely tied")
    s = _kendall_s(x, y)
    tau = s / math.sqrt((n0 - n1) * (n0 - n2))
    # variance of S with tie corrections
    v0 = n * (n - 1) * (2 * n + 5)
    vt = sum(t * (t - 1) * (2 * t + 5) for t in tx)
    vu = sum(t * (t - 1) * (2 * t + 5) for t in ty)
    var_s = (v0 - vt - vu) / 18.0
    var_s += (
        sum(t * (t - 1) * (t - 2) for t in tx)
        * sum(t * (t - 1) * (t - 2) for t in ty)
        / (9.0 * n * (n - 1) * (n - 2))
    )
    var_s += (
        sum(t * (t - 1) for t in tx)
        * sum(t * (t - 1) for t in ty)
        / (2.0 * n * (n - 1))
    )
    if var_s <= 0:
        raise StatsError("tau undefined: zero variance")
    z = s / math.sqrt(var_s)
    p = 2 * (1 - normal_cdf(abs(z)))
    return tau, min(1.0, p)


def kendall_exact_pvalue(x: Sequence[float], y: Sequence[float]) -> float:
    """Two-sided exact permutation p-value of tau; lengths up to 8."""
    n = len(x)
    if n != len(y):
        raise ValueError("sequences must have equal length")
    if n > 8:
        raise ValueError("exact permutation test limited to length 8")
    kendall_tau_test(x, y)  # raises when tau is undefined or n < 3
    # permuting y keeps its ties, so every permutation's tau has the
    # observed tau's denominator: compare the integer S instead
    s_obs = abs(_kendall_s(x, y))
    hits = sum(abs(_kendall_s(x, perm)) >= s_obs for perm in itertools.permutations(y))
    return hits / math.factorial(n)

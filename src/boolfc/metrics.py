"""Feature-set quality and complexity measures: OI, C0, C1, RMS; and
FeatureSet, which owns its co-occurrence matrix G: it counts G when first
read, and ``extend`` and ``select`` hand it on, ``extend`` as a pending
grow that ``select`` narrows and the next read applies (``_grown_gram``),
into the kept members' block only."""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, asdict
from typing import Iterable, Sequence

import numpy as np

from . import expr as ex
from .dataset import Dataset, unique_count
from .stats import BLOCK_BYTES, cooccurrence, cross_counts, row_mask, unpack_columns


class MetricsError(ValueError):
    pass


class DuplicateFeatureError(MetricsError):
    """Member ``member`` of a new feature set repeats an earlier key."""

    def __init__(self, key: str, member: int):
        super().__init__(f"duplicate feature {key!r}")
        self.member = member


def _operand_rows(e: ex.FeatureExpr, rows: dict) -> list[tuple[int, bool]]:
    """(row, negated) of the member that each operand of ``e`` is or
    negates, given each member's row by key; MetricsError unless ``e``
    is, in canonical form, a conjunction of two members or negated
    members."""
    form = e.canonical
    found = []
    for operand in (form.left, form.right) if isinstance(form, ex.And) else ():
        row = rows.get(operand.text)
        if row is not None:
            found.append((row, False))
        elif (row := rows.get(ex.negation(operand).text)) is not None:
            found.append((row, True))
    if len(found) < 2:
        raise MetricsError(
            f"cannot extend with {ex.to_text(e)!r}: not a conjunction of two"
            " members or negated members"
        )
    return found


def _grown_gram(g, words, operands, negated, keep) -> np.ndarray:
    """The co-occurrence matrix of the members ``keep`` of m members, whose
    words are ``words`` and whose matrix is ``g``, with q members appended:
    member m + c is the AND of rows i = ``operands[c, 0]`` and
    j = ``operands[c, 1]``, each negated where ``negated[c]`` is 1, and no
    member negates both.  ``keep`` is ascending.  Exact, and only the
    distinct bases x_i & x_j of the kept children are counted, against the
    m members and each other.

    The triple operator negates at most one operand, so with b its base,
    member m + c is, as a 0/1 vector, b, x_j - b (x_i negated) or x_i - b
    (x_j negated): each of its counts is b's, or a known count minus b's.
    Cost: p(m + p) counted entries for p distinct bases, against
    kept²/2 for a count from the words."""
    m = len(g)
    old, new = keep[keep < m], keep[keep >= m] - m
    operands, negated = operands[new], negated[new]
    # a key per base, and each child's base row, in order of first use:
    # sorting the keys (np.unique) pages in NumPy's sort code, 0.3 MiB of RSS
    first = {}
    keys = (np.minimum(*operands.T) * m + np.maximum(*operands.T)).tolist()
    base = np.array([first.setdefault(key, len(first)) for key in keys], dtype=np.intp)
    pairs = np.array(list(first), dtype=np.intp)
    base_words = words[pairs // m] & words[pairs % m]
    h = cross_counts(base_words, words)  # (p, m): bases against members
    k = cooccurrence(base_words)  # (p, p): bases against bases
    rows = np.flatnonzero(negated.any(axis=1))  # x - b, x the operand not negated
    plain = operands[rows, negated[rows, 0]]
    # kept children against all m members: a negated child's count against
    # another child reads the row of its plain operand, which may be pruned
    to_members = _minus_base(base, rows, plain, g, h)
    to_bases = _minus_base(base, rows, plain, h.T, k)
    r = len(old)
    out = np.empty((len(keep), len(keep)), dtype=np.int64)
    out[:r, :r] = g[np.ix_(old, old)]
    out[r:, :r] = to_members[:, old]
    out[:r, r:] = out[r:, :r].T
    out[r:, r:] = _minus_base(base, rows, plain, to_members.T, to_bases.T)
    return out


def _minus_base(base, rows, plain, a, b) -> np.ndarray:
    """What each child c counts against the columns of ``a`` and ``b``,
    a row per child, given the counts of the rows of ``a`` and of ``b``
    against them: b[base_c], and for the children listed in ``rows``, with
    ``plain`` their operand that is not negated, a[plain_c] - b[base_c]."""
    out = b[base]
    out[rows] = a[plain] - out[rows]
    return out


class FeatureSet:
    """Ordered feature expressions bound to a dataset; read-only.

    A member's identity is its canonical text (``keys``).  Its key,
    extension and literal count are derived once, when it enters the set:
    the constructor rejects duplicate keys, ``extend`` skips them, and
    ``extend`` and ``select`` reuse what they keep.  Extensions are kept
    as ``words``, an (m, W) uint64 array with one row of bit-packed words
    per member (``stats.pack_columns``): ``extensions`` unpacks them on
    each read.  The members' co-occurrence matrix ``gram`` is counted
    when first read, and from then on handed by ``extend`` and ``select``
    to the set they return, by ``extend`` as a grow applied on read.  The
    dataset's own columns are the primitive set.
    """

    def __init__(self, members: Sequence[ex.FeatureExpr], dataset: Dataset):
        if len(members) < 1:
            raise MetricsError("a feature set needs at least one member")
        fresh = {}  # key -> member, in order
        for i, e in enumerate(members):
            key = ex.canonical_text(e)
            if key in fresh:
                raise DuplicateFeatureError(key, i)
            fresh[key] = e
        self.dataset = dataset
        self.members = tuple(fresh.values())
        self.keys = tuple(fresh)
        self.literal_counts = tuple(ex.literal_count(e) for e in self.members)
        self.words = ex.evaluate_words(self.members, dataset)
        self.words.setflags(write=False)
        self._gram = None

    def extend(self, new: Iterable[ex.FeatureExpr]) -> "FeatureSet":
        """A new set with the members of ``new`` whose key is not yet
        present appended in order, the first occurrence of each key kept.

        Each of ``new`` must be, in canonical form, a conjunction of two
        members or negated members, as uFC and uFRINGE build them;
        anything else raises MetricsError naming it.  The new set's words
        are allocated once: this set's rows are copied in, and each
        appended member's row is computed in place by row operations over
        ``words``, a block of about ``BLOCK_BYTES`` of operands at a time:
        gather each operand's row, XOR the negated ones with the all-true
        row's words, then AND the two into the row.  If this set carries
        ``gram``, it hands it on, and counts it again if it is read again:
        the new set carries a pending grow, which counts nothing until its
        ``gram`` is read, unless a new member negates both operands; then
        it counts G from its words when read.  A pending grow that is
        not yet read is dropped, not handed on.
        """
        rows = {key: row for row, key in enumerate(self.keys)}
        fresh = {}  # key -> member, in order
        operands = []  # (row, negated) of each fresh member's two operands
        for e in new:
            pair = _operand_rows(e, rows)
            key = ex.canonical_text(e)
            if key not in rows and key not in fresh:
                fresh[key] = e
                operands += pair
        # (2, q): the row of each member's first and second operand, and its sign
        index, negated = np.array(operands, dtype=np.intp).reshape(-1, 2, 2).T
        m, width = self.words.shape
        words = np.empty((m + index.shape[1], width), dtype=np.uint64)
        words[:m] = self.words
        flip, mask = negated.astype(bool), row_mask(self.dataset.n)
        # children a block: each gathers two operand rows of 8 * width bytes
        step = max(1, BLOCK_BYTES // (16 * max(1, width)))
        for top in range(0, index.shape[1], step):
            block = self.words[index[:, top:top + step]]
            block[flip[:, top:top + step]] ^= mask
            np.bitwise_and(block[0], block[1], out=words[m + top:m + top + step])
        out = copy.copy(self)
        out.members += tuple(fresh.values())
        out.keys += tuple(fresh)
        out.literal_counts += tuple(ex.literal_count(e) for e in fresh.values())
        out.words = words
        out.words.setflags(write=False)
        out._gram = None
        if isinstance(self._gram, np.ndarray) and not negated.all(axis=0).any():
            out._gram = (self._gram, self.words, index.T, negated.T, np.arange(out.m))
        self._gram = None
        return out

    def select(self, mask) -> "FeatureSet":
        """A new set of the members where ``mask`` is true, in order; if
        this set carries ``gram``, it hands the new set its sub-block, and
        if it carries a pending grow, the grow of the kept members only;
        this set counts G again if it is read again."""
        keep = np.flatnonzero(mask).tolist()
        if not keep:
            raise MetricsError("a feature set needs at least one member")
        out = copy.copy(self)
        out.members = tuple(self.members[i] for i in keep)
        out.keys = tuple(self.keys[i] for i in keep)
        out.literal_counts = tuple(self.literal_counts[i] for i in keep)
        out.words = self.words[keep]
        out.words.setflags(write=False)
        out._gram = self._gram
        if isinstance(self._gram, np.ndarray):
            out._gram = self._gram[np.ix_(keep, keep)]
            out._gram.setflags(write=False)
        elif self._gram is not None:  # a pending grow: compose the keep index
            out._gram = (*self._gram[:-1], self._gram[-1][keep])
        self._gram = None
        return out

    @property
    def gram(self) -> np.ndarray:
        """Read-only (m, m) int64 co-occurrence matrix G of the members'
        words, ``stats.cooccurrence``: G[i, j] counts the rows where
        members i and j both hold.  Computed on first read, from a pending
        grow where ``extend`` left one and otherwise from the words, and
        kept until ``extend`` or ``select`` hands it to the set it
        returns, so a set holds G only while no later set does, and a set
        that no caller reads it from never pays for it."""
        if not isinstance(self._gram, np.ndarray):
            self._gram = (cooccurrence(self.words) if self._gram is None
                          else _grown_gram(*self._gram))
            self._gram.setflags(write=False)
        return self._gram

    @property
    def extensions(self) -> np.ndarray:
        """Read-only (n, m) bool truth matrix, unpacked from ``words`` on
        each read."""
        extensions = unpack_columns(self.words, self.dataset.n)
        extensions.setflags(write=False)
        return extensions

    @classmethod
    def from_primitives(cls, dataset: Dataset) -> "FeatureSet":
        return cls([ex.Prim(name) for name in dataset.feature_names], dataset)

    @property
    def m(self) -> int:
        return len(self.members)

    def supports(self) -> np.ndarray:
        """Number of rows where each member holds: a popcount per row of words."""
        return np.bitwise_count(self.words).sum(axis=1, dtype=np.int64)

    def key_set(self) -> frozenset:
        return frozenset(self.keys)

    def __len__(self) -> int:
        return self.m

    def __repr__(self) -> str:
        return f"FeatureSet(m={self.m}, n={self.dataset.n})"


def overlapping_index(fs: FeatureSet) -> float:
    """OI = (sum of feature frequencies - 1) / (m - 1), with a virtual
    "null" feature covering individuals that satisfy no feature."""
    oi, _ = overlapping_index_detail(fs)
    return oi


def overlapping_index_detail(fs: FeatureSet) -> tuple[float, bool]:
    """OI plus whether the virtual null feature was added."""
    n = fs.dataset.n
    sum_p = float(fs.supports().sum()) / n
    covered = np.bitwise_count(np.bitwise_or.reduce(fs.words, axis=0)).sum()
    uncovered = n - int(covered)
    m = fs.m
    null_added = uncovered > 0
    if null_added:
        sum_p += uncovered / n
        m += 1
    if m < 2:
        raise MetricsError("overlapping index undefined for a single feature")
    return (sum_p - 1.0) / (m - 1), null_added


def complexity_c0(fs: FeatureSet) -> float:
    """Normalized excess feature count (|F| - |P|) / (unique(I) - |P|).

    Floored at 0: a set smaller than the primitives carries no excess.
    """
    k = fs.dataset.k
    if fs.m == k and fs.key_set() == frozenset(fs.dataset.feature_names):
        return 0.0
    uniq = unique_count(fs.dataset)
    if uniq <= k:
        raise MetricsError(
            f"complexity undefined: unique rows ({uniq}) <= primitives ({k})"
        )
    return max((fs.m - k) / (uniq - k), 0.0)


def avg_length_c1(fs: FeatureSet) -> float:
    """Mean number of distinct literals per feature."""
    return sum(fs.literal_counts) / fs.m


def rms(oi: float, c0: float) -> float:
    """Root mean square of the two indicators."""
    if not (math.isfinite(oi) and math.isfinite(c0)) or oi < 0 or c0 < 0:
        raise ValueError(f"rms expects finite non-negative inputs, got {oi}, {c0}")
    return math.sqrt((oi * oi + c0 * c0) / 2.0)


@dataclass(frozen=True)
class MetricsReport:
    oi: float
    c0: float
    c1: float
    rms: float
    m: int
    null_added: bool

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def report(fs: FeatureSet) -> MetricsReport:
    oi, null_added = overlapping_index_detail(fs)
    c0 = complexity_c0(fs)
    c1 = avg_length_c1(fs)
    return MetricsReport(oi=oi, c0=c0, c1=c1, rms=rms(oi, c0),
                         m=fs.m, null_added=null_added)

"""Feature-set quality and complexity measures: OI, C0, C1, RMS; and
FeatureSet, which owns its co-occurrence matrix G: it counts G when first
read, and ``extend`` and ``select`` hand it on, ``extend`` growing it
(``_grown_gram``) only where ``growing_gram_pays`` finds that cheaper
than counting it again."""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, asdict
from typing import Iterable, Sequence

import numpy as np

from . import expr as ex
from .dataset import Dataset, unique_count
from .stats import cooccurrence, cross_counts, row_mask, unpack_columns


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


# Growing G costs a fixed 100 000 words' count per call, plus 2 words'
# count per entry of the grown matrix, besides the bases it counts.  On
# a 2-vCPU Xeon VM, growing alone took 150-210 us a call and 5-7 ns an
# entry, and counting 3-6 ns a word (m = 20-320, W = 1-313); the fixed
# cost is taken at twice that fit, because a run's last step grows
# counts that are never read: over 945 paired steps of noise-S runs,
# 50 000 spent 5% more than never growing, and 100 000 the same.
_GROW_CALL_WORDS = 100_000
_GROW_ENTRY_WORDS = 2


def growing_gram_pays(m: int, q: int, p: int, kept: int, w: int) -> bool:
    """Whether growing the co-occurrence matrix of m members by q members
    with p distinct bases, all of w words, is estimated to cost less than
    counting, from their words, the matrix of the ``kept`` members that
    are left once the caller prunes, as the next read of ``gram`` would."""
    grow = w * (p * m + p * (p + 1) // 2) + _GROW_ENTRY_WORDS * (m + q) ** 2
    return _GROW_CALL_WORDS + grow < w * kept * (kept + 1) // 2


def _grown_gram(g, words, operands, negated) -> np.ndarray | None:
    """The co-occurrence matrix of q members appended to m members whose
    words are ``words`` and whose matrix is ``g``: member c is the AND of
    rows i = ``operands[c, 0]`` and j = ``operands[c, 1]``, each negated
    where ``negated[c]`` is 1.  Exact, and only the distinct bases
    x_i & x_j are counted, against the m members and each other.

    The triple operator negates at most one operand, so with b its base,
    member c is, as a 0/1 vector, b, x_j - b (x_i negated) or x_i - b
    (x_j negated): each of its counts is b's, or a known count minus b's.
    None, for G to be counted when next read, where a member negates both
    operands, or where ``growing_gram_pays`` finds counting cheaper; the
    members kept are taken as the m + q less the distinct operands, which
    uFC prunes.  Cost: p(m + p) counted entries for p distinct bases,
    against (m + q)²/2 for a count from the words."""
    m, q = len(g), len(operands)
    bases = np.minimum(*operands.T) * m + np.maximum(*operands.T)  # a key per base
    kept = m + q - len(set(operands.ravel().tolist()))
    # counted in Python sets, for runs that never grow G, like noise-S's:
    # np.unique before this decision raised their peak RSS by 0.3 MiB and
    # doubled its cost
    if (negated[:, 0] & negated[:, 1]).any() or not growing_gram_pays(
            m, q, len(set(bases.tolist())), kept, words.shape[1]):
        return None
    pairs, base = np.unique(bases, return_inverse=True)
    base_words = words[pairs // m] & words[pairs % m]
    h = cross_counts(base_words, words)  # (p, m): bases against members
    k = cooccurrence(base_words)  # (p, p): bases against bases
    rows = np.flatnonzero(negated.any(axis=1))  # x - b, x the operand not negated
    plain = operands[rows, negated[rows, 0]]
    out = np.empty((m + q, m + q), dtype=np.int64)
    out[:m, :m] = g
    _minus_base(out[m:, :m], base, rows, plain, g, h)
    out[:m, m:] = out[m:, :m].T
    to_bases = _minus_base(np.empty((q, len(pairs)), dtype=np.int64), base, rows,
                           plain, h.T, k)
    _minus_base(out[m:, m:], base, rows, plain, out[:m, m:], to_bases.T)
    out.setflags(write=False)
    return out


def _minus_base(out, base, rows, plain, a, b) -> np.ndarray:
    """Row c of ``out`` set to what member c counts against the columns
    of ``a`` and ``b``, given the counts of the rows of ``a`` and of ``b``
    against them: b[base_c], and for the members listed in ``rows``, with
    ``plain`` their operand that is not negated, a[plain_c] - b[base_c]."""
    out[:] = b[base]
    block = out[rows]
    np.subtract(a[plain], block, out=block)
    out[rows] = block
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
    to the set they return.  The dataset's own columns are the primitive
    set.
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
        anything else raises MetricsError naming it.  The words of all the
        appended members are computed in one pass of row operations over
        ``words``: gather each operand's row, XOR the negated ones with
        the all-true row's words, then AND the two.  If this set carries
        ``gram``, it hands it on: the new set carries its own, grown by
        ``_grown_gram`` where that pays, and this set counts it again if
        it is read again.
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
        index, negated = np.array(operands, dtype=np.intp).reshape(-1, 2).T
        words = self.words[index]  # rows 2i and 2i + 1: member i's operands
        words[negated.astype(bool)] ^= row_mask(self.dataset.n)
        out = copy.copy(self)
        out.members += tuple(fresh.values())
        out.keys += tuple(fresh)
        out.literal_counts += tuple(ex.literal_count(e) for e in fresh.values())
        out.words = np.concatenate([self.words, words[0::2] & words[1::2]])
        out.words.setflags(write=False)
        if self._gram is not None:
            out._gram = _grown_gram(self._gram, self.words, index.reshape(-1, 2),
                                    negated.reshape(-1, 2))
            self._gram = None
        return out

    def select(self, mask) -> "FeatureSet":
        """A new set of the members where ``mask`` is true, in order; if
        this set carries ``gram``, it hands the new set its sub-block, as
        ``extend`` hands on G."""
        keep = np.flatnonzero(mask).tolist()
        if not keep:
            raise MetricsError("a feature set needs at least one member")
        out = copy.copy(self)
        out.members = tuple(self.members[i] for i in keep)
        out.keys = tuple(self.keys[i] for i in keep)
        out.literal_counts = tuple(self.literal_counts[i] for i in keep)
        out.words = self.words[keep]
        out.words.setflags(write=False)
        if self._gram is not None:
            out._gram = self._gram[np.ix_(keep, keep)]
            out._gram.setflags(write=False)
            self._gram = None
        return out

    @property
    def gram(self) -> np.ndarray:
        """Read-only (m, m) int64 co-occurrence matrix G of the members'
        words, ``stats.cooccurrence``: G[i, j] counts the rows where
        members i and j both hold.  Counted on first read and kept until
        ``extend`` or ``select`` hands it to the set it returns, so a set
        holds G only while no later set does, and a set that no caller
        reads it from never pays for it."""
        if self._gram is None:
            self._gram = cooccurrence(self.words)
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

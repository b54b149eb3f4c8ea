"""Feature-set quality and complexity measures: OI, C0, C1, RMS."""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, asdict
from typing import Iterable, Sequence

import numpy as np

from . import expr as ex
from .dataset import Dataset, unique_count
from .stats import unpack_columns


class MetricsError(ValueError):
    pass


class DuplicateFeatureError(MetricsError):
    """Member ``member`` of a new feature set repeats an earlier key."""

    def __init__(self, key: str, member: int):
        super().__init__(f"duplicate feature {key!r}")
        self.member = member


class FeatureSet:
    """Ordered feature expressions bound to a dataset; read-only.

    A member's identity is its canonical text (``keys``).  Its key,
    extension and literal count are derived once, when it enters the set:
    the constructor rejects duplicate keys, ``extend`` skips them, and
    ``extend`` and ``select`` reuse what they keep.  Extensions are kept
    as ``words``, an (m, W) uint64 array with one row of bit-packed words
    per member (``stats.pack_columns``), and nothing else: ``extensions``
    unpacks them on each read.
    The dataset's own columns are the primitive set.
    """

    def __init__(self, members: Sequence[ex.FeatureExpr], dataset: Dataset):
        if len(members) < 1:
            raise MetricsError("a feature set needs at least one member")
        self.dataset = dataset
        self.members, self.keys, self.literal_counts = (), (), ()
        self.words = dataset.words[:0]
        self._append(members, skip_duplicates=False)

    def _append(self, new: Iterable[ex.FeatureExpr], skip_duplicates: bool):
        seen = set(self.keys)
        fresh: dict[str, ex.FeatureExpr] = {}  # key -> member, in order
        for i, e in enumerate(new):
            key = ex.canonical_text(e)
            if key in seen or key in fresh:
                if skip_duplicates:
                    continue  # first occurrence wins
                raise DuplicateFeatureError(key, i)
            fresh[key] = e
        # a child of two members is one word operation on theirs
        words = ex.evaluate_words(
            tuple(fresh.values()), self.dataset, zip(self.keys, self.words)
        )
        self.members += tuple(fresh.values())
        self.keys += tuple(fresh)
        self.literal_counts += tuple(ex.literal_count(e) for e in fresh.values())
        self.words = np.concatenate([self.words, words])
        self.words.setflags(write=False)

    def extend(self, new: Iterable[ex.FeatureExpr]) -> "FeatureSet":
        """A new set with the members of ``new`` whose key is not yet
        present appended in order; only those are evaluated."""
        out = copy.copy(self)
        out._append(new, skip_duplicates=True)
        return out

    def select(self, mask) -> "FeatureSet":
        """A new set of the members where ``mask`` is true, in order."""
        keep = np.flatnonzero(mask).tolist()
        if not keep:
            raise MetricsError("a feature set needs at least one member")
        out = copy.copy(self)
        out.members = tuple(self.members[i] for i in keep)
        out.keys = tuple(self.keys[i] for i in keep)
        out.literal_counts = tuple(self.literal_counts[i] for i in keep)
        out.words = self.words[keep]
        out.words.setflags(write=False)
        return out

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

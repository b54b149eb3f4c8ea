"""The uFC construction loop: correlated-pair search, the triple
construction operator, pruning, and the fixed / risk-based run modes."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Iterator, Optional, Union

import numpy as np

from . import expr as ex
from .dataset import Dataset, unique_count
from .metrics import FeatureSet, MetricsReport, report
from .stats import (
    BLOCK_BYTES,
    expected_counts_from_supports,
    lambda_from_risk,
    phi_from_supports,
)


class UfcError(ValueError):
    pass


@dataclass(frozen=True)
class CandidatePair:
    i: int
    j: int
    r: float


@dataclass(frozen=True)
class FixedMode:
    """Fixed correlation threshold and iteration cap."""

    threshold: float
    limit_iter: int

    def __post_init__(self):
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(f"threshold must be in (0, 1), got {self.threshold}")
        if self.limit_iter < 1:
            raise ValueError("limit_iter must be >= 1")


@dataclass(frozen=True)
class RiskMode:
    """Threshold derived from a significance level; stops at the RMS minimum."""

    alpha: float
    hard_cap: int = 100

    def __post_init__(self):
        if not 0.0 < self.alpha < 0.5:
            raise ValueError(f"alpha must be in (0, 0.5), got {self.alpha}")
        if self.hard_cap < 1:
            raise ValueError("hard_cap must be >= 1")


@dataclass(frozen=True)
class UfcConfig:
    mode: Union[FixedMode, RiskMode]
    # None picks the mode default: off for fixed runs, on for risk runs
    candidate_pruning: Optional[bool] = None

    @property
    def pruning(self) -> bool:
        if self.candidate_pruning is None:
            return isinstance(self.mode, RiskMode)
        return self.candidate_pruning


@dataclass
class IterationLog:
    constructed: list[str]
    pruned: list[str]


@dataclass
class RunResult:
    features: FeatureSet
    trajectory: list[MetricsReport]
    logs: list[IterationLog]
    stop_reason: str  # fixpoint | iter_limit | rms_minimum | hard_cap
    threshold: float

    @property
    def iterations(self) -> int:
        return len(self.trajectory) - 1

    def final_report(self) -> MetricsReport:
        """The report of ``features``, taken from the trajectory: on
        ``rms_minimum`` the last entry belongs to the rejected step."""
        return self.trajectory[-2 if self.stop_reason == "rms_minimum" else -1]

    def to_json_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "stop_reason": self.stop_reason,
            "iterations": self.iterations,
            "features": [ex.to_text(e) for e in self.features.members],
            "final_metrics": asdict(self.final_report()),
            "trajectory": [asdict(r) for r in self.trajectory],
            "constructed": [log.constructed for log in self.logs],
            "pruned": [log.pruned for log in self.logs],
        }


def pair_tables(fs: FeatureSet) -> Iterator[tuple]:
    """Every pair i < j and its contingency counts, a block of rows of
    G's upper triangle at a time.  Reads ``fs.gram``, the exact
    co-occurrence matrix of the members' words, which a set counts when
    first read and which ``extend`` and ``select`` hand on from then on,
    at once, and returns an iterator of blocks (top, a, si, sj).

    a is a view of G's rows ``top`` to ``bot - 1`` and columns ``top + 1``
    to m - 1, and si and sj the int64 supports, from G's diagonal, of
    those rows (a column) and columns (a row).  So a[x, y] counts members
    i = top + x and j = top + 1 + y, a pair i < j where y >= x, and the
    pairs' tables are a, b = si - a, c = sj - a and d = n - si - sj + a,
    each taken by broadcasting: nothing is gathered.  The blocks go down
    the rows in order, each of at least one row and otherwise of about
    ``BLOCK_BYTES / 32`` entries: the four or so block-sized arrays that
    a search holds at once then take about ``BLOCK_BYTES``."""
    return _row_blocks(fs.gram)


def _row_blocks(g: np.ndarray) -> Iterator[tuple]:
    m = len(g)
    s = np.diagonal(g)
    entries = BLOCK_BYTES // 32
    top = 0
    while top < m - 1:
        bot = min(m - 1, top + max(1, entries // (m - 1 - top)))
        yield top, g[top:bot, top + 1:], s[top:bot, None], s[top + 1:]
        top = bot


def search_correlated_pairs(
    fs: FeatureSet, threshold: float, pruning: bool
) -> list[CandidatePair]:
    """All index pairs i < j with defined r strictly above the threshold,
    sorted by r descending then (i, j) ascending.  With pruning on, pairs
    failing the expected-frequency rule are excluded.  Each block of
    ``pair_tables`` is scored, and only its candidates kept, before the
    next."""
    n = fs.dataset.n
    found = []
    for top, a, si, sj in pair_tables(fs):
        r = phi_from_supports(a, si, sj, n)
        keep = r > threshold  # NaN (constant feature) is never a candidate
        if pruning:
            keep &= expected_counts_from_supports(si, sj, n)
        row, col = np.nonzero(keep)
        upper = col >= row  # a block's first rows reach below the diagonal
        row, col = row[upper], col[upper]
        found.append((row + top, col + (top + 1), r[row, col]))
    if not found:  # a single member has no pair
        return []
    i, j, r = (np.concatenate(v) for v in zip(*found))
    order = np.lexsort((j, i, -r))
    return [
        CandidatePair(*p)
        for p in zip(i[order].tolist(), j[order].tolist(), r[order].tolist())
    ]


def construct_new_features(
    fi: ex.FeatureExpr, fj: ex.FeatureExpr
) -> tuple[ex.FeatureExpr, ex.FeatureExpr, ex.FeatureExpr]:
    """The triple operator: fi&fj, !fi&fj, fi&!fj, each built once, in
    canonical form."""
    if ex.canonical_text(fi) == ex.canonical_text(fj):
        raise UfcError("cannot combine a feature with itself")
    return (
        ex.conjunction(fi, fj),
        ex.conjunction(ex.negation(fi), fj),
        ex.conjunction(fi, ex.negation(fj)),
    )


def prune_obsolete_features(fs: FeatureSet, parents: set[str]) -> FeatureSet:
    """Drop zero-support features and the parents of this iteration's
    combinations (parents given by canonical text); order is preserved."""
    keep = fs.supports() > 0
    keep &= [key not in parents for key in fs.keys]
    if not keep.any():
        raise UfcError("pruning removed every feature (degenerate configuration)")
    return fs.select(keep)


def count_common(fs1: FeatureSet, fs2: FeatureSet) -> int:
    """Number of features shared by canonical serialization."""
    return len(fs1.key_set() & fs2.key_set())


def ufc_run(d: Dataset, cfg: UfcConfig) -> RunResult:
    """Run the construction loop to a fixpoint, iteration cap, or the
    RMS minimum (risk mode).  Deterministic for a given (d, cfg)."""
    uniq = unique_count(d)
    if uniq <= d.k:
        raise UfcError(f"degenerate dataset: unique rows ({uniq}) <= features ({d.k})")
    risk_mode = isinstance(cfg.mode, RiskMode)
    if risk_mode:
        threshold = lambda_from_risk(cfg.mode.alpha, d.n)
        limit = cfg.mode.hard_cap
    else:
        threshold = cfg.mode.threshold
        limit = cfg.mode.limit_iter

    fs = FeatureSet.from_primitives(d)
    trajectory = [report(fs)]
    logs: list[IterationLog] = []

    while True:
        candidates = search_correlated_pairs(fs, threshold, cfg.pruning)
        used: set[int] = set()
        children: list[ex.FeatureExpr] = []
        for pair in candidates:
            if pair.i in used or pair.j in used:
                continue  # remove_candidate: shares a member with a popped pair
            used.update((pair.i, pair.j))
            children += construct_new_features(fs.members[pair.i], fs.members[pair.j])
        merged = fs.extend(children)
        new_fs = prune_obsolete_features(merged, {fs.keys[i] for i in used})
        if new_fs.keys == fs.keys:
            return RunResult(fs, trajectory, logs, "fixpoint", threshold)

        kept = set(new_fs.keys)
        pruned = [k for k in merged.keys if k not in kept]
        logs.append(IterationLog(list(merged.keys[fs.m:]), pruned))
        del merged  # else its (m + q) rows of words live through the next search
        trajectory.append(report(new_fs))
        if risk_mode and trajectory[-1].rms > trajectory[-2].rms:
            # fs, the set before this iteration, held the RMS minimum
            return RunResult(fs, trajectory, logs, "rms_minimum", threshold)
        fs = new_fs  # no set older than fs lives through the next search
        if len(trajectory) - 1 >= limit:
            reason = "hard_cap" if risk_mode else "iter_limit"
            return RunResult(fs, trajectory, logs, reason, threshold)

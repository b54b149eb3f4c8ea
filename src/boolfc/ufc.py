"""The uFC construction loop: correlated-pair search, the triple
construction operator, pruning, and the fixed / risk-based run modes."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional, Union

import numpy as np

from . import expr as ex
from .dataset import Dataset, unique_count
from .metrics import FeatureSet, MetricsReport, report
from .stats import expected_counts_mask, lambda_from_risk, phi_coefficients


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


def pair_tables(fs: FeatureSet) -> tuple[np.ndarray, ...]:
    """Every pair i < j and its contingency counts: six 1-D arrays i, j,
    a, b, c, d in ``np.triu_indices(fs.m, 1)`` order, the counts int64;
    a is read from ``fs.gram``, the exact co-occurrence matrix of the
    members' words, which a set counts when first read and which
    ``extend`` and ``select`` hand on from then on."""
    g = fs.gram
    i, j = np.triu_indices(fs.m, k=1)
    s = np.diagonal(g)
    a = g[i, j]
    b = s[i] - a
    c = s[j] - a
    return i, j, a, b, c, fs.dataset.n - a - b - c


def search_correlated_pairs(
    fs: FeatureSet, threshold: float, pruning: bool
) -> list[CandidatePair]:
    """All index pairs i < j with defined r strictly above the threshold,
    sorted by r descending then (i, j) ascending.  With pruning on, pairs
    failing the expected-frequency rule are excluded."""
    i, j, a, b, c, d = pair_tables(fs)
    r = phi_coefficients(a, b, c, d)
    keep = r > threshold  # NaN (constant feature) is never a candidate
    if pruning:
        keep &= expected_counts_mask(a, b, c, d)
    i, j, r = i[keep], j[keep], r[keep]
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
        prev_fs = fs
        fs = new_fs
        trajectory.append(report(fs))

        if risk_mode and trajectory[-1].rms > trajectory[-2].rms:
            # the previous iteration held the RMS minimum
            return RunResult(prev_fs, trajectory, logs, "rms_minimum", threshold)
        if len(trajectory) - 1 >= limit:
            reason = "hard_cap" if risk_mode else "iter_limit"
            return RunResult(fs, trajectory, logs, reason, threshold)

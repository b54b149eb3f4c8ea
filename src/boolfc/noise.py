"""Noise-stability protocol: rerun the construction on perturbed copies
of a dataset and report how similar the resulting feature sets stay."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence, TextIO

import numpy as np

from .dataset import Dataset, check_noise_fraction, inject_noise
from .ufc import RiskMode, UfcConfig, count_common, ufc_run

NOISE_CSV_HEADER = (
    "pct,replicate,oi,c0,num_features,common_with_zero_noise,common_between_runs"
)


@dataclass(frozen=True)
class NoiseRow:
    pct: float
    replicate: int
    oi: float
    c0: float
    num_features: int
    common_with_zero_noise: int
    common_between_runs: float


def replicate_seed(seed: int, pct_index: int, replicate: int) -> int:
    """Deterministic per-replicate seed derived from the experiment seed."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(pct_index, replicate))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def noise_experiment(
    d: Dataset,
    pcts: Sequence[float],
    replicates: int = 10,
    seed: int = 0,
    alpha: float = 0.001,
    pruning: bool = False,
) -> list[NoiseRow]:
    """For each noise fraction, run the risk-based construction on
    ``replicates`` independently noised copies and collect the five
    stability indicators; ``common_between_runs`` is averaged over all
    replicate pairs at the same fraction.  A replicate with no cell to
    flip gets ``d`` itself from ``inject_noise`` and reuses the
    deterministic noise-free run instead of a rerun."""
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    for pct in pcts:  # all fractions, before the first uFC run
        check_noise_fraction(pct)
    cfg = UfcConfig(RiskMode(alpha), candidate_pruning=pruning)
    base = ufc_run(d, cfg)

    rows: list[NoiseRow] = []
    for pct_index, pct in enumerate(pcts):
        feature_sets, reports = [], []
        for rep in range(replicates):
            noised = inject_noise(d, pct, replicate_seed(seed, pct_index, rep))
            result = base if noised is d else ufc_run(noised, cfg)
            feature_sets.append(result.features)
            reports.append(result.final_report())
        if replicates > 1:
            pair_counts = [count_common(a, b) for a, b in combinations(feature_sets, 2)]
            common_between = sum(pair_counts) / len(pair_counts)
        else:
            common_between = float(feature_sets[0].m)
        for rep, (fs, rep_report) in enumerate(zip(feature_sets, reports)):
            rows.append(
                NoiseRow(
                    pct=float(pct),
                    replicate=rep,
                    oi=rep_report.oi,
                    c0=rep_report.c0,
                    num_features=fs.m,
                    common_with_zero_noise=count_common(fs, base.features),
                    common_between_runs=common_between,
                )
            )
    return rows


def write_noise_csv(rows: Sequence[NoiseRow], out: TextIO) -> None:
    out.write(NOISE_CSV_HEADER + "\n")
    for r in rows:
        out.write(
            f"{r.pct:.10g},{r.replicate},{r.oi:.10g},{r.c0:.10g},"
            f"{r.num_features},{r.common_with_zero_noise},"
            f"{r.common_between_runs:.10g}\n"
        )

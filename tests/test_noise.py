"""Noise protocol: one uFC run per distinct dataset, and every noise
fraction checked before the first run."""

import io
import math

import numpy as np
import pytest

import boolfc.noise as noise
from boolfc.dataset import Dataset, inject_noise
from boolfc.noise import NoiseRow, noise_experiment, replicate_seed, write_noise_csv
from boolfc.ufc import RiskMode, UfcConfig, count_common, ufc_run


@pytest.fixture
def runs(monkeypatch):
    """The datasets ``noise_experiment`` hands to uFC, one per run."""
    seen = []

    def counting_ufc_run(d, cfg):
        seen.append(d)
        return ufc_run(d, cfg)

    monkeypatch.setattr(noise, "ufc_run", counting_ufc_run)
    return seen


def small_dataset() -> Dataset:
    rng = np.random.default_rng(5)
    n = 80
    base = rng.random(n) < 0.5
    matrix = np.column_stack(
        [base, base ^ (rng.random(n) < 0.1), rng.random(n) < 0.5, rng.random(n) < 0.3]
    )
    return Dataset(["a", "b", "c", "e"], matrix)


def rows_with_a_run_per_replicate(d, pcts, replicates, seed, alpha=0.001):
    """The protocol as the paper states it: uFC on every noised copy."""
    cfg = UfcConfig(RiskMode(alpha))
    baseline = ufc_run(d, cfg).features
    rows = []
    for pct_index, pct in enumerate(pcts):
        results = [
            ufc_run(inject_noise(d, pct, replicate_seed(seed, pct_index, rep)), cfg)
            for rep in range(replicates)
        ]
        pair_counts = [
            count_common(results[i].features, results[j].features)
            for i in range(replicates)
            for j in range(i + 1, replicates)
        ]
        between = sum(pair_counts) / len(pair_counts)
        for rep, result in enumerate(results):
            report = result.final_report()
            rows.append(NoiseRow(
                pct=float(pct),
                replicate=rep,
                oi=report.oi,
                c0=report.c0,
                num_features=result.features.m,
                common_with_zero_noise=count_common(result.features, baseline),
                common_between_runs=between,
            ))
    return rows


def test_unflipped_replicates_reuse_the_noise_free_run(runs):
    d = small_dataset()
    tiny = 0.4 / (d.n * d.k)
    assert round(tiny * d.n * d.k) == 0  # no cell flips at this fraction
    pcts = (0.0, tiny, 0.1)
    rows = noise_experiment(d, pcts, replicates=3, seed=2)
    # the noise-free run, then one per replicate at 0.1
    assert len(runs) == 1 + 3
    assert runs[0] is d and all(noised != d for noised in runs[1:])
    assert rows[0].num_features > d.k  # uFC constructed something to reuse
    got, want = io.StringIO(), io.StringIO()
    write_noise_csv(rows, got)
    write_noise_csv(rows_with_a_run_per_replicate(d, pcts, 3, seed=2), want)
    assert got.getvalue() == want.getvalue()


@pytest.mark.parametrize("bad", [1.5, -0.1, math.nan])
def test_bad_fraction_raises_before_any_run(bad, runs):
    d = small_dataset()
    with pytest.raises(ValueError, match=r"noise fraction must be in \[0, 1\]"):
        noise_experiment(d, (0.0, 0.05, bad), replicates=5)
    assert runs == []
    with pytest.raises(ValueError, match=r"noise fraction must be in \[0, 1\]"):
        inject_noise(d, bad, seed=0)


def test_zero_replicates_raises_before_any_run(runs):
    with pytest.raises(ValueError, match="replicates must be >= 1"):
        noise_experiment(small_dataset(), (0.0, 0.05), replicates=0)
    assert runs == []

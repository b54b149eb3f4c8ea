"""Seeded synthetic inputs for the benchmark.

The generator is the one ROADMAP.md describes for its baseline table:
k/4 latent Bernoulli(0.4) columns, and feature j is
latent[j mod k/4] XOR Bernoulli(0.10 + 0.02 * (j mod 5)).  The draw order
is fixed (all latent columns first, then one noise column per feature),
so ``matrix(2000, 20, 0)`` and ``matrix(5000, 60, 0)`` are the S and M
datasets of that table.
"""

from __future__ import annotations

import numpy as np

SIZES = {
    "S": (2000, 20),
    "M": (5000, 60),
    "L": (20000, 100),
    "W": (50000, 60),
}


def matrix(n: int, k: int, seed) -> np.ndarray:
    """(n, k) bool matrix; ``seed`` goes to ``np.random.default_rng``."""
    rng = np.random.default_rng(seed)
    groups = k // 4
    latent = rng.random((n, groups)) < 0.4
    cols = [
        latent[:, j % groups] ^ (rng.random(n) < 0.10 + 0.02 * (j % 5))
        for j in range(k)
    ]
    return np.column_stack(cols)


def feature_names(k: int) -> list[str]:
    return [f"f{j}" for j in range(k)]


def csv_bytes(x: np.ndarray) -> bytes:
    """Strict 0/1 CSV with a header row, as ``boolfc.dataset`` reads it."""
    n, k = x.shape
    header = ",".join(feature_names(k)) + "\n"
    body = np.full((n, 2 * k), ord(","), dtype=np.uint8)
    body[:, 0::2] = x.astype(np.uint8) + ord("0")
    body[:, -1] = ord("\n")
    return header.encode() + body.tobytes()


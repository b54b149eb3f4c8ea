"""Grid sweeps over (threshold, iteration cap), Pareto-front extraction
in the (OI, C0) plane, and the closest-point selection rule."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence, TextIO

from .dataset import Dataset, csv_table, write_table
from .ufc import FixedMode, UfcConfig, ufc_run

SWEEP_CSV_HEADER = "lambda,limit_iter,num_features,oi,c0,c1,rms"


@dataclass(frozen=True)
class Solution:
    """One run's summary point for Pareto analysis."""

    threshold: float
    limit_iter: int
    num_features: int
    oi: float
    c0: float
    c1: float
    rms: float

    def distance_to_origin(self) -> float:
        return math.sqrt(self.oi * self.oi + self.c0 * self.c0)


def sweep(
    d: Dataset,
    thresholds: Sequence[float],
    iters: Sequence[int],
    pruning: bool = False,
) -> list[Solution]:
    """One Solution per (threshold, limit_iter) grid point.  A single run
    at max(iters) per threshold provides every lower-iteration point from
    its trajectory, which matches independent runs exactly."""
    if not thresholds or not iters:
        raise ValueError("sweep grids must be non-empty")
    iters = sorted(set(int(t) for t in iters))
    if iters[0] < 1:
        raise ValueError("iteration counts must be >= 1")
    out: list[Solution] = []
    for lam in thresholds:
        cfg = UfcConfig(FixedMode(lam, iters[-1]), candidate_pruning=pruning)
        result = ufc_run(d, cfg)
        traj = result.trajectory
        for t in iters:
            rep = traj[min(t, len(traj) - 1)]
            out.append(
                Solution(
                    threshold=float(lam),
                    limit_iter=t,
                    num_features=rep.m,
                    oi=rep.oi,
                    c0=rep.c0,
                    c1=rep.c1,
                    rms=rep.rms,
                )
            )
    return out


def pareto_front(sols: Sequence[Solution]) -> list[Solution]:
    """Non-dominated subset, sorted by OI ascending; coordinate duplicates
    collapse to the first in input order."""
    # One pass in (OI, C0) order (Kung, Luccio and Preparata, 1975): a
    # point is on the front exactly when its C0 is below every C0 before
    # it.  The sort is stable, so the first of equal points is kept.
    front: list[Solution] = []
    for s in sorted(sols, key=lambda s: (s.oi, s.c0)):
        if not front or s.c0 < front[-1].c0:
            front.append(s)
    return front


def closest_point(sols: Sequence[Solution]) -> Solution:
    """Solution with minimal Euclidean distance to the ideal point (0, 0);
    ties broken by smaller C0, then smaller threshold, then fewer iterations."""
    if not sols:
        raise ValueError("closest_point needs at least one solution")
    return min(
        sols,
        key=lambda s: (s.distance_to_origin(), s.c0, s.threshold, s.limit_iter),
    )


def write_sweep_csv(sols: Iterable[Solution], out: TextIO) -> None:
    write_table(SWEEP_CSV_HEADER, sols, out)


def _finite(name: str, cell: str) -> float:
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {cell!r}")
    return value


def read_sweep_csv(stream: TextIO) -> list[Solution]:
    """Parse a sweep CSV; a malformed row, or a non-finite real, raises
    ValueError with its 1-based line number."""
    table = csv_table(stream, ValueError)
    _, header = next(table, (None, []))  # an empty file has no header
    if [h.strip() for h in header] != SWEEP_CSV_HEADER.split(","):
        raise ValueError(f"unexpected sweep CSV header: {header}")
    out = []
    for line, (lam, limit_iter, m, oi, c0, c1, rms_) in table:
        try:
            out.append(
                Solution(
                    threshold=_finite("lambda", lam),
                    limit_iter=int(limit_iter),
                    num_features=int(m),
                    oi=_finite("oi", oi),
                    c0=_finite("c0", c0),
                    c1=_finite("c1", c1),
                    rms=_finite("rms", rms_),
                )
            )
        except ValueError as err:
            raise ValueError(f"line {line}: {err}") from None
    return out


def solution_json_dict(s: Solution) -> dict:
    """The fields of ``s``, with ``threshold`` under its CLI name ``lambda``."""
    out = asdict(s)
    out["lambda"] = out.pop("threshold")
    return out

"""Boolean datasets: strict 0/1 CSV loading, column access, noise injection.

A dataset is an immutable n-by-k Boolean matrix with named columns.
Feature names must match the identifier grammar of :mod:`boolfc.expr`
so they can appear in expressions without quoting.
"""

from __future__ import annotations

import csv
import io
from typing import TextIO, Union

import numpy as np

from .expr import IDENT_RE


class DatasetError(Exception):
    """Invalid dataset content; message carries the offending line number."""


def check_feature_names(names) -> None:
    """Raise DatasetError unless ``names`` are at least 2 distinct identifiers."""
    if len(names) < 2:
        raise DatasetError("a dataset needs at least 2 features")
    seen = set()
    for name in names:
        if not name:
            raise DatasetError("empty feature name")
        if not IDENT_RE.fullmatch(name):
            raise DatasetError(f"invalid feature name {name!r}")
        if name in seen:
            raise DatasetError(f"duplicate feature name {name!r}")
        seen.add(name)


class Dataset:
    """Immutable Boolean dataset with column-oriented access."""

    def __init__(self, feature_names, matrix: np.ndarray):
        names = [str(s).strip() for s in feature_names]
        check_feature_names(names)
        matrix = np.asarray(matrix, dtype=bool)
        if matrix.ndim != 2 or matrix.shape[1] != len(names):
            raise DatasetError("matrix shape does not match feature names")
        if matrix.shape[0] < 1:
            raise DatasetError("a dataset needs at least 1 row")
        matrix = matrix.copy()
        matrix.setflags(write=False)
        self.feature_names = tuple(names)
        self.name_index = {name: i for i, name in enumerate(names)}
        self._matrix = matrix
        self._unique_rows: int | None = None  # memo of unique_count

    @property
    def n(self) -> int:
        return self._matrix.shape[0]

    @property
    def k(self) -> int:
        return self._matrix.shape[1]

    @property
    def matrix(self) -> np.ndarray:
        """Read-only (n, k) bool view."""
        return self._matrix

    def column(self, name: str) -> np.ndarray:
        return self._matrix[:, self.name_index[name]]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Dataset)
            and self.feature_names == other.feature_names
            and np.array_equal(self._matrix, other._matrix)
        )

    def __repr__(self) -> str:
        return f"Dataset(n={self.n}, k={self.k})"


def load_dataset(source: Union[str, bytes, TextIO]) -> Dataset:
    """Load a strict 0/1 CSV with a header row of feature names.

    ``source`` may be a filesystem path, raw bytes, or a text stream.
    Paths and bytes are UTF-8, with or without a byte-order mark.
    Errors are reported with their 1-based line number.
    """
    if isinstance(source, bytes):
        stream: TextIO = io.StringIO(source.decode("utf-8-sig"))
    elif isinstance(source, str):
        stream = open(source, "r", encoding="utf-8-sig", newline="")
    else:
        stream = source
    try:
        reader = csv.reader(stream)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError("line 1: missing header row") from None
        names = [cell.strip() for cell in header]
        try:
            check_feature_names(names)
        except DatasetError as err:
            raise DatasetError(f"line 1: {err}") from None
        rows = []
        for lineno, cells in enumerate(reader, start=2):
            if not cells:
                continue
            if len(cells) != len(names):
                raise DatasetError(
                    f"line {lineno}: expected {len(names)} cells, got {len(cells)}"
                )
            row = []
            for cell in cells:
                cell = cell.strip()
                if cell == "0":
                    row.append(False)
                elif cell == "1":
                    row.append(True)
                else:
                    raise DatasetError(f"line {lineno}: non-binary cell {cell!r}")
            rows.append(row)
        if not rows:
            raise DatasetError("line 2: no data rows")
        return Dataset(names, np.array(rows, dtype=bool))
    finally:
        if isinstance(source, str):
            stream.close()


def dump_dataset(d: Dataset, out: TextIO) -> None:
    out.write(",".join(d.feature_names) + "\n")
    for row in d.matrix:
        out.write(",".join("1" if v else "0" for v in row) + "\n")


def save_dataset(d: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        dump_dataset(d, fh)


def unique_count(d: Dataset) -> int:
    """Number of distinct full rows, computed once per (immutable) dataset."""
    if d._unique_rows is None:
        d._unique_rows = len(np.unique(d.matrix, axis=0))
    return d._unique_rows


def inject_noise(d: Dataset, pct: float, seed: int) -> Dataset:
    """Flip exactly round(pct * k * n) distinct cells, chosen by ``seed``."""
    if not 0.0 <= pct <= 1.0:
        raise ValueError(f"noise fraction must be in [0, 1], got {pct}")
    total = d.n * d.k
    flips = int(round(pct * total))
    matrix = np.array(d.matrix)
    if flips:
        rng = np.random.default_rng(seed)
        cells = rng.choice(total, size=flips, replace=False)
        flat = matrix.reshape(-1)
        flat[cells] = ~flat[cells]
    return Dataset(d.feature_names, matrix)

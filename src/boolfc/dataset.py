"""Boolean datasets: strict 0/1 CSV loading, column access, noise injection.

A dataset is an immutable n-by-k Boolean matrix with named columns.
Feature names must match the identifier grammar of :mod:`boolfc.expr`
so they can appear in expressions without quoting.

A regular CSV file (the layout ``dump_dataset`` writes, with LF or CRLF
endings and an optional byte-order mark) is validated and converted
straight from its bytes, a block of rows at a time; anything else goes
through the strict ``csv`` parser, the only code that reports errors.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import astuple
from typing import BinaryIO, Iterable, Iterator, TextIO, Union

import numpy as np

from .expr import IDENT_RE, utf8_error
from .stats import BLOCK_BYTES, pack_columns, row_mask, unpack_columns


class DatasetError(ValueError):
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
    """Immutable Boolean dataset with column-oriented access.

    The k columns are kept only as a read-only (k, ceil(n / 64)) uint64
    array, ``words``, laid out as ``stats.pack_columns`` makes it, with
    every bit past row n zero; ``matrix`` unpacks it on each read."""

    def __init__(self, feature_names, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=bool)
        if matrix.ndim != 2 or matrix.shape[1] != len(feature_names):
            raise DatasetError("matrix shape does not match feature names")
        self._bind(feature_names, matrix.shape[0], pack_columns(matrix))

    @classmethod
    def from_words(cls, feature_names, words: np.ndarray, n: int) -> "Dataset":
        """The dataset of n rows whose columns are the rows of ``words``,
        laid out as ``stats.pack_columns`` makes them, with no bit set past
        row n.  ``words`` is kept as is if it is read-only and owns its
        data, else copied: the owner of a writeable array or of a view
        could still change it."""
        words = np.asarray(words, dtype=np.uint64)
        if words.shape != (len(feature_names), -(-n // 64)):
            raise DatasetError("word array shape does not match feature names")
        if words.flags.writeable or not words.flags.owndata:
            words = words.copy()
        d = cls.__new__(cls)
        d._bind(feature_names, n, words)
        if (words[:, -1] & ~row_mask(n)[-1]).any():  # only the last word has rows >= n
            raise DatasetError(f"a bit past the {n} rows is set")
        return d

    def _bind(self, feature_names, n, words) -> None:
        names = [str(s).strip() for s in feature_names]
        check_feature_names(names)
        if n < 1:
            raise DatasetError("a dataset needs at least 1 row")
        words.setflags(write=False)
        self.feature_names = tuple(names)
        self.name_index = {name: i for i, name in enumerate(names)}
        self._n = n
        self._words = words
        self._unique_rows: int | None = None  # memo of unique_count

    @property
    def n(self) -> int:
        return self._n

    @property
    def k(self) -> int:
        return len(self.feature_names)

    @property
    def matrix(self) -> np.ndarray:
        """Read-only (n, k) bool matrix, unpacked from ``words`` on each read."""
        matrix = unpack_columns(self._words, self._n)
        matrix.setflags(write=False)
        return matrix

    @property
    def words(self) -> np.ndarray:
        """Read-only (k, ceil(n / 64)) uint64 words of the columns."""
        return self._words

    def column(self, name: str) -> np.ndarray:
        return self.matrix[:, self.name_index[name]]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Dataset)
            and self.feature_names == other.feature_names
            and self.n == other.n
            and np.array_equal(self.words, other.words)
        )

    def __repr__(self) -> str:
        return f"Dataset(n={self.n}, k={self.k})"


_BOM = b"\xef\xbb\xbf"


def load_dataset(source: Union[str, os.PathLike, bytes]) -> Dataset:
    """Load a strict 0/1 CSV with a header row of feature names.

    ``source`` is a filesystem path (``str`` or ``os.PathLike``) or the
    file's raw bytes, UTF-8, with or without a byte-order mark.  Errors
    are reported with their 1-based line number.

    The file is read a block at a time; a path that cannot seek is read
    whole first.  Bytes are read in place: a ``BytesIO`` shares their
    buffer.  A file that is not regular is read whole, once, for the
    strict parser.
    """
    if isinstance(source, bytes):
        fh = io.BytesIO(source)
    else:
        fh = open(source, "rb")
    with fh:
        if not fh.seekable():  # a pipe; `with` still closes the file it opened
            fh = io.BytesIO(fh.read())
        d = _load_regular(fh)
        if d is not None:
            return d
        fh.seek(0)
        raw = fh.read()
    try:
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError:
        raise DatasetError(utf8_error(raw)) from None
    return _load_strict(io.StringIO(text, newline=""))


def _load_regular(source: BinaryIO) -> Dataset | None:
    """The dataset of a regular CSV, or None when the file is not regular.

    ``source`` is a binary stream at the file's start that can seek.
    Regular: an optional byte-order mark; a header line of k valid names,
    without quotes or carriage returns; one or more data lines, each
    exactly k cells of 0 or 1 joined by commas; every line ending in LF,
    or every line in CRLF.  So the number of rows follows from the size.

    The body is read as an (n, line length) byte matrix, a block of about
    ``BLOCK_BYTES``, a multiple of 64 rows, at a time, into one reused
    buffer.  Each block's cells are packed into the block's own words of
    the columns, then the block is masked in place and checked against
    the row pattern.  No (n, k) temporary is built.
    """
    header = source.readline()
    size = source.seek(0, os.SEEK_END)
    crlf = header.endswith(b"\r\n")
    names = header[len(_BOM) if header.startswith(_BOM) else 0:-1 - crlf]
    if not header.endswith(b"\n") or b'"' in names or b"\r" in names:
        return None
    try:
        names = [cell.strip() for cell in next(csv.reader([names.decode()]))]
        check_feature_names(names)
    except (UnicodeDecodeError, csv.Error, DatasetError):
        return None
    k = len(names)
    want = np.frombuffer(b"0," * (k - 1) + b"0" + b"\r" * crlf + b"\n", np.uint8)
    # '0' and '1' differ only in their lowest bit: mask it out at the cells
    mask = np.frombuffer(b"\xfe\xff" * k + b"\xff" * crlf, np.uint8)
    n, rest = divmod(size - len(header), want.size)
    if n < 1 or rest:
        return None
    rows = max(64, BLOCK_BYTES // want.size // 64 * 64)
    buf = np.empty((min(rows, n), want.size), np.uint8)
    source.seek(len(header))
    words = np.empty((k, -(-n // 64)), dtype=np.uint64)
    for top in range(0, n, rows):
        block = buf[:n - top]
        if source.readinto(block) < block.nbytes:  # the file shrank
            return None
        # F-ordered cells pack with no copy; unnamed, they are freed at once
        words[:, top // 64:(top + rows) // 64] = pack_columns(
            np.equal(block[:, 0:2 * k:2], ord("1"), order="F"))
        # the buffer, packed already, is masked where it lies
        if not (np.bitwise_and(block, mask, out=block) == want).all():
            return None
    words.setflags(write=False)
    return Dataset.from_words(names, words, n)


def csv_table(stream: TextIO, error: type[Exception]) -> Iterator[tuple[int, list[str]]]:
    """The records of a CSV text stream as ``(line, cells)``: the header
    record first, even when blank, then every nonblank record.  ``line``
    is the physical line the record ends on, so a quoted cell may span
    lines.  A record whose width differs from the header's, or a
    ``csv.Error`` such as a cell over the field size limit, raises
    ``error`` naming its line."""
    reader = csv.reader(stream)
    width = None
    try:
        for cells in reader:
            if width is None:
                width = len(cells)
            elif not cells:
                continue
            elif len(cells) != width:
                raise error(
                    f"line {reader.line_num}: expected {width} cells, got {len(cells)}"
                )
            yield reader.line_num, cells
    except csv.Error as err:
        raise error(f"line {reader.line_num}: {err}") from None


def write_table(header: str, rows: Iterable, out: TextIO) -> None:
    """Write ``header``, then one line per dataclass row: its fields in
    order, joined by commas, integers as ``str`` and reals as ``.10g``."""
    out.write(header + "\n")
    for row in rows:
        out.write(",".join(str(v) if isinstance(v, (int, np.integer))
                           else format(v, ".10g") for v in astuple(row)) + "\n")


def _load_strict(stream: TextIO) -> Dataset:
    """Parse a text stream cell by cell, reporting the first bad line."""
    table = csv_table(stream, DatasetError)
    try:
        line, header = next(table)
    except StopIteration:
        raise DatasetError("line 1: missing header row") from None
    names = [cell.strip() for cell in header]
    try:
        check_feature_names(names)
    except DatasetError as err:
        raise DatasetError(f"line {line}: {err}") from None
    rows = []
    for line, cells in table:
        cells = [cell.strip() for cell in cells]
        for cell in cells:
            if cell not in ("0", "1"):
                raise DatasetError(f"line {line}: non-binary cell {cell!r}")
        rows.append([cell == "1" for cell in cells])
    if not rows:
        raise DatasetError("line 2: no data rows")
    return Dataset(names, np.array(rows, dtype=bool))


def dump_dataset(d: Dataset, out: BinaryIO) -> None:
    """Write the header, then the rows in blocks of about ``BLOCK_BYTES``,
    to a binary stream.  Each block is unpacked from the dataset's words
    and rendered into one reused byte buffer, which is written as it is.
    A block is a multiple of 8 rows, so it starts on a row that
    ``unpack_columns`` can start from."""
    out.write((",".join(d.feature_names) + "\n").encode())
    n, k = d.n, d.k
    rows = max(8, BLOCK_BYTES // (2 * k) // 8 * 8)
    buf = np.full((min(rows, n), 2 * k), ord(","), dtype=np.uint8)
    buf[:, -1] = ord("\n")
    for top in range(0, n, rows):
        count = min(rows, n - top)
        bits = unpack_columns(d.words, count, top).T  # (k, count): the add runs contiguous
        buf[:count, 0::2] = np.add(bits, ord("0"), dtype=np.uint8).T
        out.write(buf[:count])


def save_dataset(d: Dataset, path) -> None:
    with open(path, "wb") as fh:
        dump_dataset(d, fh)


def unique_count(d: Dataset) -> int:
    """Number of distinct full rows, computed once per (immutable) dataset
    by sorting the rows, packed into 64-bit words, and counting changes.
    The rows are unpacked and packed a block of about ``BLOCK_BYTES`` at a
    time, so no (n, k) matrix is built."""
    if d._unique_rows is None:
        step = max(64, BLOCK_BYTES // d.k // 64 * 64)  # rows per block
        rows = np.concatenate([  # (n, ceil(k / 64))
            pack_columns(unpack_columns(d.words, min(step, d.n - top), top).T)
            for top in range(0, d.n, step)])
        rows = rows[np.lexsort(rows.T)]  # equal rows end up adjacent
        d._unique_rows = 1 + int((rows[1:] != rows[:-1]).any(axis=1).sum())
    return d._unique_rows


def check_noise_fraction(pct: float) -> None:
    """Raise ValueError unless ``pct`` is a fraction in [0, 1] (NaN is not)."""
    if not 0.0 <= pct <= 1.0:
        raise ValueError(f"noise fraction must be in [0, 1], got {pct}")


def inject_noise(d: Dataset, pct: float, seed: int) -> Dataset:
    """Flip exactly round(pct * k * n) distinct cells, chosen by ``seed``;
    with no cell to flip, ``d`` itself."""
    check_noise_fraction(pct)
    total = d.n * d.k
    flips = int(round(pct * total))
    if not flips:
        return d
    matrix = np.array(d.matrix, order="C")  # cells are flipped in row order
    rng = np.random.default_rng(seed)
    cells = rng.choice(total, size=flips, replace=False)
    flat = matrix.reshape(-1)
    flat[cells] = ~flat[cells]
    return Dataset(d.feature_names, matrix)

import io
import os
import threading
import tracemalloc
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolfc import dataset as ds
from boolfc.dataset import (
    Dataset,
    DatasetError,
    dump_dataset,
    inject_noise,
    load_dataset,
    unique_count,
    write_table,
)
from boolfc.stats import pack_columns, unpack_columns


def load(text: str) -> Dataset:
    return load_dataset(text.encode())


def test_minimal_well_formed():
    d = load("a,b\n1,0\n0,1\n")
    assert d.n == 2 and d.k == 2
    assert d.feature_names == ("a", "b")
    assert d.column("a").tolist() == [True, False]


def test_crlf_and_bytes_input():
    d = load_dataset(b"a,b\r\n1,0\r\n0,1\r\n")
    assert d.n == 2 and d.k == 2


def test_bom_and_crlf_from_path_and_bytes(tmp_path):
    plain = load("a,b\n1,0\n0,1\n")
    raw = "\ufeffa,b\r\n1,0\r\n0,1\r\n".encode("utf-8")
    path = tmp_path / "bom.csv"
    path.write_bytes(raw)
    assert load_dataset(str(path)) == plain
    assert load_dataset(raw) == plain


def test_path_of_any_kind_and_nothing_else(tmp_path):
    path = tmp_path / "data.csv"
    path.write_bytes(b"a,b\n1,0\n0,1\n")
    want = Dataset(["a", "b"], np.array([[1, 0], [0, 1]], dtype=bool))
    assert load_dataset(path) == load_dataset(str(path)) == want
    with path.open() as stream, pytest.raises(TypeError):
        load_dataset(stream)  # a text stream is no longer read


@pytest.mark.parametrize("raw", [b"a,b\r1,0\r0,1\r", b"a,b\n1,0\r0,1\n"],
                         ids=["cr_only", "lone_cr"])
def test_cr_line_ends_load_alike_from_bytes_and_path(raw, tmp_path):
    path = tmp_path / "cr.csv"
    path.write_bytes(raw)
    want = Dataset(["a", "b"], np.array([[1, 0], [0, 1]], dtype=bool))
    assert load_dataset(raw) == load_dataset(str(path)) == want


@pytest.mark.parametrize("raw", [
    b"a,b\n1,0\n0,1\n",
    b"\xef\xbb\xbfa,b\r\n1,0\r\n0,1\r\n",
    b"a,b\r1,0\r0,1\r",
    b"a, b\n1,0\n\n0,1",
    b"a,b\n1,0\n0,2\n",
], ids=["regular", "bom_crlf", "cr_only", "irregular", "bad_cell"])
def test_path_that_cannot_seek_loads_as_its_bytes(raw, tmp_path):
    fifo = tmp_path / "data.csv"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(raw,), daemon=True)
    writer.start()  # it opens the FIFO when the loader does
    got = outcome(lambda: load_dataset(fifo))
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert got == outcome(lambda: load_dataset(raw))


@pytest.mark.parametrize(
    "header, message",
    [
        ("a", "a dataset needs at least 2 features"),
        ("a,", "empty feature name"),
        ("a,b c", "invalid feature name 'b c'"),
        ("a,b,a", "duplicate feature name 'a'"),
    ],
)
def test_header_errors_match_constructor_with_line_prefix(header, message):
    with pytest.raises(DatasetError) as from_csv:
        load(header + "\n" + ",".join("1" * (header.count(",") + 1)) + "\n")
    assert str(from_csv.value) == "line 1: " + message
    names = header.split(",")
    with pytest.raises(DatasetError) as from_names:
        Dataset(names, np.zeros((1, len(names)), dtype=bool))
    assert str(from_names.value) == message


def test_duplicate_name_rejected():
    with pytest.raises(DatasetError, match="duplicate"):
        load("a,a\n1,0\n")


def test_non_binary_cell_reports_line():
    # a quoted cell may span lines: the error names the physical line
    for text, line in (("a,b\n1,2\n", 2), ('a,b\n"1\n",0\n1,2\n', 4)):
        with pytest.raises(DatasetError, match=f"^line {line}: non-binary"):
            load(text)


def test_cell_over_the_csv_field_limit_reports_line():
    huge = '"' + "1" * 200_000 + '"'
    for raw, line in ((huge + ",b\n1,0\n", 1), ("a,b\n" + huge + ",0\n", 2),
                      ("a,b\n1,0\n" + huge + ",0\n", 3)):
        with pytest.raises(DatasetError, match=f"^line {line}: field larger than"):
            load_dataset(raw.encode())


def test_ragged_row_reports_line():
    for text, line in (("a,b\n1,0\n1\n", 3), ('a,b\n"1\n",0\n1\n', 4)):
        with pytest.raises(DatasetError, match=f"^line {line}: expected 2 cells"):
            load(text)


def test_empty_name_rejected():
    with pytest.raises(DatasetError):
        load("a,\n1,0\n")


def test_invalid_identifier_rejected():
    with pytest.raises(DatasetError, match="invalid"):
        load("a,b c\n1,0\n")


def test_needs_two_features():
    with pytest.raises(DatasetError):
        load("a\n1\n")


def test_needs_one_row():
    with pytest.raises(DatasetError):
        load("a,b\n")
    with pytest.raises(DatasetError, match="at least 1 row"):
        Dataset.from_words(["a", "b"], np.zeros((2, 0), np.uint64), 0)


def test_matrix_shape_must_match_names():
    for matrix in (np.zeros((3, 3), bool), np.zeros(3, bool)):
        with pytest.raises(DatasetError, match="matrix shape does not match"):
            Dataset(["a", "b"], matrix)


def test_row_and_column_views_agree():
    d = load("a,b,c\n1,0,1\n0,1,1\n")
    for j, name in enumerate(d.feature_names):
        assert np.array_equal(d.column(name), d.matrix[:, j])


@given(
    st.integers(1, 20),
    st.integers(2, 6),
    st.randoms(use_true_random=False),
)
@settings(max_examples=50, deadline=None)
def test_roundtrip_identity(n, k, rnd):
    names = [f"f{i}" for i in range(k)]
    matrix = np.array(
        [[rnd.random() < 0.5 for _ in range(k)] for _ in range(n)], dtype=bool
    )
    d = Dataset(names, matrix)
    buf = io.BytesIO()
    dump_dataset(d, buf)
    d2 = load_dataset(buf.getvalue())
    assert d2 == d


def test_unique_count_examples():
    # rows {10, 10, 01} -> 2 (hash-set oracle)
    d = load("a,b\n1,0\n1,0\n0,1\n")
    assert unique_count(d) == 2
    assert unique_count(d) == len({tuple(r) for r in d.matrix.tolist()})
    # all identical -> 1; all distinct -> n
    d_same = load("a,b\n1,1\n1,1\n1,1\n")
    assert unique_count(d_same) == 1
    d_diff = load("a,b\n0,0\n0,1\n1,0\n1,1\n")
    assert unique_count(d_diff) == 4


@pytest.mark.parametrize("k", [2, 8, 9, 63, 64, 65, 130])
@given(
    st.one_of(st.integers(1, 60), st.integers(60, 300)),
    st.integers(1, 8),
    st.booleans(),
    st.integers(0, 2**32 - 1),
    # a budget of 0 packs the rows 64 at a time, so the larger n span blocks
    st.sampled_from([0, ds.BLOCK_BYTES]),
)
@settings(max_examples=40, deadline=None)
def test_unique_count_equals_unique_rows(k, n, distinct, one_bit_apart, seed, budget):
    # rows drawn from a few patterns, so most rows repeat; patterns one bit
    # apart differ in a single column, in any byte or word of a packed row
    rng = np.random.default_rng(seed)
    if one_bit_apart:
        pool = np.repeat(rng.random((1, k)) < 0.5, distinct, axis=0)
        pool[np.arange(distinct), rng.integers(0, k, distinct)] ^= True
    else:
        pool = rng.random((distinct, k)) < 0.5
    matrix = pool[rng.integers(0, distinct, n)]
    names = [f"f{j}" for j in range(k)]
    with mock.patch.object(ds, "BLOCK_BYTES", budget):
        assert unique_count(Dataset(names, matrix)) == len(np.unique(matrix, axis=0))
        assert unique_count(Dataset(names, matrix[:1])) == 1


@pytest.mark.parametrize("budget", [0, ds.BLOCK_BYTES], ids=["64-rows", "default"])
def test_unique_count_of_distinct_rows_across_blocks(budget):
    n, k = 3 * 64 + 5, 70  # four 64-row blocks at a budget of 0; two words a row
    rng = np.random.default_rng(5)
    matrix = np.zeros((n, k), bool)
    matrix[:, :10] = rng.permutation(1 << 10)[:n, None] >> np.arange(10) & 1  # distinct
    matrix[:, 10:] = rng.random((n, k - 10)) < 0.5
    names = [f"f{j}" for j in range(k)]
    repeat = matrix.copy()
    repeat[-1] = repeat[64]  # the last row repeats the first row of the second block
    with mock.patch.object(ds, "BLOCK_BYTES", budget):
        assert unique_count(Dataset(names, matrix)) == n
        assert unique_count(Dataset(names, repeat)) == n - 1


def test_unique_count_row_permutation_invariant():
    rng = np.random.default_rng(0)
    matrix = rng.random((30, 3)) < 0.5
    d = Dataset(["a", "b", "c"], matrix)
    shuffled = Dataset(["a", "b", "c"], matrix[rng.permutation(30)])
    assert unique_count(d) == unique_count(shuffled)
    assert unique_count(d) <= d.n


def test_inject_noise_zero_is_identity():
    # no cell to flip gives the dataset itself, also for a nonzero
    # fraction that rounds to zero flips (0.4 of one cell)
    d = load("a,b\n1,0\n0,1\n")
    assert inject_noise(d, 0.0, seed=1) is d
    assert inject_noise(d, 0.4 / (d.n * d.k), seed=1) is d


def test_inject_noise_exact_flip_count():
    # pct=0.10, k=13, n=264 -> round(343.2) = 343 cells differ
    rng = np.random.default_rng(42)
    d = Dataset([f"f{i}" for i in range(13)], rng.random((264, 13)) < 0.5)
    noised = inject_noise(d, 0.10, seed=7)
    assert int(np.count_nonzero(noised.matrix != d.matrix)) == 343


def test_inject_noise_deterministic():
    rng = np.random.default_rng(5)
    d = Dataset(["a", "b", "c"], rng.random((50, 3)) < 0.5)
    assert inject_noise(d, 0.2, seed=9) == inject_noise(d, 0.2, seed=9)


def test_inject_noise_double_flip_restores():
    rng = np.random.default_rng(5)
    d = Dataset(["a", "b", "c"], rng.random((50, 3)) < 0.5)
    once = inject_noise(d, 0.3, seed=11)
    # re-flipping the same cells (same seed, same grid) restores the original
    twice = inject_noise(once, 0.3, seed=11)
    assert twice == d


def test_inject_noise_rejects_out_of_range():
    d = load("a,b\n1,0\n")
    with pytest.raises(ValueError, match=r"^noise fraction must be in \[0, 1\], got 1\.5$"):
        inject_noise(d, 1.5, seed=0)
    with pytest.raises(ValueError, match=r"^noise fraction must be in \[0, 1\], got -0\.1$"):
        inject_noise(d, -0.1, seed=0)


def test_dataset_immutable():
    d = load("a,b\n1,0\n")
    with pytest.raises(ValueError, match="read-only"):
        d.matrix[0, 0] = False


def test_dataset_keeps_its_own_copy_of_a_writeable_matrix():
    source = np.zeros((2, 2), dtype=bool)
    d = Dataset(["a", "b"], source)
    source[0, 0] = True
    assert not d.matrix.any()


def test_dataset_keeps_its_own_copy_of_a_read_only_view():
    base = np.zeros((2, 3), dtype=bool)
    view = base[:, :2]
    view.setflags(write=False)
    d = Dataset(["a", "b"], view)
    base[0, 0] = True
    assert not d.matrix.any()


def test_dataset_keeps_only_its_own_read_only_words():
    n, names = 70, ["a", "b", "c"]
    matrix = np.random.default_rng(4).random((n, 3)) < 0.5
    want = matrix.copy()
    words = pack_columns(matrix)
    built = [Dataset(names, matrix), Dataset.from_words(names, words, n)]
    matrix[...] = ~matrix  # neither the source matrix nor the words reach d
    words[...] = ~words
    for d in built:
        assert np.array_equal(d.matrix, want)
        assert np.array_equal(d.words, pack_columns(want))
        assert not d.words.flags.writeable and not d.matrix.flags.writeable
        assert not np.unpackbits(d.words.view(np.uint8), axis=1)[:, n:].any()
        arrays = [v for v in vars(d).values() if isinstance(v, np.ndarray)]
        assert len(arrays) == 1 and arrays[0] is d.words  # even after reads
    owned = pack_columns(want)
    owned.setflags(write=False)
    assert Dataset.from_words(names, owned, n).words is owned
    view = pack_columns(want)[:, :]
    view.setflags(write=False)
    assert Dataset.from_words(names, view, n).words is not view


# -- regular-file fast path against the strict parser --------------------------


def outcome(load):
    """A loaded Dataset, or the text of the DatasetError the load raised."""
    try:
        return load()
    except DatasetError as err:
        return f"DatasetError: {err}"


def csv_lines(matrix) -> list[bytes]:
    header = ",".join(f"f{j}" for j in range(matrix.shape[1]))
    rows = [",".join("1" if v else "0" for v in row) for row in matrix]
    return [line.encode() for line in [header, *rows]]


def _space(lines, i):
    lines[i] = lines[i].replace(b",", b", ", 1)


def _blank(lines, i):
    lines.insert(i, b"")


def _two(lines, i):
    lines[i] = b"2" + lines[i][1:]


def _short(lines, i):
    lines[i] = lines[i].rsplit(b",", 1)[0]


def _quoted_header(lines, i):
    lines[0] = b'"' + lines[0].replace(b",", b'",', 1)


# each makes a file the fast path must decline; the strict parser then
# loads it or reports the error
IRREGULAR = {
    "space": _space,
    "blank line": _blank,
    "non-binary cell": _two,
    "short row": _short,
    "quoted header": _quoted_header,
    "missing final newline": None,
    "mixed endings": None,
}


@given(
    st.one_of(st.integers(1, 5), st.integers(60, 200)),
    st.integers(2, 5),
    st.booleans(),
    st.booleans(),
    st.sampled_from([None, *IRREGULAR]),
    # a budget of 0 loads 64 rows per block, so the larger files span blocks
    st.sampled_from([0, ds.BLOCK_BYTES]),
    st.data(),
)
@settings(max_examples=300, deadline=None)
def test_load_equals_strict_parser(tmp_path_factory, n, k, crlf, bom, irregular, budget, data):
    matrix = data.draw(st.lists(
        st.lists(st.booleans(), min_size=k, max_size=k), min_size=n, max_size=n,
    ))
    lines = csv_lines(np.array(matrix, dtype=bool))
    mutate = IRREGULAR.get(irregular)
    if mutate is not None:
        mutate(lines, data.draw(st.integers(1, n)))
    eol = b"\r\n" if crlf else b"\n"
    raw = b"".join(line + eol for line in lines)
    if irregular == "missing final newline":
        raw = raw[:-len(eol)]
    elif irregular == "mixed endings":
        raw = raw[:-len(eol)] + (b"\n" if crlf else b"\r\n")
    if bom:
        raw = "\ufeff".encode() + raw

    path = tmp_path_factory.mktemp("csv") / "data.csv"
    path.write_bytes(raw)
    want = outcome(lambda: ds._load_strict(io.StringIO(raw.decode("utf-8-sig"))))
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        want_from_path = outcome(lambda: ds._load_strict(fh))
    with mock.patch.object(ds, "BLOCK_BYTES", budget):
        assert outcome(lambda: load_dataset(raw)) == want
        assert outcome(lambda: load_dataset(str(path))) == want_from_path
        fast = ds._load_regular(io.BytesIO(raw))
    if irregular is None:
        assert fast is not None and fast == want == want_from_path
    else:
        assert fast is None


def test_load_declines_header_only_and_empty_input():
    for raw in (b"", b"a,b", b"a,b\n", "\ufeffa,b\r\n".encode()):
        assert ds._load_regular(io.BytesIO(raw)) is None
    with pytest.raises(DatasetError, match="line 2: no data rows"):
        load_dataset(b"a,b\n")
    with pytest.raises(DatasetError, match="line 1: missing header row"):
        load_dataset(b"")


K = 40


def load_rows(crlf: bool) -> int:
    """Rows per block of the loader on a regular file of K columns."""
    return max(64, ds.BLOCK_BYTES // (2 * K + crlf) // 64 * 64)


def regular_csv(n: int, crlf: bool = False, bom: bool = False):
    """A seeded n-by-K matrix and its regular CSV bytes."""
    matrix = np.random.default_rng(n).random((n, K)) < 0.5
    eol = b"\r\n" if crlf else b"\n"
    raw = b"".join(line + eol for line in csv_lines(matrix))
    return matrix, (b"\xef\xbb\xbf" if bom else b"") + raw


def names_of(matrix) -> list[str]:
    return [f"f{j}" for j in range(matrix.shape[1])]


BLOCK_BUDGETS = pytest.mark.parametrize("budget", [0, ds.BLOCK_BYTES], ids=["64-rows", "default"])


@BLOCK_BUDGETS
@pytest.mark.parametrize("extra", [-1, 0, 1, "3 blocks, BOM + CRLF"])
def test_load_at_block_bounds(budget, extra):
    with mock.patch.object(ds, "BLOCK_BYTES", budget):
        crlf = bom = isinstance(extra, str)
        n = 3 * load_rows(crlf) + 17 if crlf else load_rows(crlf) + extra
        matrix, raw = regular_csv(n, crlf, bom)
        fast = ds._load_regular(io.BytesIO(raw))
        from_bytes = load_dataset(raw)
    assert fast is not None and fast == Dataset(names_of(matrix), matrix)
    assert fast == ds._load_strict(io.StringIO(raw.decode("utf-8-sig"))) == from_bytes


def test_stream_shorter_than_its_size_is_not_regular():
    matrix, raw = regular_csv(200)

    class Shrunk(io.BytesIO):  # reports 64 more lines than it holds
        def seek(self, pos, whence=os.SEEK_SET):
            return super().seek(pos, whence) + 64 * 2 * K * (whence == os.SEEK_END)

    # 64 rows a block: the buffer still holds valid rows of the block before
    with mock.patch.object(ds, "BLOCK_BYTES", 0):
        assert ds._load_regular(io.BytesIO(raw)) == Dataset(names_of(matrix), matrix)
        assert ds._load_regular(Shrunk(raw)) is None


def _bad_cell(lines, i):
    lines[i] = b"2" + lines[i][1:]


def _comma_for_line_end(lines, i):  # lines i and i + 1 become one record
    lines[i:i + 2] = [lines[i] + b"," + lines[i + 1]]


def _cr_for_line_end(lines, i):  # the csv module ends a line at a lone CR
    lines[i:i + 2] = [lines[i] + b"\r" + lines[i + 1]]


@BLOCK_BUDGETS
@pytest.mark.parametrize("where", ["middle block", "last block"])
@pytest.mark.parametrize("mutate, error", [
    (_bad_cell, "non-binary cell '2'"),
    (_comma_for_line_end, f"expected {K} cells, got {2 * K}"),
    (_cr_for_line_end, None),
])
def test_load_falls_back_at_a_fault_in_one_block(budget, where, mutate, error):
    with mock.patch.object(ds, "BLOCK_BYTES", budget):
        rows = load_rows(False)
        matrix, regular = regular_csv(3 * rows + 5)
        lines = regular.split(b"\n")[:-1]
        # line i (1-based: header first) holds data row i - 2
        i = rows + rows // 2 if where == "middle block" else 3 * rows + 3
        mutate(lines, i - 1)
        raw = b"".join(line + b"\n" for line in lines)
        assert len(raw) == len(regular)  # the same size: only one block differs
        assert ds._load_regular(io.BytesIO(raw)) is None
        if error is None:
            assert load_dataset(raw) == Dataset(names_of(matrix), matrix)
        else:
            with pytest.raises(DatasetError, match=f"^line {i}: {error}$"):
                load_dataset(raw)


@pytest.mark.parametrize("source", ["bytes", "path"])
def test_load_builds_no_full_size_temporary(source, tmp_path):
    # a block's temporaries hold about twice BLOCK_BYTES whatever the file
    # size, so the file is large enough for a quarter of it to exceed them;
    # a path is read a block at a time, never whole
    matrix, raw = regular_csv(50000)
    assert len(raw) >= 1 << 20
    path = tmp_path / "data.csv"
    path.write_bytes(raw)
    tracemalloc.start()
    try:
        d = load_dataset(raw if source == "bytes" else path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d == Dataset(names_of(matrix), matrix)
    assert peak < len(raw) / 4, (peak, len(raw))


# -- blocked writer against the per-row writer ---------------------------------


def per_row_dump(d: Dataset, out) -> None:
    """One join per row: the writer that dump_dataset's blocks replaced."""
    out.write((",".join(d.feature_names) + "\n").encode())
    for row in d.matrix:
        out.write((",".join("1" if v else "0" for v in row) + "\n").encode())


WIDE = 75
DUMP_ROWS = ds.BLOCK_BYTES // (2 * WIDE) // 8 * 8  # rows per dump block: 1744


@pytest.mark.parametrize("n", [1, DUMP_ROWS - 1, DUMP_ROWS, DUMP_ROWS + 1])
@pytest.mark.parametrize("order", ["C", "F"])
def test_dump_equals_per_row_writer(n, order):
    matrix = np.random.default_rng(n).random((n, WIDE)) < 0.5
    matrix = np.asarray(matrix, order=order)  # packed either way: dump reads words
    d = Dataset([f"f{j}" for j in range(WIDE)], matrix)
    got, want = io.BytesIO(), io.BytesIO()
    dump_dataset(d, got)
    per_row_dump(d, want)
    assert got.getvalue() == want.getvalue()


def test_very_wide_dataset_dumps_in_eight_row_blocks():
    n, k = 21, 70000  # 2 * k bytes per row: the block floor of 8 rows applies
    assert ds.BLOCK_BYTES // (2 * k) < 8
    rng = np.random.default_rng(7)
    distinct = rng.random((5, k)) < 0.5
    matrix = distinct[rng.integers(0, len(distinct), n)]
    d = Dataset([f"f{j}" for j in range(k)], matrix)
    got, want = io.BytesIO(), io.BytesIO()
    dump_dataset(d, got)
    per_row_dump(d, want)
    assert got.getvalue() == want.getvalue()
    assert load_dataset(got.getvalue()) == d
    assert unique_count(d) == len(np.unique(matrix, axis=0))


@pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, DUMP_ROWS + 1, DUMP_ROWS + 9])
def test_dataset_from_words_dumps_and_reads_as_its_matrix(n):
    matrix = np.random.default_rng(n).random((n, WIDE)) < 0.5
    names = [f"f{j}" for j in range(WIDE)]
    d = Dataset.from_words(names, pack_columns(matrix), n)
    assert (d.n, d.k) == (n, WIDE)
    got, want = io.BytesIO(), io.BytesIO()
    dump_dataset(d, got)
    per_row_dump(Dataset(names, matrix), want)
    assert got.getvalue() == want.getvalue()
    assert np.array_equal(d.matrix, matrix) and not d.matrix.flags.writeable
    for start in [s for s in (0, 8, 64) if s <= n]:
        for stop in (min(start + 9, n), n):  # nine rows, and all the rest
            block = unpack_columns(d.words, stop - start, start)
            assert np.array_equal(block, matrix[start:stop])
    assert d == Dataset(names, matrix)
    with pytest.raises(DatasetError, match="word array shape"):
        Dataset.from_words(names, pack_columns(matrix), n + 64)


@pytest.mark.parametrize("n", [1, 3, 63, 65])
def test_from_words_refuses_a_bit_past_row_n(n):
    names = ["a", "b"]
    assert Dataset.from_words(names, pack_columns(np.ones((n, 2), bool)), n).matrix.all()
    rows = 64 * -(-n // 64)
    for row in range(n, rows):  # every padding bit, one at a time
        padded = np.zeros((rows, 2), bool)
        padded[row, 1] = True
        with pytest.raises(DatasetError, match=f"^a bit past the {n} rows is set$"):
            Dataset.from_words(names, pack_columns(padded), n)


@dataclass(frozen=True)
class Row:
    count: int
    value: float


def test_write_table_writes_ints_plain_and_reals_to_ten_digits():
    out = io.StringIO()
    write_table("n,x", [Row(3, 0.1 + 0.2), Row(np.int64(12345678901), 2.0),
                        Row(-1, np.float64(1e-12 / 3))], out)
    assert out.getvalue() == "n,x\n3,0.3\n12345678901,2\n-1,3.333333333e-13\n"

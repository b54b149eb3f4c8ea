import io
from dataclasses import dataclass

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
    return load_dataset(io.StringIO(text))


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


@pytest.mark.parametrize("raw", [b"a,b\r1,0\r0,1\r", b"a,b\n1,0\r0,1\n"],
                         ids=["cr_only", "lone_cr"])
def test_cr_line_ends_load_alike_from_bytes_and_path(raw, tmp_path):
    path = tmp_path / "cr.csv"
    path.write_bytes(raw)
    want = Dataset(["a", "b"], np.array([[1, 0], [0, 1]], dtype=bool))
    assert load_dataset(raw) == load_dataset(str(path)) == want


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
    buf = io.StringIO()
    dump_dataset(d, buf)
    d2 = load(buf.getvalue())
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
@given(st.integers(1, 60), st.integers(1, 8), st.booleans(), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_unique_count_equals_unique_rows(k, n, distinct, one_bit_apart, seed):
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
    assert unique_count(Dataset(names, matrix)) == len(np.unique(matrix, axis=0))
    assert unique_count(Dataset(names, matrix[:1])) == 1


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
    with pytest.raises(ValueError):
        inject_noise(d, 1.5, seed=0)
    with pytest.raises(ValueError):
        inject_noise(d, -0.1, seed=0)


def test_dataset_immutable():
    d = load("a,b\n1,0\n")
    with pytest.raises(ValueError):
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
    st.integers(1, 5),
    st.integers(2, 5),
    st.booleans(),
    st.booleans(),
    st.sampled_from([None, *IRREGULAR]),
    st.data(),
)
@settings(max_examples=300, deadline=None)
def test_load_equals_strict_parser(tmp_path_factory, n, k, crlf, bom, irregular, data):
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
    want = outcome(lambda: load_dataset(io.StringIO(raw.decode("utf-8-sig"))))
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        want_from_path = outcome(lambda: load_dataset(fh))
    assert outcome(lambda: load_dataset(raw)) == want
    assert outcome(lambda: load_dataset(str(path))) == want_from_path

    fast = ds._load_regular(raw)
    if irregular is None:
        assert fast is not None and fast == want == want_from_path
    else:
        assert fast is None


def test_load_declines_header_only_and_empty_input():
    for raw in (b"", b"a,b", b"a,b\n", "\ufeffa,b\r\n".encode()):
        assert ds._load_regular(raw) is None
    with pytest.raises(DatasetError, match="line 2: no data rows"):
        load_dataset(b"a,b\n")
    with pytest.raises(DatasetError, match="line 1: missing header row"):
        load_dataset(b"")


# -- blocked writer against the per-row writer ---------------------------------


def per_row_dump(d: Dataset, out) -> None:
    """One join per row: the writer that dump_dataset's blocks replaced."""
    out.write(",".join(d.feature_names) + "\n")
    for row in d.matrix:
        out.write(",".join("1" if v else "0" for v in row) + "\n")


WIDE = 300
DUMP_ROWS = ds._DUMP_BLOCK_BYTES // (2 * WIDE) // 8 * 8  # rows per dump block


@pytest.mark.parametrize("n", [1, DUMP_ROWS - 1, DUMP_ROWS, DUMP_ROWS + 1])
@pytest.mark.parametrize("order", ["C", "F"])
def test_dump_equals_per_row_writer(n, order):
    matrix = np.random.default_rng(n).random((n, WIDE)) < 0.5
    matrix = np.asarray(matrix, order=order)  # packed either way: dump reads words
    d = Dataset([f"f{j}" for j in range(WIDE)], matrix)
    got, want = io.StringIO(), io.StringIO()
    dump_dataset(d, got)
    per_row_dump(d, want)
    assert got.getvalue() == want.getvalue()


def test_very_wide_dataset_dumps_in_eight_row_blocks():
    n, k = 21, 70000  # 2 * k bytes per row: the block floor of 8 rows applies
    assert ds._DUMP_BLOCK_BYTES // (2 * k) < 8
    rng = np.random.default_rng(7)
    distinct = rng.random((5, k)) < 0.5
    matrix = distinct[rng.integers(0, len(distinct), n)]
    d = Dataset([f"f{j}" for j in range(k)], matrix)
    got, want = io.StringIO(), io.StringIO()
    dump_dataset(d, got)
    per_row_dump(d, want)
    assert got.getvalue() == want.getvalue()
    assert load_dataset(got.getvalue().encode()) == d
    assert unique_count(d) == len(np.unique(matrix, axis=0))


@pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, DUMP_ROWS + 1, DUMP_ROWS + 9])
def test_dataset_from_words_dumps_and_reads_as_its_matrix(n):
    matrix = np.random.default_rng(n).random((n, WIDE)) < 0.5
    names = [f"f{j}" for j in range(WIDE)]
    d = Dataset.from_words(names, pack_columns(matrix), n)
    assert (d.n, d.k) == (n, WIDE)
    got, want = io.StringIO(), io.StringIO()
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


@dataclass(frozen=True)
class Row:
    count: int
    value: float


def test_write_table_writes_ints_plain_and_reals_to_ten_digits():
    out = io.StringIO()
    write_table("n,x", [Row(3, 0.1 + 0.2), Row(np.int64(12345678901), 2.0),
                        Row(-1, np.float64(1e-12 / 3))], out)
    assert out.getvalue() == "n,x\n3,0.3\n12345678901,2\n-1,3.333333333e-13\n"

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import textbook_chi2

from boolfc import stats
from boolfc.stats import (
    ContingencyTable,
    DegenerateTableError,
    StatsError,
    chi2_obs,
    contingency,
    cooccurrence,
    cross_counts,
    expected_counts_ok,
    kendall_exact_pvalue,
    kendall_tau_test,
    lambda_from_risk,
    normal_quantile,
    pack_columns,
    pack_segments,
    pearson_r,
    phi_coefficients,
)

# -- contingency -------------------------------------------------------------


@pytest.mark.parametrize("counts, match", [
    ((3, -1, 0, 2), "negative contingency count"),
    ((0, 0, 0, 0), "empty contingency table"),
])
def test_contingency_table_rejects_bad_counts(counts, match):
    with pytest.raises(ValueError, match=match):
        ContingencyTable(*counts)


def test_contingency_identical_vectors():
    x = np.array([1, 1, 0, 0, 1], dtype=bool)
    t = contingency(x, x)
    assert (t.a, t.b, t.c, t.d) == (3, 0, 0, 2)


def test_contingency_complement():
    x = np.array([1, 1, 0, 0], dtype=bool)
    t = contingency(x, ~x)
    assert t.a == 0 and t.d == 0


def test_contingency_length_mismatch():
    with pytest.raises(ValueError, match=r"^length mismatch: \(3,\) vs \(4,\)$"):
        contingency(np.zeros(3, bool), np.zeros(4, bool))


@given(st.integers(0, 2**32), st.integers(0, 2**32))
@settings(max_examples=100, deadline=None)
def test_contingency_matches_row_loop(xbits, ybits):
    x = np.array([(xbits >> i) & 1 for i in range(64)], dtype=bool)
    y = np.array([(ybits >> i) & 1 for i in range(64)], dtype=bool)
    t = contingency(x, y)
    a = b = c = d = 0
    for xi, yi in zip(x, y):
        if xi and yi:
            a += 1
        elif xi:
            b += 1
        elif yi:
            c += 1
        else:
            d += 1
    assert (t.a, t.b, t.c, t.d) == (a, b, c, d)


# -- packing -----------------------------------------------------------------


def _packbits_words(x: np.ndarray) -> np.ndarray:
    """The words of x's columns from one ``np.packbits`` along the rows."""
    packed = np.packbits(x, axis=0)  # (ceil(n / 8), m) bytes
    words = np.zeros((x.shape[1], -(-len(packed) // 8)), dtype=np.uint64)
    words.view(np.uint8)[:, : len(packed)] = packed.T
    return words


def _layouts(x: np.ndarray):
    """x in every memory layout pack_columns may get, by name."""
    wide = np.repeat(x, 2, axis=1)
    layouts = {
        "C": np.ascontiguousarray(x),
        "F": np.asfortranarray(x),
        "every third row": np.repeat(x, 3, axis=0)[::3],
        "every second column": wide[:, ::2],
        "every second column, F": np.asfortranarray(wide)[:, ::2],
        "rows backwards": np.ascontiguousarray(x[::-1])[::-1],
        "read-only C": np.array(x, order="C"),
        "read-only F": np.array(x, order="F"),
    }
    layouts["read-only C"].setflags(write=False)
    layouts["read-only F"].setflags(write=False)
    return layouts


BLOCK_ROWS = stats.BLOCK_BYTES // 7 // 64 * 64  # rows per packed block at m = 7


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1])
def test_pack_columns_matches_packbits_in_every_layout(n):
    x = np.random.default_rng(n).random((n, 7)) < 0.5
    want = _packbits_words(x)
    for name, view in _layouts(x).items():
        before = view.copy()
        got = pack_columns(view)
        assert got.dtype == np.uint64 and np.array_equal(got, want), name
        assert np.array_equal(view, before), name  # the input is never written


@pytest.mark.parametrize("n", [0, 1, 7, 8, 63, 64, 65, 127, 128, 129, BLOCK_ROWS + 1])
def test_row_mask_is_the_words_of_an_all_true_column(n):
    want = _packbits_words(np.ones((n, 1), dtype=bool))[0]
    got = stats.row_mask(n)
    assert got.dtype == np.uint64 and np.array_equal(got, want)


# -- co-occurrence kernel ----------------------------------------------------


def _matmul_counts(x: np.ndarray) -> np.ndarray:
    return x.T.astype(np.int64) @ x.astype(np.int64)


def _block_height(x: np.ndarray) -> int:
    """Rows of the upper triangle that one popcount call counts."""
    words = x.shape[1] * 8 * -(-x.shape[0] // 64)  # bytes of packed columns
    return max(1, stats.BLOCK_BYTES // max(1, words))


@given(
    st.integers(0, 200),
    st.integers(1, 24),
    st.sampled_from([0, 64, 200, 1000, stats.BLOCK_BYTES]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_cooccurrence_matches_matmul(n, m, budget, seed):
    # small budgets split even tiny matrices into blocks of one, a few or
    # a ragged last row count; n runs across byte and word boundaries
    rng = np.random.default_rng(seed)
    x = rng.random((n, m)) < rng.random(m)  # per-column density, constants too
    with mock.patch.object(stats, "BLOCK_BYTES", budget):
        g = cooccurrence(pack_columns(x))
    assert g.dtype == np.int64 and g.shape == (m, m)
    assert np.array_equal(g, _matmul_counts(x))


@pytest.mark.parametrize("n, m", [(0, 0), (0, 1), (0, 7), (1, 1), (13, 1), (65, 1)])
def test_cooccurrence_edge_shapes(n, m):
    x = np.ones((n, m), dtype=bool)
    g = cooccurrence(pack_columns(x))
    assert g.dtype == np.int64 and g.shape == (m, m)
    assert np.array_equal(g, np.full((m, m), n))


def test_cooccurrence_block_height_not_dividing_m():
    x = np.random.default_rng(1).random((5000, 61)) < 0.4
    assert 1 < _block_height(x) < 61 and 61 % _block_height(x)
    assert np.array_equal(cooccurrence(pack_columns(x)), _matmul_counts(x))


def test_cooccurrence_one_row_per_block():
    x = np.random.default_rng(2).random((5000, 300)) < 0.3
    assert _block_height(x) == 1
    # float64 counts below 2**53 are exact and take the BLAS path
    want = (x.T.astype(np.float64) @ x.astype(np.float64)).astype(np.int64)
    assert np.array_equal(cooccurrence(pack_columns(x)), want)


def _cross_matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x.T.astype(np.int64) @ y.astype(np.int64)


@given(
    st.sampled_from([0, 1, 63, 64, 65]) | st.integers(0, 300),
    st.integers(0, 12),
    st.integers(0, 12),
    st.sampled_from([0, 64, 200, 1000, stats.BLOCK_BYTES]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_cross_counts_match_matmul(n, p, q, budget, seed):
    # A and B differ in height and density, either may be empty, and the
    # patched budgets cut them into one pair, a few pairs or whole rows
    rng = np.random.default_rng(seed)
    x = rng.random((n, p)) < rng.random(p)
    y = rng.random((n, q)) < rng.random(q)
    with mock.patch.object(stats, "BLOCK_BYTES", budget):
        h = cross_counts(pack_columns(x), pack_columns(y))
    assert h.dtype == np.int64 and h.shape == (p, q)
    assert np.array_equal(h, _cross_matmul(x, y))


@pytest.mark.parametrize("budget", [0, stats.BLOCK_BYTES], ids=["one-pair", "default"])
@pytest.mark.parametrize("n", [0, 1, 63, 64, 65])
def test_cross_counts_of_empty_operands(n, budget):
    x = np.ones((n, 5), dtype=bool)
    with mock.patch.object(stats, "BLOCK_BYTES", budget):
        for p, q in [(0, 0), (0, 5), (5, 0), (5, 5)]:
            h = cross_counts(pack_columns(x[:, :p]), pack_columns(x[:, :q]))
            assert h.dtype == np.int64 and np.array_equal(h, np.full((p, q), n))


def test_blocks_stay_within_block_bytes():
    # one row against all 300 (300 * 632 bytes) is over the budget, so
    # each popcount call counts one row against as many as fit
    x = np.random.default_rng(3).random((5000, 300)) < 0.3
    words = pack_columns(x)
    sizes = []
    count = np.bitwise_count

    def spy(a):
        sizes.append(a.nbytes)
        return count(a)

    with mock.patch.object(stats, "BLOCK_BYTES", 20_000), \
            mock.patch.object(stats.np, "bitwise_count", spy):
        g = cooccurrence(words)
        h = cross_counts(words[:7], words)
    assert max(sizes) <= 20_000 and len(sizes) > 300
    want = (x.T.astype(np.float64) @ x.astype(np.float64)).astype(np.int64)
    assert np.array_equal(g, want) and np.array_equal(h, want[:7])


def _segmented(x: np.ndarray, sizes):
    """Words of the row segments of x, each packed from a word boundary,
    and the word offsets at which the segments start."""
    bounds = np.cumsum([0, *sizes])
    parts = [pack_columns(x[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
    widths = [p.shape[1] for p in parts]
    return np.hstack(parts), np.cumsum([0, *widths[:-1]]), bounds


@pytest.mark.parametrize("sizes", [[1], [63], [64], [65], [130],
                                   [1, 63, 64, 65, 130], [130, 1, 65, 64, 63]])
def test_segmented_cooccurrence_matches_each_segment(sizes):
    x = np.random.default_rng(7).random((sum(sizes), 9)) < 0.4
    words, starts, bounds = _segmented(x, sizes)
    # pack_segments gathers each segment's rows from anywhere in its input
    perm = np.random.default_rng(8).permutation(len(x))
    shuffled = np.empty_like(x)
    shuffled[perm] = x  # row perm[r] of shuffled is row r of x
    packed, packed_starts = pack_segments(shuffled, np.split(perm, bounds[1:-1]))
    assert np.array_equal(packed, words) and np.array_equal(packed_starts, starts)
    g = cooccurrence(words, starts)
    assert g.dtype == np.int64 and g.shape == (len(sizes), 9, 9)
    for s, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
        assert np.array_equal(g[s], cooccurrence(pack_columns(x[a:b])))
        assert np.array_equal(g[s], _matmul_counts(x[a:b]))


def test_single_word_segments_equal_the_reduce_path():
    # segments of at most 64 rows skip the reduce; a trailing segment of
    # two words makes the same call reduce every segment
    sizes = [1, 2, 63, 64, 5, 64]
    x = np.random.default_rng(8).random((sum(sizes) + 100, 12)) < 0.5
    words, starts, _ = _segmented(x[: sum(sizes)], sizes)
    assert len(starts) == words.shape[1]
    longer, longer_starts, _ = _segmented(x, [*sizes, 100])
    assert len(longer_starts) < longer.shape[1]
    assert np.array_equal(cooccurrence(words, starts),
                          cooccurrence(longer, longer_starts)[: len(sizes)])


def test_cooccurrence_writes_into_out():
    x = np.random.default_rng(9).random((300, 7)) < 0.4
    words, starts, _ = _segmented(x, [100, 200])
    for args, shape in (((words, starts), (2, 7, 7)), ((words,), (7, 7))):
        out = np.full(shape, -1, dtype=np.int64)
        assert cooccurrence(*args, out=out) is out
        assert np.array_equal(out, cooccurrence(*args))


@given(
    st.lists(st.integers(1, 200), min_size=1, max_size=6),
    st.integers(1, 20),
    st.sampled_from([0, 64, 200, 1000, stats.BLOCK_BYTES]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_segmented_cooccurrence_matches_matmul(sizes, m, budget, seed):
    rng = np.random.default_rng(seed)
    x = rng.random((sum(sizes), m)) < rng.random(m)
    words, starts, bounds = _segmented(x, sizes)
    packed, packed_starts = pack_segments(x, np.split(np.arange(len(x)), bounds[1:-1]))
    assert np.array_equal(packed, words) and np.array_equal(packed_starts, starts)
    with mock.patch.object(stats, "BLOCK_BYTES", budget):
        g = cooccurrence(words, starts)
        whole = cooccurrence(pack_columns(x))
    for s, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
        assert np.array_equal(g[s], _matmul_counts(x[a:b]))
    # without segments the kernel counts all rows as one, as before
    assert whole.shape == (m, m) and np.array_equal(whole, _matmul_counts(x))


# -- pearson r ---------------------------------------------------------------


def test_pearson_hand_value():
    assert pearson_r(ContingencyTable(30, 10, 10, 50)) == pytest.approx(
        1400 / 2400, abs=1e-12
    )


def test_pearson_identical_features():
    assert pearson_r(ContingencyTable(7, 0, 0, 13)) == pytest.approx(1.0)


def test_pearson_independence():
    assert pearson_r(ContingencyTable(25, 25, 25, 25)) == 0.0


def test_pearson_degenerate_marginal():
    with pytest.raises(DegenerateTableError):
        pearson_r(ContingencyTable(5, 5, 0, 0))


def _random_nondegenerate_tables(count, seed):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        a, b, c, d = (int(v) for v in rng.integers(0, 60, size=4))
        if min(a + b, c + d, a + c, b + d) > 0:
            out.append(ContingencyTable(a, b, c, d))
    return out


def test_pearson_symmetric_under_feature_swap():
    for t in _random_nondegenerate_tables(200, 0):
        swapped = ContingencyTable(t.a, t.c, t.b, t.d)
        assert pearson_r(t) == pytest.approx(pearson_r(swapped), abs=1e-12)


def test_pearson_antisymmetric_under_negation():
    for t in _random_nondegenerate_tables(200, 1):
        negated = ContingencyTable(t.b, t.a, t.d, t.c)
        assert pearson_r(negated) == pytest.approx(-pearson_r(t), abs=1e-12)


def test_phi_coefficients_bit_identical_to_scalar_formula():
    # counts large enough that the marginal product is rounded in float64
    rng = np.random.default_rng(3)
    cells = rng.integers(0, 10**6, size=(4, 2000))
    cells[:, :5] = [[0], [1], [2], [3]]  # small tables too
    got = phi_coefficients(*cells)
    for k, (a, b, c, d) in enumerate(cells.T.tolist()):
        m1, m2, m3, m4 = a + b, c + d, a + c, b + d
        want = (a * d - b * c) / np.sqrt(
            float(m1) * float(m2) * float(m3) * float(m4)
        )
        assert got[k] == want, (a, b, c, d)


def test_phi_coefficients_nan_when_undefined():
    r = phi_coefficients([5, 3], [5, 1], [0, 1], [0, 3])
    assert np.isnan(r[0])
    assert r[1] == pearson_r(ContingencyTable(3, 1, 1, 3)) == 0.5


# -- chi-square identity -----------------------------------------------------


def test_chi2_trivial_cases():
    assert chi2_obs(ContingencyTable(25, 25, 25, 25)) == 0.0
    t = ContingencyTable(30, 10, 10, 50)
    assert chi2_obs(t) == pytest.approx(100 * (1400 / 2400) ** 2, abs=1e-9)


def test_chi2_equals_textbook_formula():
    for t in _random_nondegenerate_tables(2000, 2):
        expected = textbook_chi2(t)
        assert chi2_obs(t) == pytest.approx(expected, rel=1e-9)


# -- normal quantile ---------------------------------------------------------


def bisect_quantile(p: float) -> float:
    """Independent oracle: bisection on the erf-based normal CDF."""
    lo, hi = -10.0, 10.0
    for _ in range(80):
        mid = (lo + hi) / 2
        if 0.5 * (1 + math.erf(mid / math.sqrt(2))) < p:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def test_normal_quantile_symmetry():
    assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-9)


def test_normal_quantile_known_points():
    assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)
    assert normal_quantile(0.999) == pytest.approx(3.090232, abs=1e-6)


def test_normal_quantile_against_bisection_oracle():
    for p in np.linspace(0.0005, 0.9995, 201):
        assert normal_quantile(float(p)) == pytest.approx(
            bisect_quantile(float(p)), abs=1e-6
        )


# exact bits, which risk-mode run.json records through lambda: both
# tails, the centre and both neighbours of each tail bound
PINNED_QUANTILES = [
    (1e-300, -37.04709630294563),
    (1e-10, -6.36134089949508),
    (math.nextafter(stats._P_LOW, 0), -1.972961053530962),
    (math.nextafter(stats._P_LOW, 1), -1.9729610490848712),
    (math.nextafter(stats._P_HIGH, 0), 1.9729610490850358),
    (math.nextafter(stats._P_HIGH, 1), 1.9729610535309645),
    (0.5, 0.0),
    (0.975, 1.959963986120195),
    (0.999, 3.090232304709404),
    (1 - 1e-12, 7.0344869026843035),
]


@pytest.mark.parametrize("p, x", PINNED_QUANTILES)
def test_normal_quantile_keeps_its_bits(p, x):
    assert normal_quantile(p) == x


def test_lambda_from_risk_keeps_its_bits():
    assert lambda_from_risk(0.001, 5000) == 0.043702484362035054


def test_normal_quantile_rejects_out_of_range():
    for p in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError, match=r"^probability must be in \(0, 1\), got "):
            normal_quantile(p)


# -- lambda from risk --------------------------------------------------------


def test_lambda_from_risk_reference_values():
    assert lambda_from_risk(0.001, 264) == pytest.approx(0.190, abs=0.001)
    assert lambda_from_risk(0.0001, 267) == pytest.approx(0.228, abs=0.001)
    assert lambda_from_risk(0.0001, 608) == pytest.approx(0.150, abs=0.001)


def test_lambda_from_risk_monotonicity():
    assert lambda_from_risk(0.01, 100) > lambda_from_risk(0.01, 200)
    assert lambda_from_risk(0.001, 100) > lambda_from_risk(0.01, 100)


def test_lambda_from_risk_validation():
    with pytest.raises(ValueError, match=r"^alpha must be in \(0, 0\.5\), got 0\.6$"):
        lambda_from_risk(0.6, 100)
    with pytest.raises(ValueError, match="^n must be >= 1, got 0$"):
        lambda_from_risk(0.01, 0)


# -- expected counts ---------------------------------------------------------


def test_expected_counts_all_25():
    assert expected_counts_ok(ContingencyTable(30, 20, 20, 30))


def test_expected_counts_small_cell():
    assert not expected_counts_ok(ContingencyTable(2, 3, 3, 92))


def test_expected_counts_boundary_inclusive():
    assert expected_counts_ok(ContingencyTable(5, 5, 5, 5))


@given(st.tuples(*[st.integers(0, 40)] * 4).filter(lambda t: sum(t) > 0))
@settings(max_examples=300, deadline=None)
def test_expected_counts_match_division_form(cells):
    a, b, c, d = cells
    n = a + b + c + d
    want = all(
        row * col / n >= 5.0 for row in (a + b, c + d) for col in (a + c, b + d)
    )
    assert expected_counts_ok(ContingencyTable(a, b, c, d)) == want


# -- Kendall -----------------------------------------------------------------


def naive_tau(x, y):
    """Independent tau-b oracle via explicit pair loops."""
    n = len(x)
    s = 0
    for i, j in itertools.combinations(range(n), 2):
        s += ((x[i] > x[j]) - (x[i] < x[j])) * ((y[i] > y[j]) - (y[i] < y[j]))
    n0 = n * (n - 1) / 2

    def ties(v):
        return sum(
            c * (c - 1) / 2 for c in (v.count(u) for u in set(v)) if c > 1
        )

    return s / math.sqrt((n0 - ties(list(x))) * (n0 - ties(list(y))))


def test_kendall_perfect_concordance():
    tau, p = kendall_tau_test([1, 2, 3], [1, 2, 3])
    assert tau == pytest.approx(1.0)


def test_kendall_perfect_discordance():
    tau, _ = kendall_tau_test([1, 2, 3], [3, 2, 1])
    assert tau == pytest.approx(-1.0)


@pytest.mark.parametrize("test, x, y, match", [
    (kendall_tau_test, [1, 2, 3], [1, 2], "equal length"),
    (kendall_tau_test, [1, 2], [2, 1], "at least 3 observations"),
    (kendall_exact_pvalue, [1, 2, 3], [1, 2, 3, 4], "equal length"),
    (kendall_exact_pvalue, list(range(9)), list(range(9)), "limited to length 8"),
])
def test_kendall_rejects_bad_lengths(test, x, y, match):
    # the zero-variance guard has no case: once neither sequence is
    # entirely tied, the permutation variance of S is positive
    with pytest.raises(ValueError, match=match):
        test(x, y)


def test_kendall_all_tied_rejected():
    with pytest.raises(StatsError):
        kendall_tau_test([1, 1, 1, 1], [1, 2, 3, 4])


def test_kendall_tau_matches_naive():
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = rng.integers(0, 6, size=10).tolist()
        y = rng.integers(0, 6, size=10).tolist()
        try:
            tau, _ = kendall_tau_test(x, y)
        except StatsError:
            continue
        assert tau == pytest.approx(naive_tau(x, y), abs=1e-12)


def test_kendall_exact_p_matches_enumeration():
    rng = np.random.default_rng(4)
    for _ in range(5):
        x = rng.permutation(6).tolist()
        y = rng.permutation(6).tolist()
        tau_obs = naive_tau(x, y)
        hits = sum(
            1
            for perm in itertools.permutations(y)
            if abs(naive_tau(x, list(perm))) >= abs(tau_obs) - 1e-12
        )
        assert kendall_exact_pvalue(x, y) == pytest.approx(hits / math.factorial(6))


def test_kendall_pvalue_strong_dependence_small():
    x = list(range(20))
    y = [v + 0.01 * ((-1) ** v) for v in x]
    _, p = kendall_tau_test(x, y)
    assert p < 1e-9

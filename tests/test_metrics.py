import numpy as np
import pytest
from oracles import brute_oi, dataset_from_columns

from boolfc.dataset import Dataset
from boolfc.expr import parse
from boolfc.metrics import (
    FeatureSet,
    MetricsError,
    avg_length_c1,
    complexity_c0,
    overlapping_index,
    overlapping_index_detail,
    report,
    rms,
)


# -- OI ------------------------------------------------------------------


def test_oi_perfect_partition_is_zero():
    d = dataset_from_columns({
        "a": [1, 1, 0, 0, 0],  # p = 0.4
        "b": [0, 0, 1, 1, 1],  # p = 0.6, disjoint, full coverage
    })
    assert overlapping_index(FeatureSet.from_primitives(d)) == pytest.approx(0.0)


def test_oi_total_overlap_is_one():
    d = dataset_from_columns({
        "a": [1, 1, 1],
        "b": [1, 1, 1],
        "c": [1, 1, 1],
    })
    assert overlapping_index(FeatureSet.from_primitives(d)) == pytest.approx(1.0)


def test_oi_direct_formula():
    # n=10, p=0.6 and 0.7, full coverage -> (1.3 - 1) / 1 = 0.3
    a = [1, 1, 1, 1, 1, 1, 0, 0, 0, 0]
    b = [0, 0, 0, 1, 1, 1, 1, 1, 1, 1]
    d = dataset_from_columns({"a": a, "b": b})
    oi, null_added = overlapping_index_detail(FeatureSet.from_primitives(d))
    assert not null_added
    assert oi == pytest.approx(0.3)


def test_oi_null_feature_convention():
    # one uncovered individual: null feature joins both the sum and m
    d = dataset_from_columns({
        "a": [1, 1, 0, 0],
        "b": [0, 1, 1, 0],
    })
    oi, null_added = overlapping_index_detail(FeatureSet.from_primitives(d))
    assert null_added
    # sum_p = 0.5 + 0.5 + 0.25 = 1.25, m = 3 -> (1.25 - 1) / 2
    assert oi == pytest.approx(0.125)


def test_oi_single_feature_full_coverage_undefined():
    d = dataset_from_columns({"a": [1, 1], "b": [1, 0]})
    fs = FeatureSet([parse("a")], d)
    with pytest.raises(MetricsError):
        overlapping_index(fs)


def test_oi_in_unit_interval_and_matches_brute_force():
    rng = np.random.default_rng(10)
    for _ in range(50):
        n = int(rng.integers(2, 13))
        k = int(rng.integers(2, 5))
        d = Dataset([f"f{i}" for i in range(k)], rng.random((n, k)) < rng.random())
        fs = FeatureSet.from_primitives(d)
        oi = overlapping_index(fs)
        assert 0.0 <= oi <= 1.0
        assert oi == pytest.approx(brute_oi(d.matrix)[0], abs=1e-12)


# -- C0 ------------------------------------------------------------------


def _diverse_dataset(n=16, k=3, seed=0):
    rng = np.random.default_rng(seed)
    while True:
        m = rng.random((n, k)) < 0.5
        if len(np.unique(m, axis=0)) > k:
            return Dataset([f"f{i}" for i in range(k)], m)


def test_c0_zero_for_primitives():
    d = _diverse_dataset()
    assert complexity_c0(FeatureSet.from_primitives(d)) == 0.0


def test_c0_direct_formula():
    # |F|=5, |P|=3, all 8 row patterns present -> (5-3)/(8-3) = 0.4
    patterns = [[(i >> j) & 1 for j in range(3)] for i in range(8)]
    d = Dataset(["a", "b", "c"], np.array(patterns, dtype=bool))
    fs = FeatureSet([parse(s) for s in ["a", "b", "c", "a & b", "a & !b"]], d)
    assert complexity_c0(fs) == pytest.approx((5 - 3) / (8 - 3))


def test_c0_may_exceed_one():
    # more constructed features than unique rows allow
    from boolfc.dataset import unique_count

    d = _diverse_dataset(n=40, k=2, seed=1)
    uniq = unique_count(d)
    assert uniq == 4
    names = d.feature_names
    exprs = [parse(names[0]), parse(names[1]),
             parse(f"{names[0]} & {names[1]}"),
             parse(f"!{names[0]} & {names[1]}"),
             parse(f"{names[0]} & !{names[1]}"),
             parse(f"!({names[0]} & {names[1]})")]
    fs = FeatureSet(exprs, d)
    c0 = complexity_c0(fs)
    assert c0 == pytest.approx((6 - 2) / (uniq - 2))
    assert c0 > 1.0


def test_c0_degenerate_dataset_is_error():
    d = dataset_from_columns({"a": [1, 1], "b": [0, 0]})  # 1 unique row... actually 1
    fs = FeatureSet([parse("a"), parse("b"), parse("a & b")], d)
    with pytest.raises(MetricsError):
        complexity_c0(fs)


# -- C1 ------------------------------------------------------------------


def test_c1_all_primitives():
    d = _diverse_dataset()
    assert avg_length_c1(FeatureSet.from_primitives(d)) == 1.0


def test_c1_leaf_counting():
    d = _diverse_dataset(k=3)
    names = d.feature_names
    fs = FeatureSet(
        [
            parse(f"{names[0]} & {names[1]}"),
            parse(f"{names[0]} & !{names[1]}"),
            parse(names[2]),
        ],
        d,
    )
    assert avg_length_c1(fs) == pytest.approx(5 / 3)


# -- RMS -----------------------------------------------------------------


def test_rms_values():
    assert rms(0.0, 0.0) == 0.0
    assert rms(0.3, 0.4) == pytest.approx(0.353553, abs=1e-6)
    for x in (0.0, 0.2, 1.0, 2.5):
        assert rms(x, x) == pytest.approx(x)


def test_rms_monotone_and_bounded():
    rng = np.random.default_rng(2)
    for _ in range(200):
        a, b, eps = rng.random(3)
        assert rms(a + eps, b) >= rms(a, b)
        assert rms(a, b + eps) >= rms(a, b)
        assert min(a, b) - 1e-12 <= rms(a, b) <= max(a, b) + 1e-12


def test_rms_rejects_bad_input():
    refused = "^rms expects finite non-negative inputs, got "
    with pytest.raises(ValueError, match=refused + r"-0\.1, 0\.2$"):
        rms(-0.1, 0.2)
    with pytest.raises(ValueError, match=refused + r"nan, 0\.2$"):
        rms(float("nan"), 0.2)


# -- report serialization ------------------------------------------------


def test_report_consistency_and_serialization():
    d = _diverse_dataset()
    rep = report(FeatureSet.from_primitives(d))
    assert rep.rms == pytest.approx(rms(rep.oi, rep.c0))
    assert rep.c0 == 0.0 and rep.c1 == 1.0
    js = rep.to_json()
    assert '"oi"' in js and '"null_added"' in js


def test_featureset_rejects_duplicates():
    d = _diverse_dataset()
    with pytest.raises(MetricsError):
        FeatureSet([parse("f0 & f1"), parse("f1 & f0")], d)

import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    DATASETS,
    MODES,
    correlated_datasets,
    dataset_from_columns,
    oracle_run_json,
    scalar_search_reference,
)

from boolfc import ufc
from boolfc.dataset import Dataset
from boolfc.expr import (
    And,
    Not,
    Prim,
    canonical_text,
    canonicalize,
    evaluate,
    parse,
    to_text,
)
from boolfc.metrics import FeatureSet, report
from boolfc.stats import contingency, cooccurrence, pack_columns
from boolfc.ufc import (
    FixedMode,
    RiskMode,
    UfcConfig,
    UfcError,
    construct_new_features,
    count_common,
    pair_tables,
    prune_obsolete_features,
    search_correlated_pairs,
    ufc_run,
)


def indicator(n, idx):
    v = np.zeros(n, dtype=bool)
    v[list(idx)] = True
    return v


# -- pair search -------------------------------------------------------------


def test_search_identical_columns():
    rng = np.random.default_rng(0)
    a = rng.random(50) < 0.5
    d = dataset_from_columns({"a": a, "acopy": a, "b": rng.random(50) < 0.5})
    fs = FeatureSet.from_primitives(d)
    pairs = search_correlated_pairs(fs, threshold=0.5, pruning=False)
    assert [(p.i, p.j) for p in pairs] == [(0, 1)]
    assert pairs[0].r == pytest.approx(1.0)


def test_search_orthogonal_design_is_empty():
    # balanced orthogonal columns: every pairwise r is exactly 0
    n = 8
    cols = {
        "a": [(i >> 2) & 1 for i in range(n)],
        "b": [(i >> 1) & 1 for i in range(n)],
        "c": [i & 1 for i in range(n)],
    }
    fs = FeatureSet.from_primitives(dataset_from_columns(cols))
    assert search_correlated_pairs(fs, threshold=0.3, pruning=False) == []


def test_search_skips_constant_features():
    d = dataset_from_columns({"a": [1, 1, 1, 1], "b": [1, 0, 1, 0]})
    fs = FeatureSet.from_primitives(d)
    assert search_correlated_pairs(fs, threshold=0.1, pruning=False) == []


def test_search_strict_inequality():
    # r(a, b) is exactly 0.5: excluded at threshold 0.5, included below
    a = indicator(40, range(0, 20))
    b = indicator(40, range(5, 25))
    d = dataset_from_columns({"a": a, "b": b})
    fs = FeatureSet.from_primitives(d)
    assert search_correlated_pairs(fs, 0.5, pruning=False) == []
    found = search_correlated_pairs(fs, 0.45, pruning=False)
    assert [(p.i, p.j) for p in found] == [(0, 1)]
    assert found[0].r == pytest.approx(0.5)


def test_search_pruning_filters_rare_pairs():
    # strongly correlated but rare: expected joint count under H0 is tiny
    n = 200
    x = indicator(n, range(0, 6))
    y = indicator(n, range(0, 5))
    d = dataset_from_columns({"x": x, "y": y})
    fs = FeatureSet.from_primitives(d)
    assert len(search_correlated_pairs(fs, 0.3, pruning=False)) == 1
    assert search_correlated_pairs(fs, 0.3, pruning=True) == []


def test_search_ordering():
    rng = np.random.default_rng(1)
    a = rng.random(100) < 0.5
    b = a ^ (rng.random(100) < 0.05)
    c = a ^ (rng.random(100) < 0.25)
    d = dataset_from_columns({"a": a, "b": b, "c": c})
    fs = FeatureSet.from_primitives(d)
    pairs = search_correlated_pairs(fs, 0.1, pruning=False)
    rs = [p.r for p in pairs]
    assert rs == sorted(rs, reverse=True)


# -- the vectorized pair statistics against their oracle --------------------


def oracle_dataset(n, seed):
    """Random columns of several densities plus a duplicate, a complement,
    an all-false and an all-true column."""
    rng = np.random.default_rng(seed)
    cols = {f"r{i}": rng.random(n) < p for i, p in enumerate((0.1, 0.5, 0.9, 0.3))}
    cols["r1copy"] = cols["r1"]
    cols["r3not"] = ~cols["r3"]
    cols["zero"] = np.zeros(n, dtype=bool)
    cols["one"] = np.ones(n, dtype=bool)
    return dataset_from_columns(cols)


def concatenated_tables(fs):
    """i, j and the tables a, b, c, d of every pair i < j, in the order
    of ``pair_tables``' blocks, each table broadcast as they document."""
    out = []
    for top, a, si, sj in pair_tables(fs):
        rows, cols = np.indices(a.shape)
        upper = cols >= rows
        tables = np.broadcast_arrays(a, si - a, sj - a, fs.dataset.n - si - sj + a)
        out.append((rows[upper] + top, cols[upper] + top + 1, *(t[upper] for t in tables)))
    return [np.concatenate(v) for v in zip(*out)]


@pytest.mark.parametrize("n", [1, 63, 64, 65, 2000])
def test_pair_tables_match_contingency(n):
    d = oracle_dataset(n, seed=n)
    members = [Prim(name) for name in d.feature_names]
    members += [parse("r0 & r1"), parse("!r2 & r3")]
    fs = FeatureSet(members, d)
    for budget in (0, ufc.BLOCK_BYTES):  # one row per block, and the default
        with mock.patch.object(ufc, "BLOCK_BYTES", budget):
            i, j, *tables = concatenated_tables(fs)
        want_i, want_j = np.triu_indices(fs.m, k=1)
        assert np.array_equal(i, want_i) and np.array_equal(j, want_j)
        pairs = list(zip(want_i, want_j))
        assert len(tables) == 4
        assert all(v.shape == (len(pairs),) and v.dtype == np.int64 for v in tables)
        for (i, j), got in zip(pairs, zip(*tables)):
            t = contingency(fs.extensions[:, i], fs.extensions[:, j])
            assert got == (t.a, t.b, t.c, t.d), (n, budget, i, j)
    # the same kernel on n rows taken out of a larger set, as uFRINGE
    # counts the rows of a tree node
    ext = FeatureSet(members, oracle_dataset(2000, seed=n)).extensions
    rows = np.sort(np.random.default_rng(n).choice(2000, size=n, replace=False))
    sub = ext[rows]
    g = cooccurrence(pack_columns(sub))
    assert g.shape == (fs.m, fs.m) and g.dtype == np.int64
    for i in range(fs.m):
        for j in range(fs.m):
            assert g[i, j] == contingency(sub[:, i], sub[:, j]).a, (n, i, j)


@st.composite
def pooled_datasets(draw):
    """Columns drawn with repetition from a few patterns and their
    complements, so that many pairs tie on r."""
    n = draw(st.integers(1, 120))
    pool = [
        np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        for _ in range(draw(st.integers(1, 4)))
    ]
    k = draw(st.integers(2, 9))
    cols = []
    for _ in range(k):
        col = pool[draw(st.integers(0, len(pool) - 1))]
        cols.append(~col if draw(st.booleans()) else col)
    return Dataset([f"f{i}" for i in range(k)], np.column_stack(cols))


# BLOCK_BYTES: blocks of one row, of up to 2 pairs, of up to 31, and the default
SEARCH_BUDGETS = [0, 64, 1000, ufc.BLOCK_BYTES]


@given(
    pooled_datasets(),
    st.floats(-0.5, 0.99, allow_nan=False),
    st.booleans(),
    st.sampled_from(SEARCH_BUDGETS),
)
@settings(max_examples=300, deadline=None)
def test_search_matches_scalar_loop(d, threshold, pruning, budget):
    fs = FeatureSet.from_primitives(d)
    with mock.patch.object(ufc, "BLOCK_BYTES", budget):
        got = search_correlated_pairs(fs, threshold, pruning)
    assert got == scalar_search_reference(fs.extensions, threshold, pruning)
    assert all(type(p.r) is float and type(p.i) is int for p in got)


@pytest.mark.parametrize("pruning", [False, True])
def test_search_matches_scalar_loop_with_ties(pruning):
    # duplicated and complemented columns give equal r for many pairs
    d = oracle_dataset(400, seed=11)
    fs = FeatureSet.from_primitives(d)
    want = scalar_search_reference(fs.extensions, -0.9, pruning)
    rs = [p.r for p in want]
    assert len(set(rs)) < len(rs)
    for budget in SEARCH_BUDGETS:
        with mock.patch.object(ufc, "BLOCK_BYTES", budget):
            assert search_correlated_pairs(fs, -0.9, pruning) == want, budget


def test_search_temporaries_stay_within_a_block():
    # m = 406 members: 82 215 pairs, whose six whole-triangle int64 arrays
    # alone would take 3.9 MB; a search keeps a few blocks' arrays and its
    # candidates
    d = Dataset([f"f{k}" for k in range(406)],
                np.random.default_rng(5).random((3000, 406)) < 0.3)
    fs = FeatureSet.from_primitives(d)
    fs.gram  # counted before the trace: the search itself counts nothing
    tracemalloc.start()
    try:
        found = search_correlated_pairs(fs, 0.05, pruning=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0 < len(found) < 2000
    assert peak < 2 * ufc.BLOCK_BYTES + 200 * len(found), (peak, len(found))


# -- construction operator ----------------------------------------------------


def test_construct_triple_shapes():
    fi, fj = Prim("water"), Prim("cascade")
    both, not_i, not_j = construct_new_features(fi, fj)
    assert to_text(both) == "cascade & water"
    assert to_text(not_i) == "!water & cascade"
    assert to_text(not_j) == "!cascade & water"


@pytest.mark.parametrize("fi, fj", [
    ("a", "b"), ("!a", "b"), ("a & b", "!c"), ("!(a & b)", "!!c & d"), ("b & a", "a"),
])
def test_construct_children_are_the_canonical_triple(fi, fj):
    fi, fj = parse(fi), parse(fj)
    children = construct_new_features(fi, fj)
    want = [And(fi, fj), And(Not(fi), fj), And(fi, Not(fj))]
    assert children == tuple(canonicalize(e) for e in want)
    assert all(canonicalize(c) is c for c in children)


def test_construct_rejects_identical():
    with pytest.raises(UfcError):
        construct_new_features(parse("a & b"), parse("b & a"))


def test_construct_hierarchical_child_is_empty():
    # cascade implies water: the !water & cascade child has zero support
    water = [1, 1, 1, 1, 0, 0]
    cascade = [1, 1, 0, 0, 0, 0]
    d = dataset_from_columns({"water": water, "cascade": cascade})
    _, not_i, _ = construct_new_features(Prim("water"), Prim("cascade"))
    assert not evaluate(not_i, d).any()


def test_construct_partition_property_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(2, 17))
        m = rng.random((n, 2)) < rng.random()
        d = Dataset(["x", "y"], m)
        children = construct_new_features(Prim("x"), Prim("y"))
        exts = [evaluate(c, d) for c in children]
        union = np.zeros(n, dtype=bool)
        for i in range(3):
            for j in range(i + 1, 3):
                assert not (exts[i] & exts[j]).any()  # pairwise disjoint
            union |= exts[i]
        assert np.array_equal(union, d.column("x") | d.column("y"))


# -- pruning -------------------------------------------------------------


def test_prune_identity_when_nothing_applies():
    d = dataset_from_columns({"a": [1, 0, 1], "b": [0, 1, 1]})
    fs = FeatureSet.from_primitives(d)
    pruned = prune_obsolete_features(fs, parents=set())
    assert pruned.keys == fs.keys


def test_prune_removes_zero_support_and_parents():
    d = dataset_from_columns({"a": [1, 1, 0, 0], "b": [1, 0, 1, 0]})
    members = [parse(s) for s in ["a", "b", "a & b", "a & !a"]]
    fs = FeatureSet(members, d)
    pruned = prune_obsolete_features(fs, parents={"a"})
    assert pruned.keys == ("b", "a & b")


def test_prune_everything_is_error():
    d = dataset_from_columns({"a": [1, 1], "b": [0, 1]})
    fs = FeatureSet([parse("a")], d)
    with pytest.raises(UfcError):
        prune_obsolete_features(fs, parents={"a"})


# -- full runs -----------------------------------------------------------


def orthogonal_dataset():
    n = 8
    return dataset_from_columns(
        {
            "a": [(i >> 2) & 1 for i in range(n)],
            "b": [(i >> 1) & 1 for i in range(n)],
            "c": [i & 1 for i in range(n)],
        }
    )


def test_run_uncorrelated_returns_primitives():
    res = ufc_run(orthogonal_dataset(), UfcConfig(FixedMode(0.3, 5)))
    assert res.stop_reason == "fixpoint"
    assert len(res.trajectory) == 1
    assert res.features.keys == ("a", "b", "c")


def test_run_duplicated_columns_toy():
    rng = np.random.default_rng(1)
    a = rng.random(60) < 0.5
    d = dataset_from_columns({"a": a, "acopy": a, "b": rng.random(60) < 0.5})
    res = ufc_run(d, UfcConfig(FixedMode(0.5, 5)))
    assert res.features.key_set() == {"a & acopy", "b"}
    assert res.trajectory[1].oi < res.trajectory[0].oi


def test_run_venn_diagram_scenario():
    # f3 inside f1&f2, f4 incompatible with everything, f5 uncorrelated:
    # two iterations replace {f1, f2} then {f1&f2, f3}
    n = 40
    d = dataset_from_columns(
        {
            "f1": indicator(n, range(0, 20)),
            "f2": indicator(n, range(5, 25)),
            "f3": indicator(n, range(8, 15)),
            "f4": indicator(n, range(30, 35)),
            "f5": indicator(n, [25, 26, 27, 28, 35, 36]),
        }
    )
    res = ufc_run(d, UfcConfig(FixedMode(0.45, 10)))
    expected = {
        canonical_text(parse(s))
        for s in [
            "f1 & !f2",
            "f1 & f2 & f3",
            "f1 & f2 & !f3",
            "!f1 & f2",
            "f4",
            "f5",
        ]
    }
    assert res.features.key_set() == expected
    assert res.stop_reason == "fixpoint"
    assert res.iterations == 2


def test_run_iter_limit():
    rng = np.random.default_rng(2)
    base = rng.random(200) < 0.5
    cols = {"a": base}
    for i in range(5):
        cols[f"g{i}"] = base ^ (rng.random(200) < 0.15)
    d = dataset_from_columns(cols)
    res = ufc_run(d, UfcConfig(FixedMode(0.05, 1)))
    assert res.stop_reason == "iter_limit"
    assert res.iterations == 1


@pytest.mark.parametrize("mode, args, match", [
    (FixedMode, (0.0, 2), r"threshold must be in \(0, 1\), got 0.0"),
    (FixedMode, (1.0, 2), r"threshold must be in \(0, 1\), got 1.0"),
    (FixedMode, (0.3, 0), "limit_iter must be >= 1"),
    (RiskMode, (0.0,), r"alpha must be in \(0, 0.5\), got 0.0"),
    (RiskMode, (0.5,), r"alpha must be in \(0, 0.5\), got 0.5"),
    (RiskMode, (0.01, 0), "hard_cap must be >= 1"),
])
def test_mode_bounds_rejected(mode, args, match):
    with pytest.raises(ValueError, match=match):
        mode(*args)


def test_run_degenerate_dataset_rejected():
    d = dataset_from_columns({"a": [1, 0, 1, 0], "b": [0, 1, 0, 1]})
    with pytest.raises(UfcError):
        ufc_run(d, UfcConfig(FixedMode(0.3, 2)))


def test_run_deterministic():
    rng = np.random.default_rng(3)
    base = rng.random(150) < 0.4
    cols = {
        "a": base,
        "b": base ^ (rng.random(150) < 0.1),
        "c": rng.random(150) < 0.5,
        "d": rng.random(150) < 0.3,
    }
    d = dataset_from_columns(cols)
    cfg = UfcConfig(FixedMode(0.2, 4))
    r1, r2 = ufc_run(d, cfg), ufc_run(d, cfg)
    assert r1.features.keys == r2.features.keys
    assert r1.trajectory == r2.trajectory
    assert r1.to_json_dict() == r2.to_json_dict()


def test_children_extensions_match_parent_combination():
    # evaluating nested expressions over primitives equals combining the
    # parents' cached extensions directly
    rng = np.random.default_rng(4)
    base = rng.random(120) < 0.4
    d = dataset_from_columns(
        {"a": base, "b": base ^ (rng.random(120) < 0.1), "c": rng.random(120) < 0.5}
    )
    fs = FeatureSet.from_primitives(d)
    pairs = search_correlated_pairs(fs, 0.3, pruning=False)
    assert pairs
    i, j = pairs[0].i, pairs[0].j
    fi, fj = fs.members[i], fs.members[j]
    xi, xj = fs.extensions[:, i], fs.extensions[:, j]
    both, not_i, not_j = construct_new_features(fi, fj)
    assert np.array_equal(evaluate(both, d), xi & xj)
    assert np.array_equal(evaluate(not_i, d), ~xi & xj)
    assert np.array_equal(evaluate(not_j, d), xi & ~xj)


def test_risk_mode_stops_at_rms_minimum():
    rng = np.random.default_rng(5)
    base = rng.random(300) < 0.5
    cols = {}
    for i in range(6):
        cols[f"f{i}"] = base ^ (rng.random(300) < 0.1 + 0.05 * i)
    d = dataset_from_columns(cols)
    risk = ufc_run(d, UfcConfig(RiskMode(0.001), candidate_pruning=False))
    fixed = ufc_run(
        d,
        UfcConfig(FixedMode(risk.threshold, 100), candidate_pruning=False),
    )
    rms_values = [r.rms for r in fixed.trajectory]
    assert report(risk.features).rms == pytest.approx(min(rms_values))


def test_risk_mode_trajectory_contains_overshoot():
    rng = np.random.default_rng(6)
    base = rng.random(400) < 0.5
    cols = {f"f{i}": base ^ (rng.random(400) < 0.12) for i in range(5)}
    d = dataset_from_columns(cols)
    res = ufc_run(d, UfcConfig(RiskMode(0.001), candidate_pruning=False))
    if res.stop_reason == "rms_minimum":
        assert res.trajectory[-1].rms > res.trajectory[-2].rms
        assert report(res.features).rms == pytest.approx(res.trajectory[-2].rms)


# -- count_common --------------------------------------------------------


def test_count_common():
    d = dataset_from_columns({"a": [1, 0, 1], "b": [0, 1, 1]})
    fs1 = FeatureSet([parse("a"), parse("a & b")], d)
    fs2 = FeatureSet([parse("b & a"), parse("b")], d)
    assert count_common(fs1, fs1) == 2
    assert count_common(fs1, fs2) == 1
    fs3 = FeatureSet([parse("!a & b")], d)
    assert count_common(fs1, fs3) == 0


# -- invariants ----------------------------------------------------------


def test_monotone_oi_and_c0_along_random_runs():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(60, 250))
        k = int(rng.integers(3, 9))
        base = rng.random(n) < 0.5
        cols = {}
        for i in range(k):
            if i % 2 == 0:
                cols[f"f{i}"] = base ^ (rng.random(n) < 0.2)
            else:
                cols[f"f{i}"] = rng.random(n) < rng.random()
        d = dataset_from_columns(cols)
        res = ufc_run(d, UfcConfig(FixedMode(0.15, 6)))
        traj = res.trajectory
        for prev, cur in zip(traj, traj[1:]):
            assert 0.0 <= cur.oi <= 1.0
            assert cur.oi < prev.oi + 1e-12
            assert cur.c0 >= prev.c0 - 1e-12


# -- whole-run oracle ----------------------------------------------------


def json_text(run: dict) -> str:
    """The text ``boolfc construct`` writes for a ``run.json`` dict."""
    return json.dumps(run, sort_keys=True, indent=2) + "\n"


def assert_runs_match_oracle(d, cfg):
    """``ufc_run`` writes the bytes of the oracle's ``run.json`` and ends
    with its columns, or raises the oracle's error."""
    try:
        want, columns = oracle_run_json(d, cfg)
    except ValueError as err:
        with pytest.raises(type(err)):
            ufc_run(d, cfg)
        return
    got = ufc_run(d, cfg)
    assert json_text(got.to_json_dict()) == json_text(want)
    assert np.array_equal(got.features.extensions, columns)


@pytest.mark.parametrize("pruning", [False, True])
@pytest.mark.parametrize("mode", list(MODES))
@pytest.mark.parametrize("name", list(DATASETS))
def test_run_matches_the_oracle(name, mode, pruning):
    d = DATASETS[name]()
    assert_runs_match_oracle(d, UfcConfig(MODES[mode], candidate_pruning=pruning))


@given(correlated_datasets(), st.sampled_from(list(MODES)), st.booleans())
@settings(max_examples=300, deadline=None)
def test_run_writes_the_bytes_of_a_plain_loop(d, mode, pruning):
    assert_runs_match_oracle(d, UfcConfig(MODES[mode], candidate_pruning=pruning))

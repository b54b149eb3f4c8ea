"""FeatureSet as an append/select store: ``extend`` and ``select`` equal a
fresh set of the same members, derive only what they add, and the uFC and
uFRINGE loops built on them reproduce the rebuild-every-iteration loops."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolfc import expr as ex
from boolfc.dataset import Dataset, unique_count
from boolfc.metrics import FeatureSet, MetricsError, overlapping_index_detail, report
from boolfc.stats import cooccurrence, lambda_from_risk
from boolfc.ufc import (
    FixedMode,
    RiskMode,
    UfcConfig,
    UfcError,
    construct_new_features,
    search_correlated_pairs,
    ufc_run,
)
from boolfc.ufringe import (
    UfringeConfig,
    build_clustering_tree,
    extract_fringe_features,
    ufringe_run,
)

NAMES = ["a", "b", "c", "d"]
D = Dataset(NAMES, np.random.default_rng(7).random((24, len(NAMES))) < 0.5)

exprs = st.recursive(
    st.sampled_from(NAMES).map(ex.Prim),
    lambda inner: st.one_of(
        inner.map(ex.Not),
        st.tuples(inner, inner).map(lambda lr: ex.And(*lr)),
    ),
    max_leaves=4,
)


def first_occurrences(members, seen=()):
    """Members whose canonical text is not in ``seen`` nor earlier in the list."""
    seen = set(seen)
    out = []
    for e in members:
        key = ex.canonical_text(e)
        if key not in seen:
            seen.add(key)
            out.append(e)
    return out


def assert_same_set(got: FeatureSet, want: FeatureSet):
    assert got.dataset is want.dataset
    assert got.members == want.members
    assert got.keys == want.keys
    assert got.literal_counts == want.literal_counts
    assert got.extensions.dtype == want.extensions.dtype
    assert np.array_equal(got.extensions, want.extensions)
    assert not got.extensions.flags.writeable


class BatchCalls:
    """Records the members of each batch given to ``expr.evaluate_words``."""

    def __init__(self, fn):
        self.fn, self.batches = fn, []

    def __call__(self, exprs, dataset, *known):
        self.batches.append(list(exprs))
        return self.fn(exprs, dataset, *known)


class TopLevelCalls:
    """Records the top-level calls of a recursive ``expr`` function."""

    def __init__(self, fn):
        self.fn, self.depth, self.args = fn, 0, []

    def __call__(self, e, *rest):
        if self.depth == 0:
            self.args.append(e)
        self.depth += 1
        try:
            return self.fn(e, *rest)
        finally:
            self.depth -= 1


@given(st.lists(exprs, min_size=1, max_size=6), st.lists(exprs, max_size=8))
@settings(max_examples=200, deadline=None)
def test_extend_equals_fresh_set_and_derives_only_new_members(a, b):
    a = first_occurrences(a)
    fs = FeatureSet(a, D)
    before = (fs.members, fs.keys, fs.literal_counts, fs.extensions.copy())
    new_in_b = first_occurrences(b, fs.keys)

    evaluate = BatchCalls(ex.evaluate_words)
    literal_count = TopLevelCalls(ex.literal_count)
    with mock.patch.object(ex, "evaluate_words", evaluate), \
            mock.patch.object(ex, "literal_count", literal_count):
        grown = fs.extend(b)
    assert evaluate.batches == [new_in_b]
    assert literal_count.args == new_in_b

    assert_same_set(grown, FeatureSet(a + new_in_b, D))
    # the source set is left as it was
    assert (fs.members, fs.keys, fs.literal_counts) == before[:3]
    assert np.array_equal(fs.extensions, before[3])


@given(st.lists(exprs, min_size=1, max_size=8), st.data())
@settings(max_examples=200, deadline=None)
def test_select_equals_fresh_set_of_masked_members(members, data):
    fs = FeatureSet(first_occurrences(members), D)
    mask = data.draw(st.lists(st.booleans(), min_size=fs.m, max_size=fs.m))
    kept = [e for e, keep in zip(fs.members, mask) if keep]
    if not kept:
        with pytest.raises(MetricsError):
            fs.select(np.array(mask))
        return
    evaluate = BatchCalls(ex.evaluate_words)
    with mock.patch.object(ex, "evaluate_words", evaluate):
        got = fs.select(np.array(mask))
    assert evaluate.batches == []
    assert_same_set(got, FeatureSet(kept, D))


def test_children_of_members_read_no_primitive_column():
    # no member is a primitive, so a child that recursed down to its
    # primitives would have to read the dataset's words
    texts = ("a & b", "!a & c", "b & !d", "!(a & c) & d")
    fs = FeatureSet([ex.parse(t) for t in texts], D)
    children = []
    for i in range(fs.m):
        for j in range(i + 1, fs.m):
            children += construct_new_features(fs.members[i], fs.members[j])
    with mock.patch.object(Dataset, "words", new_callable=mock.PropertyMock) as words:
        grown = fs.extend(children)
    assert words.call_count == 0
    assert grown.m > fs.m
    want = FeatureSet(list(fs.members) + first_occurrences(children, fs.keys), D)
    assert_same_set(grown, want)


def test_sets_keep_only_their_read_only_words():
    fs = FeatureSet.from_primitives(D)
    for got in (fs, fs.extend([ex.parse("a & !b")]), fs.select([1, 0, 1, 1])):
        got.extensions  # unpacked on each read, never kept
        arrays = [v for v in vars(got).values() if isinstance(v, np.ndarray)]
        assert len(arrays) == 1 and arrays[0] is got.words
        assert not got.words.flags.writeable
        assert got.words.shape == (got.m, D.words.shape[1])


def test_constructor_still_rejects_what_extend_skips():
    twins = [ex.parse("a & b"), ex.parse("b & a")]
    with pytest.raises(MetricsError, match="duplicate"):
        FeatureSet(twins, D)
    with pytest.raises(MetricsError):
        FeatureSet([], D)
    grown = FeatureSet.from_primitives(D).extend(twins)
    assert grown.keys == ("a", "b", "c", "d", "a & b")


# -- the loops, against the rebuild-every-iteration loops they replace -----


def rebuild_ufc_run(d, cfg):
    """uFC as it ran when every iteration rebuilt the feature set from
    expressions: children deduplicated by hand, merged, then pruned."""
    uniq = unique_count(d)
    if uniq <= d.k:
        raise UfcError("degenerate dataset")
    if isinstance(cfg.mode, RiskMode):
        threshold = lambda_from_risk(cfg.mode.alpha, d.n)
        limit = cfg.mode.hard_cap
        risk_mode = True
    else:
        threshold = cfg.mode.threshold
        limit = cfg.mode.limit_iter
        risk_mode = False

    fs = FeatureSet.from_primitives(d)
    trajectory = [report(fs)]
    logs = []
    while True:
        constructed = []
        candidates = search_correlated_pairs(fs, threshold, cfg.pruning)
        used = set()
        parents = set()
        children = []
        child_keys = set()
        for pair in candidates:
            if pair.i in used or pair.j in used:
                continue
            used.update((pair.i, pair.j))
            parents.update((fs.keys[pair.i], fs.keys[pair.j]))
            for child in construct_new_features(
                fs.members[pair.i], fs.members[pair.j]
            ):
                key = ex.to_text(child)
                if key in child_keys or key in fs.keys:
                    continue
                child_keys.add(key)
                children.append(child)
                constructed.append(key)

        merged = FeatureSet(list(fs.members) + children, d)
        keep = [
            e
            for e, key, s in zip(merged.members, merged.keys, merged.supports())
            if s > 0 and key not in parents
        ]
        new_fs = FeatureSet(keep, d)
        pruned = [k for k in merged.keys if k not in set(new_fs.keys)]

        if new_fs.keys == fs.keys:
            return fs, trajectory, logs, "fixpoint", threshold

        logs.append((constructed, pruned))
        prev_fs = fs
        fs = new_fs
        trajectory.append(report(fs))

        if risk_mode and trajectory[-1].rms > trajectory[-2].rms:
            return prev_fs, trajectory, logs, "rms_minimum", threshold
        if len(trajectory) - 1 >= limit:
            reason = "hard_cap" if risk_mode else "iter_limit"
            return fs, trajectory, logs, reason, threshold


def rebuild_ufringe_run(d, cfg):
    fs = FeatureSet.from_primitives(d)
    while fs.m < cfg.max_features:
        tree = build_clustering_tree(d, fs, cfg)
        fringe = extract_fringe_features(tree, fs)
        # the fringe keeps repeats; keep the first occurrence of each key
        seen = set(fs.key_set())
        new = []
        for f in fringe:
            if ex.to_text(f) not in seen:
                seen.add(ex.to_text(f))
                new.append(f)
        if not new:
            break
        fs = FeatureSet(list(fs.members) + new, d)
    return fs


def generated_dataset(n, k, seed):
    """The benchmark's generator: k/4 latent Bernoulli(0.4) columns, and
    feature j = latent[j mod k/4] XOR Bernoulli(0.10 + 0.02 * (j mod 5))."""
    rng = np.random.default_rng(seed)
    groups = k // 4
    latent = rng.random((n, groups)) < 0.4
    cols = [
        latent[:, j % groups] ^ (rng.random(n) < 0.10 + 0.02 * (j % 5))
        for j in range(k)
    ]
    return Dataset([f"f{j}" for j in range(k)], np.column_stack(cols))


def odd_dataset():
    """A duplicated, a complemented and a constant column, so that children
    collide with members and zero-support features get pruned."""
    d = generated_dataset(300, 8, 11)
    m = d.matrix
    extra = np.column_stack([m[:, 0], ~m[:, 1], np.zeros(d.n, bool)])
    return Dataset(list(d.feature_names) + ["dup", "neg", "zero"],
                   np.column_stack([m, extra]))


DATASETS = {
    "gen-400x12-s0": lambda: generated_dataset(400, 12, 0),
    "gen-600x16-s1": lambda: generated_dataset(600, 16, 1),
    "gen-250x8-s2": lambda: generated_dataset(250, 8, 2),
    "odd-300x11": odd_dataset,
}

MODES = {
    "risk-0.001": RiskMode(0.001),
    "risk-0.05-cap2": RiskMode(0.05, hard_cap=2),
    "fixed-0.05x4": FixedMode(0.05, 4),
    "fixed-0.3x6": FixedMode(0.3, 6),
}


@pytest.mark.parametrize("pruning", [False, True])
@pytest.mark.parametrize("mode", list(MODES))
@pytest.mark.parametrize("name", list(DATASETS))
def test_ufc_run_matches_rebuild_loop(name, mode, pruning):
    d = DATASETS[name]()
    cfg = UfcConfig(MODES[mode], candidate_pruning=pruning)
    features, trajectory, logs, stop_reason, threshold = rebuild_ufc_run(d, cfg)
    got = ufc_run(d, cfg)
    assert got.features.keys == features.keys
    assert got.features.members == features.members
    assert np.array_equal(got.features.extensions, features.extensions)
    assert got.trajectory == trajectory
    assert [(log.constructed, log.pruned) for log in got.logs] == logs
    assert got.stop_reason == stop_reason
    assert got.threshold == threshold
    assert got.final_report() == report(got.features)


@pytest.mark.parametrize("max_features", [12, 40, 300])
@pytest.mark.parametrize("name", ["gen-250x8-s2", "odd-300x11"])
def test_ufringe_run_matches_rebuild_loop(name, max_features):
    d = DATASETS[name]()
    cfg = UfringeConfig(max_features=max_features, min_leaf=5, max_depth=5)
    want = rebuild_ufringe_run(d, cfg)
    got = ufringe_run(d, cfg)
    assert got.keys == want.keys
    assert got.members == want.members
    assert np.array_equal(got.extensions, want.extensions)
    assert report(got) == report(want)


# -- padding bits: n around byte and word boundaries ---------------------------


def bool_oracle(e, d):
    """Member by member evaluation over plain bool columns."""
    if isinstance(e, ex.Prim):
        return d.column(e.name)
    if isinstance(e, ex.Not):
        return ~bool_oracle(e.child, d)
    return bool_oracle(e.left, d) & bool_oracle(e.right, d)


def padding_bits(fs):
    """The bits of ``fs.words`` past row n, one row per member."""
    return np.unpackbits(fs.words.view(np.uint8), axis=1)[:, fs.dataset.n:]


@pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65])
def test_store_matches_bool_oracle_and_keeps_padding_zero(n):
    d = Dataset(NAMES, np.random.default_rng(n).random((n, len(NAMES))) < 0.5)
    fs = FeatureSet([ex.parse(t) for t in ("a & b", "!c", "!(a & d)")], d)
    # a member's negation, and the negation of a negated member
    grown = fs.extend([ex.Not(e) for e in fs.members] + [ex.parse("b")])
    kept = grown.select(np.arange(grown.m) % 2 == 0)
    for got in (fs, grown, kept):
        want = np.column_stack([bool_oracle(e, d) for e in got.members])
        assert not padding_bits(got).any()
        assert np.array_equal(got.extensions, want)
        assert np.array_equal(got.supports(), np.count_nonzero(want, axis=0))
        assert np.array_equal(np.diagonal(cooccurrence(got.words)), got.supports())
        covered = np.count_nonzero(want.any(axis=1))
        oi, null_added = overlapping_index_detail(got)
        assert null_added == (covered < n)
        if got.m + null_added > 1:
            sum_p = float(np.count_nonzero(want)) / n + (n - covered) / n
            assert oi == (sum_p - 1.0) / (got.m + null_added - 1)

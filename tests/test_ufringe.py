from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import dataset_from_columns, generated_dataset

from boolfc import expr as ex
from boolfc import ufringe
from boolfc.dataset import Dataset
from boolfc.expr import And, Not, canonical_text, canonicalize, parse
from boolfc.metrics import FeatureSet
from boolfc.stats import cooccurrence
from boolfc.ufringe import (
    TreeNode,
    UfringeConfig,
    build_clustering_tree,
    extract_fringe_features,
    ufringe_run,
)


def leaves(node: TreeNode):
    if node.is_leaf:
        yield node
    else:
        yield from leaves(node.true_child)
        yield from leaves(node.false_child)


def cluster_variance(matrix: np.ndarray, rows: np.ndarray) -> float:
    """Oracle: sum over features of p(1-p) on the given rows."""
    p = matrix[rows].mean(axis=0)
    return float((p * (1.0 - p)).sum())


def test_cluster_variance_gini_form():
    m = np.array([[1, 0], [1, 1], [0, 1], [0, 0], [1, 1]], dtype=bool)
    d = Dataset(["a", "b"], m)
    tree = build_clustering_tree(d, FeatureSet.from_primitives(d), UfringeConfig())
    # the root holds every row: its variance is the mean squared
    # Euclidean distance to the centroid
    centroid = m.mean(axis=0)
    msd = float(((m - centroid) ** 2).sum(axis=1).mean())
    assert tree.variance == pytest.approx(msd)
    assert tree.variance == pytest.approx(2 * 0.6 * 0.4)


def test_tree_perfect_bisection():
    # feature "a" splits two constant blocks: depth-1 tree, zero child variance
    cols = {
        "a": [1] * 5 + [0] * 5,
        "b": [1] * 5 + [0] * 5,
        "c": [0] * 5 + [1] * 5,
    }
    d = dataset_from_columns(cols)
    fs = FeatureSet.from_primitives(d)
    tree = build_clustering_tree(d, fs, UfringeConfig(min_leaf=2, max_depth=5))
    assert not tree.is_leaf
    assert tree.true_child.is_leaf and tree.false_child.is_leaf
    assert tree.true_child.variance == 0.0
    assert tree.false_child.variance == 0.0
    # trees compare by identity, not by their row arrays
    assert tree == tree and tree.true_child != tree.false_child


def test_tree_identical_rows_is_leaf():
    d = dataset_from_columns({"a": [1, 1, 1], "b": [0, 0, 0]})
    fs = FeatureSet.from_primitives(d)
    tree = build_clustering_tree(d, fs, UfringeConfig(min_leaf=1))
    assert tree.is_leaf


def test_tree_min_leaf_respected():
    rng = np.random.default_rng(0)
    d = dataset_from_columns(
        {"a": rng.random(30) < 0.5, "b": rng.random(30) < 0.5, "c": rng.random(30) < 0.5}
    )
    fs = FeatureSet.from_primitives(d)
    tree = build_clustering_tree(d, fs, UfringeConfig(min_leaf=5, max_depth=10))
    for leaf in leaves(tree):
        assert leaf.rows.size >= 5


def exhaustive_best_split(matrix, rows, min_leaf):
    """Oracle: try every feature, return the minimal weighted variance."""
    best = None
    for f in range(matrix.shape[1]):
        mask = matrix[rows, f]
        nt, nf = int(mask.sum()), int((~mask).sum())
        if nt < min_leaf or nf < min_leaf:
            continue
        wv = (
            nt * cluster_variance(matrix, rows[mask])
            + nf * cluster_variance(matrix, rows[~mask])
        ) / rows.size
        if best is None or wv < best[0]:
            best = (wv, f)
    return best


def test_tree_greedy_matches_exhaustive_on_toy():
    rng = np.random.default_rng(1)
    for _ in range(20):
        m = rng.random((8, 3)) < 0.5
        d = Dataset(["a", "b", "c"], m)
        fs = FeatureSet.from_primitives(d)
        cfg = UfringeConfig(min_leaf=1, max_depth=2)
        tree = build_clustering_tree(d, fs, cfg)
        matrix = fs.extensions

        def check(node):
            if node.is_leaf:
                return
            oracle = exhaustive_best_split(matrix, node.rows, 1)
            assert oracle is not None
            wv, _ = oracle
            mask = matrix[node.rows, node.split_feature]
            got = (
                mask.sum() * cluster_variance(matrix, node.rows[mask])
                + (~mask).sum() * cluster_variance(matrix, node.rows[~mask])
            ) / node.rows.size
            assert got == pytest.approx(wv, abs=1e-12)
            assert got < node.variance
            check(node.true_child)
            check(node.false_child)

        check(tree)


def loop_clustering_tree(d, fs, cfg):
    """Reference: the per-feature split loop, one gather and one mean per
    (node, feature) pair, with the same tie rule."""
    matrix = fs.extensions

    def grow(rows, depth):
        var = cluster_variance(matrix, rows)
        node = TreeNode(rows=rows, variance=var)
        if depth >= cfg.max_depth or var <= 0.0:
            return node
        best = None
        for f in range(fs.m):
            mask = matrix[rows, f]
            n_true = int(np.count_nonzero(mask))
            n_false = rows.size - n_true
            if n_true < cfg.min_leaf or n_false < cfg.min_leaf:
                continue
            wv = (
                n_true * cluster_variance(matrix, rows[mask])
                + n_false * cluster_variance(matrix, rows[~mask])
            ) / rows.size
            if best is None or wv < best[0] - 1e-12:
                best = (wv, f, mask)
        if best is None or best[0] >= var - 1e-12:
            return node
        _, f, mask = best
        node.split_feature = f
        node.true_child = grow(rows[mask], depth + 1)
        node.false_child = grow(rows[~mask], depth + 1)
        return node

    return grow(np.arange(d.n), 0)


def assert_same_tree(got: TreeNode, want: TreeNode):
    assert got.split_feature == want.split_feature
    assert np.array_equal(got.rows, want.rows)
    assert type(got.variance) is float
    assert got.variance == want.variance
    if not want.is_leaf:
        assert_same_tree(got.true_child, want.true_child)
        assert_same_tree(got.false_child, want.false_child)


@st.composite
def tie_heavy_datasets(draw):
    """Columns drawn with repetition from a few patterns, their complements
    and the two constant columns, so that many splits tie."""
    n = draw(st.integers(1, 90))
    pool = [
        np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        for _ in range(draw(st.integers(1, 3)))
    ]
    pool.append(np.zeros(n, dtype=bool))
    cols = []
    for _ in range(draw(st.integers(2, 8))):
        col = pool[draw(st.integers(0, len(pool) - 1))]
        cols.append(~col if draw(st.booleans()) else col)
    return Dataset([f"f{i}" for i in range(len(cols))], np.column_stack(cols))


def unsplittable_node_case():
    """Feature 0 holds on 3 rows, fewer than ``min_leaf``, so no node may
    split on it; and the third level holds a node with no allowed split
    between two nodes with one."""
    rng = np.random.default_rng(1)
    x = rng.random((60, 5)) < rng.choice([0.1, 0.3, 0.5], 5)
    x[:, 0] = np.arange(60) < 3
    d = Dataset([f"f{j}" for j in range(5)], x)
    return d, FeatureSet.from_primitives(d), UfringeConfig(min_leaf=5, max_depth=4)


@given(tie_heavy_datasets(), st.integers(1, 5), st.integers(2, 7))
@example(unsplittable_node_case()[0], 5, 4)
@settings(max_examples=300, deadline=None)
def test_tree_matches_per_feature_loop(d, min_leaf, max_depth):
    fs = FeatureSet.from_primitives(d)
    cfg = UfringeConfig(min_leaf=min_leaf, max_depth=max_depth)
    assert_same_tree(build_clustering_tree(d, fs, cfg),
                     loop_clustering_tree(d, fs, cfg))


def constructed_feature_case():
    """A second round's feature set: conjunctions of correlated primitives."""
    rng = np.random.default_rng(4)
    base = rng.random(400) < 0.4
    d = dataset_from_columns({
        "a": base,
        "b": base ^ (rng.random(400) < 0.1),
        "c": rng.random(400) < 0.5,
        "d": ~base,
    })
    fs = FeatureSet.from_primitives(d)
    cfg = UfringeConfig()
    fs = fs.extend(extract_fringe_features(build_clustering_tree(d, fs, cfg), fs))
    assert fs.m > d.k
    return d, fs, cfg


def test_tree_matches_per_feature_loop_on_constructed_features():
    d, fs, cfg = constructed_feature_case()
    assert_same_tree(build_clustering_tree(d, fs, cfg),
                     loop_clustering_tree(d, fs, cfg))
    d, fs, cfg = unsplittable_node_case()
    tree = build_clustering_tree(d, fs, cfg)
    assert_same_tree(tree, loop_clustering_tree(d, fs, cfg))
    assert fs.supports()[0] < cfg.min_leaf
    # the whole queue fits one batch, so the third level is one batch
    level = [c for node in (tree.true_child, tree.false_child)
             for c in (node.true_child, node.false_child)]
    can_split = []
    for node in level:
        if node.variance > 0.0 and node.rows.size >= 2 * cfg.min_leaf:
            n_true = fs.extensions[node.rows].sum(axis=0)
            n_false = node.rows.size - n_true
            can_split.append(bool(((n_true >= cfg.min_leaf) & (n_false >= cfg.min_leaf)).any()))
    assert can_split == [True, False, True]


@pytest.mark.parametrize("seed, rounds", [(0, 1), (1, 1), (2, 1), (3, 1), (0, 2)])
def test_tree_matches_per_feature_loop_at_bench_size(seed, rounds):
    # the benchmark's inputs at 2000x20, and a second round's feature set:
    # thousands of rows, where two splits' scores can lie closer than at
    # the few rows the hypothesis tests draw
    d, cfg = generated_dataset(2000, 20, seed), UfringeConfig()
    fs = FeatureSet.from_primitives(d)
    if rounds == 2:
        fs = fs.extend(extract_fringe_features(build_clustering_tree(d, fs, cfg), fs))
    assert_same_tree(build_clustering_tree(d, fs, cfg),
                     loop_clustering_tree(d, fs, cfg))


def scan_splits(scores: np.ndarray) -> list[int]:
    """Reference: each row scanned in column order, the best replaced only
    when beaten by more than 1e-12."""
    picks = []
    for row in scores.tolist():
        best = 0
        for s in range(1, len(row)):
            if row[s] < row[best] - 1e-12:
                best = s
        picks.append(best)
    return picks


@st.composite
def near_tie_scores(draw):
    """Score rows of a few base values plus multiples of 0.5e-12, so that
    near-ties fall on both sides of 1e-12, with +inf entries and rows."""
    width = draw(st.integers(1, 8))
    bases = draw(st.lists(st.sampled_from([0.0, 0.25, 0.3, 1.0, 7.5]),
                          min_size=1, max_size=3))
    entry = st.one_of(
        st.just(np.inf),
        st.builds(lambda base, k: base + k * 0.5e-12,
                  st.sampled_from(bases), st.integers(-5, 5)),
    )
    rows = st.one_of(st.just([np.inf] * width),
                     st.lists(entry, min_size=width, max_size=width))
    return np.array(draw(st.lists(rows, min_size=1, max_size=6)))


@given(near_tie_scores())
# the first minimum is column 1, but it beats column 0 by only 0.5e-12
@example(np.array([[1.0, 1.0 - 0.5e-12], [np.inf, np.inf]]))
@settings(max_examples=500, deadline=None)
def test_choose_splits_matches_the_scan(scores):
    assert ufringe._choose_splits(scores).tolist() == scan_splits(scores)


# a budget of 0 scores one node per batch, a huge one the whole queue
BATCH_BUDGETS = pytest.mark.parametrize("budget", [0, 1 << 60], ids=["one", "all"])


@BATCH_BUDGETS
@given(d=tie_heavy_datasets(), min_leaf=st.integers(1, 5), max_depth=st.integers(2, 7))
@example(d=unsplittable_node_case()[0], min_leaf=5, max_depth=4)
@settings(max_examples=150, deadline=None)
def test_tree_matches_per_feature_loop_at_batch_bounds(budget, d, min_leaf, max_depth):
    fs = FeatureSet.from_primitives(d)
    cfg = UfringeConfig(min_leaf=min_leaf, max_depth=max_depth)
    with mock.patch.object(ufringe, "_TREE_BATCH_BYTES", budget):
        got = build_clustering_tree(d, fs, cfg)
    assert_same_tree(got, loop_clustering_tree(d, fs, cfg))


@BATCH_BUDGETS
def test_constructed_features_tree_at_batch_bounds(budget):
    d, fs, cfg = constructed_feature_case()
    with mock.patch.object(ufringe, "_TREE_BATCH_BYTES", budget):
        got = build_clustering_tree(d, fs, cfg)
    assert_same_tree(got, loop_clustering_tree(d, fs, cfg))


def test_small_nodes_never_reach_the_kernel():
    # column "one" holds everywhere, so each segment's G[one, one] is the
    # number of rows the kernel counted for that node
    rng = np.random.default_rng(1)
    cols = {"one": np.ones(200, bool)}
    cols.update((f"f{j}", rng.random(200) < 0.3) for j in range(6))
    d = dataset_from_columns(cols)
    fs = FeatureSet.from_primitives(d)
    cfg = UfringeConfig(min_leaf=8, max_depth=8)
    counted = []  # rows per segment the kernel counted

    def kernel(words, starts=None, out=None):
        g = cooccurrence(words, starts, out)
        counted.extend(g[:, 0, 0].tolist())
        return g

    with mock.patch.object(ufringe, "cooccurrence", kernel):
        tree = build_clustering_tree(d, fs, cfg)
    want = loop_clustering_tree(d, fs, cfg)
    assert_same_tree(tree, want)
    stack, scored, small = [(want, 0)], [], 0
    while stack:
        node, depth = stack.pop()
        if depth < cfg.max_depth and node.variance > 0.0:
            if node.rows.size >= 2 * cfg.min_leaf:
                scored.append(node.rows.size)
            else:
                small += 1
        if not node.is_leaf:
            stack += [(node.true_child, depth + 1), (node.false_child, depth + 1)]
    assert small > 0  # some node is a leaf only because it is small
    assert min(counted) >= 2 * cfg.min_leaf
    assert sorted(counted) == sorted(scored)


def test_batches_count_into_one_workspace():
    # a budget of 0 scores one node per batch; every batch's G lands in the
    # same buffer, so no batch allocates one
    d, fs, cfg = constructed_feature_case()
    outs = []

    def kernel(words, starts=None, out=None):
        outs.append(out)
        return cooccurrence(words, starts, out)

    with mock.patch.object(ufringe, "_TREE_BATCH_BYTES", 0), \
            mock.patch.object(ufringe, "cooccurrence", kernel):
        tree = build_clustering_tree(d, fs, cfg)
    assert_same_tree(tree, loop_clustering_tree(d, fs, cfg))
    assert len(outs) > 1 and all(np.shares_memory(o, outs[0]) for o in outs)


def test_fringe_complete_depth2_tree():
    # split on a then b on both sides: the four path-end conjunctions
    cols = {
        "a": [1, 1, 1, 1, 0, 0, 0, 0] * 2,
        "b": [1, 1, 0, 0, 1, 1, 0, 0] * 2,
        "c": [1, 0, 1, 0, 1, 0, 1, 0] * 2,
    }
    d = dataset_from_columns(cols)
    fs = FeatureSet.from_primitives(d)

    grid = np.arange(d.n)
    a_mask = fs.extensions[:, 0]
    tree = TreeNode(rows=grid, variance=1.0, split_feature=0)
    for branch, rows in (("true", grid[a_mask]), ("false", grid[~a_mask])):
        b_mask = fs.extensions[rows, 1]
        child = TreeNode(rows=rows, variance=0.5, split_feature=1,
                         true_child=TreeNode(rows[b_mask], 0.0),
                         false_child=TreeNode(rows[~b_mask], 0.0))
        if branch == "true":
            tree.true_child = child
        else:
            tree.false_child = child

    feats = extract_fringe_features(tree, fs)
    got = {canonical_text(f) for f in feats}
    expected = {
        canonical_text(parse(s)) for s in ["a & b", "a & !b", "!a & b", "!a & !b"]
    }
    assert got == expected


def test_fringe_depth1_tree_empty():
    d = dataset_from_columns({"a": [1, 0, 1, 0], "b": [1, 1, 0, 0]})
    fs = FeatureSet.from_primitives(d)
    tree = TreeNode(rows=np.arange(4), variance=0.5, split_feature=0,
                    true_child=TreeNode(np.array([0, 2]), 0.0),
                    false_child=TreeNode(np.array([1, 3]), 0.0))
    assert extract_fringe_features(tree, fs) == []


def test_fringe_mixed_depth_path():
    d = dataset_from_columns({"x": [1, 0] * 4, "y": [1, 1, 0, 0] * 2})
    fs = FeatureSet.from_primitives(d)
    # path root -> (x false) -> (y true) leaf
    deep = TreeNode(rows=np.arange(4), variance=0.4, split_feature=1,
                    true_child=TreeNode(np.array([0, 1]), 0.0),
                    false_child=TreeNode(np.array([2, 3]), 0.0))
    tree = TreeNode(rows=np.arange(8), variance=0.5, split_feature=0,
                    true_child=TreeNode(np.array([0, 2, 4, 6]), 0.0),
                    false_child=deep)
    feats = {canonical_text(f) for f in extract_fringe_features(tree, fs)}
    assert canonical_text(parse("!x & y")) in feats
    assert canonical_text(parse("!x & !y")) in feats


def recursive_fringe(tree, fs):
    """Reference: the fringe by recursion over the full path."""
    out = []

    def walk(node, path):
        if node.is_leaf:
            if len(path) >= 2:
                lits = [fs.members[f] if b else Not(fs.members[f]) for f, b in path[-2:]]
                out.append(canonicalize(And(*lits)))
            return
        walk(node.true_child, path + [(node.split_feature, True)])
        walk(node.false_child, path + [(node.split_feature, False)])

    walk(tree, [])
    return out


def test_fringe_order_matches_recursive_walk():
    rng = np.random.default_rng(6)
    d = Dataset([f"f{j}" for j in range(8)], rng.random((300, 8)) < 0.4)
    fs = FeatureSet.from_primitives(d)
    tree = build_clustering_tree(d, fs, UfringeConfig(min_leaf=2))
    got = [canonical_text(f) for f in extract_fringe_features(tree, fs)]
    want = [canonical_text(f) for f in recursive_fringe(tree, fs)]
    assert len(got) > 50 and got == want


def test_fringe_negates_each_member_once():
    d = generated_dataset(2000, 20, 0)
    fs = FeatureSet.from_primitives(d)
    tree = build_clustering_tree(d, fs, UfringeConfig())
    with mock.patch.object(ex, "negation", wraps=ex.negation) as spy:
        got = [canonical_text(f) for f in extract_fringe_features(tree, fs)]
    assert got == [canonical_text(f) for f in recursive_fringe(tree, fs)]
    negated = [canonical_text(call.args[0]) for call in spy.call_args_list]
    # more fringe features than distinct literals, each member negated once
    assert len(got) > 2 * fs.m
    assert sorted(negated) == sorted(set(negated))


def test_fringe_of_a_chain_past_the_recursion_limit():
    # node i splits on x or y in turn; its true child is a leaf and its
    # false child node i + 1, down to a leaf at depth 3000
    d = dataset_from_columns({"x": [1, 0, 1, 0], "y": [1, 1, 0, 0]})
    fs = FeatureSet.from_primitives(d)
    depth = 3000
    rows = np.arange(4)
    node = TreeNode(rows, 0.0)
    for i in reversed(range(depth)):
        node = TreeNode(rows, 0.5, split_feature=i % 2,
                        true_child=TreeNode(rows, 0.0), false_child=node)
    got = [canonical_text(f) for f in extract_fringe_features(node, fs)]
    names = ["x", "y"]
    want = [f"!{names[(i - 1) % 2]} & {names[i % 2]}" for i in range(1, depth)]
    want.append("!x & !y")
    assert got == [canonical_text(parse(w)) for w in want]


@pytest.mark.parametrize("kwargs, match", [
    ({"max_features": 0}, "max_features must be >= 1"),
    ({"min_leaf": 0}, "min_leaf must be >= 1"),
    ({"max_depth": 1}, "max_depth must be >= 2"),
])
def test_config_bounds_rejected(kwargs, match):
    with pytest.raises(ValueError, match=match):
        UfringeConfig(**kwargs)


def test_run_no_fringe_yields_primitives():
    d = dataset_from_columns({"a": [1, 1, 1], "b": [0, 0, 0]})
    fs = ufringe_run(d, UfringeConfig(max_features=10, min_leaf=1))
    assert fs.keys == ("a", "b")


def test_run_grows_monotonically_and_respects_budget():
    rng = np.random.default_rng(2)
    base = rng.random(80) < 0.5
    cols = {
        "a": base,
        "b": base ^ (rng.random(80) < 0.15),
        "c": rng.random(80) < 0.4,
        "d": rng.random(80) < 0.6,
    }
    d = dataset_from_columns(cols)
    counts = []
    fs = FeatureSet.from_primitives(d)
    cfg = UfringeConfig(max_features=20, min_leaf=3, max_depth=6)
    # re-run manually to observe per-iteration counts
    while fs.m < cfg.max_features:
        tree = build_clustering_tree(d, fs, cfg)
        # the fringe keeps repeats; keep the first occurrence of each key
        seen = set(fs.key_set())
        new = []
        for f in extract_fringe_features(tree, fs):
            if canonical_text(f) not in seen:
                seen.add(canonical_text(f))
                new.append(f)
        if not new:
            break
        fs = FeatureSet(list(fs.members) + new, d)
        counts.append(fs.m)
    assert counts == sorted(counts)
    with mock.patch("boolfc.ufringe.build_clustering_tree",
                    wraps=build_clustering_tree) as spy:
        full = ufringe_run(d, cfg)
    assert full.m == fs.m
    assert full.keys == fs.keys
    # the budget is a soft cap: a round starts only below it and appends
    # its whole fringe, so the last round may end above it (21 of 20 here)
    starts = [call.args[1].m for call in spy.call_args_list]
    assert starts == [d.k] + counts[: len(starts) - 1]
    assert all(m < cfg.max_features for m in starts)
    assert full.m > cfg.max_features
    # primitives are never removed
    assert set(d.feature_names) <= set(full.keys)


def test_run_fringe_features_have_support():
    rng = np.random.default_rng(3)
    base = rng.random(60) < 0.5
    d = dataset_from_columns(
        {"a": base, "b": base ^ (rng.random(60) < 0.2), "c": rng.random(60) < 0.5}
    )
    fs = ufringe_run(d, UfringeConfig(max_features=15, min_leaf=3))
    assert (fs.supports() > 0).all()

"""uFRINGE baseline: top-down clustering trees over the current feature
representation, with new features taken from the last two conditions of
each root-to-leaf path."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import expr as ex
from .dataset import Dataset
from .metrics import FeatureSet
from .stats import cooccurrence, pack_columns


@dataclass(frozen=True)
class UfringeConfig:
    max_features: int = 300
    min_leaf: int = 5
    max_depth: int = 10

    def __post_init__(self):
        if self.min_leaf < 1:
            raise ValueError("min_leaf must be >= 1")
        if self.max_depth < 2:
            raise ValueError("max_depth must be >= 2")


@dataclass(eq=False)
class TreeNode:
    """Binary clustering-tree node over a subset of individuals."""

    rows: np.ndarray  # indices of individuals at this node
    variance: float
    split_feature: Optional[int] = None  # index into the feature set
    true_child: Optional["TreeNode"] = None
    false_child: Optional["TreeNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.split_feature is None


def build_clustering_tree(
    d: Dataset, fs: FeatureSet, cfg: UfringeConfig
) -> TreeNode:
    """Greedy top-down tree.  A node's variance is the mean squared
    distance of its rows to their centroid, which for Boolean vectors is
    sum over features of p(1-p), p the share of rows where a feature holds.

    Each node below ``max_depth`` with positive variance scores every
    split at once from the co-occurrence counts G of its rows: splitting
    on f, the true child's column sums are G[f] and the false child's are
    diag(G) - G[f].  The split minimizing the size-weighted children
    variance wins, scanning features in index order and replacing the
    best only when beaten by more than 1e-12, so near-ties go to the
    lowest index; the node splits only when that lowers its variance by
    more than 1e-12 and both children hold at least ``min_leaf`` rows."""
    matrix = fs.extensions

    def variance(sums: np.ndarray, size) -> np.ndarray:
        p = sums / size
        return (p * (1.0 - p)).sum(axis=-1)

    def grow(rows: np.ndarray, depth: int, var: float) -> TreeNode:
        node = TreeNode(rows=rows, variance=var)
        if depth >= cfg.max_depth or var <= 0.0:
            return node
        g = cooccurrence(pack_columns(matrix[rows]))
        n_true = np.diagonal(g)
        n_false = rows.size - n_true
        (ok,) = np.nonzero((n_true >= cfg.min_leaf) & (n_false >= cfg.min_leaf))
        var_true = variance(g[ok], n_true[ok, None])
        var_false = variance(n_true - g[ok], n_false[ok, None])
        scores = ((n_true[ok] * var_true + n_false[ok] * var_false) / rows.size).tolist()
        best = 0
        for i, score in enumerate(scores):
            if score < scores[best] - 1e-12:
                best = i
        if not scores or scores[best] >= var - 1e-12:
            return node  # no strict variance reduction available
        mask = matrix[rows, ok[best]]
        node.split_feature = int(ok[best])
        node.true_child = grow(rows[mask], depth + 1, float(var_true[best]))
        node.false_child = grow(rows[~mask], depth + 1, float(var_false[best]))
        return node

    return grow(np.arange(d.n), 0, float(variance(matrix.sum(axis=0), d.n)))


def extract_fringe_features(tree: TreeNode, fs: FeatureSet) -> list[ex.FeatureExpr]:
    """Conjunction of the last two edge-literals of every root-to-leaf
    path of length >= 2, canonicalized, in path order.  Repeats are kept:
    ``FeatureSet.extend`` keeps the first occurrence of each key."""
    features: list[ex.FeatureExpr] = []

    def literal(feature_index: int, branch: bool) -> ex.FeatureExpr:
        member = fs.members[feature_index]
        return member if branch else ex.Not(member)

    def walk(node: TreeNode, path: list[tuple[int, bool]]) -> None:
        if node.is_leaf:
            if len(path) >= 2:
                (f1, b1), (f2, b2) = path[-2], path[-1]
                feat = ex.canonicalize(ex.And(literal(f1, b1), literal(f2, b2)))
                features.append(feat)
            return
        walk(node.true_child, path + [(node.split_feature, True)])
        walk(node.false_child, path + [(node.split_feature, False)])

    walk(tree, [])
    return features


def ufringe_run(d: Dataset, cfg: UfringeConfig) -> FeatureSet:
    """Iterate tree construction and fringe extraction from the primitives
    until no new feature appears or the budget is reached.  Old features
    are never removed.

    ``max_features`` is a soft cap: a round starts only while
    ``m < max_features``, and each round appends its whole fringe, so the
    result can exceed the budget by up to one round's new features."""
    fs = FeatureSet.from_primitives(d)
    while fs.m < cfg.max_features:
        tree = build_clustering_tree(d, fs, cfg)
        grown = fs.extend(extract_fringe_features(tree, fs))
        if grown.m == fs.m:
            break
        fs = grown
    return fs

"""uFRINGE baseline: top-down clustering trees over the current feature
representation, with new features taken from the last two conditions of
each root-to-leaf path."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import expr as ex
from .dataset import Dataset
from .metrics import FeatureSet


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


@dataclass
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


def cluster_variance(matrix: np.ndarray, rows: np.ndarray) -> float:
    """Mean squared Euclidean distance to the centroid of the Boolean
    vectors, which reduces to sum over features of p(1-p)."""
    if rows.size == 0:
        return 0.0
    p = matrix[rows].mean(axis=0)
    return float((p * (1.0 - p)).sum())


def build_clustering_tree(
    d: Dataset, fs: FeatureSet, cfg: UfringeConfig
) -> TreeNode:
    """Greedy top-down tree: each split picks the feature minimizing the
    size-weighted children variance; ties go to the lowest feature index."""
    matrix = fs.extensions

    def grow(rows: np.ndarray, depth: int) -> TreeNode:
        var = cluster_variance(matrix, rows)
        node = TreeNode(rows=rows, variance=var)
        if depth >= cfg.max_depth or var <= 0.0:
            return node
        best = None  # (weighted_variance, feature_index, mask)
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
            return node  # no strict variance reduction available
        _, f, mask = best
        node.split_feature = f
        node.true_child = grow(rows[mask], depth + 1)
        node.false_child = grow(rows[~mask], depth + 1)
        return node

    return grow(np.arange(d.n), 0)


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

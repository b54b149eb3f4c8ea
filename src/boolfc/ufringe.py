"""uFRINGE baseline: top-down clustering trees over the current feature
representation, with new features taken from the last two conditions of
each root-to-leaf path."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import expr as ex
from .dataset import Dataset
from .metrics import FeatureSet
from .stats import cooccurrence, pack_segments


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


_TREE_BATCH_BYTES = 1 << 21  # split-scoring bytes per batch; one node may exceed it


def build_clustering_tree(
    d: Dataset, fs: FeatureSet, cfg: UfringeConfig
) -> TreeNode:
    """Greedy top-down tree.  A node's variance is the mean squared
    distance of its rows to their centroid, which for Boolean vectors is
    sum over features of p(1-p), p the share of rows where a feature holds.

    A node can split only below ``max_depth``, with positive variance and
    at least ``2 * min_leaf`` rows; any other node is a leaf at once.  The
    tree grows breadth first from a queue of nodes that can split, taken a
    batch at a time: a node's scoring temporaries take 32 * m^2 bytes, and
    a batch holds as many nodes as fit in ``_TREE_BATCH_BYTES``, but at
    least one, so above m = 256 every batch is one node over budget.  They
    are views of one workspace allocated once per tree, G's part taking
    the first floats once g[ok] is read.  One segmented popcount over the
    batch's rows, each node's packed from a word boundary, gives the
    co-occurrence counts G of every node in the batch.  Splitting on f, the true child's column sums are G[f] and the
    false child's are diag(G) - G[f], so every allowed split (both children
    with at least ``min_leaf`` rows) of every node in the batch is scored
    at once.  The split minimizing the size-weighted children variance
    wins, scanning a node's allowed splits in feature order and replacing
    the best only when beaten by more than 1e-12, so near-ties go to the
    lowest index; the node splits only when that lowers its variance by
    more than 1e-12.  Child rows keep their ascending order."""
    ext, m = fs.extensions, fs.m  # (n, m)
    # G, g[ok], two floats; a batch never outnumbers the queue, whose nodes
    # hold disjoint sets of at least 2 * min_leaf rows
    take = max(1, min(_TREE_BATCH_BYTES // (4 * 8 * m * m), d.n // (2 * cfg.min_leaf)))
    # per-batch arrays of this size are mapped fresh or trimmed from the
    # heap as glibc's malloc thresholds stand after earlier frees, and each
    # batch faults them in again: `construct --algorithm ufringe` on M took
    # 3787-4562 page faults so, 2235-2245 with this workspace (seeds 0, 3, 7)
    work = np.empty((3, take * m * m))  # G, then the first floats; g[ok]; the second floats
    ints = work[:2].view(np.int64)

    def variance(sums: np.ndarray, size, p=None, q=None) -> np.ndarray:
        p = np.divide(sums, size, out=p)
        q = np.subtract(1.0, p, out=q)
        q *= p  # p * (1 - p): a product's bits do not depend on operand order
        return q.sum(axis=-1)

    queue: deque[tuple[TreeNode, int]] = deque()

    def add(node: TreeNode, depth: int) -> TreeNode:
        if (depth < cfg.max_depth and node.variance > 0.0
                and node.rows.size >= 2 * cfg.min_leaf):
            queue.append((node, depth))
        return node

    root = add(TreeNode(np.arange(d.n), float(variance(ext.sum(axis=0), d.n))), 0)
    while queue:
        batch = [queue.popleft() for _ in range(min(take, len(queue)))]
        sizes = np.array([node.rows.size for node, _ in batch])
        g = cooccurrence(*pack_segments(ext, [node.rows for node, _ in batch]),
                         out=ints[0, :len(batch) * m * m].reshape(-1, m, m))
        n_true = np.diagonal(g, axis1=1, axis2=2).copy()
        n_false = sizes[:, None] - n_true
        ok = (n_true >= cfg.min_leaf) & (n_false >= cfg.min_leaf)
        at, feature = np.nonzero(ok)  # each allowed split's node and feature
        # g[ok]: the true children's column sums, one row per split; a take
        # in the default mode, which may raise, writes to a temporary first
        sums = np.take(g.reshape(-1, m), at * m + feature, axis=0, mode="clip",
                       out=ints[1, :at.size * m].reshape(-1, m))
        del g  # the first floats take its place
        p, q = (w[:sums.size].reshape(sums.shape) for w in work[0::2])
        nt, nf = n_true[ok], n_false[ok]
        vt = variance(sums, nt[:, None], p, q)
        vf = variance(np.subtract(n_true[at], sums, out=sums), nf[:, None], p, q)
        scores = ((nt * vt + nf * vf) / sizes[at]).tolist()
        feature, vt, vf = feature.tolist(), vt.tolist(), vf.tolist()
        end = 0
        for (node, depth), count in zip(batch, ok.sum(axis=1).tolist()):
            begin, end = end, end + count  # the node's allowed splits
            best = begin
            for s in range(begin + 1, end):
                if scores[s] < scores[best] - 1e-12:
                    best = s
            if begin == end or scores[best] >= node.variance - 1e-12:
                continue  # no allowed split, or none strictly lowers the variance
            mask = ext[node.rows, feature[best]]
            node.split_feature = feature[best]
            node.true_child = add(TreeNode(node.rows[mask], vt[best]), depth + 1)
            node.false_child = add(TreeNode(node.rows[~mask], vf[best]), depth + 1)
    return root


def extract_fringe_features(tree: TreeNode, fs: FeatureSet) -> list[ex.FeatureExpr]:
    """Conjunction of the last two edge-literals of every root-to-leaf
    path of length >= 2, canonicalized, in path order (true child first).
    Repeats are kept: ``FeatureSet.extend`` keeps the first occurrence of
    each key.  A depth-first walk with an explicit stack, so a tree of
    any depth takes no recursion."""
    features: list[ex.FeatureExpr] = []

    def literal(feature_index: int, branch: bool) -> ex.FeatureExpr:
        member = fs.members[feature_index]
        return member if branch else ex.negation(member)

    # (node, the path's second-last edge, its last edge); an edge is
    # (feature index, branch taken)
    stack = [(tree, None, None)]
    while stack:
        node, prev, last = stack.pop()
        if not node.is_leaf:
            stack.append((node.false_child, last, (node.split_feature, False)))
            stack.append((node.true_child, last, (node.split_feature, True)))
        elif prev is not None:
            features.append(ex.conjunction(literal(*prev), literal(*last)))
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

"""uFRINGE baseline: top-down clustering trees over the current feature
representation, with new features taken from the last two conditions of
each root-to-leaf path."""

from __future__ import annotations

import functools
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
        if self.max_features < 1:
            raise ValueError("max_features must be >= 1")
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


_TREE_BATCH_BYTES = 1 << 21  # bytes of G per batch; one node may exceed it


def _choose_splits(scores: np.ndarray) -> np.ndarray:
    """The column a scan of each row of ``scores`` in column order picks,
    replacing the best only when beaten by more than 1e-12.  The scan
    never leaves a minimum once it holds one, and takes the first one
    unless an earlier score within 1e-12 of it holds it off; so it picks
    the row's first minimum, and only rows with such an earlier score
    are scanned."""
    best = scores.argmin(axis=1)
    low = scores[np.arange(best.size), best, None]
    near = (scores - 1e-12 <= low) & (np.arange(scores.shape[1]) < best[:, None])
    for r in np.flatnonzero(near.any(axis=1)).tolist():
        row, pick = scores[r].tolist(), 0
        for s in range(1, len(row)):
            if row[s] < row[pick] - 1e-12:
                pick = s
        best[r] = pick
    return best


def build_clustering_tree(
    d: Dataset, fs: FeatureSet, cfg: UfringeConfig
) -> TreeNode:
    """Greedy top-down tree.  A node's variance is the mean squared
    distance of its rows to their centroid, which for Boolean vectors is
    sum over features of p(1-p), p the share of rows where a feature holds.

    A node can split only below ``max_depth``, with positive variance and
    at least ``2 * min_leaf`` rows; any other node is a leaf at once.  The
    tree grows breadth first from a queue of nodes that can split, taken a
    batch at a time.  One segmented popcount over the batch's rows, each
    node's packed from a word boundary, gives the co-occurrence counts G
    of every node into one int64 workspace allocated once per tree, 8 * m^2
    bytes a node; a batch holds as many nodes as fit in
    ``_TREE_BATCH_BYTES``, but at least one, so only above m = 512 is a
    batch, of one node, over budget.

    Splitting on f, the true child's column sums are G[f] and the false
    child's c - G[f], c = diag(G).  With S1 = sum_j G[f, j],
    S2 = sum_j G[f, j]^2, CS = sum_j c_j G[f, j], C1 = sum c and
    C2 = sum c^2, the children's size-weighted variances are
    n_t v_t = S1 - S2 / n_t and n_f v_f = (C1 - S1) - (C2 - 2 CS + S2) / n_f,
    so a split scores (C1 - S2 / n_t - (C2 - 2 CS + S2) / n_f) / |R| from
    exact int64 sums (S2, CS and C2 are each at most m * n^2, exact while
    2 * m * n^2 < 2^63).  A split is allowed when both children have at
    least ``min_leaf`` rows; the others score +inf.  The best split is the
    one a scan of the node's scores in feature order picks, replacing the
    best only when beaten by more than 1e-12, so near-ties go to the
    lowest index (``_choose_splits``); the node splits only when that
    lowers its variance by more than 1e-12.  The splitting nodes' rows are
    taken apart in one stable sort, so child rows keep their ascending
    order, and the children's variances are computed from their column
    sums as the root's is."""
    ext, m = fs.extensions, fs.m  # (n, m)
    # a batch never outnumbers the queue, whose nodes hold disjoint sets
    # of at least 2 * min_leaf rows
    take = max(1, min(_TREE_BATCH_BYTES // (8 * m * m), d.n // (2 * cfg.min_leaf)))
    # per-batch arrays of this size are mapped fresh or trimmed from the
    # heap as glibc's malloc thresholds stand after earlier frees, and each
    # batch faults them in again: `construct --algorithm ufringe` on M took
    # 3787-4562 page faults so, 2235-2245 with a workspace (seeds 0, 3, 7)
    work = np.empty((take, m, m), dtype=np.int64)

    def variance(sums: np.ndarray, size) -> np.ndarray:
        p = sums / size
        q = 1.0 - p
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
        rows = [node.rows for node, _ in batch]
        sizes = np.array([r.size for r in rows])[:, None]
        g = cooccurrence(*pack_segments(ext, rows), out=work[:len(batch)])
        c = np.diagonal(g, axis1=1, axis2=2).copy()  # (batch, m) true children's sizes
        n_false = sizes - c
        # the children's sums of squared column sums: S2, C2 - 2 CS + S2
        s2 = np.einsum("bfj,bfj->bf", g, g)
        s2_false = (c * c).sum(axis=1, keepdims=True) - 2 * np.einsum("bfj,bj->bf", g, c) + s2
        # a child with no rows divides by 0; such a split scores +inf below
        with np.errstate(divide="ignore", invalid="ignore"):
            scores = (c.sum(axis=1, keepdims=True) - s2 / c - s2_false / n_false) / sizes
        scores[(c < cfg.min_leaf) | (n_false < cfg.min_leaf)] = np.inf
        best = _choose_splits(scores)
        at = np.flatnonzero(scores[np.arange(best.size), best]
                            < np.array([node.variance for node, _ in batch]) - 1e-12)
        if not at.size:
            continue  # no node has a split that strictly lowers its variance
        f = best[at]
        sums = g[at, f]  # (splits, m) true children's column sums
        nt, nf = c[at, f], n_false[at, f]
        vt = variance(sums, nt[:, None]).tolist()
        vf = variance(c[at] - sums, nf[:, None]).tolist()
        # every splitting node's rows, true rows first, in one stable sort
        owner = np.repeat(np.arange(at.size), sizes[at, 0])
        cat = np.concatenate([rows[i] for i in at.tolist()])
        cat = cat[np.argsort(2 * owner + ~ext[cat, f[owner]], kind="stable")]
        ends = [0, *np.cumsum(np.column_stack([nt, nf])).tolist()]
        parts = [cat[a:b] for a, b in zip(ends, ends[1:])]
        for j, (i, feature) in enumerate(zip(at.tolist(), f.tolist())):
            node, depth = batch[i]
            node.split_feature = feature
            node.true_child = add(TreeNode(parts[2 * j], vt[j]), depth + 1)
            node.false_child = add(TreeNode(parts[2 * j + 1], vf[j]), depth + 1)
    return root


def extract_fringe_features(tree: TreeNode, fs: FeatureSet) -> list[ex.FeatureExpr]:
    """Conjunction of the last two edge-literals of every root-to-leaf
    path of length >= 2, canonicalized, in path order (true child first).
    Repeats are kept: ``FeatureSet.extend`` keeps the first occurrence of
    each key.  A depth-first walk with an explicit stack, so a tree of
    any depth takes no recursion; each (feature, branch) literal is built
    once, a tree's leaves sharing at most 2 * m of them."""
    features: list[ex.FeatureExpr] = []

    @functools.cache
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

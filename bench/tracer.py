"""Outside-in layer trace: wrap boolfc's public functions from outside the
package, keep one span per call in memory, and turn spans into per-layer
self times and work counts.

Two rules keep the wrappers honest:

* ``from .x import y`` binds its own name in every importing module, so a
  wrapper replaces *every* binding of the original object in every loaded
  ``boolfc`` module, not only the defining one (``report`` lives in
  ``metrics`` but is called through ``ufc``, ``noise`` and ``cli``).
* The recursive ``to_text``, ``canonicalize`` and ``evaluate`` are never
  wrapped: their recursive calls go through the module global, so a
  wrapper would time every step of the recursion.  Their cost lands in the
  self time of their callers (``canonical_text``, ``literal_count``,
  ``FeatureSet``, the run loops).
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from functools import wraps

# Span names follow README.md's layer map: <module>.<function>.  The
# count hooks run after the span closes, so their cost is charged to the
# caller's span, never to the wrapped function's own time.


def _count_pair_tables(c, result, fs):
    n, m = fs.dataset.n, fs.m
    c["ufc.pair_tables.macs"] += n * m * m
    # computed, not measured: bool input, its int64 copy, the (m, m, 4) table
    c["ufc.pair_tables.bytes"] += n * m + 8 * n * m + 32 * m * m


def _count_search(c, result, fs, threshold, pruning):
    c["ufc.search.pairs_scored"] += fs.m * (fs.m - 1) // 2
    c["ufc.search.candidates"] += len(result)


def _count_ufc_run(c, result, d, cfg):
    c["ufc.iterations"] += result.iterations


def _count_tree(c, tree, d, fs, cfg):
    stack = [(tree, 0)]
    while stack:
        node, depth = stack.pop()
        c["ufringe.tree_nodes"] += 1
        # grow() scores every feature at a node below max_depth with variance
        if depth < cfg.max_depth and node.variance > 0.0:
            c["ufringe.splits_scored"] += fs.m
        if not node.is_leaf:
            stack.append((node.true_child, depth + 1))
            stack.append((node.false_child, depth + 1))


def _count_fringe(c, result, tree, fs):
    c["ufringe.fringe_features"] += len(result)


def _count_load(c, result, source):
    c["dataset.load_dataset.cells"] += result.n * result.k


def _count_dump(c, result, d, out):
    c["dataset.dump_dataset.cells"] += d.n * d.k


def _count_feature_set(c, result, fs, members, dataset):
    c["metrics.FeatureSet.members"] += fs.m


# (module, attribute, span name, count hook)
TARGETS = [
    ("boolfc.cli", "main", "cli.main", None),
    ("boolfc.dataset", "load_dataset", "dataset.load_dataset", _count_load),
    ("boolfc.dataset", "dump_dataset", "dataset.dump_dataset", _count_dump),
    ("boolfc.dataset", "unique_count", "dataset.unique_count", None),
    ("boolfc.dataset", "inject_noise", "dataset.inject_noise", None),
    ("boolfc.expr", "canonical_text", "expr.canonical_text", None),
    ("boolfc.expr", "literal_count", "expr.literal_count", None),
    ("boolfc.expr", "load_feature_file", "expr.load_feature_file", None),
    ("boolfc.expr", "save_feature_file", "expr.save_feature_file", None),
    ("boolfc.metrics", "report", "metrics.report", None),
    ("boolfc.ufc", "pair_tables", "ufc.pair_tables", _count_pair_tables),
    ("boolfc.ufc", "search_correlated_pairs", "ufc.search_correlated_pairs",
     _count_search),
    ("boolfc.ufc", "construct_new_features", "ufc.construct_new_features", None),
    ("boolfc.ufc", "prune_obsolete_features", "ufc.prune_obsolete_features", None),
    ("boolfc.ufc", "ufc_run", "ufc.ufc_run", _count_ufc_run),
    ("boolfc.ufc", "count_common", "noise.count_common", None),
    ("boolfc.ufringe", "build_clustering_tree", "ufringe.build_clustering_tree",
     _count_tree),
    ("boolfc.ufringe", "extract_fringe_features",
     "ufringe.extract_fringe_features", _count_fringe),
    ("boolfc.ufringe", "ufringe_run", "ufringe.ufringe_run", None),
    ("boolfc.noise", "noise_experiment", "noise.noise_experiment", None),
]


class Tracer:
    """In-memory span recorder; spans are (name, parent, start, end)."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name, fn, hook=None):
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self._stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self.starts[sid] = start
                self.ends[sid] = end
            if hook is not None:
                hook(self.counts, result, *args, **kwargs)
            return result

        return traced

    def install(self) -> None:
        """Patch every binding of each target in the loaded boolfc modules."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "boolfc" or name.startswith("boolfc.")]
        for module_name, attr, span, hook in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            traced = self.wrap(span, original, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
        feature_set = sys.modules["boolfc.metrics"].FeatureSet
        feature_set.__init__ = self.wrap(
            "metrics.FeatureSet", feature_set.__init__, _count_feature_set
        )

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "names": self.names,
                "parents": self.parents,
                "starts": self.starts,
                "ends": self.ends,
                "counts": dict(self.counts),
            }, fh)


def summarize(trace: dict) -> dict[str, float]:
    """Per span name: summed self time (``<name>.s``) and call count
    (``<name>.calls``), plus the count hooks' totals.  Self time is a
    span's duration minus the durations of its direct child spans."""
    names, parents = trace["names"], trace["parents"]
    duration = [e - s for s, e in zip(trace["starts"], trace["ends"])]
    self_time = list(duration)
    for sid, parent in enumerate(parents):
        if parent >= 0:
            self_time[parent] -= duration[sid]
    out: dict[str, float] = dict(trace["counts"])
    for name, t in zip(names, self_time):
        out[name + ".s"] = out.get(name + ".s", 0.0) + t
        out[name + ".calls"] = out.get(name + ".calls", 0) + 1
    return out

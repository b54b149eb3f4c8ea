"""Plain-Python reference implementations that the tests compare boolfc
with, one per rule, and the inputs that the uFC tests share.

None of them reads a ``FeatureSet``, the popcount kernel or the carried
co-occurrence matrix: each works on bool columns, such as a dataset's
``column``, or on plain numbers.  pytest collects no test from this
module."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import strategies as st

from boolfc.dataset import Dataset
from boolfc.expr import (
    And,
    Not,
    Prim,
    UnknownFeatureError,
    canonical_text,
    conjunction,
    negation,
    to_text,
)
from boolfc.metrics import MetricsError, growing_gram_pays
from boolfc.stats import ContingencyTable, lambda_from_risk
from boolfc.ufc import CandidatePair, FixedMode, RiskMode, UfcConfig, UfcError

# -- inputs --------------------------------------------------------------------


def dataset_from_columns(cols: dict) -> Dataset:
    return Dataset(
        list(cols), np.column_stack([np.asarray(v, bool) for v in cols.values()])
    )


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

# stand-ins for ``metrics.growing_gram_pays``: always grow G, always count it
RULES = {"grow": lambda *size: True, "count": lambda *size: False, "rule": growing_gram_pays}


@st.composite
def correlated_datasets(draw):
    """Groups of noisy copies of a few latent columns, so that most uFC
    runs build for two or more iterations; a copy without noise can
    make the dataset degenerate."""
    n, k = draw(st.integers(40, 200)), draw(st.integers(3, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    groups = draw(st.integers(1, (k + 1) // 2))
    latent = rng.random((n, groups)) < rng.uniform(0.2, 0.8, groups)
    noise = rng.random((n, k)) < rng.choice([0.0, 0.05, 0.1, 0.2], k)
    return Dataset([f"f{j}" for j in range(k)], latent[:, np.arange(k) % groups] ^ noise)


# -- expressions ---------------------------------------------------------------


def ref_evaluate(e, d: Dataset) -> np.ndarray:
    """Recursive, member by member evaluation over bool columns."""
    if isinstance(e, Prim):
        if e.name not in d.name_index:
            raise UnknownFeatureError(f"unknown feature {e.name!r}")
        return d.column(e.name)
    if isinstance(e, Not):
        return ~ref_evaluate(e.child, d)
    return ref_evaluate(e.left, d) & ref_evaluate(e.right, d)


def ref_literals(e) -> set[str]:
    """The distinct signed leaves of ``e`` (C1 counts them), each a name or
    '!' and a name: a negated conjunction resets the sign, and a double
    negation cancels."""
    if isinstance(e, Prim):
        return {e.name}
    if isinstance(e, And):
        return ref_literals(e.left) | ref_literals(e.right)
    child = e.child
    if isinstance(child, Prim):
        return {"!" + child.name}
    return ref_literals(child.child if isinstance(child, Not) else child)


# -- statistics ----------------------------------------------------------------


def textbook_chi2(t: ContingencyTable) -> float:
    """Pearson's chi-square: the sum over the four cells of
    (observed - expected)^2 / expected."""
    n = t.n
    rows = (t.a + t.b, t.c + t.d)
    cols = (t.a + t.c, t.b + t.d)
    observed = ((t.a, t.b), (t.c, t.d))
    total = 0.0
    for i in range(2):
        for j in range(2):
            e = rows[i] * cols[j] / n
            total += (observed[i][j] - e) ** 2 / e
    return total


def scalar_search_reference(x: np.ndarray, threshold, pruning) -> list[CandidatePair]:
    """``search_correlated_pairs`` over the columns of the (n, m) bool
    matrix ``x``: a loop over the pairs, with its own int64 co-occurrence
    product and the division form of the expected-frequency rule."""
    ext = x.astype(np.int64)
    co = ext.T @ ext
    n, m = x.shape
    out = []
    for i in range(m):
        for j in range(i + 1, m):
            a = int(co[i, j])
            b = int(co[i, i]) - a
            c = int(co[j, j]) - a
            d = n - a - b - c
            m1, m2, m3, m4 = a + b, c + d, a + c, b + d
            if min(m1, m2, m3, m4) == 0:
                continue
            r = (a * d - b * c) / np.sqrt(
                float(m1) * float(m2) * float(m3) * float(m4)
            )
            if r <= threshold:
                continue
            if pruning and not all(
                row * col / n >= 5.0 for row in (m1, m2) for col in (m3, m4)
            ):
                continue
            out.append(CandidatePair(i, j, float(r)))
    out.sort(key=lambda p: (-p.r, p.i, p.j))
    return out


# -- metrics and the Pareto front ----------------------------------------------


def brute_oi(x: np.ndarray) -> tuple[float, bool]:
    """OI of the columns of the (n, m) bool matrix ``x``, and whether the
    virtual null feature joined them: it covers the rows no column covers,
    and counts in the sum and in m."""
    n, m = x.shape
    sum_p = int(x.sum()) / n
    uncovered = n - int(x.any(axis=1).sum())
    null_added = uncovered > 0
    if null_added:
        sum_p += uncovered / n
    if m + null_added < 2:
        raise MetricsError("one feature")
    return (sum_p - 1.0) / (m + null_added - 1), null_added


def brute_front(sols):
    """The solutions no other one dominates on (OI, C0), the first of each
    point kept, by OI then C0: a quadratic scan."""
    out, seen = [], set()
    for s in sols:
        if any(
            o.oi <= s.oi and o.c0 <= s.c0 and (o.oi < s.oi or o.c0 < s.c0)
            for o in sols
        ):
            continue
        if (s.oi, s.c0) not in seen:
            seen.add((s.oi, s.c0))
            out.append(s)
    return sorted(out, key=lambda s: (s.oi, s.c0))


# -- a whole uFC run -----------------------------------------------------------


def oracle_report(d: Dataset, columns: list, members: list) -> dict:
    """``asdict(report(fs))`` from the bool columns of the members."""
    k, m = d.k, len(members)
    oi, null_added = brute_oi(np.column_stack(columns))
    if m == k and {canonical_text(e) for e in members} == set(d.feature_names):
        c0 = 0.0
    else:
        c0 = max((m - k) / (len({row.tobytes() for row in d.matrix}) - k), 0.0)
    c1 = sum(len(ref_literals(e)) for e in members) / m
    return {"oi": oi, "c0": c0, "c1": c1, "rms": math.sqrt((oi * oi + c0 * c0) / 2.0),
            "m": m, "null_added": null_added}


def oracle_run_json(d: Dataset, cfg: UfcConfig) -> tuple[dict, np.ndarray]:
    """``ufc_run(d, cfg).to_json_dict()`` and the (n, m) bool columns of
    its final features, from a plain loop over bool columns: the pairs of
    ``scalar_search_reference``, greedy disjoint pairs by r descending,
    the triple operator, then pruning."""
    if len({row.tobytes() for row in d.matrix}) <= d.k:
        raise UfcError("degenerate dataset")
    risk = isinstance(cfg.mode, RiskMode)
    threshold = lambda_from_risk(cfg.mode.alpha, d.n) if risk else cfg.mode.threshold
    limit = cfg.mode.hard_cap if risk else cfg.mode.limit_iter
    members = [Prim(name) for name in d.feature_names]
    columns = [d.column(name) for name in d.feature_names]
    trajectory = [oracle_report(d, columns, members)]
    constructed, pruned = [], []
    while True:
        pairs = scalar_search_reference(np.column_stack(columns), threshold, cfg.pruning)
        used = set()
        new_members, new_columns = list(members), list(columns)
        keys = [canonical_text(e) for e in members]
        for pair in pairs:
            if pair.i in used or pair.j in used:
                continue
            used.update((pair.i, pair.j))
            fi, fj, xi, xj = members[pair.i], members[pair.j], columns[pair.i], columns[pair.j]
            for child, col in ((conjunction(fi, fj), xi & xj),
                               (conjunction(negation(fi), fj), ~xi & xj),
                               (conjunction(fi, negation(fj)), xi & ~xj)):
                if canonical_text(child) not in keys:
                    keys.append(canonical_text(child))
                    new_members.append(child)
                    new_columns.append(col)
        parents = {keys[i] for i in used}
        keep = [col.any() and key not in parents for key, col in zip(keys, new_columns)]
        if not any(keep):
            raise UfcError("pruning removed every feature")
        if [key for key, kept in zip(keys, keep) if kept] == keys[:len(members)]:
            stop = "fixpoint"
            break
        constructed.append(keys[len(members):])
        pruned.append([key for key, kept in zip(keys, keep) if not kept])
        previous = members, columns
        members = [e for e, kept in zip(new_members, keep) if kept]
        columns = [col for col, kept in zip(new_columns, keep) if kept]
        trajectory.append(oracle_report(d, columns, members))
        if risk and trajectory[-1]["rms"] > trajectory[-2]["rms"]:
            stop, (members, columns) = "rms_minimum", previous
            break
        if len(trajectory) - 1 >= limit:
            stop = "hard_cap" if risk else "iter_limit"
            break
    run = {
        "threshold": threshold,
        "stop_reason": stop,
        "iterations": len(trajectory) - 1,
        "features": [to_text(e) for e in members],
        "final_metrics": trajectory[-2 if stop == "rms_minimum" else -1],
        "trajectory": trajectory,
        "constructed": constructed,
        "pruned": pruned,
    }
    return run, np.column_stack(columns)

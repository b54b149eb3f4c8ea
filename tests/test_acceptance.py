"""Acceptance gate: end-to-end criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they pass.
"""

import itertools
import math
import os
import statistics
from contextlib import contextmanager

import numpy as np
import pytest
from oracles import brute_front, brute_oi, ref_evaluate, textbook_chi2

from boolfc.cli import main as cli_main
from boolfc.dataset import Dataset, load_dataset, save_dataset, unique_count
from boolfc.expr import parse
from boolfc.metrics import FeatureSet, overlapping_index, avg_length_c1
from boolfc.noise import noise_experiment
from boolfc.pareto import Solution, closest_point, pareto_front, sweep
from boolfc.stats import (
    ContingencyTable,
    chi2_obs,
    kendall_exact_pvalue,
    lambda_from_risk,
    pearson_r,
)
from boolfc.ufc import (
    FixedMode,
    RiskMode,
    UfcConfig,
    construct_new_features,
    search_correlated_pairs,
    ufc_run,
)
from boolfc.ufringe import UfringeConfig, ufringe_run


@contextmanager
def criterion(num: int):
    try:
        yield
    except Exception:
        print(f"criterion {num}: FAIL")
        raise
    print(f"criterion {num}: PASS")


def correlated_dataset(seed: int, n: int, groups: int, flip: float = 0.12) -> Dataset:
    """Groups of near-duplicate columns plus the strongly correlated pairs
    they induce; the standard synthetic workload for run-level criteria."""
    rng = np.random.default_rng(seed)
    cols = {}
    for g in range(groups):
        base = rng.random(n) < 0.5
        cols[f"g{g}a"] = base
        cols[f"g{g}b"] = base ^ (rng.random(n) < flip)
        cols[f"g{g}c"] = rng.random(n) < 0.5
    return Dataset(list(cols), np.column_stack(list(cols.values())))


# -- 1. lambda-from-risk reproduction ---------------------------------------


def test_criterion_1_lambda_from_risk():
    with criterion(1):
        assert lambda_from_risk(0.001, 264) == pytest.approx(0.190, abs=0.001)
        assert lambda_from_risk(0.0001, 267) == pytest.approx(0.228, abs=0.001)
        assert lambda_from_risk(0.0001, 608) == pytest.approx(0.150, abs=0.001)


# -- 2. chi-square identity ---------------------------------------------------


def test_criterion_2_chi2_identity():
    with criterion(2):
        rng = np.random.default_rng(42)
        for _ in range(10_000):
            a, b, c, d = (int(v) for v in rng.integers(1, 50, size=4))
            t = ContingencyTable(a, b, c, d)
            got = chi2_obs(t)
            want = textbook_chi2(t)
            assert abs(got - want) <= 1e-9 * max(want, 1.0)
            assert got == pytest.approx((a + b + c + d) * pearson_r(t) ** 2)


# -- 3. construction partition property --------------------------------------


def test_criterion_3_partition_property():
    with criterion(3):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 1000:
            n = int(rng.integers(4, 257))
            k = int(rng.integers(2, 7))
            names = [f"f{i}" for i in range(k)]
            d = Dataset(names, rng.random((n, k)) < rng.uniform(0.2, 0.8))
            i, j = rng.choice(k, size=2, replace=False)
            fi, fj = parse(names[i]), parse(names[j])
            if rng.random() < 0.3 and k >= 3:
                other = names[int(rng.integers(0, k))]
                fi = parse(f"!{names[i]} & {other}")
            bits = [ref_evaluate(c, d) for c in construct_new_features(fi, fj)]
            assert (np.sum(bits, axis=0) <= 1).all()  # pairwise disjoint
            parents = ref_evaluate(fi, d) | ref_evaluate(fj, d)
            assert np.array_equal(np.any(bits, axis=0), parents)  # union preserved
            checked += 1


# -- 4. monotonicity along runs ------------------------------------------------


def test_criterion_4_trajectory_monotonicity():
    with criterion(4):
        rng = np.random.default_rng(11)
        for case in range(100):
            n = int(rng.integers(40, 513))
            groups = int(rng.integers(1, 6))  # k = 3 * groups <= 15
            d = correlated_dataset(int(rng.integers(1 << 30)), n, groups)
            thr = float(rng.uniform(0.1, 0.5))
            res = ufc_run(d, UfcConfig(FixedMode(thr, 6)))
            traj = res.trajectory
            for rep in traj:
                assert 0.0 <= rep.oi <= 1.0
            for prev, cur in zip(traj, traj[1:]):
                assert cur.oi < prev.oi
                assert cur.c0 >= prev.c0


# -- 5. oracle equivalence, small scale ----------------------------------------


def brute_kendall_p(x, y):
    def s_stat(xs, ys):
        return sum(
            int(np.sign((xs[i] - xs[j]) * (ys[i] - ys[j])))
            for i in range(len(xs))
            for j in range(i + 1, len(xs))
        )

    def tau(xs, ys):
        s = s_stat(xs, ys)
        tx = sum(
            c * (c - 1) // 2
            for c in (xs.count(v) for v in set(xs))
        )
        ty = sum(
            c * (c - 1) // 2
            for c in (ys.count(v) for v in set(ys))
        )
        n0 = len(xs) * (len(xs) - 1) // 2
        return s / math.sqrt((n0 - tx) * (n0 - ty))

    obs = abs(tau(list(x), list(y)))
    hits = total = 0
    for perm in itertools.permutations(y):
        total += 1
        if abs(tau(list(x), list(perm))) >= obs - 1e-12:
            hits += 1
    return hits / total


def test_criterion_5_small_scale_oracles():
    with criterion(5):
        rng = np.random.default_rng(5)
        # OI, C1, unique_count on tiny random datasets
        for _ in range(40):
            n = int(rng.integers(2, 13))
            k = int(rng.integers(2, 5))
            names = [f"f{i}" for i in range(k)]
            d = Dataset(names, rng.random((n, k)) < rng.random())
            fs = FeatureSet.from_primitives(d)
            assert overlapping_index(fs) == pytest.approx(brute_oi(d.matrix)[0], abs=1e-12)
            assert avg_length_c1(fs) == 1.0
            assert unique_count(d) == len({tuple(r) for r in d.matrix.tolist()})
        # C1 on hand-composed features
        d = Dataset(["a", "b", "c"], rng.random((8, 3)) < 0.5)
        fs = FeatureSet([parse("a & b"), parse("!a & b & c"), parse("c")], d)
        assert avg_length_c1(fs) == pytest.approx((2 + 3 + 1) / 3)
        # pareto_front and closest_point vs quadratic scans
        for _ in range(30):
            sols = [
                Solution(
                    threshold=float(rng.random()),
                    limit_iter=int(rng.integers(1, 4)),
                    num_features=4,
                    oi=round(float(rng.random()), 2),
                    c0=round(float(rng.random()), 2),
                    c1=1.0,
                    rms=0.0,
                )
                for _ in range(20)
            ]
            assert pareto_front(sols) == brute_front(sols)
            best = closest_point(sols)
            dmin = min(math.hypot(s.oi, s.c0) for s in sols)
            assert math.hypot(best.oi, best.c0) == pytest.approx(dmin)
        # Kendall exact permutation p, lengths <= 6
        for _ in range(15):
            n = int(rng.integers(3, 7))
            x = [float(v) for v in rng.integers(0, 4, size=n)]
            y = [float(v) for v in rng.integers(0, 4, size=n)]
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            assert kendall_exact_pvalue(x, y) == pytest.approx(
                brute_kendall_p(x, y), abs=1e-12
            )


# -- 6. determinism --------------------------------------------------------------


def test_criterion_6_determinism(tmp_path):
    with criterion(6):
        d = correlated_dataset(3, 120, 2)
        csv = str(tmp_path / "d.csv")
        save_dataset(d, csv)
        outputs = []
        for tag in ("a", "b"):
            prefix = str(tmp_path / f"c{tag}")
            assert cli_main(["construct", csv, "--risk", "0.01",
                             "--out", prefix]) == 0
            sweep_out = str(tmp_path / f"s{tag}.csv")
            assert cli_main(["sweep", csv, "--lambda-from", "0.1",
                             "--lambda-to", "0.4", "--lambda-step", "0.1",
                             "--iters-max", "3", "--out", sweep_out]) == 0
            noise_out = str(tmp_path / f"n{tag}.csv")
            assert cli_main(["noise", csv, "--pcts", "0,0.1",
                             "--replicates", "2", "--seed", "9",
                             "--out", noise_out]) == 0
            fringe = str(tmp_path / f"f{tag}")
            assert cli_main(["construct", csv, "--algorithm", "ufringe",
                             "--out", fringe]) == 0
            features = prefix + ".features.txt"
            transform_out = str(tmp_path / f"t{tag}.csv")
            assert cli_main(["transform", csv, "--features", features,
                             "--out", transform_out]) == 0
            metrics_out = str(tmp_path / f"m{tag}.json")
            assert cli_main(["metrics", csv, "--features", features,
                             "--out", metrics_out]) == 0
            front_out = str(tmp_path / f"p{tag}.csv")
            closest_out = str(tmp_path / f"p{tag}.json")
            assert cli_main(["pareto", "--in", sweep_out, "--front-out", front_out,
                             "--closest-out", closest_out]) == 0
            blobs = []
            for p in (features, prefix + ".run.json", sweep_out, noise_out,
                      fringe + ".features.txt", fringe + ".run.json",
                      transform_out, metrics_out, front_out, closest_out):
                with open(p, "rb") as fh:
                    blobs.append(fh.read())
            outputs.append(blobs)
        assert outputs[0] == outputs[1]


# -- 7. RMS stopping ---------------------------------------------------------------


def test_criterion_7_rms_stopping():
    with criterion(7):
        for seed in range(20):
            d = correlated_dataset(seed, 200 + 7 * seed, 2 + seed % 3)
            risk = ufc_run(d, UfcConfig(RiskMode(0.001)))
            fixed = ufc_run(
                d,
                UfcConfig(FixedMode(risk.threshold, 100), candidate_pruning=True),
            )
            rms_risk = risk.final_report().rms
            rms_min = min(rep.rms for rep in fixed.trajectory)
            assert rms_risk == pytest.approx(rms_min, abs=1e-12)


# -- 8. pruning dominance ------------------------------------------------------------


def rare_cooccurrence_dataset(starts) -> Dataset:
    """300 rows; two balanced common features plus pairs of rare features
    (support 8, overlap 5) whose expected joint counts fall below 5."""
    n = 300
    idx = np.arange(n)
    cols = {"c1": idx < 150, "c2": (idx % 150) < 75}
    for p, s in enumerate(starts):
        a = np.zeros(n, bool)
        b = np.zeros(n, bool)
        a[s:s + 8] = True
        b[s:s + 5] = True
        b[s + 8:s + 11] = True
        cols[f"ra{p}"] = a
        cols[f"rb{p}"] = b
    return Dataset(list(cols), np.column_stack(list(cols.values())))


def test_criterion_8_pruning_dominance():
    with criterion(8):
        variants = [
            [5, 90, 160],
            [5, 20, 90, 230],
            [5, 20, 90, 160, 230],
        ]
        thresholds = [0.3, 0.4, 0.5]
        iters = [1, 2, 3]
        for starts in variants:
            d = rare_cooccurrence_dataset(starts)
            pruned = pareto_front(sweep(d, thresholds, iters, pruning=True))
            unpruned = pareto_front(sweep(d, thresholds, iters, pruning=False))
            assert min(s.c0 for s in pruned) <= 0.2
            assert max(s.c0 for s in unpruned) >= 0.5


# -- 9. reference-table reproduction (conditional) -------------------------------------


def test_criterion_9_reference_tables():
    here = os.path.dirname(os.path.abspath(__file__))
    candidates = [
        os.path.join(here, "..", "data", name)
        for name in ("hungarian.csv", "spect.csv", "street.csv")
    ]
    available = [p for p in candidates if os.path.exists(p)]
    if len(available) < len(candidates):
        print("criterion 9: SKIP (reference datasets not available)")
        pytest.skip("reference datasets not available")
    with criterion(9):
        hungarian = load_dataset(candidates[0])
        res = ufc_run(hungarian, UfcConfig(FixedMode(0.194, 2)))
        rep = res.final_report()
        assert abs(rep.m - 21) <= 2
        assert rep.oi == pytest.approx(0.076, abs=0.01)
        assert rep.c0 == pytest.approx(0.069, abs=0.01)
        fringe = ufringe_run(hungarian, UfringeConfig())
        assert overlapping_index(fringe) == pytest.approx(0.24, abs=0.05)


# -- 10. noise-stability shape ------------------------------------------------------


def test_criterion_10_noise_shape():
    with criterion(10):
        # small n makes the risk threshold high enough that moderate noise
        # pushes pairwise correlations below it
        rng = np.random.default_rng(1)
        n, groups = 60, 3
        cols = {}
        for g in range(groups):
            base = rng.random(n) < 0.5
            cols[f"g{g}a"] = base
            cols[f"g{g}b"] = base ^ (rng.random(n) < 0.06)
        d = Dataset(list(cols), np.column_stack(list(cols.values())))
        pcts = [0.0, 0.1, 0.2, 0.3]
        rows = noise_experiment(d, pcts, replicates=6, seed=0)
        mean_oi = [
            statistics.mean(r.oi for r in rows if r.pct == p) for p in pcts
        ]
        mean_m = [
            statistics.mean(r.num_features for r in rows if r.pct == p)
            for p in pcts
        ]
        assert mean_oi == sorted(mean_oi)  # OI grows with noise
        assert mean_oi[-1] > mean_oi[0]
        assert mean_m == sorted(mean_m, reverse=True)  # m shrinks with noise
        assert mean_m[-1] <= d.k + 0.5  # back to the primitives
        assert abs(mean_m[-2] - mean_m[-1]) <= 1.5  # stabilized by 20%


# -- 11. planted concepts ----------------------------------------------------------


def scene_dataset(seed: int, n: int = 3000, k: int = 24, scenes: int = 6):
    """Rows drawn from planted conjunctive concepts, after PAPER.md's
    ``sky & !building & panorama``.  Each scene's signature marks each of
    the k objects present, absent or don't care (drawn with probabilities
    0.15, 0.15 and 0.7), which makes the object true in a row of the scene
    with p = 0.92, 0.08 or 0.3; each row belongs to one scene, drawn
    uniformly.  Returns the dataset and each row's scene."""
    rng = np.random.default_rng(seed)
    signatures = rng.choice(3, size=(scenes, k), p=[0.15, 0.15, 0.7])
    labels = rng.integers(scenes, size=n)
    x = rng.random((n, k)) < np.array([0.92, 0.08, 0.3])[signatures][labels]
    return Dataset([f"o{j}" for j in range(k)], x), labels


def best_jaccard(fs: FeatureSet, labels: np.ndarray) -> float:
    """Recovery of the planted scenes: the mean over scenes of the best
    Jaccard index between one feature's extension and the scene's rows.
    The measure is ours, not the paper's."""
    ext = fs.extensions.astype(np.int64)
    scene = (labels[:, None] == np.unique(labels)).astype(np.int64)
    both = ext.T @ scene
    either = ext.sum(axis=0)[:, None] + scene.sum(axis=0) - both
    return float((both / np.maximum(either, 1)).max(axis=0).mean())


def test_criterion_11_planted_concepts():
    with criterion(11):
        # the abstract's claim that constructed features catch hidden
        # relations: uFRINGE, and uFC after one iteration at the risk
        # lambda, each recover the scenes better than the primitives.  Over
        # these seeds the margins were at least 0.069 and 0.101; the asserts
        # keep about half as headroom.  Risk-mode uFC is printed, not
        # asserted: it stops at the RMS minimum with about 120 features,
        # and scores below the primitives on every seed (README).
        alpha = 0.001
        for seed in range(10):
            d, labels = scene_dataset(seed)
            lam = lambda_from_risk(alpha, d.n)
            prim = best_jaccard(FeatureSet.from_primitives(d), labels)
            fringe = best_jaccard(ufringe_run(d, UfringeConfig()), labels)
            once = ufc_run(d, UfcConfig(FixedMode(lam, 1), candidate_pruning=True))
            first = best_jaccard(once.features, labels)
            risk = best_jaccard(ufc_run(d, UfcConfig(RiskMode(alpha))).features, labels)
            print(f"  seed {seed}: primitives {prim:.3f}  uFRINGE {fringe:.3f}  "
                  f"uFC after 1 {first:.3f}  risk-mode uFC {risk:.3f}")
            assert fringe >= prim + 0.03
            assert first >= prim + 0.05


# -- 12. false-candidate rate on null data ------------------------------------------


def null_dataset(seed: int, n: int, p: float, k: int = 40) -> Dataset:
    """k independent Bernoulli(p) columns: no pair is correlated."""
    x = np.random.default_rng(seed).random((n, k)) < p
    return Dataset([f"f{j}" for j in range(k)], x)


def test_criterion_12_null_false_candidate_rate():
    with criterion(12):
        # every candidate on null data is a false one; risk mode admits a
        # pair when r > u_{1-alpha} / sqrt(n), so about an alpha share should
        # pass.  The one-sided normal approximation holds for balanced
        # marginals; with p = 0.1 the far tail admits up to twice alpha
        # (README), so only p >= 0.3 and alpha >= 0.01 are asserted.
        seeds, k = range(40), 40
        pairs = len(seeds) * k * (k - 1) // 2
        for n, p in ((500, 0.3), (2000, 0.5), (2000, 0.1)):
            sets = [FeatureSet.from_primitives(null_dataset(s, n, p, k)) for s in seeds]
            for alpha in (0.05, 0.01, 0.001):
                lam = lambda_from_risk(alpha, n)
                found = sum(len(search_correlated_pairs(fs, lam, pruning=True)) for fs in sets)
                print(f"  n={n} p={p} alpha={alpha}: rate/alpha {found / pairs / alpha:.2f}")
                if p >= 0.3 and alpha >= 0.01:  # within 3 binomial sd of pairs * alpha
                    sd = math.sqrt(pairs * alpha * (1 - alpha))
                    assert abs(found - pairs * alpha) <= 3 * sd

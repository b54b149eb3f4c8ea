"""Do constructed features catch planted concepts?

Each row of the data belongs to one of six hidden scenes, and a scene is a
conjunction over objects, like the paper's ``sky & !building & panorama``.
Recovery is the mean over scenes of the best Jaccard index between one
feature's extension and the scene's rows; the measure is ours, not the
paper's.  The table follows uFC at the risk threshold, one iteration at a
time, next to OI, C0 and RMS, and marks where the RMS-minimum rule and the
closest-point rule stop.
"""

import numpy as np

from boolfc import (
    Dataset,
    FeatureSet,
    FixedMode,
    RiskMode,
    UfcConfig,
    UfringeConfig,
    closest_point,
    lambda_from_risk,
    sweep,
    ufc_run,
    ufringe_run,
)


def scene_dataset(seed: int = 0, n: int = 3000, k: int = 24, scenes: int = 6):
    """A scene's signature marks each object present, absent or don't care
    (probabilities 0.15, 0.15, 0.7), so that the object is true in a row of
    the scene with p = 0.92, 0.08 or 0.3.  Returns the data and the scenes."""
    rng = np.random.default_rng(seed)
    signatures = rng.choice(3, size=(scenes, k), p=[0.15, 0.15, 0.7])
    labels = rng.integers(scenes, size=n)
    x = rng.random((n, k)) < np.array([0.92, 0.08, 0.3])[signatures][labels]
    return Dataset([f"o{j}" for j in range(k)], x), labels


def recovery(fs: FeatureSet, labels: np.ndarray) -> float:
    ext = fs.extensions.astype(np.int64)
    scene = (labels[:, None] == np.unique(labels)).astype(np.int64)
    both = ext.T @ scene
    either = ext.sum(axis=0)[:, None] + scene.sum(axis=0) - both
    return float((both / np.maximum(either, 1)).max(axis=0).mean())


def main() -> None:
    d, labels = scene_dataset()
    print(f"{d.n} rows, {d.k} objects, {len(np.unique(labels))} planted scenes")
    print(f"primitives: recovery {recovery(FeatureSet.from_primitives(d), labels):.3f}")
    fringe = ufringe_run(d, UfringeConfig())
    print(f"uFRINGE, {fringe.m} features: recovery {recovery(fringe, labels):.3f}")

    alpha = 0.001
    lam = lambda_from_risk(alpha, d.n)
    risk = ufc_run(d, UfcConfig(RiskMode(alpha)))
    kept = risk.iterations - (risk.stop_reason == "rms_minimum")
    # fixed mode at the risk threshold, with pruning, follows the risk run
    steps = range(1, risk.iterations + 1)
    points = sweep(d, [lam], steps, pruning=True)
    closest = closest_point(points).limit_iter
    print(f"\nuFC at the risk threshold lambda = {lam:.4f} (alpha = {alpha}):")
    print("iter    m  recovery      OI      C0     RMS")
    for t, rep in enumerate(risk.trajectory):
        fs = (FeatureSet.from_primitives(d) if t == 0 else
              ufc_run(d, UfcConfig(FixedMode(lam, t), candidate_pruning=True)).features)
        marks = ", ".join(name for name, stop in (("rms_minimum", kept),
                                                  ("closest point", closest)) if stop == t)
        print(f"{t:4d} {rep.m:4d}  {recovery(fs, labels):8.3f}  {rep.oi:.4f}  "
              f"{rep.c0:.4f}  {rep.rms:.4f}  {'<- ' + marks if marks else ''}".rstrip())
    print(f"risk mode stops with {risk.stop_reason} and keeps iteration {kept}")

    grid = sweep(d, [round(0.05 * i, 2) for i in range(1, 13)], range(1, 8))
    best = closest_point(grid)
    chosen = ufc_run(d, UfcConfig(FixedMode(best.threshold, best.limit_iter)))
    print(f"\nclosest point over lambda 0.05-0.60 and 1-7 iterations: "
          f"lambda = {best.threshold:.2f} after {best.limit_iter}, "
          f"m = {best.num_features}, recovery {recovery(chosen.features, labels):.3f}")


if __name__ == "__main__":
    main()

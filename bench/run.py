"""boolfc benchmark: four CLI workloads, end-to-end metrics, a layer trace.

    python3 bench/run.py --workload ufc-risk-M --seed 0 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 15

Run it from anywhere; boolfc is imported from ``src/`` next to this
directory.  Each repetition runs ``boolfc.cli.main(argv)`` in a fresh
child interpreter on inputs generated from ``--seed`` (see gen.py), and
every repetition's artifacts are checked.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.  ``--workload all`` runs every
workload with both settings and prints one table with every metric,
including ``fail_ratio``.  README.md in this directory maps each metric to
the layer and workload it belongs to.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import gen
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference.json"
CHILD_TIMEOUT_S = 50  # ~8x the slowest child on a 2-vCPU VM; a run must end in 180 s
PROBES = 8  # import-only children per run, after one discarded warm-up

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "dataset.load_dataset.s": "s",
    "dataset.load_dataset.cells": "count",
    "dataset.dump_dataset.s": "s",
    "dataset.dump_dataset.cells": "count",
    "dataset.unique_count.s": "s",
    "dataset.unique_count.calls": "count",
    "dataset.inject_noise.s": "s",
    "expr.canonical_text.s": "s",
    "expr.canonical_text.calls": "count",
    "expr.literal_count.s": "s",
    "expr.literal_count.calls": "count",
    "expr.load_feature_file.s": "s",
    "expr.save_feature_file.s": "s",
    "metrics.FeatureSet.s": "s",
    "metrics.FeatureSet.calls": "count",
    "metrics.FeatureSet.members": "count",
    "metrics.report.s": "s",
    "metrics.report.calls": "count",
    "ufc.pair_tables.s": "s",
    "ufc.pair_tables.calls": "count",
    "ufc.pair_tables.macs": "count",
    "ufc.pair_tables.bytes": "B",
    "ufc.pair_tables.gmacs_per_s": "GMAC/s",
    "ufc.search_correlated_pairs.s": "s",
    "ufc.search.pairs_scored": "count",
    "ufc.search.candidates": "count",
    "ufc.search.candidate_yield": "ratio",
    "ufc.construct_new_features.s": "s",
    "ufc.prune_obsolete_features.s": "s",
    "ufc.ufc_run.s": "s",
    "ufc.ufc_run.calls": "count",
    "ufc.iterations": "count",
    "ufringe.build_clustering_tree.s": "s",
    "ufringe.tree_nodes": "count",
    "ufringe.splits_scored": "count",
    "ufringe.extract_fringe_features.s": "s",
    "ufringe.fringe_features": "count",
    "ufringe.ufringe_run.s": "s",
    "noise.count_common.s": "s",
    "noise.noise_experiment.s": "s",
    "cli.main.s": "s",
    "trace.overhead_ratio": "ratio",
}
# Measured quantities; every other per-layer metric is a count that must
# repeat exactly between traced repetitions of the same input.
TIMED = {name for name, unit in PER_LAYER.items() if unit in ("s", "GMAC/s", "ratio")}


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed set-up)."""


class CheckFailed(Exception):
    """An artifact is wrong."""


def expect(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# independent output checks: each raises CheckFailed on a wrong artifact

def _features(path: Path) -> list[str]:
    return [ln.strip() for ln in path.read_text(encoding="utf-8").splitlines() if ln.strip()]


def check_construct(inputs: Path, out: Path, prefix: str) -> None:
    """run.json lists the feature file's lines, and ``boolfc metrics`` on
    that file reproduces run.json's final_metrics."""
    run = json.loads((out / f"{prefix}.run.json").read_text(encoding="utf-8"))
    feature_file = out / f"{prefix}.features.txt"
    expect(run["features"] == _features(feature_file), "run.json features differ")
    printed = boolfc_cli(["metrics", str(inputs / "M.csv"), "--features", str(feature_file)])
    expect(json.loads(printed.splitlines()[-1]) == run["final_metrics"],
           "boolfc metrics disagrees with final_metrics")


_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_-]*|[!&()]")


def evaluate_text(text: str, columns: dict[str, np.ndarray]) -> np.ndarray:
    """Truth vector of a feature line, written apart from boolfc.expr."""
    tokens = _TOKEN.findall(text)
    expect("".join(tokens) == text.replace(" ", ""), f"unparsed text in {text!r}")
    pos = 0

    def term() -> np.ndarray:
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if tok == "!":
            return ~term()
        if tok == "(":
            value = conjunction()
            expect(tokens[pos] == ")", f"unbalanced {text!r}")
            pos += 1
            return value
        return columns[tok]

    def conjunction() -> np.ndarray:
        nonlocal pos
        value = term()
        while pos < len(tokens) and tokens[pos] == "&":
            pos += 1
            value = value & term()
        return value

    value = conjunction()
    expect(pos == len(tokens), f"trailing tokens in {text!r}")
    return value


def read_csv01(path: Path) -> tuple[list[str], np.ndarray]:
    """Header and bool matrix of a 0/1 CSV whose cells are single digits."""
    data = path.read_bytes()
    head, _, body = data.partition(b"\n")
    names = head.decode().split(",")
    cells = np.frombuffer(body, dtype=np.uint8).reshape(-1, 2 * len(names))
    expect((cells[:, 1:-1:2] == ord(",")).all(), "bad CSV separators")
    expect((cells[:, -1] == ord("\n")).all(), "bad CSV line ends")
    digits = cells[:, 0::2] - np.uint8(ord("0"))
    expect((digits <= 1).all(), "non-binary cell")
    return names, digits.astype(bool)


def check_transform(inputs: Path, out: Path) -> None:
    """Each column of transform.csv is its feature evaluated on W.csv."""
    names, w = read_csv01(inputs / "W.csv")
    columns = {name: w[:, j] for j, name in enumerate(names)}
    features = _features(inputs / "M.features.txt")
    header, got = read_csv01(out / "transform.csv")
    expect(len(header) == len(set(header)) == len(features), "bad transform header")
    want = np.column_stack([evaluate_text(f, columns) for f in features])
    expect(np.array_equal(got, want), "transform.csv differs from the features")


NOISE_PCTS = "0,0.05,0.1"
NOISE_REPLICATES = 5
NOISE_HEADER = (
    "pct,replicate,oi,c0,num_features,common_with_zero_noise,common_between_runs"
)


def check_noise(inputs: Path, out: Path) -> None:
    """One row per (pct, replicate); at pct 0 every replicate is the
    noise-free run, so it shares all its features with it and the others."""
    lines = (out / "noise.csv").read_text(encoding="utf-8").splitlines()
    expect(lines[0] == NOISE_HEADER, "bad noise.csv header")
    pcts = [float(p) for p in NOISE_PCTS.split(",")]
    rows = [ln.split(",") for ln in lines[1:]]
    keys = [(float(r[0]), int(r[1])) for r in rows]
    expect(keys == [(p, i) for p in pcts for i in range(NOISE_REPLICATES)], "bad rows")
    for r in rows:
        oi, c0, m = float(r[2]), float(r[3]), int(r[4])
        expect(oi >= 0 and c0 >= 0 and m >= 1, f"bad row {r}")
        if float(r[0]) == 0.0:
            expect(int(r[5]) == m and float(r[6]) == m, f"pct 0 row differs: {r}")


# ---------------------------------------------------------------------------
# workloads

@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # the user's command line, for the record
    sizes: tuple[str, ...]  # generated datasets, keys of gen.SIZES
    input_sets: int  # seeded inputs per run, see input_seed()
    argv: Callable[[Path, Path, int], list[str]]  # (inputs, out, seed)
    artifacts: tuple[str, ...]
    check: Callable[[Path, Path], None]
    layers: tuple[str, ...]  # layers whose metrics must be nonzero here
    needs_features: bool = False  # inputs include M.features.txt


# Why each workload is in the set: BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="ufc-risk-M",
            command="boolfc construct M.csv --risk 0.001 --out ufc",
            sizes=("M",),
            input_sets=2,
            argv=lambda i, o, s: ["construct", str(i / "M.csv"), "--risk", "0.001",
                                  "--out", str(o / "ufc")],
            artifacts=("ufc.features.txt", "ufc.run.json"),
            check=lambda i, o: check_construct(i, o, "ufc"),
            layers=("cli", "dataset.load", "expr", "expr.save", "metrics", "ufc"),
        ),
        Workload(
            name="noise-S",
            command=f"boolfc noise S.csv --pcts {NOISE_PCTS} --replicates "
                    f"{NOISE_REPLICATES} --seed SEED --out noise.csv",
            sizes=("S",),
            input_sets=3,
            argv=lambda i, o, s: ["noise", str(i / "S.csv"), "--pcts", NOISE_PCTS,
                                  "--replicates", str(NOISE_REPLICATES),
                                  "--seed", str(s), "--out", str(o / "noise.csv")],
            artifacts=("noise.csv",),
            check=check_noise,
            layers=("cli", "dataset.load", "dataset.noise", "expr", "metrics",
                    "ufc", "noise"),
        ),
        Workload(
            name="ufringe-M",
            command="boolfc construct M.csv --algorithm ufringe --out fringe",
            sizes=("M",),
            input_sets=3,
            argv=lambda i, o, s: ["construct", str(i / "M.csv"), "--algorithm",
                                  "ufringe", "--out", str(o / "fringe")],
            artifacts=("fringe.features.txt", "fringe.run.json"),
            check=lambda i, o: check_construct(i, o, "fringe"),
            layers=("cli", "dataset.load", "expr", "expr.save", "metrics",
                    "ufringe"),
        ),
        Workload(
            name="transform-W",
            command="boolfc transform W.csv --features M.features.txt "
                    "--out transform.csv",
            sizes=("M", "W"),
            input_sets=1,
            argv=lambda i, o, s: ["transform", str(i / "W.csv"), "--features",
                                  str(i / "M.features.txt"), "--out",
                                  str(o / "transform.csv")],
            artifacts=("transform.csv",),
            check=check_transform,
            layers=("cli", "dataset.load", "dataset.dump", "expr.load", "metrics"),
            needs_features=True,
        ),
    ]
}

# Layer tags of Workload.layers -> per-layer metrics that must be nonzero.
LAYER_METRICS = {
    "cli": ("cli.main.s",),
    "dataset.load": ("dataset.load_dataset.s", "dataset.load_dataset.cells"),
    "dataset.dump": ("dataset.dump_dataset.s", "dataset.dump_dataset.cells"),
    "dataset.noise": ("dataset.inject_noise.s", "dataset.unique_count.s",
                      "dataset.unique_count.calls"),
    "expr": ("expr.canonical_text.s", "expr.canonical_text.calls",
             "expr.literal_count.s", "expr.literal_count.calls"),
    "expr.save": ("expr.save_feature_file.s",),
    "expr.load": ("expr.load_feature_file.s",),
    "metrics": ("metrics.FeatureSet.s", "metrics.FeatureSet.calls",
                "metrics.FeatureSet.members"),
    "ufc": ("ufc.pair_tables.s", "ufc.pair_tables.calls", "ufc.pair_tables.macs",
            "ufc.pair_tables.bytes", "ufc.pair_tables.gmacs_per_s",
            "ufc.search_correlated_pairs.s", "ufc.search.pairs_scored",
            "ufc.search.candidates", "ufc.search.candidate_yield",
            "ufc.construct_new_features.s", "ufc.prune_obsolete_features.s",
            "ufc.ufc_run.s", "ufc.ufc_run.calls", "ufc.iterations",
            "metrics.report.s", "metrics.report.calls"),
    "ufringe": ("ufringe.build_clustering_tree.s", "ufringe.tree_nodes",
                "ufringe.splits_scored", "ufringe.extract_fringe_features.s",
                "ufringe.fringe_features", "ufringe.ufringe_run.s",
                "metrics.report.s", "metrics.report.calls"),
    "noise": ("noise.count_common.s", "noise.noise_experiment.s"),
}


# ---------------------------------------------------------------------------
# child processes

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def boolfc_cli(argv: list[str]) -> str:
    """Run the CLI in a child interpreter; return its standard output."""
    proc = subprocess.run(
        [sys.executable, "-m", "boolfc.cli", *argv], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"boolfc {argv[0]} exited {proc.returncode}: {proc.stderr}")
    return proc.stdout


def spawn(spec: dict, where: Path) -> tuple[dict | None, float]:
    """Run child.py on ``spec``; return its record (None on failure) and
    the set-up time from spawning it until boolfc was imported."""
    spec = dict(spec, src=str(SRC), record=str(where / "record.json"))
    spec_path = where / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    with open(where / "child.log", "wb") as log:
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), str(spec_path)],
            cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT,
        )
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = None
    record_path = where / "record.json"
    if code != 0 or not record_path.exists():
        return None, 0.0
    record = json.loads(record_path.read_text(encoding="utf-8"))
    return record, record["ready"] - spawned


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# one benchmark run

def input_seed(seed: int, k: int):
    """Input set 0 is drawn with the run's seed, set k > 0 with [seed, k]."""
    return seed if k == 0 else [seed, k]


def prepare(w: Workload, seed, where: Path, sizes: dict) -> dict[str, str]:
    """Write the inputs of ``w`` drawn with ``seed``; return their hashes."""
    where.mkdir(parents=True)
    hashes = {}
    for size in w.sizes:
        data = gen.csv_bytes(gen.matrix(*sizes[size], seed))
        (where / f"{size}.csv").write_bytes(data)
        hashes[f"{size}.csv"] = hashlib.sha256(data).hexdigest()
    if w.needs_features:
        boolfc_cli(["construct", str(where / "M.csv"), "--risk", "0.001",
                    "--out", str(where / "M")])
        hashes["M.features.txt"] = sha256(where / "M.features.txt")
    return hashes


@dataclass
class Rep:
    input_set: int
    traced: bool
    record: dict | None
    hashes: dict[str, str] | None
    out: Path
    ok: bool = False


def run_rep(w: Workload, inputs: Path, seed: int, out: Path, input_set: int,
            traced: bool) -> tuple[Rep, float]:
    out.mkdir(parents=True)
    spec = {"argv": w.argv(inputs, out, seed), "stdout": str(out / "stdout.txt")}
    if traced:
        spec["trace"] = str(out / "trace.json")
    record, setup = spawn(spec, out)
    hashes = None
    if record is not None and record["rc"] == 0 and all(
        (out / a).exists() for a in w.artifacts
    ):
        hashes = {a: sha256(out / a) for a in w.artifacts}
    return Rep(input_set, traced, record, hashes, out), setup


def load_reference() -> dict:
    if REFERENCE.exists():
        return json.loads(REFERENCE.read_text(encoding="utf-8"))
    return {}


def judge(w: Workload, reps: list[Rep], sets: list[Path], input_hashes: list[dict],
          expected: list[dict] | None) -> list[str]:
    """Mark each rep ok or not; return the reasons for failures."""
    problems = []
    for k, inputs in enumerate(sets):
        done = [r for r in reps if r.input_set == k and r.hashes is not None]
        if expected is not None and expected[k]["inputs"] != input_hashes[k]:
            problems.append(f"input set {k}: inputs differ from reference.json")
            continue
        if not done:
            continue
        # without a reference for this seed, the repetitions must agree
        want = expected[k]["artifacts"] if expected is not None else done[0].hashes
        try:
            w.check(inputs, done[0].out)
        except (CheckFailed, BenchError, KeyError, IndexError, ValueError) as err:
            problems.append(f"input set {k}: check failed: {err}")
            continue
        for r in done:
            r.ok = r.hashes == want
    failed = sum(not r.ok for r in reps)
    if failed:
        problems.append(f"{failed} repetition(s) failed or differ in output")
    return problems


def layer_metrics(traces: list[dict], traced_walls: list[float],
                  plain_walls: list[float]) -> tuple[dict, list[str]]:
    """Per-layer metrics: medians over traced reps; counts must repeat."""
    per_rep = []
    for trace in traces:
        m = {name: 0 for name in PER_LAYER}
        m.update({k: v for k, v in tracer.summarize(trace).items() if k in PER_LAYER})
        s = m["ufc.pair_tables.s"]
        m["ufc.pair_tables.gmacs_per_s"] = m["ufc.pair_tables.macs"] / s / 1e9 if s else 0
        scored = m["ufc.search.pairs_scored"]
        m["ufc.search.candidate_yield"] = m["ufc.search.candidates"] / scored if scored else 0
        per_rep.append(m)
    problems = [
        f"count {name} differs between traced repetitions"
        for name in PER_LAYER
        if name not in TIMED and len({m[name] for m in per_rep}) > 1
    ]
    out = {
        name: statistics.median(m[name] for m in per_rep) if name in TIMED
        else per_rep[0][name]
        for name in PER_LAYER
    }
    out["trace.overhead_ratio"] = (
        statistics.median(traced_walls) / statistics.median(plain_walls)
    )
    return out, problems


def measure(w: Workload, seed: int, seconds: float, trace: bool,
            sizes: dict = gen.SIZES, reference: dict | None = None) -> dict:
    """One benchmark run; returns the result object and a record."""
    if seed < 0:
        raise BenchError("--seed must be >= 0")
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=WORK))
    try:
        sets = [work / f"inputs{k}" for k in range(w.input_sets)]
        input_hashes = [prepare(w, input_seed(seed, k), where, sizes)
                        for k, where in enumerate(sets)]
        setups = []
        for p in range(PROBES + 1):
            where = work / f"probe{p}"
            where.mkdir()
            record, setup = spawn({}, where)
            if record is None:
                raise BenchError(f"import probe failed; see {where / 'child.log'}")
            if p:  # the first probe warms the bytecode and file caches
                setups.append(setup)
        # Untraced repetitions go round the input sets, each set at least
        # once; a traced run alternates untraced and traced repetitions of
        # set 0, in pairs.  Repetitions go on until one more (pair) would
        # overrun --seconds.
        order = [(0, False), (0, True)] if trace else [
            (k, False) for k in range(w.input_sets)
        ]
        unit = len(order) if trace else 1
        reps: list[Rep] = []
        start = time.perf_counter()
        while True:
            k, traced = order[len(reps) % len(order)]
            rep, setup = run_rep(w, sets[k], seed, work / f"rep{len(reps)}", k, traced)
            reps.append(rep)
            if rep.record is not None:
                setups.append(setup)
            done = len(reps)
            elapsed = time.perf_counter() - start
            if (done >= len(order) and done % unit == 0
                    and elapsed * (done + unit) / done > seconds):
                break
        expected = (reference or {}).get(w.name, {}).get(str(seed))
        problems = judge(w, reps, sets, input_hashes, expected)

        ok = [r for r in reps if r.ok]
        if trace:
            traced = [r for r in ok if r.traced]
            plain = [r for r in ok if not r.traced]
            if traced and plain:
                metrics, more = layer_metrics(
                    [json.loads((r.out / "trace.json").read_text()) for r in traced],
                    [r.record["wall_s"] for r in traced],
                    [r.record["wall_s"] for r in plain],
                )
                problems += more
            else:
                metrics = {}
                problems.append("no successful traced and untraced pair")
            units = PER_LAYER
        else:
            # the mean over input sets of each set's median, so that how much
            # work one seed's data happens to need weighs less
            measured = [[r for r in ok if r.input_set == k] for k in range(w.input_sets)]
            metrics = {
                name: statistics.fmean(
                    statistics.median(r.record[name] for r in group)
                    for group in measured
                )
                for name in ("wall_s", "cpu_s", "peak_rss_mb") if all(measured)
            }
            metrics["setup_s"] = statistics.median(setups)
            units = END_TO_END
        failed = sum(not r.ok for r in reps)
        result = {
            "correct": not problems and len(metrics) == len(units),
            "attempted": len(reps),
            "failed": failed,
            "metrics": {
                name: {"value": metrics[name], "unit": units[name]}
                for name in units if name in metrics
            },
        }
        info = {
            "workload": w.name,
            "seed": seed,
            "command": w.command,
            "sizes": {s: "x".join(map(str, sizes[s])) for s in w.sizes},
            "trace": int(trace),
            "repetitions": len(reps),
            "load": "one child process at a time",
            "setup_samples": len(setups),
            "reference": "absent" if expected is None else "compared",
            "inputs": input_hashes,
            "artifacts": [
                next((r.hashes for r in reps if r.input_set == k and r.hashes), None)
                for k in range(w.input_sets)
            ],
            "problems": problems,
        }
        return {"result": result, "info": info}
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ---------------------------------------------------------------------------
# machine record

def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that NumPy bundles, when it has one."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "commit": git_commit(),
    }


# ---------------------------------------------------------------------------

def print_table(rows: list[tuple[str, dict, dict]]) -> None:
    names = list(END_TO_END) + ["fail_ratio"] + list(PER_LAYER)
    units = {**END_TO_END, "fail_ratio": "ratio", **PER_LAYER}
    print(f"{'metric':40} {'unit':7} " + " ".join(f"{w:>13}" for w, _, _ in rows))
    for name in names:
        cells = []
        for _, plain, traced in rows:
            source = traced if name in PER_LAYER else plain
            if name == "fail_ratio":
                value = (plain["failed"] + traced["failed"]) / (
                    plain["attempted"] + traced["attempted"])
            else:
                value = source["metrics"].get(name, {}).get("value")
            cells.append(f"{value:13.6g}" if value is not None else f"{'-':>13}")
        print(f"{name:40} {units[name]:7} " + " ".join(cells))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics of a traced run; "
                             "--workload all runs both")
    args = parser.parse_args(argv)
    try:
        if not (SRC / "boolfc" / "__init__.py").is_file():
            raise BenchError(f"no boolfc sources under {SRC}")
        print(json.dumps({"machine": machine()}), flush=True)
        reference = load_reference()
        if args.workload != "all":
            run = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace), reference=reference)
            print(json.dumps(run["info"]))
            print(json.dumps(run["result"]))
            return 0
        rows = []
        for w in WORKLOADS.values():
            plain, traced = [
                measure(w, args.seed, args.seconds, t, reference=reference)
                for t in (False, True)
            ]
            for run in (plain, traced):
                print(json.dumps(run["info"]), flush=True)
            rows.append((w.name, plain["result"], traced["result"]))
        print_table(rows)
        return 0 if all(p["correct"] and t["correct"] for _, p, t in rows) else 1
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

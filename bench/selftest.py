"""Self-test of the benchmark, on smoke-sized inputs (well under a minute).

    python3 bench/selftest.py

Checks that
* every workload runs correctly traced and untraced, and the traced
  artifacts hash the same as the untraced ones, so the wrappers change no
  result;
* every per-layer metric is emitted, nonzero for each layer the workload
  calls, and pair_tables is absent on ufringe-M and transform-W;
* BENCHMARK.json names the same workloads and metrics as run.py;
* run.py exits nonzero, printing no result, without the boolfc sources.
Exits nonzero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

SMOKE_SIZES = {"S": (300, 12), "M": (400, 16), "W": (1000, 16)}
PAIR_TABLES_ABSENT = ("ufringe-M", "transform-W")


def fail(message: str) -> None:
    print(f"selftest FAILED: {message}", file=sys.stderr)
    sys.exit(1)


def check_workload(w: run.Workload) -> None:
    plain = run.measure(w, 0, 0, False, sizes=SMOKE_SIZES)
    traced = run.measure(w, 0, 0, True, sizes=SMOKE_SIZES)
    for r in (plain, traced):
        if not r["result"]["correct"] or r["result"]["failed"]:
            fail(f"{w.name} trace={r['info']['trace']}: {r['info']['problems']}")
    if traced["info"]["artifacts"][0] != plain["info"]["artifacts"][0]:
        fail(f"{w.name}: traced artifacts differ from untraced ones")
    metrics = traced["result"]["metrics"]
    if set(metrics) != set(run.PER_LAYER):
        fail(f"{w.name}: missing {sorted(set(run.PER_LAYER) - set(metrics))}")
    if set(plain["result"]["metrics"]) != set(run.END_TO_END):
        fail(f"{w.name}: end-to-end metrics {sorted(plain['result']['metrics'])}")
    for layer in w.layers:
        for name in run.LAYER_METRICS[layer]:
            if not metrics[name]["value"] > 0:
                fail(f"{w.name}: layer {layer} called but {name} is 0")
    if w.name in PAIR_TABLES_ABSENT and metrics["ufc.pair_tables.calls"]["value"]:
        fail(f"{w.name}: pair_tables was called")
    print(f"selftest {w.name}: ok ({traced['info']['repetitions']} traced-run reps)")


def check_manifest() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        fail("BENCHMARK.json workloads differ from run.WORKLOADS")
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        if {m["name"]: m["unit"] for m in spec[key]} != table:
            fail(f"BENCHMARK.json {key} differs from run.py")


def check_without_sources() -> None:
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.BENCH, Path(tmp) / run.BENCH.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "noise-S",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=170,
        )
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        fail("run.py printed a result without the boolfc sources")
    print("selftest without sources: ok (exit code %d)" % proc.returncode)


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    check_manifest()
    check_without_sources()
    for w in run.WORKLOADS.values():
        check_workload(w)
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

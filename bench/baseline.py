"""One-shot record of ROADMAP.md's baseline table: uFC risk mode at S, M, L.

    python3 bench/baseline.py [--sizes S,M,L] [--out bench/baseline.json]

Each size is the seed-0 dataset of gen.py, run once in this process with
``ufc_run(d, UfcConfig(RiskMode(0.001)))`` and timed with the wall clock,
as the table was measured.  L takes minutes at this commit, so it is not a
gated workload of run.py; a size left out with --sizes is recorded as
skipped, not dropped.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import gen
import run

sys.path.insert(0, str(run.SRC))

from boolfc import Dataset, RiskMode, UfcConfig, ufc_run  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", default="S,M,L")
    parser.add_argument("--out", default=str(run.BENCH / "baseline.json"))
    args = parser.parse_args(argv)
    chosen = args.sizes.split(",")
    rows = []
    for size in ("S", "M", "L"):
        n, k = gen.SIZES[size]
        row = {"size": size, "n": n, "k": k, "gated": False}
        if size == "L":
            row["why_not_gated"] = "minutes per run; 22 runs per check do not fit"
        if size not in chosen:
            rows.append(dict(row, skipped=True))
            continue
        d = Dataset(gen.feature_names(k), gen.matrix(n, k, 0))
        start = time.perf_counter()
        result = ufc_run(d, UfcConfig(RiskMode(0.001)))
        row.update(
            wall_s=time.perf_counter() - start,
            iterations=result.iterations,
            final_m=result.features.m,
            stop_reason=result.stop_reason,
        )
        print(json.dumps(row), flush=True)
        rows.append(row)
    record = {
        "what": "ufc_run with RiskMode(0.001) on gen.matrix(n, k, 0), one run each",
        "machine": run.machine(),
        "rows": rows,
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

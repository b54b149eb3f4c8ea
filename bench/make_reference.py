"""Record the artifact hashes that benchmark runs are compared with.

    python3 bench/make_reference.py [--seeds 0-15]

Runs every input set of every workload once per seed, untraced, applies
the independent output checks, and writes ``reference.json``:
workload -> seed -> one {"inputs", "artifacts"} entry per input set.
Rerun it only when outputs change on purpose, and say so in CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-15", help="inclusive range A-B")
    args = parser.parse_args(argv)
    first, last = (int(s) for s in args.seeds.split("-"))
    reference: dict = {}
    for w in run.WORKLOADS.values():
        for seed in range(first, last + 1):
            info = run.measure(w, seed, 0, False)["info"]
            if info["problems"]:
                print(f"{w.name} seed {seed}: {info['problems']}", file=sys.stderr)
                return 1
            reference.setdefault(w.name, {})[str(seed)] = [
                {"inputs": i, "artifacts": a}
                for i, a in zip(info["inputs"], info["artifacts"])
            ]
            print(f"{w.name} seed {seed}: recorded", flush=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

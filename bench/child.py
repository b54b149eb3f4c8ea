"""One benchmark repetition in a fresh interpreter.

Usage: python3 child.py SPEC.json

SPEC holds ``src`` (the directory boolfc must be imported from),
``record`` (where to write the measurements), and optionally ``argv``
(arguments for ``boolfc.cli.main``; absent for an import-only probe),
``stdout`` (file that receives main's standard output) and ``trace``
(file for the span trace; absent runs untraced).
"""

import json
import os
import resource
import sys
import time
from contextlib import redirect_stdout


def peak_rss_kib() -> int:
    """This process's peak resident set size since exec (VmHWM).

    Linux carries the RSS of the forking parent into ``ru_maxrss`` across
    exec, so ``ru_maxrss`` would read the benchmark's own size whenever the
    parent is the larger of the two.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    import boolfc.cli

    src = os.path.realpath(spec["src"])
    if os.path.dirname(os.path.realpath(boolfc.__file__)) != os.path.join(src, "boolfc"):
        raise SystemExit(f"boolfc imported from {boolfc.__file__}, not {src}")
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    record = {"ready": ready}
    if "argv" in spec:
        tracer = None
        if "trace" in spec:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        before = resource.getrusage(resource.RUSAGE_SELF)
        with open(spec["stdout"], "w", encoding="utf-8") as out, redirect_stdout(out):
            start = time.perf_counter()
            rc = boolfc.cli.main(spec["argv"])
            wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        record.update(
            rc=rc,
            wall_s=wall,
            cpu_s=(after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
            peak_rss_mb=peak_rss_kib() / 1024.0,
        )
        if tracer is not None:
            tracer.dump(spec["trace"])
    with open(spec["record"], "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

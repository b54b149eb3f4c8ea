"""Command-line surface: construct, sweep, pareto, metrics, transform, noise.

Exit codes: 0 success, 1 module error, 2 flag misuse.  All randomness
flows from --seed (noise only), so identical invocations produce
byte-identical output files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict

# boolfc makes no BLAS call: spare OpenBLAS threads would only spin
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import expr as ex
from .dataset import Dataset, load_dataset, save_dataset
from .metrics import DuplicateFeatureError, FeatureSet, report
from .noise import noise_experiment, write_noise_csv
from .pareto import (
    closest_point,
    pareto_front,
    read_sweep_csv,
    solution_json_dict,
    sweep,
    write_sweep_csv,
)
from .ufc import FixedMode, RiskMode, UfcConfig, ufc_run
from .ufringe import UfringeConfig, ufringe_run


def _parse_prune(value: str) -> bool:
    if value not in ("on", "off"):
        raise argparse.ArgumentTypeError("expected 'on' or 'off'")
    return value == "on"


def _text_file(write):
    """A ``save(data, path)`` that calls ``write(data, stream)`` on
    ``path`` opened as UTF-8 with LF line ends: the one opener for the
    files no library function writes."""
    def save(data, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            write(data, fh)
    return save


def _dump_json(obj, out) -> None:
    out.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _save_all(*saves) -> None:
    """Call each ``save(data, path)`` in order: the only way the CLI
    writes a file.  If one fails, remove every path that did not exist
    when this started, the failing one too, and re-raise.  A path that
    existed before is never removed, so a file that a save overwrote is
    left as the failed write left it."""
    new = [path for _, _, path in saves if not os.path.lexists(path)]
    try:
        for save, data, path in saves:
            save(data, path)
    except BaseException:
        for path in new:
            if os.path.lexists(path):
                os.remove(path)
        raise


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boolfc",
        description="Unsupervised Boolean feature construction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a feature set from a dataset")
    p.add_argument("dataset")
    p.add_argument("--algorithm", choices=("ufc", "ufringe"), default="ufc")
    p.add_argument("--lambda", dest="threshold", type=float,
                   help="fixed correlation threshold (with --max-iter)")
    p.add_argument("--max-iter", type=int, help="iteration cap for fixed mode")
    p.add_argument("--risk", type=float,
                   help="significance level for the risk-based mode")
    p.add_argument("--hard-cap", type=int)
    p.add_argument("--prune", type=_parse_prune,
                   help="candidate pruning on|off (default: on in risk mode)")
    p.add_argument("--max-features", type=int,
                   help="feature budget (ufringe): a round starts only while "
                        "fewer features exist, and appends its whole fringe")
    p.add_argument("--min-leaf", type=int)
    p.add_argument("--max-depth", type=int)
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(run=lambda args: cmd_construct(args, parser))

    p = sub.add_parser("sweep", help="grid sweep over lambda and iterations")
    p.add_argument("dataset")
    p.add_argument("--lambda-from", type=float, required=True)
    p.add_argument("--lambda-to", type=float, required=True)
    p.add_argument("--lambda-step", type=float, required=True)
    p.add_argument("--iters-max", type=int, required=True)
    p.add_argument("--prune", type=_parse_prune)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(run=cmd_sweep)

    p = sub.add_parser("pareto", help="front + closest point from a sweep CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--front-out", required=True)
    p.add_argument("--closest-out", required=True)
    p.set_defaults(run=cmd_pareto)

    p = sub.add_parser("metrics", help="evaluate a feature file on a dataset")
    p.add_argument("dataset")
    p.add_argument("--features", required=True)
    p.add_argument("--out", help="optional JSON output path")
    p.set_defaults(run=cmd_metrics)

    p = sub.add_parser("transform", help="re-express a dataset with features")
    p.add_argument("dataset")
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(run=cmd_transform)

    p = sub.add_parser("noise", help="noise-stability experiment")
    p.add_argument("dataset")
    p.add_argument("--pcts", required=True,
                   help="comma-separated noise fractions, e.g. 0,0.1,0.2")
    p.add_argument("--replicates", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--risk", type=float)
    p.add_argument("--prune", type=_parse_prune)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(run=cmd_noise)

    return parser


def mangle_name(text: str, taken: set[str]) -> str:
    """Deterministic identifier for an expression, unique within a header."""
    name = (
        text.replace(" & ", "-and-")
        .replace("!", "not-")
        .replace("(", "lp-")
        .replace(")", "-rp")
    )
    base = name
    suffix = 2
    while name in taken:
        name = f"{base}-{suffix}"
        suffix += 1
    taken.add(name)
    return name


def _given(**flags) -> dict:
    """The flags set on the command line: the rest keep their defaults
    from the function or config class they are passed to."""
    return {name: value for name, value in flags.items() if value is not None}


def cmd_construct(args, parser) -> int:
    ufringe_flags = _given(max_features=args.max_features,
                           min_leaf=args.min_leaf, max_depth=args.max_depth)
    if args.algorithm == "ufc":
        fixed = args.threshold is not None or args.max_iter is not None
        risk = args.risk is not None
        if fixed and risk:
            parser.error("--lambda/--max-iter and --risk are mutually exclusive")
        if fixed and (args.threshold is None or args.max_iter is None):
            parser.error("fixed mode needs both --lambda and --max-iter")
        if not fixed and not risk:
            parser.error("choose --lambda X --max-iter N or --risk A")
        if fixed and args.hard_cap is not None:
            parser.error("--hard-cap applies only to the risk-based mode")
        if ufringe_flags:
            parser.error("--max-features, --min-leaf and --max-depth apply "
                         "only to uFRINGE")
        if risk:
            mode = RiskMode(args.risk, **_given(hard_cap=args.hard_cap))
        else:
            mode = FixedMode(args.threshold, args.max_iter)
        d = load_dataset(args.dataset)
        result = ufc_run(d, UfcConfig(mode, candidate_pruning=args.prune))
        fs = result.features
        run_dict = result.to_json_dict()
        final = result.final_report()
    else:
        ufc_flags = (args.threshold, args.max_iter, args.risk, args.hard_cap,
                     args.prune)
        if any(v is not None for v in ufc_flags):
            parser.error("--lambda, --max-iter, --risk, --hard-cap and --prune "
                         "apply only to uFC")
        d = load_dataset(args.dataset)
        cfg = UfringeConfig(**ufringe_flags)
        fs = ufringe_run(d, cfg)
        final = report(fs)
        run_dict = {
            "algorithm": "ufringe",
            "max_features": cfg.max_features,
            "features": [ex.to_text(e) for e in fs.members],
            "final_metrics": asdict(final),
        }
    _save_all((ex.save_feature_file, fs.members, args.out + ".features.txt"),
              (_text_file(_dump_json), run_dict, args.out + ".run.json"))
    print(final.to_json())
    return 0


def cmd_sweep(args) -> int:
    d = load_dataset(args.dataset)
    lo, hi, step = args.lambda_from, args.lambda_to, args.lambda_step
    # NaN fails every comparison, and an infinite bound an infinite span
    if not (0 < step < math.inf and lo <= hi and math.isfinite((hi - lo) / step)):
        raise ValueError("invalid lambda grid")
    if args.iters_max < 1:
        raise ValueError("--iters-max must be >= 1")
    count = int(round((hi - lo) / step)) + 1
    thresholds = [lo + i * step for i in range(count)]
    thresholds = [t for t in thresholds if t <= hi + 1e-12]
    sols = sweep(d, thresholds, range(1, args.iters_max + 1),
                 **_given(pruning=args.prune))
    _save_all((_text_file(write_sweep_csv), sols, args.out))
    return 0


def cmd_pareto(args) -> int:
    with ex.open_text(args.infile, ValueError) as fh:
        sols = read_sweep_csv(fh)
    front = pareto_front(sols)
    best = closest_point(sols)
    _save_all((_text_file(write_sweep_csv), front, args.front_out),
              (_text_file(_dump_json), solution_json_dict(best), args.closest_out))
    return 0


def _load_feature_set(path, d: Dataset) -> FeatureSet:
    """The features of a feature file on ``d``; a duplicate or unknown
    feature names its line, as a syntax error does."""
    exprs = ex.load_feature_file(path)
    try:
        return FeatureSet(exprs, d)
    except (DuplicateFeatureError, ex.UnknownFeatureError) as err:
        err.args = (f"line {exprs.lines[err.member]}: {err}",)
        raise


def cmd_metrics(args) -> int:
    d = load_dataset(args.dataset)
    fs = _load_feature_set(args.features, d)
    text = report(fs).to_json()
    if args.out:
        _save_all((_text_file(lambda line, out: print(line, file=out)),
                   text, args.out))
    print(text)
    return 0


def cmd_transform(args) -> int:
    d = load_dataset(args.dataset)
    fs = _load_feature_set(args.features, d)
    taken: set[str] = set()
    names = [mangle_name(key, taken) for key in fs.keys]
    _save_all((save_dataset, Dataset.from_words(names, fs.words, d.n), args.out))
    return 0


def cmd_noise(args) -> int:
    d = load_dataset(args.dataset)
    pcts = [float(s) for s in args.pcts.split(",") if s.strip() != ""]
    if not pcts:
        raise ValueError("--pcts must list at least one fraction")
    rows = noise_experiment(d, pcts, **_given(
        replicates=args.replicates, seed=args.seed, alpha=args.risk,
        pruning=args.prune))
    _save_all((_text_file(write_noise_csv), rows, args.out))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

import json
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from boolfc.cli import main, mangle_name
from boolfc.dataset import Dataset, load_dataset, save_dataset
from boolfc.expr import load_feature_file, parse, to_text
from boolfc.metrics import FeatureSet
from boolfc.noise import NOISE_CSV_HEADER


@pytest.fixture
def toy_csv(tmp_path):
    rng = np.random.default_rng(3)
    n = 100
    base = rng.random(n) < 0.4
    matrix = np.column_stack(
        [
            base,
            base ^ (rng.random(n) < 0.1),
            rng.random(n) < 0.5,
            rng.random(n) < 0.35,
        ]
    )
    d = Dataset(["w", "x", "y", "z"], matrix)
    path = tmp_path / "toy.csv"
    save_dataset(d, str(path))
    return str(path)


def read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def test_construct_fixed_mode(toy_csv, tmp_path, capsys):
    out = str(tmp_path / "run")
    assert main(["construct", toy_csv, "--lambda", "0.3", "--max-iter", "2",
                 "--out", out]) == 0
    features = load_feature_file(out + ".features.txt")
    assert features
    run = json.loads(read_bytes(out + ".run.json"))
    assert run["stop_reason"] in ("fixpoint", "iter_limit")
    assert run["threshold"] == 0.3
    printed = capsys.readouterr().out.strip()
    rec = json.loads(printed)
    assert set(rec) == {"oi", "c0", "c1", "rms", "m", "null_added"}


def test_construct_risk_mode_records_threshold(tmp_path, capsys):
    # 264-row dataset at risk 0.001 gives threshold 0.190
    rng = np.random.default_rng(11)
    n = 264
    base = rng.random(n) < 0.5
    matrix = np.column_stack(
        [base, base ^ (rng.random(n) < 0.15), rng.random(n) < 0.5]
    )
    path = tmp_path / "d264.csv"
    save_dataset(Dataset(["a", "b", "c"], matrix), str(path))
    out = str(tmp_path / "risk")
    assert main(["construct", str(path), "--risk", "0.001", "--out", out]) == 0
    run = json.loads(read_bytes(out + ".run.json"))
    assert run["threshold"] == pytest.approx(0.190, abs=0.001)
    assert main(["construct", str(path), "--risk", "0.001", "--hard-cap", "1",
                 "--out", out]) == 0
    run = json.loads(read_bytes(out + ".run.json"))
    assert (run["stop_reason"], run["iterations"]) == ("hard_cap", 1)


def test_construct_high_lambda_returns_primitives(toy_csv, tmp_path, capsys):
    out = str(tmp_path / "hi")
    assert main(["construct", toy_csv, "--lambda", "0.9", "--max-iter", "3",
                 "--out", out]) == 0
    features = load_feature_file(out + ".features.txt")
    assert [to_text(f) for f in features] == ["w", "x", "y", "z"]


def test_construct_ufringe_respects_budget(toy_csv, tmp_path, capsys):
    out = str(tmp_path / "uf")
    assert main(["construct", toy_csv, "--algorithm", "ufringe",
                 "--max-features", "12", "--min-leaf", "3", "--out", out]) == 0
    features = load_feature_file(out + ".features.txt")
    # a round starts only below the budget and appends its whole fringe,
    # so the set may end above 12
    assert 4 <= len(features)
    run = json.loads(read_bytes(out + ".run.json"))
    assert run["algorithm"] == "ufringe"


def test_construct_flag_misuse_exits_2(toy_csv, tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["construct", toy_csv, "--lambda", "0.3", "--risk", "0.01",
              "--out", str(tmp_path / "x")])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["construct", toy_csv, "--lambda", "0.3",
              "--out", str(tmp_path / "x")])
    assert err.value.code == 2
    out = tmp_path / "out"
    out.mkdir()
    for argv in (["--risk", "0.001", "--prune", "maybe"],  # on or off only
                 []):  # neither mode
        with pytest.raises(SystemExit) as err:
            main(["construct", toy_csv, *argv, "--out", str(out / "x")])
        assert err.value.code == 2
    for flag in (["--risk", "0.001"], ["--lambda", "0.5"], ["--max-iter", "3"],
                 ["--hard-cap", "5"], ["--prune", "off"]):
        # uFC flags are no uFRINGE settings
        with pytest.raises(SystemExit) as err:
            main(["construct", toy_csv, "--algorithm", "ufringe", *flag,
                  "--out", str(out / "x")])
        assert err.value.code == 2
    for mode in (["--risk", "0.001"], ["--lambda", "0.3", "--max-iter", "2"]):
        for flag in (["--max-features", "12"], ["--min-leaf", "3"],
                     ["--max-depth", "4"]):  # nor uFRINGE flags uFC settings
            with pytest.raises(SystemExit) as err:
                main(["construct", toy_csv, *mode, *flag, "--out", str(out / "x")])
            assert err.value.code == 2
    with pytest.raises(SystemExit) as err:  # the cap is the risk mode's
        main(["construct", toy_csv, "--lambda", "0.3", "--max-iter", "2",
              "--hard-cap", "5", "--out", str(out / "x")])
    assert err.value.code == 2
    assert list(out.iterdir()) == []


def test_module_error_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,a\n1,0\n")
    assert main(["construct", str(bad), "--risk", "0.01",
                 "--out", str(tmp_path / "x")]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("rows", ["1,0,1\n", "1,0,1\n" * 4],
                         ids=["one_row", "all_constant"])
def test_degenerate_dataset(rows, tmp_path, capsys):
    path = tmp_path / "deg.csv"
    path.write_text("a,b,c\n" + rows)
    for mode in (["--risk", "0.001"], ["--lambda", "0.3", "--max-iter", "2"]):
        assert main(["construct", str(path), *mode,
                     "--out", str(tmp_path / "x")]) == 1
        assert "degenerate dataset" in capsys.readouterr().err
    out = str(tmp_path / "uf")
    assert main(["construct", str(path), "--algorithm", "ufringe",
                 "--out", out]) == 0
    features = load_feature_file(out + ".features.txt")
    assert [to_text(f) for f in features] == ["a", "b", "c"]
    assert main(["metrics", str(path), "--features",
                 out + ".features.txt"]) == 0


def test_missing_file_exits_1(tmp_path, capsys):
    assert main(["metrics", str(tmp_path / "nope.csv"),
                 "--features", str(tmp_path / "nope.txt")]) == 1


@pytest.mark.parametrize(
    "case",
    ["pareto-empty", "pareto-header-only", "pareto-closest-dir-missing",
     "construct-run-json-is-dir", "transform-unknown-feature",
     "noise-fraction-above-1", "pareto-huge-cell", "transform-huge-cell",
     "sweep-lambda-step-0", "sweep-iters-max-0", "sweep-lambda-to-inf",
     "sweep-lambda-step-nan", "noise-no-fraction", "pareto-nan-cell"],
)
def test_failed_command_writes_no_file(case, toy_csv, tmp_path, capsys):
    given = tmp_path / "given"
    out = tmp_path / "out"
    out.mkdir()
    header = "lambda,limit_iter,num_features,oi,c0,c1,rms\n"
    huge = '"' + "1" * 200_000 + '"'  # past the csv module's field size limit
    if case == "transform-unknown-feature":
        given.write_text("w & nope\n")
        argv = ["transform", toy_csv, "--features", str(given),
                "--out", str(out / "tf.csv")]
    elif case == "transform-huge-cell":
        given.write_text("w,x\n" + huge + ",0\n")
        features = tmp_path / "features.txt"
        features.write_text("w\n")
        argv = ["transform", str(given), "--features", str(features),
                "--out", str(out / "tf.csv")]
    elif case.startswith("noise"):
        pcts = {"noise-fraction-above-1": "0,0.05,1.5", "noise-no-fraction": ","}
        argv = ["noise", toy_csv, "--pcts", pcts[case], "--replicates", "5",
                "--out", str(out / "noise.csv")]
    elif case.startswith("sweep"):
        to, step, iters = {"sweep-lambda-step-0": ("0.3", "0", "2"),
                           "sweep-iters-max-0": ("0.3", "0.1", "0"),
                           "sweep-lambda-to-inf": ("inf", "0.1", "2"),
                           "sweep-lambda-step-nan": ("0.3", "nan", "2")}[case]
        argv = ["sweep", toy_csv, "--lambda-from", "0.1", "--lambda-to", to,
                "--lambda-step", step, "--iters-max", iters,
                "--out", str(out / "sweep.csv")]
    elif case == "construct-run-json-is-dir":
        # the features file opens, the run file cannot
        (out / "x.run.json").mkdir()
        argv = ["construct", toy_csv, "--risk", "0.01", "--out", str(out / "x")]
    else:
        rows = {"pareto-empty": "", "pareto-header-only": header,
                "pareto-closest-dir-missing": header + "0.1,1,4,0.3,0,1,0.2\n",
                "pareto-huge-cell": header + huge + ",1,4,0.3,0,1,0.2\n",
                "pareto-nan-cell": header + "0.1,1,4,0.5,0.2,1,0.3\n"
                                   "0.2,1,4,nan,0.1,1,0.3\n"}
        given.write_text(rows[case])
        closest = out / ("nodir" if case == "pareto-closest-dir-missing" else "")
        argv = ["pareto", "--in", str(given),
                "--front-out", str(out / "front.csv"),
                "--closest-out", str(closest / "cp.json")]
    before = sorted(out.iterdir())
    assert main(argv) == 1
    err = capsys.readouterr().err
    line = 2 if "huge" in case else 3 if "nan-cell" in case else None
    assert err.startswith(f"error: line {line}: " if line else "error: ")
    assert sorted(out.iterdir()) == before


def cli_env() -> dict:
    """The environment of a child Python that imports this checkout's
    sources and writes no bytecode."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))


@pytest.mark.parametrize("command", ["construct", "transform", "sweep"])
def test_write_past_the_file_size_limit_leaves_no_file(
    command, toy_csv, tmp_path
):
    """A write that fails part way, here with EFBIG past RLIMIT_FSIZE
    (Python ignores SIGXFSZ), exits 1 and leaves no output file, neither
    the truncated one nor one written in full before it."""
    resource = pytest.importorskip("resource")
    if not hasattr(resource, "RLIMIT_FSIZE"):
        pytest.skip("no RLIMIT_FSIZE on this platform")
    feats = tmp_path / "f.txt"
    feats.write_text("w & x\n!w & x\ny\nz\n")

    def argv(out):
        return {
            "construct": ["construct", toy_csv, "--risk", "0.01",
                          "--out", str(out / "run")],
            "transform": ["transform", toy_csv, "--features", str(feats),
                          "--out", str(out / "tf.csv")],
            "sweep": ["sweep", toy_csv, "--lambda-from", "0.05",
                      "--lambda-to", "0.5", "--lambda-step", "0.05",
                      "--iters-max", "4", "--out", str(out / "sweep.csv")],
        }[command]

    ref, out = tmp_path / "ref", tmp_path / "out"
    ref.mkdir()
    out.mkdir()
    assert main(argv(ref)) == 0
    sizes = sorted(path.stat().st_size for path in ref.iterdir())
    limit = sizes[-1] // 2  # construct: between features.txt and run.json
    assert len(sizes) == 1 or sizes[0] < limit
    hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]
    done = subprocess.run(
        [sys.executable, "-m", "boolfc.cli", *argv(out)],
        env=cli_env(), capture_output=True, text=True, timeout=120,
        preexec_fn=partial(resource.setrlimit, resource.RLIMIT_FSIZE,
                           (limit, hard)),
    )
    assert done.returncode == 1, done.stderr
    assert done.stderr.startswith("error: ")
    assert list(out.iterdir()) == []


def test_failed_write_keeps_paths_that_existed(toy_csv, tmp_path, capsys):
    """A failed command removes only the paths it created: a --front-out
    symlink that existed stays, though its target now holds the front."""
    sweep_csv = tmp_path / "sweep.csv"
    sweep_csv.write_text("lambda,limit_iter,num_features,oi,c0,c1,rms\n"
                         "0.1,1,4,0.3,0,1,0.2\n")
    target = tmp_path / "target.csv"
    target.write_text("kept\n")
    front = tmp_path / "front.csv"
    front.symlink_to(target)
    assert main(["pareto", "--in", str(sweep_csv), "--front-out", str(front),
                 "--closest-out", str(tmp_path / "nodir" / "cp.json")]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert front.is_symlink()
    assert front.read_bytes() == sweep_csv.read_bytes()


def test_sweep_pareto_pipeline(toy_csv, tmp_path):
    sweep_csv = str(tmp_path / "sweep.csv")
    assert main(["sweep", toy_csv, "--lambda-from", "0.05", "--lambda-to", "0.5",
                 "--lambda-step", "0.05", "--iters-max", "4",
                 "--out", sweep_csv]) == 0
    lines = read_bytes(sweep_csv).decode().splitlines()
    assert lines[0] == "lambda,limit_iter,num_features,oi,c0,c1,rms"
    assert len(lines) == 1 + 10 * 4

    front_csv = str(tmp_path / "front.csv")
    closest = str(tmp_path / "cp.json")
    assert main(["pareto", "--in", sweep_csv, "--front-out", front_csv,
                 "--closest-out", closest]) == 0
    best = json.loads(read_bytes(closest))
    assert set(best) == {"c0", "c1", "lambda", "limit_iter", "num_features",
                         "oi", "rms"}

    # the same sweep saved with a byte-order mark and CRLF line ends
    bom_csv = tmp_path / "sweep-bom.csv"
    crlf = read_bytes(sweep_csv).replace(b"\n", b"\r\n")
    bom_csv.write_bytes(b"\xef\xbb\xbf" + crlf)
    front_bom = str(tmp_path / "front-bom.csv")
    closest_bom = str(tmp_path / "cp-bom.json")
    assert main(["pareto", "--in", str(bom_csv), "--front-out", front_bom,
                 "--closest-out", closest_bom]) == 0
    assert read_bytes(front_bom) == read_bytes(front_csv)
    assert read_bytes(closest_bom) == read_bytes(closest)


def test_metrics_command(toy_csv, tmp_path, capsys):
    feats = tmp_path / "f.txt"
    feats.write_text("w & x\ny\nz\n")
    assert main(["metrics", toy_csv, "--features", str(feats)]) == 0
    printed = capsys.readouterr().out
    rec = json.loads(printed.strip())
    assert rec["m"] == 3
    out = tmp_path / "metrics.json"  # --out writes the line it prints
    assert main(["metrics", toy_csv, "--features", str(feats),
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out == printed
    assert out.read_bytes() == printed.encode()


def test_metrics_names_the_line_of_a_bad_feature(toy_csv, tmp_path, capsys):
    feats = tmp_path / "bad.txt"
    feats.write_text("# features\nw & x\n\n  !(a & @)\nz\n")
    assert main(["metrics", toy_csv, "--features", str(feats)]) == 1
    err = capsys.readouterr().err
    assert err == "error: line 4: unexpected character '@' (at offset 6)\n"


@pytest.mark.parametrize("command", ["metrics", "transform"])
@pytest.mark.parametrize(
    "text, message",
    [
        ("w & x\n# comment\nx & w\n", "line 3: duplicate feature 'w & x'"),
        ("w\n\n!!y & z\ny & z\n", "line 4: duplicate feature 'y & z'"),
        ("w & x\n\n  y & nope\nmissing\n", "line 3: unknown feature 'nope'"),
    ],
)
def test_feature_file_member_errors_name_their_line(
    command, text, message, toy_csv, tmp_path, capsys
):
    feats = tmp_path / "f.txt"
    feats.write_text(text)
    argv = [command, toy_csv, "--features", str(feats)]
    if command == "transform":
        argv += ["--out", str(tmp_path / "tf.csv")]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_metrics_reads_a_feature_file_with_bom(toy_csv, tmp_path, capsys):
    plain, bom = tmp_path / "f.txt", tmp_path / "bom.txt"
    plain.write_bytes(b"w & x\ny\n")
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert main(["metrics", toy_csv, "--features", str(plain)]) == 0
    want = capsys.readouterr().out
    assert main(["metrics", toy_csv, "--features", str(bom)]) == 0
    assert capsys.readouterr().out == want


def test_metrics_reads_a_feature_nested_past_the_recursion_limit(
    toy_csv, tmp_path, capsys
):
    # 3000 negations, an even run, over 'w & x': the canonical form is
    # 'w & x', so the report is the same
    plain, deep = tmp_path / "f.txt", tmp_path / "deep.txt"
    plain.write_text("w & x\ny\n")
    deep.write_text("!" * 3000 + "(w & x)\ny\n")
    assert main(["metrics", toy_csv, "--features", str(plain)]) == 0
    want = capsys.readouterr().out
    assert main(["metrics", toy_csv, "--features", str(deep)]) == 0
    assert capsys.readouterr().out == want


def test_transform_roundtrips_and_matches_extensions(toy_csv, tmp_path):
    feats = tmp_path / "f.txt"
    feats.write_text("w & x\n!w & x\ny\nz\n")
    out = str(tmp_path / "tf.csv")
    assert main(["transform", toy_csv, "--features", str(feats), "--out", out]) == 0
    transformed = load_dataset(out)
    d = load_dataset(toy_csv)
    fs = FeatureSet([parse(s) for s in ["w & x", "!w & x", "y", "z"]], d)
    assert np.array_equal(transformed.matrix, fs.extensions)


def test_noise_zero_pct_common_equals_m(toy_csv, tmp_path):
    # with one replicate there is no pair of runs to compare, and
    # common_between_runs is the set's own size at every fraction
    out = str(tmp_path / "noise.csv")
    for pcts, replicates in (("0", "3"), ("0,0.1", "1")):
        assert main(["noise", toy_csv, "--pcts", pcts, "--replicates",
                     replicates, "--seed", "0", "--out", out]) == 0
        lines = read_bytes(out).decode().splitlines()
        assert lines[0] == NOISE_CSV_HEADER
        assert len(lines) == 1 + len(pcts.split(",")) * int(replicates)
        for line in lines[1:]:
            pct, rep, oi, c0, m, common0, common_between = line.split(",")
            if float(pct) == 0:
                assert common0 == m
            assert float(common_between) == float(m)


def test_commands_never_import_numpy_ma(toy_csv, tmp_path):
    """The first ``np.unique`` call imports ``numpy.ma`` (about 15 ms); a
    fresh construct, metrics or noise process must not pay for it."""
    script = (
        "import sys, numpy\n"
        "print('numpy.ma' in sys.modules)\n"
        "from boolfc.cli import main\n"
        "csv, out = sys.argv[1:]\n"
        "assert main(['construct', csv, '--risk', '0.001', '--out', out]) == 0\n"
        "assert main(['metrics', csv, '--features', out + '.features.txt']) == 0\n"
        "assert main(['noise', csv, '--pcts', '0,0.1', '--replicates', '2',\n"
        "             '--out', out + '.noise.csv']) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, toy_csv, str(tmp_path / "run")],
        env=cli_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    if lines[0] == "True":
        pytest.skip("this NumPy imports numpy.ma with numpy itself")
    assert lines[-1] == "False"


def test_determinism_byte_identical(toy_csv, tmp_path):
    pairs = []
    for tag in ("one", "two"):
        prefix = str(tmp_path / f"c_{tag}")
        main(["construct", toy_csv, "--risk", "0.01", "--out", prefix])
        sweep_out = str(tmp_path / f"s_{tag}.csv")
        main(["sweep", toy_csv, "--lambda-from", "0.1", "--lambda-to", "0.3",
              "--lambda-step", "0.1", "--iters-max", "3", "--out", sweep_out])
        noise_out = str(tmp_path / f"n_{tag}.csv")
        main(["noise", toy_csv, "--pcts", "0,0.1", "--replicates", "2",
              "--seed", "7", "--out", noise_out])
        pairs.append((
            read_bytes(prefix + ".features.txt"),
            read_bytes(prefix + ".run.json"),
            read_bytes(sweep_out),
            read_bytes(noise_out),
        ))
    assert pairs[0] == pairs[1]


def test_mangled_names_are_valid_identifiers():
    from boolfc.expr import IDENT_RE

    taken = set()
    for text in ["a & b", "!a & b", "!(a & b) & c", "!x", "a-and-b"]:
        name = mangle_name(text, taken)
        assert IDENT_RE.fullmatch(name), name
    assert len(taken) == 5

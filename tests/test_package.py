"""What importing boolfc costs: every public name of the package loads on
first use, so ``import boolfc`` imports neither NumPy nor a submodule, and
``boolfc.cli`` starts NumPy with one OpenBLAS thread, as no code path calls
BLAS."""

import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from oracles import generated_dataset

import boolfc
from boolfc.dataset import save_dataset

# the names the package exported when it imported every module eagerly
EXPORTS = {
    "dataset": ["Dataset", "DatasetError", "inject_noise", "load_dataset", "unique_count"],
    "expr": ["And", "FeatureExpr", "Not", "Prim", "canonical_text", "canonicalize",
             "evaluate", "evaluate_batch", "literal_count", "parse", "to_text"],
    "metrics": ["FeatureSet", "MetricsReport", "avg_length_c1", "complexity_c0",
                "overlapping_index", "report", "rms"],
    "noise": ["NoiseRow", "noise_experiment", "replicate_seed"],
    "pareto": ["Solution", "closest_point", "pareto_front", "sweep"],
    "stats": ["ContingencyTable", "chi2_obs", "contingency", "expected_counts_ok",
              "kendall_exact_pvalue", "kendall_tau_test", "lambda_from_risk",
              "normal_quantile", "pearson_r"],
    "ufc": ["CandidatePair", "FixedMode", "RiskMode", "RunResult", "UfcConfig",
            "construct_new_features", "count_common", "prune_obsolete_features",
            "search_correlated_pairs", "ufc_run"],
    "ufringe": ["UfringeConfig", "build_clustering_tree", "extract_fringe_features",
                "ufringe_run"],
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)


def child_env(blas_threads=None) -> dict:
    """The environment of a child Python that imports this checkout's
    sources, with ``OPENBLAS_NUM_THREADS`` removed, as this process may
    carry it, or set to ``blas_threads``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    return env


def fresh_python(script: str, blas_threads=None) -> list[str]:
    """Run ``script`` in a new interpreter; return its output lines."""
    done = subprocess.run([sys.executable, "-c", script], env=child_env(blas_threads),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_import_loads_neither_numpy_nor_a_submodule():
    assert fresh_python(
        "import sys, boolfc\n"
        "print('numpy' in sys.modules)\n"
        "print(sorted(m for m in sys.modules if m.startswith('boolfc.')))\n"
    ) == ["False", "[]"]


def test_all_lists_the_53_names():
    assert len(NAMES) == 53
    assert sorted(boolfc.__all__) == NAMES
    assert boolfc.__version__ == "0.1.0"


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_name_is_the_object_of_its_module(module):
    defining = importlib.import_module(f"boolfc.{module}")
    for name in EXPORTS[module]:
        assert getattr(boolfc, name) is getattr(defining, name), name


def test_a_name_loads_its_module_on_first_use():
    assert fresh_python(
        "import sys, boolfc\n"
        "from boolfc import Dataset\n"
        "print(Dataset is sys.modules['boolfc.dataset'].Dataset)\n"
        "print('boolfc.ufringe' in sys.modules)\n"
        "print(boolfc.ufringe_run is sys.modules['boolfc.ufringe'].ufringe_run)\n"
    ) == ["True", "False", "True"]


def test_dir_lists_every_name():
    assert set(NAMES) <= set(dir(boolfc))
    assert "__version__" in dir(boolfc)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        boolfc.nope


def test_a_submodule_still_imports_by_name():
    from boolfc import metrics
    assert isinstance(metrics, types.ModuleType)
    assert metrics is sys.modules["boolfc.metrics"]
    assert fresh_python(
        "import sys, boolfc\n"
        "from boolfc import metrics\n"
        "print(metrics is sys.modules['boolfc.metrics'])\n"
        "print(boolfc.stats is sys.modules['boolfc.stats'])\n"
    ) == ["True", "True"]


READ_PIN = "import os, boolfc.cli\nprint(os.environ.get('OPENBLAS_NUM_THREADS'))\n"


def test_cli_starts_numpy_with_one_blas_thread():
    assert fresh_python(READ_PIN) == ["1"]


def test_a_blas_thread_count_the_user_set_wins():
    assert fresh_python(READ_PIN, "3") == ["3"]


def test_a_host_that_loaded_numpy_keeps_its_environment():
    assert fresh_python("import numpy\n" + READ_PIN) == ["None"]


def test_cli_process_runs_one_os_thread():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if not os.path.isdir("/proc/self/task") or "openblas" not in blas.get("name", ""):
        pytest.skip("needs /proc/self/task and a NumPy built with OpenBLAS")
    assert fresh_python(
        "import os, boolfc.cli\nprint(len(os.listdir('/proc/self/task')))\n") == ["1"]


@pytest.mark.parametrize("flags", [["--risk", "0.001"], ["--algorithm", "ufringe"]])
def test_construct_bytes_do_not_depend_on_blas_threads(flags, tmp_path):
    csv = tmp_path / "d.csv"
    save_dataset(generated_dataset(600, 16, 0), csv)
    outputs = []
    for threads in (None, "2"):
        out = tmp_path / f"run-{threads}"
        done = subprocess.run(
            [sys.executable, "-m", "boolfc.cli", "construct", str(csv), *flags,
             "--out", str(out)], env=child_env(threads), capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.append([Path(f"{out}{ext}").read_bytes()
                        for ext in (".features.txt", ".run.json")])
    assert outputs[0] == outputs[1]
    assert outputs[0][0].count(b"\n") > 16

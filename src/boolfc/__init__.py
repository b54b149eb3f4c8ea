"""boolfc: unsupervised construction of readable Boolean features.

Builds conjunctions of literals that replace correlated columns of a
binary dataset, plus the evaluation machinery around them: overlap and
complexity metrics, Pareto sweeps, risk-based auto-parameterization,
and a noise-stability protocol.

Every public name is loaded from its module on first use (PEP 562), so
``import boolfc`` imports neither NumPy nor any submodule.
"""

import importlib

_EXPORTS = {
    "dataset": ("Dataset", "DatasetError", "inject_noise", "load_dataset", "unique_count"),
    "expr": ("And", "FeatureExpr", "Not", "Prim", "canonical_text", "canonicalize",
             "evaluate", "evaluate_batch", "literal_count", "parse", "to_text"),
    "metrics": ("FeatureSet", "MetricsReport", "avg_length_c1", "complexity_c0",
                "overlapping_index", "report", "rms"),
    "noise": ("NoiseRow", "noise_experiment", "replicate_seed"),
    "pareto": ("Solution", "closest_point", "pareto_front", "sweep"),
    "stats": ("ContingencyTable", "chi2_obs", "contingency", "expected_counts_ok",
              "kendall_exact_pvalue", "kendall_tau_test", "lambda_from_risk",
              "normal_quantile", "pearson_r"),
    "ufc": ("CandidatePair", "FixedMode", "RiskMode", "RunResult", "UfcConfig",
            "construct_new_features", "count_common", "prune_obsolete_features",
            "search_correlated_pairs", "ufc_run"),
    "ufringe": ("UfringeConfig", "build_clustering_tree", "extract_fringe_features",
                "ufringe_run"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the module that defines ``name`` and cache the name here;
    a submodule named in the table is imported and returned as such."""
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

"""boolfc: unsupervised construction of readable Boolean features.

Builds conjunctions of literals that replace correlated columns of a
binary dataset, plus the evaluation machinery around them: overlap and
complexity metrics, Pareto sweeps, risk-based auto-parameterization,
and a noise-stability protocol.
"""

from .dataset import Dataset, DatasetError, inject_noise, load_dataset, unique_count
from .expr import (
    And,
    FeatureExpr,
    Not,
    Prim,
    canonical_text,
    canonicalize,
    evaluate,
    evaluate_batch,
    literal_count,
    parse,
    to_text,
)
from .metrics import (
    FeatureSet,
    MetricsReport,
    avg_length_c1,
    complexity_c0,
    overlapping_index,
    report,
    rms,
)
from .noise import NoiseRow, noise_experiment, replicate_seed
from .pareto import Solution, closest_point, pareto_front, sweep
from .stats import (
    ContingencyTable,
    chi2_obs,
    contingency,
    expected_counts_ok,
    kendall_exact_pvalue,
    kendall_tau_test,
    lambda_from_risk,
    normal_quantile,
    pearson_r,
)
from .ufc import (
    CandidatePair,
    FixedMode,
    RiskMode,
    RunResult,
    UfcConfig,
    construct_new_features,
    count_common,
    prune_obsolete_features,
    search_correlated_pairs,
    ufc_run,
)
from .ufringe import UfringeConfig, build_clustering_tree, extract_fringe_features, ufringe_run

__version__ = "0.1.0"

"""Co-data adaptive group-ridge models for high-dimensional GLMs.

Group-specific ridge penalties are learnt from co-data (covariate
annotations such as groupings or external p-values) by an empirical Bayes
method of moments, stabilised by an extra shrinkage layer on the group
weights, with optional posterior covariate selection.
"""

from .codata import (
    GroupSplit,
    Grouping,
    HierTree,
    build_codata_matrix,
    build_hierarchy_from_continuous,
    split_groups_random,
)
from .errors import (
    ConvergenceError,
    CoverageError,
    DataError,
    EcpcError,
    SingularSystemError,
)
from .estimator import (
    FittedModel,
    combine_local_variances,
    fit_ecpc,
    model_from_json,
    model_to_json,
    predict,
    solve_grouping_weights,
)
from .glm import (
    GlobalVariance,
    PenaltyState,
    ResponseFamily,
    RidgeFit,
    breslow_cumhaz,
    estimate_global_variance,
    fit_weighted_ridge,
    martingale_residuals,
)
from .hypershrinkage import (
    GroupWeights,
    HyperLambda,
    estimate_hyperlambda,
    solve_hierarchical_lasso,
    solve_lasso_hyper,
    solve_ridge_hyper,
)
from .mom import (
    MomentCore,
    MomentSystem,
    build_grouping_weight_system,
    build_mean_system,
    build_split_systems,
    build_variance_system,
    compute_moment_core,
)
from .selection import (
    SelectionResult,
    posterior_sds,
    refit_selected,
    select_credible,
    select_dss,
    select_l1,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "GroupSplit",
    "Grouping",
    "HierTree",
    "build_codata_matrix",
    "build_hierarchy_from_continuous",
    "split_groups_random",
    "ConvergenceError",
    "CoverageError",
    "DataError",
    "EcpcError",
    "SingularSystemError",
    "FittedModel",
    "combine_local_variances",
    "fit_ecpc",
    "model_from_json",
    "model_to_json",
    "predict",
    "solve_grouping_weights",
    "GlobalVariance",
    "PenaltyState",
    "ResponseFamily",
    "RidgeFit",
    "breslow_cumhaz",
    "estimate_global_variance",
    "fit_weighted_ridge",
    "martingale_residuals",
    "GroupWeights",
    "HyperLambda",
    "estimate_hyperlambda",
    "solve_hierarchical_lasso",
    "solve_lasso_hyper",
    "solve_ridge_hyper",
    "MomentCore",
    "MomentSystem",
    "build_grouping_weight_system",
    "build_mean_system",
    "build_split_systems",
    "build_variance_system",
    "compute_moment_core",
    "SelectionResult",
    "posterior_sds",
    "refit_selected",
    "select_credible",
    "select_dss",
    "select_l1",
]

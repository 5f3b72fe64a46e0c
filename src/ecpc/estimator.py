"""End-to-end fitting of co-data adaptive group-ridge models.

The pipeline runs three sequential steps on top of an initial ordinary
ridge fit: (1) estimate the global prior variance, (2) per co-data source,
estimate group weights from the moment system under hypershrinkage, and
(3) weight the co-data sources against each other.  The resulting
per-covariate local variances multiply the global one to give the penalty
of the final weighted ridge fit.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import nnls
from scipy.special import expit

from .codata import Grouping
from .errors import DataError
from .glm import (
    PenaltyState,
    ResponseFamily,
    _RowSpace,
    breslow_cumhaz,
    estimate_global_variance,
    fit_weighted_ridge,
    moment_weights,
)
from .hypershrinkage import KINDS, HyperLambda, estimate_hyperlambda, solve_hyper
from .mom import (
    MomentSystem,
    build_grouping_weight_system,
    build_variance_system,
    compute_moment_core,
)

__all__ = [
    "FittedModel",
    "fit_ecpc",
    "combine_local_variances",
    "solve_grouping_weights",
    "predict",
    "model_to_json",
    "model_from_json",
]

TAU_LOCAL_FLOOR = 1e-6
SPARSE_KINDS = {"lasso", "hierarchical_lasso"}


@dataclass
class FittedModel:
    """Everything needed to predict from, inspect, or re-serialise a fit."""

    beta: np.ndarray
    intercept: float
    tau_global: float
    sigma2: float | None
    gammas: list[np.ndarray]
    w: np.ndarray
    tau_local: np.ndarray
    hyperlambdas: list[float]
    family: str
    grouping_names: list[str]
    n_groups: list[int]
    has_intercept: bool
    baseline_times: np.ndarray | None = None
    baseline_cumhaz: np.ndarray | None = None
    selected: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def p(self) -> int:
        return len(self.beta)


def combine_local_variances(
    groupings: list[Grouping],
    gammas: list[np.ndarray],
    w: np.ndarray,
) -> np.ndarray:
    """Per-covariate local variance: co-data-weighted sum of group weights.

    Covariates in several groups of one grouping get the membership average
    built into the grouping's co-data matrix, ``grouping.entries``.
    """
    if not (len(groupings) == len(gammas) == len(w)):
        raise DataError("need one grouping and weight vector per source")
    p = groupings[0].p
    tau_local = np.zeros(p)
    for grouping, gamma, wd in zip(groupings, gammas, w):
        if grouping.p != p:
            raise DataError("groupings disagree on the covariate count")
        tau_local += wd * (grouping.entries @ np.asarray(gamma, dtype=float))
    if (tau_local < 0).any():
        warnings.warn("negative local variances floored at zero", stacklevel=2)
        tau_local = np.maximum(tau_local, 0.0)
    return tau_local


def solve_grouping_weights(system: MomentSystem) -> np.ndarray:
    """Non-negative least-squares weights for the co-data sources.

    Minimises ``||A w - b||`` over ``w >= 0`` (Lawson & Hanson's active-set
    method).  A rank-deficient ``A`` (correlated co-data) warns: the
    minimiser is then one of many.
    """
    A = np.asarray(system.A, dtype=float)
    b = np.asarray(system.b, dtype=float)
    if A.shape[1] > A.shape[0]:
        raise DataError("more co-data sources than pooled group equations")
    if np.linalg.matrix_rank(A) < A.shape[1]:
        warnings.warn(
            "grouping-weight system is rank deficient (correlated co-data); "
            "one of many non-negative least-squares solutions used",
            stacklevel=2,
        )
    return nnls(A, b)[0]


def _coerce_kinds(codata_list, hyper) -> list[str]:
    """One hypershrinkage kind name per co-data source (default ridge)."""
    if hyper is None:
        hyper = "ridge"
    if isinstance(hyper, str):
        hyper = [hyper] * len(codata_list)
    for h in hyper:
        if not isinstance(h, str) or h not in KINDS:
            raise DataError(
                f"unknown hyperpenalty kind {h!r}: hyper takes names from {KINDS}; "
                "set the strength with forced_hyperlambda"
            )
    if len(hyper) != len(codata_list):
        raise DataError("need one hypershrinkage kind per co-data source")
    for grouping, kind in zip(codata_list, hyper):
        if kind == "hierarchical_lasso" and grouping.tree is None:
            raise DataError(f"grouping '{grouping.name}' has no hierarchy for kind '{kind}'")
    return list(hyper)


def fit_ecpc(
    X,
    resp: ResponseFamily,
    codata_list: list[Grouping],
    hyper=None,
    intercept: bool = False,
    n_splits: int = 10,
    n_folds: int = 10,
    seed: int = 0,
    forced_hyperlambda: float | None = None,
) -> FittedModel:
    """Fit a co-data adaptive ridge model.

    ``codata_list`` holds one grouping per co-data source (each covering all
    columns of ``X``); ``hyper`` gives the hypershrinkage kind name, one of
    ``KINDS``, per source (default ridge).  ``forced_hyperlambda`` skips the
    split-based tuning and uses the given strength for every source but
    those of kind ``none``, which is always 0 (mainly for the
    non-informative limit and for tests).  A cox fit takes no
    intercept: the partial likelihood does not depend on one.  ``n_folds``
    is accepted and ignored: the global variance is a marginal-likelihood
    estimate, which needs no folds, and callers written for the earlier
    cross-validated estimate still pass it.
    """
    X = np.asarray(X, dtype=float)
    if not np.isfinite(X).all():
        raise DataError("X contains non-finite entries")
    n, p = X.shape
    if intercept and resp.family == "cox":
        raise DataError("the cox partial likelihood has no intercept")
    if not codata_list:
        raise DataError("at least one co-data source required")
    for g in codata_list:
        if g.p != p:
            raise DataError(
                f"grouping '{g.name}' covers {g.p} covariates but X has {p} columns"
            )
    kinds = _coerce_kinds(codata_list, hyper)

    X_aug = np.hstack([X, np.ones((n, 1))]) if intercept else X
    p_aug = X_aug.shape[1]
    unpen_mask = np.zeros(p_aug, dtype=bool)
    if intercept:
        unpen_mask[-1] = True

    # step 1: global prior variance (and noise variance for gaussian)
    gv = estimate_global_variance(X_aug, resp, unpenalized_mask=unpen_mask)
    tau_global = gv.tau_global
    resp_fit = resp.with_sigma2(gv.sigma2) if resp.family == "gaussian" else resp

    # initial ordinary ridge fit and its moment summary
    state0 = PenaltyState(
        tau_global=tau_global, tau_local=np.ones(p_aug), unpenalized_mask=unpen_mask
    )
    # one row-space rotation serves the fit and the core; its Gram is step 1's, scaled
    omega0 = state0.precision_diag
    rows = _RowSpace.of(X_aug, omega0, tau_global * gv.gram)
    fit0 = fit_weighted_ridge(X_aug, resp_fit, state0, beta0=gv.beta, rows=rows)
    W = moment_weights(resp_fit, fit0.linear_predictor)
    core = compute_moment_core(X_aug, W, omega0, fit0.beta, rows=rows)

    # step 2: per co-data source, hyperpenalty strength then group weights
    gammas: list[np.ndarray] = []
    hyperlambdas: list[float] = []
    tuning: list[dict] = []
    moments: list[dict] = []
    for d, (grouping, kind) in enumerate(zip(codata_list, kinds)):
        if forced_hyperlambda is None:  # kind none: strength 0, untuned
            choice = estimate_hyperlambda(
                grouping,
                core,
                penalty_kind=kind,
                n_splits=n_splits,
                seed=seed + 1000 * (d + 1),
                tau_global=tau_global,
            )
        else:
            choice = HyperLambda(0.0 if kind == "none" else float(forced_hyperlambda))
        # the route planned at the grouping's first use: by the tuning, or here
        moments.append({"route": core.plan(grouping), "rank": core.rank})
        system = build_variance_system(core, grouping, tau_global=tau_global)
        (gw,) = solve_hyper([system], kind, choice.lam, [grouping.sizes], tree=grouping.tree)
        gammas.append(gw.gamma)
        hyperlambdas.append(choice.lam)
        tuning.append(
            {
                "lambda": choice.lam,
                "on_grid_boundary": choice.on_grid_boundary,
                "n_grid_extensions": choice.n_grid_extensions,
                "grid": list(choice.grid),
                "mean_rss": list(choice.mean_rss),
            }
        )

    # step 3: weight the co-data sources against each other
    if len(codata_list) == 1:
        w = np.ones(1)
        source_weights = {"w": [1.0], "residual": None}
    else:
        w_system = build_grouping_weight_system(core, codata_list, gammas, tau_global)
        w = solve_grouping_weights(w_system)
        source_weights = {
            "w": w.tolist(),
            "residual": float(np.linalg.norm(w_system.A @ w - w_system.b)),
        }
        if not w.any():
            warnings.warn(
                "all grouping weights are zero; falling back to equal weights",
                stacklevel=2,
            )
            w = np.full(len(codata_list), 1.0 / len(codata_list))

    tau_local = combine_local_variances(codata_list, gammas, w)
    group_sparse = any(kind in SPARSE_KINDS for kind in kinds)
    dropped = tau_local <= 0
    if dropped.all():
        raise DataError("all local variances are zero; no covariate left to fit")
    if group_sparse:
        keep = ~dropped
    else:
        keep = np.ones(p, dtype=bool)
        tau_local = np.maximum(tau_local, TAU_LOCAL_FLOOR)

    # final weighted ridge fit on the kept covariates
    keep_aug = np.concatenate([keep, [True]]) if intercept else keep
    tau_local_aug = np.concatenate([tau_local, [1.0]]) if intercept else tau_local
    tau_kept = np.maximum(tau_local_aug[keep_aug], TAU_LOCAL_FLOOR)
    state = PenaltyState(
        tau_global=tau_global,
        tau_local=tau_kept,
        unpenalized_mask=unpen_mask[keep_aug],
    )
    fit = fit_weighted_ridge(X_aug[:, keep_aug], resp_fit, state)

    beta_aug = np.zeros(p_aug)
    beta_aug[keep_aug] = fit.beta
    beta = beta_aug[:p]
    icpt = float(beta_aug[-1]) if intercept else 0.0

    baseline_times = baseline_cumhaz = None
    if resp.family == "cox":
        order = np.argsort(resp.times, kind="stable")
        ev = resp.status[order] > 0
        baseline_times = resp.times[order][ev]
        baseline_cumhaz = breslow_cumhaz(resp.times, resp.status, fit.linear_predictor)[
            order
        ][ev]

    return FittedModel(
        beta=beta,
        intercept=icpt,
        tau_global=float(tau_global),
        sigma2=gv.sigma2,
        gammas=gammas,
        w=w,
        tau_local=tau_local,
        hyperlambdas=hyperlambdas,
        family=resp.family,
        grouping_names=[g.name for g in codata_list],
        n_groups=[g.n_groups for g in codata_list],
        has_intercept=intercept,
        baseline_times=baseline_times,
        baseline_cumhaz=baseline_cumhaz,
        diagnostics={
            "converged": bool(fit.converged),
            "iterations": int(fit.iterations),
            "initial_converged": bool(fit0.converged),
            "initial_iterations": int(fit0.iterations),
            "n_dropped": int((~keep).sum()),
            "global_variance": {
                "tau_global": gv.tau_global,
                "log_tau_grid": gv.grid.tolist(),
                "objective": gv.scores.tolist(),
                "on_grid_boundary": gv.on_grid_boundary,
                "newton_steps": gv.newton_steps,
            },
            "hyperlambda": tuning,
            "moments": moments,
            "source_weights": source_weights,
        },
    )


def predict(model: FittedModel, X_new, kind: str = "response"):
    """Predictions for new samples.

    ``kind='link'`` returns the linear predictor for every family;
    ``'response'`` returns the mean (gaussian), probability (binomial) or
    risk score (cox, same as the linear predictor).  For cox,
    ``kind='survival'`` returns the survival matrix over the stored
    baseline event times (samples x times).
    """
    X_new = np.asarray(X_new, dtype=float)
    if X_new.ndim != 2 or X_new.shape[1] != model.p:
        raise DataError(
            f"expected {model.p} columns, got {X_new.shape[1] if X_new.ndim == 2 else 'non-matrix'}"
        )
    lp = X_new @ model.beta + model.intercept
    if kind == "link":
        return lp
    if model.family == "gaussian":
        return lp
    if model.family == "binomial":
        return expit(lp)
    if kind == "survival":
        if model.baseline_cumhaz is None:
            raise DataError("model carries no baseline hazard")
        return np.exp(-np.outer(np.exp(lp), model.baseline_cumhaz))
    return lp


def model_to_json(model: FittedModel) -> str:
    """Serialise a fitted model to a JSON document."""

    def arr(a):
        return None if a is None else np.asarray(a).tolist()

    doc = {
        "format": "ecpc-model",
        "version": 1,
        "family": model.family,
        "beta": arr(model.beta),
        "intercept": model.intercept,
        "tau_global": model.tau_global,
        "sigma2": model.sigma2,
        "gammas": [arr(g) for g in model.gammas],
        "w": arr(model.w),
        "tau_local": arr(model.tau_local),
        "hyperlambdas": list(map(float, model.hyperlambdas)),
        "grouping_names": model.grouping_names,
        "n_groups": model.n_groups,
        "has_intercept": model.has_intercept,
        "baseline_times": arr(model.baseline_times),
        "baseline_cumhaz": arr(model.baseline_cumhaz),
        "selected": arr(model.selected),
        "diagnostics": model.diagnostics,
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def model_from_json(text: str) -> FittedModel:
    doc = json.loads(text)
    if doc.get("format") != "ecpc-model":
        raise DataError("not a model document")

    def arr(x, dtype=float):
        return None if x is None else np.asarray(x, dtype=dtype)

    return FittedModel(
        beta=arr(doc["beta"]),
        intercept=float(doc["intercept"]),
        tau_global=float(doc["tau_global"]),
        sigma2=doc["sigma2"],
        gammas=[arr(g) for g in doc["gammas"]],
        w=arr(doc["w"]),
        tau_local=arr(doc["tau_local"]),
        hyperlambdas=[float(x) for x in doc["hyperlambdas"]],
        family=doc["family"],
        grouping_names=list(doc["grouping_names"]),
        n_groups=[int(x) for x in doc["n_groups"]],
        has_intercept=bool(doc["has_intercept"]),
        baseline_times=arr(doc["baseline_times"]),
        baseline_cumhaz=arr(doc["baseline_cumhaz"]),
        selected=arr(doc["selected"], dtype=int) if doc["selected"] is not None else None,
        diagnostics=dict(doc.get("diagnostics", {})),
    )

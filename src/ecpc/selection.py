"""Posterior covariate selection on a fitted dense model.

Three routes to a sparse predictor: an added L1 penalty on top of the
learnt per-covariate ridge penalties (default), adaptive-lasso decoupling
of shrinkage and selection, and thresholding on marginal posterior
standard deviations.  All three end with a refit of the selected
covariates, either under the original penalties ("dense") or with the
global penalty re-tuned on the reduced design ("recalibrated").
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .estimator import FittedModel, TAU_LOCAL_FLOOR
from .glm import (
    PenaltyState,
    ResponseFamily,
    _RowSpace,
    elastic_net_cd,
    estimate_global_variance,
    family_terms,
    fit_weighted_ridge,
    moment_weights,
)

__all__ = [
    "SelectionResult",
    "select_l1",
    "select_dss",
    "select_credible",
    "refit_selected",
]


@dataclass
class SelectionResult:
    """Selected covariates, the tuning that produced them, and the sparse refit."""

    selected: np.ndarray
    method: str
    tuning: float
    beta: np.ndarray
    refit_mode: str
    exact_count: bool = True


def _with_model_sigma2(resp: ResponseFamily, model: FittedModel) -> ResponseFamily:
    """A gaussian response without a noise variance takes the model's (1 if
    the model has none either)."""
    if resp.family == "gaussian" and resp.sigma2 is None:
        return resp.with_sigma2(model.sigma2 if model.sigma2 is not None else 1.0)
    return resp


def _count(beta, pen_mask):
    return int((np.abs(beta[pen_mask]) > 0).sum())


def select_l1(
    model: FittedModel,
    X,
    resp: ResponseFamily,
    target_count: int,
    mode: str = "dense",
) -> SelectionResult:
    """Sparsify by adding an L1 penalty on top of the learnt ridge penalties.

    Covariates are rescaled by their local prior scale so the remaining
    ridge part is the uniform global precision; the L1 strength is tuned on
    a log-spaced path with warm starts, then by bisection, until exactly
    ``target_count`` covariates survive.  The survivors are refit without
    the L1 part.
    """
    X = np.asarray(X, dtype=float)
    p = model.p
    if not 1 <= target_count <= p:
        raise DataError("target count must be in [1, p]")
    tau_loc = np.maximum(model.tau_local, TAU_LOCAL_FLOOR)
    scale = np.sqrt(tau_loc)
    Xs = X * scale[None, :]
    if model.has_intercept:
        Xs = np.hstack([Xs, np.ones((len(Xs), 1))])
    p_aug = Xs.shape[1]
    pen_mask = np.arange(p_aug) < p
    state = PenaltyState.uniform(model.tau_global, p_aug, ~pen_mask)
    resp = _with_model_sigma2(resp, model)

    # the null model's score gives the smallest strength zeroing everything;
    # it is fitted on the unpenalised columns alone
    lp_null = np.zeros(len(Xs))
    if model.has_intercept:
        null_state = PenaltyState.uniform(model.tau_global, 1, [True])
        lp_null = fit_weighted_ridge(Xs[:, p:], resp, null_state).linear_predictor
    grad = Xs[:, pen_mask].T @ family_terms(resp, lp_null)[1]
    lam_max = np.abs(grad).max() * 1.0001

    cache: dict[float, np.ndarray] = {}

    def fit_at(lam, warm=None):
        beta = fit_weighted_ridge(Xs, resp, state, beta0=warm, lam1=lam).beta
        cache[lam] = beta
        return beta

    lo_ratio = 1e-4
    path = lam_max * lo_ratio ** (np.arange(100) / 99)
    beta = None
    hit = None
    lam_hi, lam_lo = path[0], path[-1]
    for i, lam in enumerate(path):
        beta = fit_at(lam, warm=beta)
        c = _count(beta, pen_mask)
        if c == target_count:
            hit = lam
            break
        if c > target_count:
            lam_lo = lam
            lam_hi = path[i - 1] if i > 0 else lam_max
            break
        lam_hi = lam
    else:
        lam_lo = path[-1]

    if hit is None:
        lo, hi = lam_lo, lam_hi
        beta_lo = cache.get(lo)
        for _ in range(80):
            mid = np.sqrt(lo * hi)
            beta_mid = fit_at(mid, warm=beta_lo)
            c = _count(beta_mid, pen_mask)
            if c == target_count:
                hit = mid
                break
            if c > target_count:
                lo, beta_lo = mid, beta_mid
            else:
                hi = mid
        exact = hit is not None
        if hit is None:
            # nearest attainable: take the over-selecting end and trim by size
            hit = lo
            warnings.warn(
                f"exact selection count {target_count} not attainable; trimming",
                stacklevel=2,
            )
    else:
        exact = True

    beta_hit = cache[hit]
    mags = np.abs(beta_hit[:p]) * scale
    nz = np.flatnonzero(np.abs(beta_hit[:p]) > 0)
    if len(nz) > target_count:
        nz = nz[np.argsort(-mags[nz], kind="stable")[:target_count]]
        nz.sort()
    selected = nz
    beta_refit = refit_selected(model, X, resp, selected, mode=mode)
    return SelectionResult(
        selected=selected,
        method="l1",
        tuning=float(hit),
        beta=beta_refit,
        refit_mode=mode,
        exact_count=exact or len(selected) == target_count,
    )


def select_dss(
    model: FittedModel,
    X,
    lam: float,
    resp: ResponseFamily | None = None,
    mode: str = "dense",
) -> SelectionResult:
    """Decouple shrinkage and selection with an adaptive lasso on the fit.

    Approximates the dense fitted values with a sparse coefficient vector:
    ``argmin_g (1/n)||X beta_hat - X g||^2 + lam * sum_j |g_j| / |beta_hat_j|``.
    Coordinates with an exactly zero dense coefficient are excluded.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    beta_hat = model.beta
    active = np.abs(beta_hat) > 0

    gamma = np.zeros(model.p)
    if lam == 0:
        gamma = beta_hat.copy()
    elif active.any():
        # substitute g_j = |beta_hat_j| u_j: uniform L1 on u
        Xa = X[:, active] * np.abs(beta_hat[active])[None, :]
        u = elastic_net_cd(Xa, 1.0 / n, X @ beta_hat, lam / 2.0)
        gamma[active] = np.abs(beta_hat[active]) * u

    selected = np.flatnonzero(np.abs(gamma) > 0)
    if resp is not None and len(selected) > 0:
        beta = refit_selected(model, X, resp, selected, mode=mode)
    else:
        beta = gamma
    return SelectionResult(
        selected=selected,
        method="dss",
        tuning=float(lam),
        beta=beta,
        refit_mode=mode if resp is not None else "none",
    )


def posterior_sds(model: FittedModel, X, resp: ResponseFamily) -> np.ndarray:
    """Marginal posterior standard deviations of the penalised coefficients.

    With prior precisions ``delta``, ``Xt = W^{1/2} X diag(delta)^{-1/2}``
    and ``Xt Xt' = U D^2 U'`` (``glm._RowSpace``), the posterior variances
    are ``(1 - rowsum((Xt'U)^2 / (D^2 + 1))) / delta``: exact for the
    gaussian family, a curvature-at-the-mode approximation otherwise.  An
    unpenalised intercept is integrated out: projecting ``W^{1/2} 1`` out
    of ``Xt`` gives the Schur complement of its block in the posterior
    precision.
    """
    X = np.asarray(X, dtype=float)
    resp = _with_model_sigma2(resp, model)
    tau_loc = np.maximum(model.tau_local, TAU_LOCAL_FLOOR)
    delta = 1.0 / (model.tau_global * tau_loc)
    w = moment_weights(resp, X @ model.beta + model.intercept)
    sw = np.sqrt(w)
    Xt = sw[:, None] * X / np.sqrt(delta)[None, :]
    if model.has_intercept:
        u = sw / np.linalg.norm(sw)
        Xt -= np.outer(u, u @ Xt)
    rows = _RowSpace(Xt @ Xt.T, X[:, :0])
    inner = 1.0 - ((Xt.T @ rows.U) ** 2 / (rows.d**2 + 1.0)).sum(axis=1)
    sd = np.sqrt(np.clip(inner, 0.0, None)) / np.sqrt(delta)
    if (sd <= 0).any():
        raise DataError("degenerate zero posterior standard deviation")
    return sd


def select_credible(
    model: FittedModel,
    X,
    resp: ResponseFamily,
    target_count: int,
    mode: str = "dense",
) -> SelectionResult:
    """Keep the covariates whose coefficients are largest relative to their
    posterior spread."""
    if not 1 <= target_count <= model.p:
        raise DataError("target count must be in [1, p]")
    sd = posterior_sds(model, X, resp)
    s = sd / sd.min()
    score = np.abs(model.beta) / s
    selected = np.sort(np.argsort(-score, kind="stable")[:target_count])
    beta = refit_selected(model, X, resp, selected, mode=mode)
    return SelectionResult(
        selected=selected,
        method="credible",
        tuning=float(score[selected].min()),
        beta=beta,
        refit_mode=mode,
    )


def refit_selected(
    model: FittedModel,
    X,
    resp: ResponseFamily,
    selected,
    mode: str = "dense",
) -> np.ndarray:
    """Refit the selected covariates; returns a full-length coefficient vector.

    ``dense`` keeps the learnt global and local penalties; ``recalibrated``
    resets the local weights to one and re-estimates the global variance on
    the reduced design.
    """
    selected = np.asarray(selected, dtype=int)
    if selected.size == 0:
        raise DataError("cannot refit an empty selection")
    if mode not in ("dense", "recalibrated"):
        raise DataError(f"unknown refit mode '{mode}'")
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    Xs = X[:, selected]
    if model.has_intercept:
        Xs = np.hstack([Xs, np.ones((n, 1))])
    k = Xs.shape[1]
    unpen = np.zeros(k, dtype=bool)
    if model.has_intercept:
        unpen[-1] = True

    if mode == "dense":
        tau_global = model.tau_global
        tau_loc = np.maximum(model.tau_local[selected], TAU_LOCAL_FLOOR)
        resp = _with_model_sigma2(resp, model)
    else:
        gv = estimate_global_variance(Xs, resp, unpenalized_mask=unpen)
        tau_global = gv.tau_global
        tau_loc = np.ones(len(selected))
        if resp.family == "gaussian":
            resp = resp.with_sigma2(gv.sigma2)

    tau_aug = np.concatenate([tau_loc, [1.0]]) if model.has_intercept else tau_loc
    state = PenaltyState(
        tau_global=tau_global, tau_local=tau_aug, unpenalized_mask=unpen
    )
    fit = fit_weighted_ridge(Xs, resp, state)
    beta = np.zeros(model.p)
    beta[selected] = fit.beta[: len(selected)]
    return beta

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
    breslow_cumhaz,
    elastic_net_cd,
    estimate_global_variance,
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


def _working_response(resp: ResponseFamily, lp: np.ndarray):
    """Per-sample weights and working response of the local quadratic model."""
    if resp.family == "gaussian":
        s2 = resp.sigma2 if resp.sigma2 is not None else 1.0
        return np.full(len(lp), 1.0 / s2), resp.y
    if resp.family == "binomial":
        pr = 1.0 / (1.0 + np.exp(-lp))
        w = np.clip(pr * (1.0 - pr), 1e-5, None)
        return w, lp + (resp.y - pr) / w
    H0 = breslow_cumhaz(resp.times, resp.status, lp)
    w = np.clip(H0 * np.exp(lp), 1e-8, None)
    return w, lp + (resp.status - H0 * np.exp(lp)) / w


def _elnet(
    X,
    resp: ResponseFamily,
    lam1: float,
    ridge_prec: np.ndarray,
    pen_mask: np.ndarray,
    beta0=None,
    max_outer: int = 100,
):
    """Elastic net with per-coordinate ridge precision, by coordinate descent.

    Minimises ``-loglik + 0.5 * sum_j ridge_j beta_j^2 + lam1 * sum_{pen} |beta_j|``
    through iterated weighted least-squares approximations.
    """
    beta = np.zeros(X.shape[1]) if beta0 is None else beta0
    for _outer in range(max_outer):
        lp = X @ beta
        w, z = _working_response(resp, lp)
        beta = elastic_net_cd(X, w, z, lam1, ridge_prec, pen_mask, beta0=beta)
        if resp.family == "gaussian":
            return beta  # the quadratic model is exact
        if np.abs(X @ beta - lp).max() < 1e-8 * (1.0 + np.abs(lp).max()):
            return beta
    return beta


def _count(beta, pen_mask):
    return int((np.abs(beta[pen_mask]) > 0).sum())


def select_l1(
    model: FittedModel,
    X,
    resp: ResponseFamily,
    target_count: int,
    mode: str = "dense",
    path_points: int = 100,
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
    pen_mask = np.ones(p_aug, dtype=bool)
    ridge_prec = np.full(p_aug, 1.0 / model.tau_global)
    if model.has_intercept:
        pen_mask[-1] = False
        ridge_prec[-1] = 0.0
    if resp.family == "gaussian" and resp.sigma2 is None and model.sigma2 is not None:
        resp = resp.with_sigma2(model.sigma2)

    # null-model gradient gives the smallest strength zeroing everything
    beta_null = np.zeros(p_aug)
    if model.has_intercept:
        beta_null = _elnet(Xs, resp, np.inf, ridge_prec, pen_mask)
    w0, z0 = _working_response(resp, Xs @ beta_null)
    grad = Xs[:, pen_mask].T @ (w0 * (z0 - Xs @ beta_null))
    lam_max = np.abs(grad).max() * 1.0001

    cache: dict[float, np.ndarray] = {}

    def fit_at(lam, warm=None):
        beta = _elnet(Xs, resp, lam, ridge_prec, pen_mask, beta0=warm)
        cache[lam] = beta
        return beta

    lo_ratio = 1e-4
    path = lam_max * lo_ratio ** (np.arange(path_points) / (path_points - 1))
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

    Uses the thin SVD of the weighted, prior-rescaled design, which gives
    the exact posterior covariance diagonal for the gaussian family and a
    curvature-at-the-mode approximation otherwise.
    """
    X = np.asarray(X, dtype=float)
    if resp.family == "gaussian" and resp.sigma2 is None and model.sigma2 is not None:
        resp = resp.with_sigma2(model.sigma2)
    tau_loc = np.maximum(model.tau_local, TAU_LOCAL_FLOOR)
    delta = 1.0 / (model.tau_global * tau_loc)
    lp = X @ model.beta + model.intercept

    class _Fit:
        linear_predictor = lp

    H0 = None
    if resp.family == "cox":
        H0 = breslow_cumhaz(resp.times, resp.status, lp)
    w = moment_weights(resp, _Fit, H0=H0)
    Xt = np.sqrt(w)[:, None] * X / np.sqrt(delta)[None, :]
    _, d, Vt = np.linalg.svd(Xt, full_matrices=False)
    shrink = d**2 / (d**2 + 1.0)
    inner = 1.0 - (Vt.T**2 * shrink[None, :]).sum(axis=1)
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
        if resp.family == "gaussian" and resp.sigma2 is None:
            resp = resp.with_sigma2(model.sigma2 if model.sigma2 is not None else 1.0)
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

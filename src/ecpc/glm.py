"""Weighted-ridge penalised GLM fitting for linear, logistic and Cox models.

The penalised estimate maximises ``loglik(beta) - 0.5 * beta' Omega beta``
with a diagonal precision ``Omega``, optionally less an L1 term.  Every fit
runs the one damped Newton loop of :func:`fit_weighted_ridge` on the terms of
:func:`family_terms` and :func:`information_factor`, the only family-specific
code.  Its Newton steps use the exact information: ``X' diag(w) X`` for
gaussian and binomial, and for cox that less the rank-E risk-set term
``G' G`` of the Breslow partial likelihood, so Cox fits converge
quadratically.  Each step's quadratic model is one set of rows with signed
weights, ``[X; G]`` at ``[w; -1]``.  All linear solves go through a dual
form on those rows when more columns are penalised than rows are passed,
so high-dimensional fits never build p x p matrices.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import LinAlgWarning, cho_factor, cho_solve, lu_factor, lu_solve
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.optimize import minimize_scalar
from scipy.special import expit

from .errors import ConvergenceError, DataError, SingularSystemError

__all__ = [
    "ResponseFamily",
    "PenaltyState",
    "RidgeFit",
    "GlobalVariance",
    "fit_weighted_ridge",
    "family_terms",
    "information_factor",
    "moment_weights",
    "breslow_cumhaz",
    "martingale_residuals",
    "estimate_global_variance",
    "family_loglik",
    "solve_penalized_system",
    "stratified_folds",
]


@dataclass(frozen=True)
class ResponseFamily:
    """Response payload plus family tag.

    gaussian: real ``y`` and optional noise variance ``sigma2``.
    binomial: 0/1 vector ``y``.
    cox: positive event/censoring ``times`` and 0/1 ``status``.
    """

    family: str
    y: np.ndarray | None = None
    sigma2: float | None = None
    times: np.ndarray | None = None
    status: np.ndarray | None = None

    def __post_init__(self):
        if self.family == "gaussian":
            y = np.asarray(self.y, dtype=float)
            if self.sigma2 is not None and self.sigma2 <= 0:
                raise DataError("gaussian noise variance must be positive")
            object.__setattr__(self, "y", y)
        elif self.family == "binomial":
            y = np.asarray(self.y, dtype=float)
            if not np.isin(y, [0.0, 1.0]).all():
                raise DataError("binomial responses must be 0/1")
            object.__setattr__(self, "y", y)
        elif self.family == "cox":
            times = np.asarray(self.times, dtype=float)
            status = np.asarray(self.status, dtype=float)
            if times.shape != status.shape:
                raise DataError("cox times and status must have equal length")
            if (times <= 0).any():
                raise DataError("cox event times must be positive")
            if not np.isin(status, [0.0, 1.0]).all():
                raise DataError("cox status must be 0/1")
            object.__setattr__(self, "times", times)
            object.__setattr__(self, "status", status)
        else:
            raise DataError(f"unknown family {self.family!r}")

    @property
    def n(self) -> int:
        return len(self.times) if self.family == "cox" else len(self.y)

    @staticmethod
    def gaussian(y, sigma2: float | None = None) -> "ResponseFamily":
        return ResponseFamily("gaussian", y=y, sigma2=sigma2)

    @staticmethod
    def binomial(y) -> "ResponseFamily":
        return ResponseFamily("binomial", y=y)

    @staticmethod
    def cox(times, status) -> "ResponseFamily":
        return ResponseFamily("cox", times=times, status=status)

    @cached_property
    def _risk_sets(self):
        """Cox risk sets, built once per response: ``order`` sorts the
        samples by descending time, ``ends`` holds the last sorted position
        of each block of tied times, ``block`` each sample's block and
        ``events`` each block's event count."""
        order = np.argsort(-self.times, kind="stable")
        t = self.times[order]
        first = np.r_[True, t[1:] != t[:-1]]
        starts = np.flatnonzero(first)
        ends = np.r_[starts[1:], len(t)] - 1
        block = np.empty(len(t), dtype=int)
        block[order] = np.cumsum(first) - 1
        return order, ends, block, np.add.reduceat(self.status[order], starts)

    def with_sigma2(self, sigma2: float) -> "ResponseFamily":
        return ResponseFamily("gaussian", y=self.y, sigma2=sigma2)

    def subset(self, idx) -> "ResponseFamily":
        if self.family == "cox":
            return ResponseFamily.cox(self.times[idx], self.status[idx])
        out = ResponseFamily(self.family, y=self.y[idx], sigma2=self.sigma2)
        return out


@dataclass(frozen=True)
class PenaltyState:
    """Global/local prior variances and the induced diagonal precision."""

    tau_global: float
    tau_local: np.ndarray
    unpenalized_mask: np.ndarray

    def __post_init__(self):
        tau_local = np.asarray(self.tau_local, dtype=float)
        mask = np.asarray(self.unpenalized_mask, dtype=bool)
        if self.tau_global <= 0:
            raise DataError("global prior variance must be positive")
        if (tau_local[~mask] <= 0).any():
            raise DataError("local prior variances of penalised covariates must be positive")
        object.__setattr__(self, "tau_local", tau_local)
        object.__setattr__(self, "unpenalized_mask", mask)

    @property
    def precision_diag(self) -> np.ndarray:
        prec = np.zeros_like(self.tau_local)
        pen = ~self.unpenalized_mask
        prec[pen] = 1.0 / (self.tau_global * self.tau_local[pen])
        return prec

    @staticmethod
    def uniform(tau_global: float, p: int, unpenalized_mask=None) -> "PenaltyState":
        mask = (
            np.zeros(p, dtype=bool)
            if unpenalized_mask is None
            else np.asarray(unpenalized_mask, dtype=bool)
        )
        return PenaltyState(tau_global=tau_global, tau_local=np.ones(p), unpenalized_mask=mask)


@dataclass
class RidgeFit:
    beta: np.ndarray
    linear_predictor: np.ndarray
    converged: bool
    iterations: int
    separation: bool = False


def solve_penalized_system(X, weights, omega_diag, rhs):
    """Solve ``(X' diag(w) X + diag(omega)) Z = rhs`` for one or more columns.

    Weights may be negative, as for the rows of a subtracted low-rank term
    (the cox risk-set rows of :func:`information_factor`), as long as the
    matrix stays positive definite.  Uses a dense p x p Cholesky, one LAPACK
    ``dpotrf`` and one ``dpotrs`` call, when at most as many columns are
    penalised as rows are passed, otherwise the dual form of
    :func:`_solve_dual` (with a Schur complement for unpenalised
    coordinates, whose omega is 0).  The factorisations skip scipy's
    finiteness scan of each operand; a test of the weights, the penalties
    and the solution (and of a matrix that fails to factor) raises its
    ``ValueError`` instead.
    """
    X = np.asarray(X, dtype=float)
    n = len(X)
    w = np.asarray(weights, dtype=float)
    if w.ndim == 0:
        w = np.full(n, w)
    omega = np.asarray(omega_diag, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    single = rhs.ndim == 1
    B = rhs[:, None] if single else rhs
    _check_finite(w)  # an infinite weight can give a finite solution
    _check_finite(omega)

    if np.count_nonzero(omega > 0) <= n:
        # M is symmetric up to rounding; its transpose is a Fortran view whose
        # lower triangle is M's upper one, the triangle cho_factor(M) reads
        M = _primal_matrix(X, w, omega)
        c, info = dpotrf(M.T, lower=True, clean=False, overwrite_a=True)
        if info > 0:  # M was overwritten: rebuild it for the error
            raise _singular("penalised system singular", _primal_matrix(X, w, omega))
        Z, _ = dpotrs(c, B, lower=True)
    else:
        Z = _solve_dual(X, w, omega, B)
    _check_finite(Z)
    return Z[:, 0] if single else Z


def _primal_matrix(X, w, omega):
    """``X' diag(w) X + diag(omega)``, p x p."""
    M = (X.T * w) @ X
    M.flat[:: len(M) + 1] += omega
    return M


def _check_finite(a):
    """Raise the ``ValueError`` of scipy's finiteness scan unless ``a`` is finite."""
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


def _singular(what, M):
    """The error for a matrix ``M`` that failed to factor."""
    _check_finite(M)  # not singular but NaN or infinite: the scan's error
    return SingularSystemError(f"{what} (cond={np.linalg.cond(M):.3e})")


def _solve_dual(X, w, omega, B):
    """The dual form of :func:`solve_penalized_system` for a 2-D ``B``.

    With ``S = |W|^{1/2} X_P Omega_P^{-1/2}`` and ``D`` the sign of each
    weight (+1 at zero), Woodbury gives ``M_PP^{-1} = Omega_P^{-1/2}
    (I - S' K^{-1} S) Omega_P^{-1/2}`` with the n x n kernel
    ``K = D + S S'``, factored once: by Cholesky, or by LU when a weight is
    negative and ``K`` is indefinite.  With ``T_U = |W|^{1/2} X_U``, the
    unpenalised block's Schur complement is ``T_U' K^{-1} T_U`` (Woodbury),
    free of the cancellation of ``M_UU - M_UP M_PP^{-1} M_PU`` at large
    weights.  A negative weight also gets one step of iterative refinement,
    which applies the same factors to the residual: at small penalties the
    indefinite form alone loses accuracy (up to 1e-5 relative at penalty
    1e-4 on small cox problems), refined it does not.
    """
    pen = omega > 0
    unp = ~pen
    sq = np.sqrt(np.where(pen, omega, 1.0))[:, None]  # 1 at unpenalised columns
    sign = np.where(w < 0, -1.0, 1.0)
    indefinite = sign.min() < 0
    sw = np.sqrt(np.abs(w))
    # |W|^{1/2} X_P Omega_P^{-1/2}, zero at X_U; column-major, as X[:, pen] is
    S = np.multiply(X, sw[:, None], order="F")
    S /= sq.T
    S[:, unp] = 0.0
    K = S @ S.T
    K.flat[:: len(K) + 1] += sign
    factor, solve = (lu_factor, lu_solve) if indefinite else (cho_factor, cho_solve)
    try:
        fK = factor(K, check_finite=False)
        if indefinite and not fK[0].diagonal().all():  # an exactly singular LU
            raise np.linalg.LinAlgError
    except (np.linalg.LinAlgError, LinAlgWarning):  # the LU's warning, if made an error
        raise _singular("dual kernel singular", K)
    if unp.any():
        T = sw[:, None] * X[:, unp]
        V = solve(fK, T, check_finite=False)
        schur = T.T @ V
        try:
            cS = cho_factor(schur, check_finite=False)
        except np.linalg.LinAlgError:
            raise _singular("unpenalised block not identifiable", schur)

    def apply(B):  # M^{-1} B: s = K^{-1} S Omega_P^{-1/2} B_P, plus V Z_U
        Z = B / sq
        s = solve(fK, S @ Z, check_finite=False)
        if unp.any():
            Z[unp] = cho_solve(cS, B[unp] - T.T @ s, check_finite=False)
            s += V @ Z[unp]
        Z -= S.T @ s
        Z /= sq
        return Z

    Z = apply(B)
    if indefinite:
        Z += apply(B - (X.T @ (w[:, None] * (X @ Z)) + omega[:, None] * Z))
    return Z


def family_terms(resp: ResponseFamily, lp):
    """Log-likelihood, score residuals and information weights at ``lp``.

    The score of the coefficients is ``X' score_resid`` and the information
    is ``X' diag(info_weights) X``, less ``G' G`` for cox (see
    :func:`information_factor`).  gaussian: ``(y - lp) / sigma2`` and
    ``1 / sigma2``; binomial: ``y - p`` and ``p (1 - p)``; cox (partial
    likelihood, tied times sharing a risk set): the martingale residuals
    ``status - H0 exp(lp)`` and ``H0 exp(lp)``, with ``H0`` the Breslow
    cumulative hazard at each sample's own time.  With
    :func:`information_factor` this is the only family-specific code of the
    fits.
    """
    lp = np.asarray(lp, dtype=float)
    if resp.family == "gaussian":
        s2 = resp.sigma2 if resp.sigma2 is not None else 1.0
        r = resp.y - lp
        ll = -0.5 * (r @ r) / s2 - 0.5 * len(r) * math.log(2 * math.pi * s2)
        return float(ll), r / s2, np.full(len(r), 1.0 / s2)
    if resp.family == "binomial":
        pr = expit(lp)
        # y*lp - log(1+exp(lp)), stable form
        ll = resp.y @ lp - np.logaddexp(0.0, lp).sum()
        return float(ll), resp.y - pr, pr * (1.0 - pr)
    order, ends, block, events = resp._risk_sets
    elp = np.exp(lp)
    risk = np.cumsum(elp[order])[ends]  # sum of exp(lp) over t_j >= t, per block
    ll = resp.status @ (lp - np.log(risk)[block])
    # H0 sums the hazard increments d / risk of every block up to the time
    H0 = np.cumsum((events / risk)[::-1])[::-1][block]
    info = H0 * elp
    return float(ll), resp.status - info, info


def information_factor(resp: ResponseFamily, lp, X):
    """Low-rank factor ``G = A' X`` of the exact cox information, else None.

    The negative Hessian of the cox partial log-likelihood in ``lp`` is
    ``diag(info_weights) - A A'``, where column e of ``A`` is
    ``sqrt(d_e) / R_e * exp(lp)`` on the risk set of event block e (``d_e``
    events, risk-set sum ``R_e``; Therneau & Grambsch 2000, ch. 3).  ``G``
    has one row per block with events (E x p, no rows when all samples are
    censored) and comes from one cumulative sum of ``exp(lp) X`` over the
    rows sorted by descending time, kept at the block ends.
    """
    if resp.family != "cox":
        return None
    order, ends, _, events = resp._risk_sets
    elp = np.exp(np.asarray(lp, dtype=float))[order]
    ev = events > 0
    Xs = np.asarray(X, dtype=float)[order]
    Xs *= elp[:, None]
    return _risk_set_rows(elp, ends[ev], events[ev], Xs, np.empty((ev.sum(), Xs.shape[1])))


def _risk_set_rows(elp, ends, events, T, out):
    """Write ``G`` of :func:`information_factor` into ``out`` and return it.

    ``T`` is ``exp(lp) X`` with its rows in risk order and is overwritten by
    its cumulative sum; ``elp`` is ``exp(lp)`` in that order, ``ends`` and
    ``events`` the last positions and event counts of the blocks with events.
    """
    np.cumsum(T, axis=0, out=T)
    np.take(T, ends, axis=0, out=out)
    out *= (np.sqrt(events) / np.cumsum(elp)[ends])[:, None]
    return out


def family_loglik(resp: ResponseFamily, lp: np.ndarray) -> float:
    """Log-likelihood (partial log-likelihood for cox) at a linear predictor."""
    return family_terms(resp, lp)[0]


def breslow_cumhaz(times, status, lp) -> np.ndarray:
    """Baseline cumulative hazard at each sample's own time.

    Hazard increments are ``d_e / sum_{t_j >= t_e} exp(lp_j)`` at distinct
    event times; tied event times share the risk set.  All-censored data
    gives an identically-zero cumulative hazard.
    """
    lp = np.asarray(lp, dtype=float)
    if not (len(times) == len(status) == len(lp)):
        raise DataError("times, status and linear predictor lengths differ")
    return family_terms(ResponseFamily.cox(times, status), lp)[2] / np.exp(lp)


def martingale_residuals(times, status, lp, H0) -> np.ndarray:
    """Event indicator minus expected cumulative hazard, per sample."""
    return np.asarray(status, dtype=float) - np.asarray(H0) * np.exp(np.asarray(lp))


def moment_weights(resp: ResponseFamily, lp) -> np.ndarray:
    """Information-scale weights used by the moment systems: the Fisher
    information of the linear predictor per sample (``1 / sigma2`` for
    gaussian, ``p (1 - p)`` for binomial, the diagonal ``H0 exp(lp)`` for
    cox, without the risk-set term of :func:`information_factor`)."""
    return family_terms(resp, lp)[2]


def fit_weighted_ridge(
    X,
    resp: ResponseFamily,
    pen: PenaltyState,
    max_iter: int = 100,
    beta0=None,
    lam1: float = 0.0,
) -> RidgeFit:
    """Maximise ``loglik(beta) - 0.5 beta' Omega beta - lam1 sum_pen |beta_j|``.

    The one Newton loop of every penalised fit (IRLS; a proximal Newton
    method when ``lam1 > 0``, whose L1 term spares the unpenalised
    coordinates).  Each step maximises the quadratic model built from
    :func:`family_terms` and :func:`information_factor` at the current
    iterate, whose rows are those of ``X`` at the information weights and,
    for cox, the rows of ``G`` at weight -1.  The step solves it by
    :func:`solve_penalized_system` when ``lam1 == 0`` and by
    :func:`elastic_net_cd` on the working response otherwise, and is halved
    until the objective does not fall.  ``beta0`` warm-starts the steps
    (default: zeros).  The stop rule is tested at each accepted iterate, on
    the minimum-norm subgradient ``g`` of the objective (the penalised score
    when ``lam1 == 0``): the loop stops once ``max|g| < 1e-8 (1 + |obj|)``,
    or after three successive steps whose relative objective change is
    below ``1e-8`` while ``max|g| < 1e-5 (1 + |obj|)``; a small objective
    change alone never stops it.  A gaussian objective is its own quadratic
    model, so one step solves it up to the accuracy of the linear solve.
    Raises :class:`ConvergenceError` (carrying the last iterate) if the
    iteration limit is hit.
    """
    X = np.asarray(X, dtype=float)
    n, p = X.shape
    if resp.n != n or len(pen.tau_local) != p:
        raise DataError("dimension mismatch between X, response and penalty state")
    unpen = pen.unpenalized_mask
    if unpen.all() and n <= p:
        raise DataError("need at least one penalised covariate or n > #unpenalised")
    if resp.family == "gaussian" and resp.sigma2 is None:
        raise DataError("gaussian fit requires sigma2 (estimate it first)")
    omega = pen.precision_diag
    l1 = np.where(unpen, 0.0, lam1)
    # the quadratic model's rows: X, and for cox below it the rows of G, which
    # each step writes in place; cox works on the samples in risk order
    Xq, wq = X, None
    cox = resp.family == "cox"
    if cox:
        order, ends, _, events = resp._risk_sets
        ev = events > 0
        ends, events = ends[ev], events[ev]
        Xq = np.empty((n + len(ends), p))
        X = np.take(X, order, axis=0, out=Xq[:n])
        resp = resp.subset(order)
        wq = np.full(len(Xq), -1.0)

    def terms_at(b):
        lp = X @ b
        ll, resid, w = family_terms(resp, lp)
        obj = ll - 0.5 * float(b @ (omega * b))
        if lam1:
            obj -= float(l1 @ np.abs(b))
        return lp, resid, w, obj

    beta = np.zeros(p) if beta0 is None else np.array(beta0, dtype=float)
    lp, resid, w, obj = terms_at(beta)
    grad = X.T @ resid - omega * beta
    converged = False
    stalled = 0
    it = 0
    for it in range(1, max_iter + 1):
        w = np.maximum(w, 1e-12)
        if cox:  # the model less 0.5 |G (b - beta)|^2: G's rows at weight -1
            wq[:n] = w
            elp = np.exp(lp)
            _risk_set_rows(elp, ends, events, X * elp[:, None], Xq[n:])
        else:
            wq = w
        if lam1 == 0:
            step = solve_penalized_system(Xq, wq, omega, grad)
        else:
            zq = np.concatenate([lp + resid / w, Xq[n:] @ beta])  # working response
            step = elastic_net_cd(Xq, wq, zq, lam1, omega, ~unpen, beta0=beta) - beta
        t = 1.0
        while True:
            trial = beta + t * step
            terms = terms_at(trial)
            if (np.isfinite(terms[3]) and terms[3] >= obj - 1e-12) or t < 1e-12:
                break
            t /= 2.0
        rel_change = abs(terms[3] - obj) / (abs(obj) + 1.0)
        beta = trial
        lp, resid, w, obj = terms
        grad = X.T @ resid - omega * beta
        sub = grad
        if lam1:
            sub = np.where(
                beta != 0,
                grad - l1 * np.sign(beta),
                np.sign(grad) * np.maximum(np.abs(grad) - l1, 0.0),
            )
        sub_norm = np.abs(sub).max()
        if sub_norm < 1e-8 * (1.0 + abs(obj)):
            converged = True
            break
        if rel_change < 1e-8 and sub_norm < 1e-5 * (1.0 + abs(obj)):
            stalled += 1
            if stalled >= 3:
                converged = True
                break
        else:
            stalled = 0
    if cox:  # back to the caller's sample order
        lp_sorted, lp = lp, np.empty(n)
        lp[order] = lp_sorted
    separation = resp.family == "binomial" and bool(np.max(np.abs(lp)) > 20.0)
    fit = RidgeFit(
        beta=beta,
        linear_predictor=lp,
        converged=converged,
        iterations=it,
        separation=separation,
    )
    if not converged:
        raise ConvergenceError(
            f"IRLS did not converge in {max_iter} iterations", last_iterate=fit
        )
    return fit


CD_TOL = 1e-12  # a sweep converges once no coordinate moves by this much
CD_MAX_SWEEPS = 10_000


def elastic_net_cd(X, w, z, lam1, ridge=None, pen=None, beta0=None):
    """Weighted elastic net by coordinate descent over an active set.

    Minimises ``0.5 * sum_i w_i (z_i - x_i' b)^2 + 0.5 * sum_j ridge_j b_j^2
    + lam1 * sum_{j in pen} |b_j|`` (default: no ridge, every coordinate
    penalised; ``w`` may be a scalar).  Weights may be negative, as for the
    rows of a subtracted low-rank term, as long as the quadratic stays
    positive semi-definite: then every ``col_sq + ridge >= 0`` and each
    coordinate update is a minimisation.  The active set starts as the
    non-zero and unpenalised coordinates of ``beta0`` plus those violating
    the zero-subgradient condition ``|x_j' r| <= lam1`` there.  Sweeps
    visit only the active set, each one not yet converged followed by
    ``_signed_newton``, until no coordinate moves by ``CD_TOL``; then one
    product ``X' r`` checks the condition on every other coordinate, and
    any violators join the set.  Raises
    :class:`ConvergenceError` (carrying the last iterate) after
    ``CD_MAX_SWEEPS`` sweeps in all.
    """
    X = np.asarray(X, dtype=float)
    n, p = X.shape
    w = np.broadcast_to(np.asarray(w, dtype=float), (n,))
    ridge = np.zeros(p) if ridge is None else np.asarray(ridge, dtype=float)
    pen = np.ones(p, dtype=bool) if pen is None else np.asarray(pen, dtype=bool)
    beta = np.zeros(p) if beta0 is None else np.array(beta0, dtype=float)
    col_sq = w @ X**2
    denom = col_sq + ridge
    live = denom > 0
    r = w * (z - X @ beta)  # weighted residual, kept in sync coordinate-wise
    active = np.zeros(p, dtype=bool)
    violators = live & ((beta != 0) | ~pen | (np.abs(X.T @ r) > lam1))
    sweeps = 0
    while violators.any():
        active |= violators
        idx = np.flatnonzero(active)
        cols = X[:, idx].T.copy()
        wcols = cols * w
        delta = np.inf
        while delta >= CD_TOL:
            if sweeps == CD_MAX_SWEEPS:
                raise ConvergenceError(
                    "coordinate descent did not converge", last_iterate=beta
                )
            sweeps += 1
            delta = 0.0
            for k, j in enumerate(idx):
                old = beta[j]
                rho = cols[k] @ r + col_sq[j] * old
                if pen[j]:
                    new = math.copysign(max(abs(rho) - lam1, 0.0), rho) / denom[j]
                else:
                    new = rho / denom[j]
                if new != old:
                    r -= wcols[k] * (new - old)
                    delta = max(delta, abs(new - old))
                    beta[j] = new
            if delta >= CD_TOL:
                moved = _signed_newton(cols, wcols, r, beta[idx], pen[idx], ridge[idx], lam1)
                r -= (moved - beta[idx]) @ wcols
                beta[idx] = moved
        violators = live & ~active & (np.abs(X.T @ r) > lam1)
    return beta


def _signed_newton(cols, wcols, r, b, pen, ridge, lam1):
    """Active-set Newton steps for ``elastic_net_cd`` on one block; returns
    the moved block.

    Only the non-zero and unpenalised coordinates move, with their signs
    held, so the objective is a quadratic there.  Its Newton step is taken
    with the Hessian's eigenvalues floored at ``1e-10`` of the largest, so
    along a flat direction (more non-zeros than samples, where the objective
    falls linearly) the step is long.  A step stops where the first
    coordinate reaches zero, sets it to zero and repeats on the smaller set;
    it is dropped unless the quadratic decreases.  This ends what sweeps do
    at a rate set by the block's conditioning, which stalls them on nearly
    collinear blocks.
    """
    b = b.copy()
    for _ in range(len(b)):
        on = (b != 0) | ~pen
        if not on.any():
            break
        b_on, pen_on = b[on], pen[on]
        H = wcols[on] @ cols[on].T + np.diag(ridge[on])
        grad = ridge[on] * b_on + np.where(pen_on, lam1, 0.0) * np.sign(b_on) - cols[on] @ r
        ev, V = np.linalg.eigh(H)
        d = -V @ ((V.T @ grad) / np.maximum(ev, 1e-10 * ev[-1]))
        with np.errstate(divide="ignore", invalid="ignore"):
            t_zero = np.where(pen_on & (b_on * d < 0), -b_on / d, np.inf)
        k = int(np.argmin(t_zero))
        crossed = t_zero[k] < 1.0
        if crossed:
            d *= t_zero[k]
            d[k] = -b_on[k]
        if not grad @ d + 0.5 * d @ H @ d < 0:
            break
        b[on] += d
        r = r - d @ wcols[on]
        if not crossed:
            break
    return b


@dataclass
class GlobalVariance:
    """A global-variance estimate; ``on_grid_boundary``: its search ended on
    the boundary of its grid (see :func:`estimate_global_variance`)."""

    tau_global: float
    sigma2: float | None = None
    lambda_star: float | None = None
    grid: np.ndarray | None = None
    cv_scores: np.ndarray | None = None
    newton_steps: int = 0  # of all cross-validation fits, capped ones included
    on_grid_boundary: bool = False


def stratified_folds(resp: ResponseFamily, n_folds: int, seed: int) -> np.ndarray:
    """Deterministic fold assignment, stratified by class (binomial) or status (cox)."""
    n = resp.n
    n_folds = min(n_folds, n)
    rng = np.random.default_rng(seed)
    assign = np.zeros(n, dtype=int)
    if resp.family == "gaussian":
        perm = rng.permutation(n)
        assign[perm] = np.arange(n) % n_folds
        return assign
    strata = resp.y if resp.family == "binomial" else resp.status
    offset = 0
    for val in np.unique(strata):
        idx = np.flatnonzero(strata == val)
        perm = rng.permutation(len(idx))
        assign[idx[perm]] = (np.arange(len(idx)) + offset) % n_folds
        offset += len(idx)
    return assign


def estimate_global_variance(
    X,
    resp: ResponseFamily,
    n_folds: int = 10,
    seed: int = 0,
    folds=None,
    unpenalized_mask=None,
) -> GlobalVariance:
    """Estimate the overall prior variance with all local variances at 1.

    Gaussian: maximises the marginal likelihood of ``y ~ N(0, sigma2 I +
    tau2 X X')``; with u unpenalised columns, that of the n - u error
    contrasts ``N'y``, ``N`` an orthonormal basis of their span's complement
    (REML).  In the eigenbasis of the Gram, ``y`` has variances ``sigma2 v``,
    ``v = 1 + kappa d``: one search in ``log kappa``, ``kappa = tau2 /
    sigma2``, with sigma2 profiled out as ``mean(u^2 / v)`` unless supplied.
    It scores 33 points of the bracket ``kappa mean(d) in [1e-8, 1e8]``,
    which moves with X -> cX as kappa does, and refines an interior best
    point by bounded Brent between its neighbours.  A best end point is the
    estimate and sets ``on_grid_boundary``: the upper end is a sigma2
    collapse, the lower end no signal.  Binomial/cox: stratified
    k-fold cross-validation over a log-spaced grid of total penalty levels,
    maximising the mean held-out log-likelihood; ``tau2 = 1 / lambda_star``.
    Each fold fits its penalties from the largest down, each fit warm-started
    from the previous one (see :func:`_fold_path_scores`).  The first fit
    that fails to converge, or meets a singular system, scores -inf, and so
    does every smaller penalty of that fold without being fitted.  Either
    search warns when it ends on the boundary of its grid.
    """
    X = np.asarray(X, dtype=float)
    n, p = X.shape
    mask = (
        np.zeros(p, dtype=bool)
        if unpenalized_mask is None
        else np.asarray(unpenalized_mask, dtype=bool)
    )
    if not np.isfinite(X).all():
        raise DataError("X contains non-finite entries")
    if not X.any():
        raise DataError("degenerate X: all entries are zero")

    if resp.family == "gaussian":
        Xp = X[:, ~mask]
        y = resp.y
        if mask.any():
            N = np.linalg.qr(X[:, mask], mode="complete")[0][:, mask.sum() :]
            y, Xp = N.T @ y, N.T @ Xp
        d, Q = np.linalg.eigh(Xp @ Xp.T)
        d = np.clip(d, 0.0, None)
        if d.max() <= 0:
            raise DataError("degenerate X: zero spectrum")
        u2 = (Q.T @ y) ** 2

        def nll(log_kappa):  # per contrast, less constants
            v = 1.0 + np.multiply.outer(np.exp(log_kappa), d)
            q = (u2 / v).mean(axis=-1)
            s2 = q if resp.sigma2 is None else resp.sigma2
            return np.log(s2) + np.log(v).mean(axis=-1) + q / s2

        grid = np.linspace(-1.0, 1.0, 33) * math.log(1e8) - math.log(d.mean())
        best = 0  # zero contrasts, sigma2 profiled: sigma2 = 0 at every kappa
        if resp.sigma2 is not None or u2.any():
            best = int(np.argmin(nll(grid)))
        log_kappa = grid[best]
        if 0 < best < len(grid) - 1:
            log_kappa = minimize_scalar(
                nll, bounds=(grid[best - 1], grid[best + 1]), method="bounded"
            ).x
        kappa = math.exp(log_kappa)
        s2 = resp.sigma2 or float(np.mean(u2 / (1.0 + kappa * d)))
        gv = GlobalVariance(kappa * s2, s2, on_grid_boundary=best in (0, len(grid) - 1))
        return _flag_boundary(gv)

    grid = np.logspace(-4, 6, 50)
    if folds is None:
        folds = stratified_folds(resp, n_folds, seed)
    folds = np.asarray(folds)
    fold_ids = np.unique(folds)
    if len(fold_ids) < 2:
        raise DataError("cross-validation needs at least 2 folds")
    scores = np.zeros((len(grid), len(fold_ids)))
    steps = 0
    Xp = X[:, ~mask]
    K = Xp @ Xp.T  # the Gram of the penalised columns, shared by every fold
    X_unpen = X[:, mask]
    for fi, f in enumerate(fold_ids):
        test = folds == f
        train = ~test
        if resp.family == "binomial" and len(np.unique(resp.y[train])) < 2:
            raise DataError(f"fold {f} leaves a single class in the training split")
        # scale the total penalty by the fold's sample fraction so the
        # per-observation regularisation matches the full-data level
        scores[:, fi], fold_steps = _fold_path_scores(
            K,
            X_unpen,
            train,
            resp.subset(train),
            resp.subset(test),
            grid * train.sum() / n,
        )
        steps += fold_steps
    mean_scores = scores.mean(axis=1)
    best = int(np.argmax(mean_scores))
    lam_star = float(grid[best])
    gv = GlobalVariance(
        tau_global=1.0 / lam_star,
        sigma2=None,
        lambda_star=lam_star,
        grid=grid,
        cv_scores=mean_scores,
        newton_steps=steps,
        on_grid_boundary=best in (0, len(grid) - 1),
    )
    return _flag_boundary(gv)


def _flag_boundary(gv: GlobalVariance) -> GlobalVariance:
    """``gv``, after a warning if its search ended on the boundary of its grid."""
    if gv.on_grid_boundary:
        warnings.warn("global-variance optimum on the grid boundary", stacklevel=3)
    return gv


def _fold_path_scores(K, X_unpen, train, resp_tr, resp_te, penalties):
    """Held-out log-likelihood of uniform-penalty ridge fits on one fold.

    ``K = X_P X_P'`` is the Gram of the penalised columns of all n samples,
    ``X_unpen`` the unpenalised columns and ``train`` the fold's training
    rows.  With one penalty on every penalised column the fit lies in the
    row space of the penalised training block, so one eigendecomposition
    ``K[tr, tr] = U D^2 U'`` gives coordinates of that space (Hastie &
    Tibshirani, Biostatistics 2004): the fits run on the
    ``m x (rank + #unpenalised)`` design ``[U D | X_unpen[tr]]`` and are
    scored on the held-out rows ``[K[te, tr] U D^{-1} | X_unpen[te]]``.
    With the thin SVD ``X_P[tr] = U D V'`` these are ``X_P[tr] V`` and
    ``X_P[te] V``: an orthogonal change of coordinates, so the Newton
    iterates equal those on the full design up to rounding.  (The stopping
    test reads ``max|score|``, which the rotation changes, so a slowly
    converging fit may stop a step apart.)  Eigenvalues at or below
    ``m eps d_max`` are dropped: the Gram's rounding error is about
    ``eps d_max``, with ``d_max`` the largest eigenvalue, so below that an
    eigenvalue is rounding rather than a direction of ``X_P[tr]`` (the zero
    eigenvalues of rank-deficient blocks come out below ``4 eps d_max``),
    and a direction that small moves the fitted predictor by about
    ``m eps d_max`` over the penalty.  The penalties are fitted from the
    largest down, each warm-started from the one before; the first failure
    scores -inf, and so do all smaller penalties, which are not fitted.
    Returns the scores and the Newton steps of all fits; a fit stopped by
    the iteration cap counts its steps, one stopped by a singular system
    none.
    """
    test = ~train
    d2, U = np.linalg.eigh(K[np.ix_(train, train)])
    keep = d2 > len(d2) * np.finfo(float).eps * d2[-1]
    U, d = U[:, keep], np.sqrt(d2[keep])
    Z_tr = np.hstack([U * d, X_unpen[train]])
    Z_te = np.hstack([K[np.ix_(test, train)] @ (U / d), X_unpen[test]])
    mask = np.arange(Z_tr.shape[1]) >= len(d)
    ones = np.ones(len(mask))
    scores = np.full(len(penalties), -np.inf)
    beta = None
    steps = 0
    for k in np.argsort(-penalties, kind="stable"):
        state = PenaltyState(1.0 / penalties[k], ones, mask)
        try:
            fit = fit_weighted_ridge(Z_tr, resp_tr, state, beta0=beta)
        except ConvergenceError as err:
            steps += err.last_iterate.iterations
            break
        except SingularSystemError:
            break
        steps += fit.iterations
        beta = fit.beta
        scores[k] = family_loglik(resp_te, Z_te @ beta)
    return scores, steps

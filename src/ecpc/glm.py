"""Weighted-ridge penalised GLM fitting for linear, logistic and Cox models.

The penalised estimate maximises ``loglik(beta) - 0.5 * beta' Omega beta``
with a diagonal precision ``Omega``, optionally less an L1 term.  Every fit
runs the one damped Newton loop of :func:`fit_weighted_ridge` on the terms of
:func:`family_terms` and :func:`information_factor`, the only family-specific
code.  Its Newton steps use the exact information: ``X' diag(w) X`` for
gaussian and binomial, and for cox that less the rank-E risk-set term
``G' G`` of the Breslow partial likelihood, so Cox fits converge
quadratically.  Each step's quadratic model is one set of rows with signed
weights, ``[X; G]`` at ``[w; -1]``, solved by one dense Cholesky
(:func:`solve_penalized_system`).  A ridge fit with more penalised columns
than rows runs in the row space of its penalised block (:class:`_RowSpace`),
on at most ``rank + #unpenalised`` coordinates, so high-dimensional fits
never build p x p matrices.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
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
    matrix stays positive definite.  One dense p x p Cholesky: one LAPACK
    ``dpotrf`` and one ``dpotrs`` call.  They skip scipy's finiteness scan of
    each operand; a test of the weights, the penalties and the solution (and
    of a matrix that fails to factor) raises its ``ValueError`` instead.
    """
    X = np.asarray(X, dtype=float)
    w = np.asarray(weights, dtype=float)
    omega = np.asarray(omega_diag, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    _check_finite(w)  # an infinite weight can give a finite solution
    _check_finite(omega)
    if not omega.size:  # no unknowns: the row space of an all-zero block
        return rhs.copy()
    # M is symmetric up to rounding; its transpose is a Fortran view whose
    # lower triangle is M's upper one, the triangle cho_factor(M) reads
    M = _primal_matrix(X, w, omega)
    c, info = dpotrf(M.T, lower=True, clean=False, overwrite_a=True)
    if info > 0:  # M was overwritten: rebuild it for the error
        M = _primal_matrix(X, w, omega)
        _check_finite(M)  # not singular but NaN or infinite: the scan's error
        raise SingularSystemError(f"penalised system singular (cond={np.linalg.cond(M):.3e})")
    Z, _ = dpotrs(c, rhs, lower=True)
    _check_finite(Z)
    return Z


def _primal_matrix(X, w, omega):
    """``X' diag(w) X + diag(omega)``, p x p."""
    M = (X.T * w) @ X
    M.flat[:: len(M) + 1] += omega
    return M


def _check_finite(a):
    """Raise the ``ValueError`` of scipy's finiteness scan unless ``a`` is finite."""
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


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
    *,
    rows: "_RowSpace | None" = None,
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
    A ridge fit with more penalised columns than rows runs on the
    :class:`_RowSpace` coordinates (``rows``, if shared by the caller),
    ``beta0`` projected on them, and stops on the caller's score.  Raises
    :class:`ConvergenceError` (carrying the last iterate) at the cap, or when
    the weights or ``G`` overflow or no step of length 1e-12 or more is finite.
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
    # L1 fits stay in these coordinates: the L1 norm is not rotation invariant
    rows = None if lam1 else rows or _RowSpace.of(X, omega)
    if rows is not None:
        if beta0 is not None:
            beta0 = rows.coords(np.asarray(beta0, dtype=float))
        X, omega, unpen = rows.Z, rows.omega, rows.omega == 0
    l1 = np.where(unpen, 0.0, lam1)
    # the quadratic model's rows: X, and for cox below it the rows of G, which
    # each step writes in place; cox works on the samples in risk order
    Xq, wq = X, None
    cox = resp.family == "cox"
    if cox:
        order, ends, _, events = resp._risk_sets
        ev = events > 0
        ends, events = ends[ev], events[ev]
        Xq = np.empty((n + len(ends), X.shape[1]))
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

    def fit_at(iterations):  # the iterate, in the caller's coordinates and sample order
        lp_out = np.empty(n)
        lp_out[order if cox else slice(None)] = lp
        separation = resp.family == "binomial" and bool(np.max(np.abs(lp)) > 20.0)
        beta_out = beta if rows is None else rows.beta(beta)
        return RidgeFit(beta_out, lp_out, converged, iterations, separation)

    beta = np.zeros(X.shape[1]) if beta0 is None else np.array(beta0, dtype=float)
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
        if not (np.isfinite(wq).all() and np.isfinite(Xq[n:]).all()):
            raise ConvergenceError("IRLS information overflowed", last_iterate=fit_at(it - 1))
        if lam1 == 0:
            step = solve_penalized_system(Xq, wq, omega, grad)
        else:
            zq = np.concatenate([lp + resid / w, Xq[n:] @ beta])  # working response
            step = elastic_net_cd(Xq, wq, zq, lam1, omega, ~unpen, beta0=beta) - beta
        t = 1.0
        while True:
            trial = beta + t * step
            terms = terms_at(trial)
            if np.isfinite(terms[3]) and (terms[3] >= obj - 1e-12 or t < 1e-12):
                break
            if t < 1e-12:
                raise ConvergenceError("IRLS step not finite", last_iterate=fit_at(it - 1))
            t /= 2.0
        rel_change = abs(terms[3] - obj) / (abs(obj) + 1.0)
        beta = trial
        lp, resid, w, obj = terms
        grad = X.T @ resid - omega * beta
        sub = grad if rows is None else rows.score(grad)
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
    fit = fit_at(it)
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
    """A global-variance estimate and its search: the scored ``grid`` of
    log tau2, the objective there (``scores``, +inf where a fit failed or
    past the stop of a binomial/cox scan, see :class:`_LaplaceScore`),
    whether the search ended on an end of the grid, and the Newton steps of
    all its fits, capped ones included."""

    tau_global: float
    sigma2: float | None
    grid: np.ndarray
    scores: np.ndarray
    on_grid_boundary: bool
    newton_steps: int
    gram: np.ndarray = field(repr=False)  # X_P X_P'


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


def estimate_global_variance(X, resp: ResponseFamily, unpenalized_mask=None) -> GlobalVariance:
    """Estimate the overall prior variance with all local variances at 1.

    Empirical Bayes for every family: one search (:func:`_minimise`) for
    the maximum of a marginal likelihood of ``tau2`` under ``beta_P ~ N(0,
    tau2 I)``, on the bracket ``tau2 mean(d) in [1e-8, 1e8]`` (``d``: the
    penalised Gram's eigenvalues), which moves with X -> cX as ``tau2`` does.
    Gaussian: the exact likelihood of ``y ~ N(0, sigma2 I + tau2 X X')``;
    with u unpenalised columns, that of the n - u error contrasts ``N'y``,
    ``N`` an orthonormal basis of their span's complement (REML).  In the
    eigenbasis of the contrasts' Gram, ``y`` has variances ``sigma2 v``,
    ``v = 1 + kappa d``: the search runs in ``log kappa``, ``kappa = tau2 /
    sigma2``, with sigma2 profiled out as ``mean(u^2 / v)`` unless
    supplied.  Its upper end is a sigma2 collapse, its lower end no signal.
    Binomial/cox: the Laplace approximation (Wood, JRSS-B 2011) ``l(beta) -
    0.5 |beta_P|^2 / tau2 - 0.5 log det(X_P' W X_P [- G'G] + I / tau2) +
    0.5 log det(I / tau2)`` at the fit, in ``log tau2`` (:class:`_LaplaceScore`).
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
    if resp.family == "binomial" and resp.y.min() == resp.y.max():
        raise DataError(f"binomial response has a single class: all {n} samples are {resp.y[0]:g}")

    Xp = X[:, ~mask]
    K = Xp @ Xp.T  # the Gram of the penalised columns, returned
    if resp.family != "gaussian":
        if not K.trace() > 0:
            raise DataError("degenerate X: zero spectrum")
        laplace = _LaplaceScore(K, X[:, mask], resp)
        log_tau, grid, scores, boundary = _minimise(laplace, -math.log(K.trace() / n))
        return GlobalVariance(math.exp(log_tau), None, grid, scores, boundary, laplace.steps, K)

    y, gram = resp.y, K
    if mask.any():  # the error contrasts N'y, of Gram N'KN
        N = np.linalg.qr(X[:, mask], mode="complete")[0][:, mask.sum() :]
        y, gram = N.T @ y, N.T @ K @ N
    d, Q = np.linalg.eigh(gram)
    d = np.clip(d, 0.0, None)
    if d.max() <= 0:
        raise DataError("degenerate X: zero spectrum")
    u2 = (Q.T @ y) ** 2

    def profile(log_kappa):  # v and q = mean(u^2 / v), the profiled sigma2
        v = 1.0 + np.multiply.outer(np.exp(log_kappa), d)
        return v, (u2 / v).mean(axis=-1)

    def nll(log_kappa):  # per contrast, less constants
        if resp.sigma2 is None and not u2.any():  # sigma2 = 0 at every kappa: flat
            return np.zeros(np.shape(log_kappa))
        v, q = profile(log_kappa)
        s2 = q if resp.sigma2 is None else resp.sigma2
        return np.log(s2) + np.log(v).mean(axis=-1) + q / s2

    log_kappa, grid, scores, boundary = _minimise(nll, -math.log(d.mean()))
    kappa = math.exp(log_kappa)
    s2 = resp.sigma2 or float(np.mean(u2 / (1.0 + kappa * d)))
    with np.errstate(divide="ignore"):  # zero contrasts: sigma2 = tau2 = 0
        log_tau = grid + np.log(resp.sigma2 or profile(grid)[1])
    return GlobalVariance(kappa * s2, s2, log_tau, scores, boundary, 0, K)


def _minimise(objective, centre):
    """Minimise ``objective`` over 33 points spanning ``centre +- log(1e8)``,
    scored in one call, then by bounded Brent between an interior best
    point's neighbours.  Of equal scores the first is the best; a best end
    point is the minimiser and sets the boundary flag, after a warning.
    Returns the minimiser, the grid, its scores and the flag; raises
    :class:`ConvergenceError` if no score is finite."""
    grid = centre + np.linspace(-1.0, 1.0, 33) * math.log(1e8)
    scores = objective(grid)
    if not np.isfinite(scores).any():
        raise ConvergenceError(
            "global-variance search: no point of its grid has a finite objective"
        )
    best = int(np.argmin(scores))
    boundary = best in (0, len(grid) - 1)
    if boundary:
        warnings.warn("global-variance optimum on the grid boundary", stacklevel=3)
        return grid[best], grid, scores, boundary
    x = minimize_scalar(objective, bounds=(grid[best - 1], grid[best + 1]), method="bounded").x
    return x, grid, scores, boundary


class _RowSpace:
    """Coordinates of the row space of a ridge fit's penalised block.

    A ridge fit of ``X`` under a diagonal penalty ``Omega`` lies in the row
    space of ``X~_P = X_P Omega_P^{-1/2}`` (Hastie & Tibshirani,
    Biostatistics 2004).  With its n x n Gram ``X~_P X~_P' = U D^2 U'`` and
    ``beta_P = Omega_P^{-1} X_P' U D^{-1} alpha`` it is the fit of the
    design ``Z = [U D | X_U]`` at unit penalty on ``alpha`` and none on
    ``beta_U``.  With the thin SVD ``X~_P = U D V'`` that map is
    ``Omega_P^{-1/2} V``, orthogonal, so Newton iterates on ``Z`` equal
    those on ``X`` up to rounding.  Eigenvalues at or below ``n eps d_max``
    are rounding, not directions (the Gram's rounding error is about ``eps
    d_max``), and are dropped.  :meth:`of` adds the maps back to ``X``.
    """

    def __init__(self, gram, X_unpen):
        _check_finite(gram)  # a NaN or infinite design: the error of the solves
        d2, U = np.linalg.eigh(gram)
        keep = d2 > len(d2) * np.finfo(float).eps * d2[-1]
        self.U, self.d = U[:, keep], np.sqrt(d2[keep])
        self.U_by_d = self.U / self.d  # a row's cross Gram times this: its coordinates
        self.Z = np.hstack([self.U * self.d, X_unpen])
        self.omega = (np.arange(self.Z.shape[1]) < len(self.d)).astype(float)

    @classmethod
    def of(cls, X, omega, gram=None):
        """The coordinates of a ridge fit of ``X`` under the precisions
        ``omega`` (``gram``: ``X~_P X~_P'``, if known), or None when at most
        as many columns are penalised as ``X`` has rows."""
        _check_finite(omega)
        pen = omega > 0
        if np.count_nonzero(pen) <= len(X):
            return None
        if gram is None:
            Xt = X * np.sqrt(np.divide(1.0, omega, out=np.zeros_like(omega), where=pen))
            gram = Xt @ Xt.T
        rows = cls(gram, X[:, ~pen])
        rows.X, rows.pen, rows.scale = X, pen, np.where(pen, omega, 1.0)
        return rows

    def score(self, g):
        """The caller's score ``X'r - Omega beta`` of the rotated one, ``g``."""
        s = self.X.T @ (self.U_by_d @ g[: len(self.d)])
        s[~self.pen] = g[len(self.d) :]
        return s

    def beta(self, A):
        """The caller's coefficients of coordinates ``A`` (or of each column
        of a 2-D ``A``), C-contiguous."""
        B = self.score(A)
        np.divide(B.T, self.scale, out=B.T)
        return B

    def coords(self, beta):
        """The coordinates of ``beta`` projected on the row space, which keeps
        ``X_P beta_P``: ``alpha = D^{-1} U' X_P beta_P``."""
        lp = self.X @ np.where(self.pen, beta, 0.0)
        return np.concatenate([self.U_by_d.T @ lp, beta[~self.pen]])


class _LaplaceScore:
    """Minus the Laplace log marginal likelihood of binomial/cox
    :func:`estimate_global_variance`, at one ``log tau2`` or on the grid.

    On the :class:`_RowSpace` design of ``K = X_P X_P'``, its first block
    scaled by ``sqrt(tau2)``, the fit at unit penalty on ``alpha_P`` is the
    fit of ``X`` at the precision ``1 / tau2``.  The objective is ``-l +
    0.5 |alpha_P|^2 + 0.5 log det(Z_P' W Z_P [- G'G] + I)``, the p_P x p_P
    form, as ``alpha_P -> beta_P`` is ``sqrt(tau2)`` times an isometry.
    The unpenalised coefficients stay at their estimate: integrated under a
    flat prior they would add ``-0.5 log`` of their information, unbounded
    as a binomial fit separates its classes.  Each fit is warm-started from
    the linear predictor of the nearest scored point.  A failed fit (no
    convergence, a singular system, an overflow) or determinant scores
    +inf.  The grid is fitted from its smallest tau2 up to its first +inf,
    or until two successive points each score ``STOP`` above the best so
    far, which leaves the best point's neighbours scored; the rest score
    +inf unfitted.  ``steps`` counts the Newton steps of all fits.
    """

    STOP = math.log(100.0)  # a Bayes factor of 100 against each of the two

    def __init__(self, K, X_unpen, resp):
        self.rows = _RowSpace(K, X_unpen)
        self.resp = resp
        self.fits = []  # (log tau2, coordinates on [U D | X_U]) of every converged fit
        self.steps = 0

    def __call__(self, log_tau):
        if not np.ndim(log_tau):
            return self._score(log_tau)
        scores = np.full(len(log_tau), np.inf)
        for k, t in enumerate(log_tau):
            scores[k] = self._score(t)
            past_best = k and scores[k - 1 : k + 1].min() > scores.min() + self.STOP
            if scores[k] == np.inf or past_best:
                break
        return scores

    def _score(self, log_tau):
        rows, r = self.rows, len(self.rows.d)
        scale = np.where(rows.omega > 0, math.exp(0.5 * log_tau), 1.0)
        Z = rows.Z * scale  # and coordinates times scale: those of [U D | X_U]
        state = PenaltyState.uniform(1.0, Z.shape[1], rows.omega == 0)
        beta0 = None
        if self.fits:  # the nearest fit's linear predictor
            beta0 = min(self.fits, key=lambda f: abs(f[0] - log_tau))[1] / scale
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                fit = fit_weighted_ridge(Z, self.resp, state, beta0=beta0)
                self.steps += fit.iterations
                self.fits.append((log_tau, fit.beta * scale))
                lp = fit.linear_predictor
                ll, _, w = family_terms(self.resp, lp)
                Zp = Z[:, :r]
                G = information_factor(self.resp, lp, Zp)
        except ConvergenceError as err:
            self.steps += err.last_iterate.iterations
            return np.inf
        except (SingularSystemError, FloatingPointError):
            return np.inf
        if G is not None:  # the exact cox information: G's rows at weight -1
            Zp, w = np.vstack([Zp, G]), np.concatenate([w, np.full(len(G), -1.0)])
        c, info = dpotrf(_primal_matrix(Zp, w, np.ones(r)), lower=True, overwrite_a=True)
        if info:
            return np.inf
        alpha = fit.beta[:r]
        return float(np.log(np.diag(c)).sum() - ll + 0.5 * alpha @ alpha)

import math
import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.special import expit, logit

from ecpc import (
    ConvergenceError,
    DataError,
    PenaltyState,
    ResponseFamily,
    SingularSystemError,
    breslow_cumhaz,
    compute_moment_core,
    estimate_global_variance,
    fit_weighted_ridge,
    martingale_residuals,
)
from ecpc import glm
from ecpc.glm import (
    family_loglik,
    family_terms,
    information_factor,
    moment_weights,
    stratified_folds,
)


def rand_problem(seed, n, p):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    y = rng.standard_normal(n)
    return X, y


@contextmanager
def counted_factorisations():
    """Record the order of every matrix ``glm`` factors (by LAPACK's
    ``dpotrf``, its only factorisation)."""
    factored = []
    factor = glm.dpotrf
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            glm, "dpotrf", lambda M, *a, **kw: factored.append(len(M)) or factor(M, *a, **kw)
        )
        yield factored


def dense_fit(*args, **kwargs):
    """``fit_weighted_ridge`` on the caller's coordinates: every Newton step
    one dense p x p solve, whatever the shape (the reference of the
    row-space fits)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(glm._RowSpace, "of", lambda *a, **kw: None)
        return glm.fit_weighted_ridge(*args, **kwargs)


def shape_p(n, shape):
    return {"p<n": n - 2, "p=n": n, "p=n+1": n + 1, "p=n+2": n + 2}.get(shape, 2 * n + 3)


class TestGaussianRidge:
    def test_identity_design_closed_form(self):
        rng = np.random.default_rng(0)
        n = 7
        y = rng.standard_normal(n)
        lam = 2.5
        state = PenaltyState.uniform(1.0 / lam, n)
        fit = fit_weighted_ridge(np.eye(n), ResponseFamily.gaussian(y, sigma2=1.0), state)
        assert np.allclose(fit.beta, y / (1 + lam), atol=1e-10)

    @pytest.mark.parametrize("n,p", [(20, 8), (8, 20)])
    def test_matches_closed_form(self, n, p):
        X, y = rand_problem(1, n, p)
        s2 = 1.7
        state = PenaltyState(
            tau_global=0.5,
            tau_local=np.linspace(0.5, 2.0, p),
            unpenalized_mask=np.zeros(p, dtype=bool),
        )
        fit = fit_weighted_ridge(X, ResponseFamily.gaussian(y, sigma2=s2), state)
        omega = state.precision_diag
        ref = np.linalg.solve(X.T @ X + s2 * np.diag(omega), X.T @ y)
        assert np.allclose(fit.beta, ref, atol=1e-8)
        assert np.allclose(fit.linear_predictor, X @ fit.beta, atol=1e-10)

    @given(
        st.integers(0, 10_000),
        st.integers(4, 12),
        st.sampled_from(["p<n", "p=n", "p=n+1", "p=n+2", "p>n"]),
        st.integers(0, 2),
        st.sampled_from([1e-2, 1.0, 10.0]),
    )
    @settings(max_examples=80, deadline=None)
    def test_rotated_fit_matches_dense_solve(self, seed, n, shape, n_unpen, sigma2):
        # at most n penalised columns fit by a dense p x p Cholesky, more in
        # the row space of the penalised block: both match a dense solve of
        # the full p x p system, and the wide fit factors no matrix larger
        # than n plus the unpenalised columns
        p = shape_p(n, shape)
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, p))
        y = rng.standard_normal(n)
        tau_local = rng.uniform(0.3, 3.0, p)
        mask = np.arange(p) < n_unpen
        state = PenaltyState(tau_global=1.0, tau_local=tau_local, unpenalized_mask=mask)
        with counted_factorisations() as factored:
            fit = fit_weighted_ridge(X, ResponseFamily.gaussian(y, sigma2=sigma2), state)
        assert max(factored) == (p if p - n_unpen <= n else n + n_unpen)
        M = X.T @ X / sigma2 + np.diag(state.precision_diag)
        ref = np.linalg.solve(M, X.T @ y / sigma2)
        assert fit.iterations == 1
        assert np.abs(fit.beta - ref).max() <= 1e-8 * np.abs(ref).max()
        assert np.abs(fit.linear_predictor - X @ ref).max() <= 1e-8 * np.abs(X @ ref).max()

    @pytest.mark.parametrize("p,n_unpen", [(4, 0), (20, 0), (20, 1)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weight_raises(self, p, n_unpen, bad):
        # the factorisations skip scipy's finiteness scan, so the solve itself
        # must still reject a NaN or infinite weight, on the primal (p <= n)
        # and the dual path, with and without a Schur complement
        rng = np.random.default_rng(3)
        n = 8
        X = rng.standard_normal((n, p))
        w = rng.uniform(0.5, 2.0, n)
        w[2] = bad
        omega = rng.uniform(0.3, 3.0, p)
        omega[:n_unpen] = 0.0
        with pytest.raises(ValueError, match="infs or NaNs"):
            glm.solve_penalized_system(X, w, omega, rng.standard_normal(p))

    def test_unpenalised_column_at_large_weights(self):
        # gaussian weights 1/sigma2 as sigma2 -> 0, where a Schur complement
        # X_U'WX_U - M_UP M_PP^-1 M_PU formed by subtraction cancels: in the
        # row space an intercept is one more column of the small design and
        # costs the fit no accuracy
        n, p = 50, 500

        def rel_error(seed, s2, unpenalised):
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((n, p))
            X[:, 0] = 1.0
            tau_local = np.ones(p)
            mask = np.arange(p) < unpenalised
            state = PenaltyState(tau_global=0.1, tau_local=tau_local, unpenalized_mask=mask)
            y = rng.standard_normal(n)
            fit = fit_weighted_ridge(X, ResponseFamily.gaussian(y, sigma2=s2), state)
            M = X.T @ X / s2 + np.diag(state.precision_diag)
            ref = np.linalg.solve(M, X.T @ y / s2)
            return np.abs(fit.beta - ref).max() / np.abs(ref).max()

        for s2 in (1.0, 1e-3, 1e-6):
            with_column = max(rel_error(seed, s2, True) for seed in range(5))
            without = max(rel_error(seed, s2, False) for seed in range(5))
            assert with_column <= 10 * without
        for seed in range(5):
            assert np.isfinite(rel_error(seed, 1e-9, True))

    def test_column_rescaling_equivariance(self):
        X, y = rand_problem(4, 15, 6)
        tau_local = np.full(6, 1.3)
        c = 3.7
        state = PenaltyState(
            tau_global=0.9, tau_local=tau_local, unpenalized_mask=np.zeros(6, dtype=bool)
        )
        fit = fit_weighted_ridge(X, ResponseFamily.gaussian(y, sigma2=1.0), state)
        X2 = X.copy()
        X2[:, 2] *= c
        tl2 = tau_local.copy()
        tl2[2] /= c**2
        state2 = PenaltyState(
            tau_global=0.9, tau_local=tl2, unpenalized_mask=np.zeros(6, dtype=bool)
        )
        fit2 = fit_weighted_ridge(X2, ResponseFamily.gaussian(y, sigma2=1.0), state2)
        assert np.allclose(fit.linear_predictor, fit2.linear_predictor, atol=1e-8)

    def test_requires_sigma2(self):
        X, y = rand_problem(5, 10, 4)
        with pytest.raises(DataError):
            fit_weighted_ridge(X, ResponseFamily.gaussian(y), PenaltyState.uniform(1.0, 4))


def risk_set_rows(resp, lp, X):
    """The rows of one cox Newton step's quadratic model: ``X`` at the
    information weights and the risk-set rows ``G`` at weight -1."""
    G = information_factor(resp, lp, X)
    w = np.maximum(family_terms(resp, lp)[2], 1e-12)
    return np.vstack([X, G]), np.r_[w, -np.ones(len(G))]


def rotated_step(Xq, wq, omega, X, rhs):
    """The Newton step of a fit of ``X`` under ``omega`` on the model rows
    ``Xq`` at weights ``wq``, for a right-hand side ``rhs`` that is a score
    ``X'r - Omega beta`` at a ``beta`` of the row space, solved as the fit
    solves it and mapped to the caller's coordinates.  The row-space design
    ``Z = X T`` and its rows ``Xq T`` come from the map ``T`` of
    ``glm._RowSpace``."""
    rows = glm._RowSpace.of(X, omega)
    if rows is None:
        return glm.solve_penalized_system(Xq, wq, omega, rhs), None
    T = rows.beta(np.eye(rows.Z.shape[1]))
    assert np.abs(X @ T - rows.Z).max() <= 1e-12 * np.abs(rows.Z).max()
    return T @ glm.solve_penalized_system(Xq @ T, wq, rows.omega, T.T @ rhs), T


def cox_step_problem(seed, n, shape, n_unpen, penalty, n_times, n_zero):
    """Signed rows ``[X; G]`` at ``[w; -1]`` of a cox Newton step plus
    ``n_zero`` rows at weight exactly 0, a penalty and the score at a
    ``beta`` of the row space."""
    p = shape_p(n, shape)
    if p <= n_unpen:
        n_unpen = 0
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    if n_times is None:
        t = rng.exponential(size=n) + 0.01
    else:
        t = rng.integers(1, n_times + 1, n).astype(float)
    resp = ResponseFamily.cox(t, (rng.uniform(size=n) < 0.7).astype(float))
    lp = rng.standard_normal(n)
    Xq, wq = risk_set_rows(resp, lp, X)
    Xq, wq = np.vstack([Xq, rng.standard_normal((n_zero, p))]), np.r_[wq, np.zeros(n_zero)]
    omega = penalty * rng.uniform(1.0, 3.0, p)
    omega[:n_unpen] = 0.0
    # beta = Omega^-1 X'c on the penalised block lies in the row space
    beta = np.where(omega > 0, X.T @ rng.standard_normal(n), rng.standard_normal(p))
    beta[omega > 0] /= omega[omega > 0]
    rhs = X.T @ family_terms(resp, lp)[1] - omega * beta
    return Xq, wq, omega, X, rhs


class TestRiskSetSolve:
    @given(
        st.integers(0, 10_000),
        st.integers(4, 12),
        st.sampled_from(["p<n", "p=n", "p=n+1", "p=n+2", "p>n"]),
        st.integers(0, 2),
        st.sampled_from([1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0]),
        st.sampled_from([2, None]),
        st.integers(0, 2),
    )
    @settings(max_examples=80, deadline=None)
    def test_rotated_step_matches_dense_solve(
        self, seed, n, shape, n_unpen, penalty, n_times, n_zero
    ):
        # X' diag(w) X - G' G + Omega from a Cox response, as rows [X; G] at
        # weights [w; -1] plus n_zero rows at weight exactly 0: the step a
        # fit takes (a dense Cholesky, in the row space when more columns
        # are penalised than X has rows) solves it to a small backward
        # error and matches a dense solve as far as the conditioning allows
        Xq, wq, omega, X, rhs = cox_step_problem(
            seed, n, shape, n_unpen, penalty, n_times, n_zero
        )
        Z, T = rotated_step(Xq, wq, omega, X, rhs)
        M = (Xq.T * wq) @ Xq + np.diag(omega)
        ref = np.linalg.solve(M, rhs)
        assert Z.shape == ref.shape
        scale = np.abs(M).max() * np.abs(Z).max() + np.abs(rhs).max()
        assert np.abs(M @ Z - rhs).max() <= 1e-10 * scale
        assert np.abs(Z - ref).max() <= 1e-11 * np.linalg.cond(M) * np.abs(ref).max()
        assert (T is None) == (np.count_nonzero(omega) <= n)

    def test_rotated_step_at_small_penalty(self):
        # At penalty 1e-4 the signed-row step of a wide cox fit, solved in
        # the row space, matches the dense solve of the full system
        errors = []
        for seed in range(20):
            for n in (7, 9, 11):
                Xq, wq, omega, X, rhs = cox_step_problem(seed, n, "p>n", 0, 1e-4, None, 0)
                Z, T = rotated_step(Xq, wq, omega, X, rhs)
                assert T is not None
                ref = np.linalg.solve((Xq.T * wq) @ Xq + np.diag(omega), rhs)
                errors.append(np.abs(Z - ref).max() / np.abs(ref).max())
        assert max(errors) <= 1e-9

    def test_singular_system_raises(self):
        # the row at weight -1 cancels the penalty on the first coordinate
        X = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        with pytest.raises(SingularSystemError, match="penalised system singular"):
            glm.solve_penalized_system(X, [-1.0, 1.0], np.ones(3), np.ones(3))

    @pytest.mark.parametrize("n_unpen", [0, 2])
    def test_wide_fit_factors_only_row_space_systems(self, n_unpen):
        # every Newton step of a wide cox fit factors one system of rank +
        # #unpenalised columns, and the fit ends where the dense one does
        rng = np.random.default_rng(5)
        n, p = 9, 40
        X = rng.standard_normal((n, p))
        resp = ResponseFamily.cox(rng.exponential(size=n) + 0.01, np.ones(n))
        state = PenaltyState(
            tau_global=1.0,
            tau_local=rng.uniform(1.0, 10.0, p),
            unpenalized_mask=np.arange(p) < n_unpen,
        )
        with counted_factorisations() as factored:
            fit = fit_weighted_ridge(X, resp, state)
        assert factored == [n + n_unpen] * fit.iterations
        ref = dense_fit(X, resp, state)
        assert fit.iterations == ref.iterations
        assert np.abs(fit.beta - ref.beta).max() <= 1e-9 * np.abs(ref.beta).max()


class TestRowSpaceFit:
    @given(
        st.sampled_from(["gaussian", "binomial", "cox"]),
        st.integers(0, 10_000),
        st.integers(8, 20),
        st.floats(0.0, 1.0),
        st.integers(0, 1),
        st.floats(-2.0, 4.0),
        st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_rotated_fit_matches_dense_newton(
        self, family, seed, n, frac, unpenalized, log_penalty, local
    ):
        # the row-space fit (more penalised columns than rows) takes the
        # steps of the dense p x p Newton loop: the same iterations, since
        # its stop rule reads the caller's score (a stop on the rotated
        # score differed in 94 of 1 500 such draws), and the same
        # coefficients
        p = n - 2 + round(frac * (2 * n + 2))  # n - 2 to 3n penalised columns
        X, resp, mask = gv_problem(family, seed, n, p, unpenalized)
        rng = np.random.default_rng(seed + 1)
        tau_local = rng.uniform(0.2, 5.0, len(mask)) if local else np.ones(len(mask))
        state = PenaltyState(10.0**-log_penalty, tau_local, mask)
        fit = fit_weighted_ridge(X, resp, state)
        ref = dense_fit(X, resp, state)
        assert fit.iterations == ref.iterations
        assert np.abs(fit.beta - ref.beta).max() <= 1e-10 * np.abs(ref.beta).max()
        assert np.allclose(fit.linear_predictor, X @ fit.beta, rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("family", ["gaussian", "binomial"])
    def test_all_zero_penalised_block(self, family):
        # a row space of rank 0 leaves no unknowns: beta = 0
        n, p = 6, 10
        y = (np.arange(n) > 2).astype(float)
        resp = ResponseFamily.gaussian(y, 1.0) if family == "gaussian" else ResponseFamily.binomial(y)
        fit = fit_weighted_ridge(np.zeros((n, p)), resp, PenaltyState.uniform(1.0, p))
        assert fit.converged and not fit.beta.any()

    @pytest.mark.parametrize("where,bad", [("X", np.nan), ("X", np.inf), ("tau_local", np.nan)])
    def test_non_finite_input_raises(self, where, bad):
        # the rotation rejects a NaN or infinite design or a NaN penalty with
        # the solves' ValueError, rather than fit a column as unpenalised (an
        # infinite local variance is a zero penalty)
        rng = np.random.default_rng(6)
        n, p = 6, 10
        X, tau_local = rng.standard_normal((n, p)), np.ones(p)
        (X[2] if where == "X" else tau_local)[3] = bad
        state = PenaltyState(1.0, tau_local, np.zeros(p, dtype=bool))
        with pytest.raises(ValueError, match="infs or NaNs"):
            fit_weighted_ridge(X, ResponseFamily.gaussian(rng.standard_normal(n), 1.0), state)
        with pytest.raises(ValueError, match="infs or NaNs"):
            compute_moment_core(X, np.ones(n), state.precision_diag, np.zeros(p))

    def test_warm_start_is_projected_on_the_row_space(self):
        # beta0 off the row space enters projected: X beta0 is kept, and
        # the fit ends where a cold fit does
        X, resp, mask = gv_problem("binomial", 3, 20, 60, 1)
        state = PenaltyState.uniform(0.2, len(mask), mask)
        cold = fit_weighted_ridge(X, resp, state)
        rng = np.random.default_rng(4)
        warm = fit_weighted_ridge(X, resp, state, beta0=rng.standard_normal(len(mask)))
        assert np.abs(warm.beta - cold.beta).max() <= 1e-8 * np.abs(cold.beta).max()
        rows = glm._RowSpace.of(X, state.precision_diag)
        beta0 = rng.standard_normal(len(mask))
        assert np.allclose(rows.Z @ rows.coords(beta0), X @ beta0, rtol=0.0, atol=1e-10)


class TestBinomialRidge:
    def test_matches_bfgs_oracle(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((50, 5))
        y = (rng.uniform(size=50) < expit(X @ rng.standard_normal(5))).astype(float)
        state = PenaltyState.uniform(0.4, 5)
        fit = fit_weighted_ridge(X, ResponseFamily.binomial(y), state)
        om = state.precision_diag

        def obj(b):
            lp = X @ b
            return -(y * lp - np.logaddexp(0, lp)).sum() + 0.5 * (om * b**2).sum()

        ref = minimize(obj, np.zeros(5), method="BFGS", options={"gtol": 1e-12}).x
        assert fit.converged
        assert np.allclose(fit.beta, ref, atol=1e-6)

    def test_infinite_penalty_with_intercept(self):
        rng = np.random.default_rng(7)
        X = np.hstack([rng.standard_normal((80, 3)), np.ones((80, 1))])
        y = (rng.uniform(size=80) < 0.7).astype(float)
        mask = np.array([False, False, False, True])
        state = PenaltyState(
            tau_global=1e-12, tau_local=np.ones(4), unpenalized_mask=mask
        )
        fit = fit_weighted_ridge(X, ResponseFamily.binomial(y), state)
        assert np.abs(fit.beta[:3]).max() < 1e-6
        assert abs(fit.beta[3] - logit(y.mean())) < 1e-4

    def test_separation_flagged(self):
        X = np.linspace(-1, 1, 20).reshape(-1, 1)
        y = (X[:, 0] > 0).astype(float)
        state = PenaltyState.uniform(1e6, 1)
        fit = fit_weighted_ridge(X, ResponseFamily.binomial(y), state)
        assert fit.separation

    def test_penalized_objective_nonincreasing_result(self):
        # the returned point must not be improvable by small perturbations
        rng = np.random.default_rng(8)
        X = rng.standard_normal((30, 4))
        y = (rng.uniform(size=30) < 0.5).astype(float)
        state = PenaltyState.uniform(1.0, 4)
        fit = fit_weighted_ridge(X, ResponseFamily.binomial(y), state)
        om = state.precision_diag
        resp = ResponseFamily.binomial(y)

        def obj(b):
            return family_loglik(resp, X @ b) - 0.5 * (om * b**2).sum()

        base = obj(fit.beta)
        for _ in range(10):
            assert obj(fit.beta + 1e-4 * rng.standard_normal(4)) <= base + 1e-9


class TestCox:
    def test_breslow_toy(self):
        H = breslow_cumhaz(np.array([1.0, 2.0, 3.0]), np.array([1.0, 1.0, 1.0]), np.zeros(3))
        assert np.allclose(H, [1 / 3, 5 / 6, 11 / 6], atol=1e-12)

    def test_breslow_all_censored(self):
        H = breslow_cumhaz(np.array([1.0, 2.0]), np.zeros(2), np.zeros(2))
        assert np.array_equal(H, np.zeros(2))

    def test_breslow_single_event(self):
        H = breslow_cumhaz(np.array([1.0]), np.array([1.0]), np.zeros(1))
        assert np.allclose(H, [1.0])

    def test_breslow_nondecreasing_in_time(self):
        rng = np.random.default_rng(9)
        t = rng.exponential(size=40)
        d = (rng.uniform(size=40) < 0.6).astype(float)
        lp = rng.standard_normal(40)
        H = breslow_cumhaz(t, d, lp)
        order = np.argsort(t)
        assert (np.diff(H[order]) >= -1e-12).all()

    def test_martingale_toy(self):
        t = np.array([1.0, 2.0, 3.0])
        d = np.ones(3)
        H = breslow_cumhaz(t, d, np.zeros(3))
        res = martingale_residuals(t, d, np.zeros(3), H)
        assert abs(res[0] - 2 / 3) < 1e-12

    @given(st.integers(0, 50))
    @settings(max_examples=25, deadline=None)
    def test_martingale_sum_zero(self, seed):
        rng = np.random.default_rng(seed)
        n = rng.integers(3, 30)
        t = rng.exponential(size=n) + 0.01
        d = (rng.uniform(size=n) < 0.7).astype(float)
        lp = rng.standard_normal(n)
        H = breslow_cumhaz(t, d, lp)
        res = martingale_residuals(t, d, lp, H)
        assert abs(res.sum()) < 1e-8

    def test_all_censored_residuals_zero(self):
        t = np.array([1.0, 2.0])
        d = np.zeros(2)
        H = breslow_cumhaz(t, d, np.zeros(2))
        assert np.array_equal(martingale_residuals(t, d, np.zeros(2), H), np.zeros(2))

    def test_fit_matches_newton_oracle(self):
        rng = np.random.default_rng(10)
        n, p = 6, 2
        t = rng.exponential(size=n) + 0.1
        d = np.array([1.0, 1.0, 0.0, 1.0, 1.0, 0.0])
        X = rng.standard_normal((n, p))
        resp = ResponseFamily.cox(t, d)
        state = PenaltyState.uniform(0.8, p)
        fit = fit_weighted_ridge(X, resp, state)
        om = state.precision_diag

        def obj(b):
            return -family_loglik(resp, X @ b) + 0.5 * (om * b**2).sum()

        # brute-force Newton with numerical derivatives
        b = np.zeros(p)
        for _ in range(200):
            eps = 1e-6
            g = np.array(
                [
                    (obj(b + eps * np.eye(p)[j]) - obj(b - eps * np.eye(p)[j])) / (2 * eps)
                    for j in range(p)
                ]
            )
            H = np.zeros((p, p))
            for j in range(p):
                for k in range(p):
                    ej, ek = eps * np.eye(p)[j], eps * np.eye(p)[k]
                    H[j, k] = (
                        obj(b + ej + ek) - obj(b + ej - ek) - obj(b - ej + ek) + obj(b - ej - ek)
                    ) / (4 * eps**2)
            step = np.linalg.solve(H, g)
            b = b - step
            if np.abs(step).max() < 1e-10:
                break
        assert np.allclose(fit.beta, b, atol=1e-6)

    def test_ties_share_risk_set(self):
        t = np.array([1.0, 1.0, 2.0])
        d = np.ones(3)
        H = breslow_cumhaz(t, d, np.zeros(3))
        # hazard at t=1 is 2/3 (two events over risk set of 3), at t=2 adds 1
        assert np.allclose(H, [2 / 3, 2 / 3, 2 / 3 + 1.0], atol=1e-12)

    @pytest.mark.parametrize("penalty", [50.0, 5.0, 0.5])
    def test_cold_fit_converges_in_few_steps(self, penalty):
        # a 30 x 70 training fold; the diagonal Cox Hessian took 21, 83 and
        # 608 steps here, the exact one converges quadratically
        X, resp, mask = gv_problem("cox", 16, 40, 70, 0)
        train = np.arange(40) % 4 != 0
        state = PenaltyState.uniform(1.0 / penalty, 70, mask)
        fit = fit_weighted_ridge(X[train], resp.subset(train), state)
        assert fit.converged and fit.iterations <= 30

    @pytest.mark.parametrize("log_tau", [15.0, 20.0])
    def test_overflow_is_a_convergence_error(self, log_tau):
        # from zero at a large prior variance exp(lp) X overflows within a few
        # steps: the fit ends at its last finite iterate instead of passing
        # infinite rows to the solve, which raised ValueError
        X, resp, mask = gv_problem("cox", 0, 47, 40, 1)
        state = PenaltyState.uniform(math.exp(log_tau), X.shape[1], mask)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ConvergenceError, match="information overflowed") as info:
                fit_weighted_ridge(X, resp, state)
        last = info.value.last_iterate
        assert not last.converged and last.iterations >= 1
        assert np.isfinite(last.beta).all()
        assert np.isfinite(family_loglik(resp, last.linear_predictor))

    def test_step_without_a_finite_length_is_a_convergence_error(self, monkeypatch):
        # no step length down to 1e-12 gives a finite objective: the fit ends
        # at its last finite iterate, here the start
        X, resp, mask = gv_problem("cox", 0, 47, 40, 1)
        terms = glm.family_terms

        def finite_at_start_only(resp, lp):
            ll, resid, w = terms(resp, lp)
            return (np.nan if lp.any() else ll), resid, w

        monkeypatch.setattr(glm, "family_terms", finite_at_start_only)
        with pytest.raises(ConvergenceError, match="step not finite") as info:
            fit_weighted_ridge(X, resp, PenaltyState.uniform(1.0, X.shape[1], mask))
        last = info.value.last_iterate
        assert last.iterations == 0 and not last.beta.any()


def naive_cox_terms(t, d, lp):
    """Cox log-likelihood, Breslow H0 and martingale residuals by explicit
    O(n^2) risk-set sums."""
    elp = np.exp(lp)
    risk = np.array([elp[t >= ti].sum() for ti in t])
    ll = float(np.sum(d * (lp - np.log(risk))))
    H0 = np.array([np.sum(d[t <= ti] / risk[t <= ti]) for ti in t])
    return ll, H0, d - H0 * elp


class TestFamilyTerms:
    @given(
        st.integers(0, 10_000),
        st.integers(1, 15),
        st.sampled_from([1, 2, 3, None]),
        st.sampled_from(["mixed", "censored"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_cox_matches_naive_risk_sets(self, seed, n, n_times, status):
        # heavy ties (1-3 distinct times) or continuous times
        rng = np.random.default_rng(seed)
        if n_times is None:
            t = rng.exponential(size=n) + 0.01
        else:
            t = rng.integers(1, n_times + 1, n).astype(float)
        d = (rng.uniform(size=n) < 0.6).astype(float) if status == "mixed" else np.zeros(n)
        lp = rng.standard_normal(n)
        ll_ref, H0_ref, resid_ref = naive_cox_terms(t, d, lp)
        resp = ResponseFamily.cox(t, d)
        ll, resid, info = family_terms(resp, lp)
        assert abs(ll - ll_ref) <= 1e-10 * (1.0 + abs(ll_ref))
        assert np.allclose(resid, resid_ref, rtol=1e-10, atol=1e-12)
        assert np.allclose(info, H0_ref * np.exp(lp), rtol=1e-10, atol=1e-12)
        assert np.allclose(breslow_cumhaz(t, d, lp), H0_ref, rtol=1e-10, atol=1e-12)
        if status == "censored":
            assert ll == 0.0 and not resid.any() and not info.any()

    def test_cox_risk_sets_built_once_per_response(self):
        resp = ResponseFamily.cox(np.array([2.0, 1.0, 2.0]), np.array([1.0, 0.0, 1.0]))
        first = resp._risk_sets
        family_terms(resp, np.zeros(3))
        family_terms(resp, np.ones(3))
        assert resp._risk_sets is first

    @given(st.integers(0, 10_000), st.integers(1, 12), st.sampled_from(["binomial", "gaussian"]))
    @settings(max_examples=60, deadline=None)
    def test_score_and_information_are_derivatives(self, seed, n, family):
        # score_resid is d loglik / d lp, info_weights is -d score_resid / d lp
        rng = np.random.default_rng(seed)
        lp = rng.normal(0.0, 2.0, n)
        if family == "binomial":
            resp = ResponseFamily.binomial((rng.uniform(size=n) < 0.5).astype(float))
        else:
            resp = ResponseFamily.gaussian(rng.standard_normal(n), sigma2=rng.uniform(0.2, 3.0))
        ll, resid, info = family_terms(resp, lp)
        eps = 1e-5
        for i in range(n):
            e = np.zeros(n)
            e[i] = eps
            up, down = family_terms(resp, lp + e), family_terms(resp, lp - e)
            assert abs((up[0] - down[0]) / (2 * eps) - resid[i]) <= 1e-6 * (1.0 + abs(ll))
            assert abs(-(up[1][i] - down[1][i]) / (2 * eps) - info[i]) <= 1e-6

    @given(
        st.integers(0, 10_000),
        st.integers(1, 15),
        st.sampled_from([1, 2, 3, None]),
        st.sampled_from(["mixed", "censored", "single"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_cox_information_is_the_score_derivative(self, seed, n, n_times, status):
        # -d score_resid / d lp is diag(info) - A A', with G = A' X
        rng = np.random.default_rng(seed)
        if n_times is None:
            t = rng.exponential(size=n) + 0.01
        else:
            t = rng.integers(1, n_times + 1, n).astype(float)
        d = np.zeros(n)
        if status == "mixed":
            d = (rng.uniform(size=n) < 0.6).astype(float)
        elif status == "single":
            d[rng.integers(n)] = 1.0
        resp = ResponseFamily.cox(t, d)
        lp = rng.normal(0.0, 1.5, n)
        _, resid, info = family_terms(resp, lp)
        At = information_factor(resp, lp, np.eye(n))
        assert At.shape == (len(np.unique(t[d == 1])), n)
        hess = np.diag(info) - At.T @ At
        eps = 1e-5
        for i in range(n):
            e = np.zeros(n)
            e[i] = eps
            up, down = family_terms(resp, lp + e)[1], family_terms(resp, lp - e)[1]
            assert np.abs(-(up - down) / (2 * eps) - hess[:, i]).max() <= 1e-6
        X = rng.standard_normal((n, 3))
        assert np.allclose(information_factor(resp, lp, X), At @ X, rtol=1e-12, atol=1e-12)

    def test_information_factor_only_for_cox(self):
        lp = np.zeros(3)
        X = np.ones((3, 2))
        assert information_factor(ResponseFamily.binomial(np.array([0, 1, 1])), lp, X) is None
        assert information_factor(ResponseFamily.gaussian(np.zeros(3), 1.0), lp, X) is None


class TestL1Fit:
    @given(
        st.sampled_from(["binomial", "cox", "gaussian"]),
        st.floats(0.05, 0.9),
        st.integers(0, 10_000),
    )
    @settings(max_examples=30, deadline=None)
    @example("cox", 0.0546875, 215)  # hit the iteration cap with the diagonal Cox step
    def test_subgradient_conditions(self, family, frac, seed):
        # an L1 fit with an unpenalised column meets the optimality conditions
        # of the penalised objective, checked here from scratch
        if family == "gaussian":
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((40, 31))
            resp = ResponseFamily.gaussian(X[:, :3].sum(axis=1) + rng.standard_normal(40), 1.3)
            mask = np.arange(31) == 30
        else:
            X, resp, mask = gv_problem(family, seed, 40, 30, 1)
        state = PenaltyState.uniform(2.0, X.shape[1], mask)
        omega = state.precision_diag
        null = fit_weighted_ridge(X[:, mask], resp, PenaltyState.uniform(1.0, 1, [True]))
        lam1 = frac * np.abs(X[:, ~mask].T @ family_terms(resp, null.linear_predictor)[1]).max()
        fit = fit_weighted_ridge(X, resp, state, lam1=lam1)
        ll, resid, _ = family_terms(resp, fit.linear_predictor)
        b = fit.beta
        g = X.T @ resid - omega * b
        obj = ll - 0.5 * b @ (omega * b) - lam1 * np.abs(b[~mask]).sum()
        tol = 1e-5 * (1.0 + abs(obj))
        zero, nonzero = ~mask & (b == 0), ~mask & (b != 0)
        assert zero.any() and nonzero.any()
        assert (np.abs(g[zero]) <= lam1 + tol).all()
        assert np.abs(g[nonzero] - lam1 * np.sign(b[nonzero])).max() <= tol
        assert np.abs(g[mask]).max() <= tol

    def test_iteration_cap_raises_with_last_iterate(self):
        X, resp, mask = gv_problem("binomial", 3, 40, 30, 1)
        state = PenaltyState.uniform(2.0, X.shape[1], mask)
        with pytest.raises(ConvergenceError) as info:
            fit_weighted_ridge(X, resp, state, max_iter=1, lam1=1.0)
        last = info.value.last_iterate
        assert last.iterations == 1 and not last.converged
        assert last.beta.shape == (31,) and np.abs(last.beta).sum() > 0


class TestWeights:
    def test_binomial_null_weights(self):
        rng = np.random.default_rng(11)
        y = (rng.uniform(size=9) < 0.5).astype(float)
        resp = ResponseFamily.binomial(y)
        assert np.allclose(moment_weights(resp, np.zeros(9)), 0.25)

    def test_gaussian_weight_is_inverse_sigma2(self):
        resp = ResponseFamily.gaussian(np.zeros(3), sigma2=2.0)
        assert np.allclose(moment_weights(resp, np.zeros(3)), 0.5)

    def test_cox_weight_is_cumhaz_at_null(self):
        t = np.array([1.0, 2.0, 3.0])
        d = np.ones(3)
        lp = np.zeros(3)
        H = breslow_cumhaz(t, d, lp)
        assert np.allclose(moment_weights(ResponseFamily.cox(t, d), lp), H)


class TestStratifiedFolds:
    def test_class_balance(self):
        y = np.array([0.0] * 12 + [1.0] * 8)
        folds = stratified_folds(ResponseFamily.binomial(y), 4, seed=0)
        for k in range(4):
            assert (y[folds == k] == 1).sum() == 2
            assert (y[folds == k] == 0).sum() == 3

    def test_deterministic(self):
        y = (np.arange(30) % 2).astype(float)
        f1 = stratified_folds(ResponseFamily.binomial(y), 5, seed=9)
        f2 = stratified_folds(ResponseFamily.binomial(y), 5, seed=9)
        assert np.array_equal(f1, f2)


class TestGlobalVariance:
    def test_gaussian_recovery(self):
        hits = 0
        for rep in range(10):
            rng = np.random.default_rng(100 + rep)
            n, p = 100, 300
            beta0 = rng.normal(0, np.sqrt(0.1), p)
            X = rng.standard_normal((n, p))
            y = X @ beta0 + rng.normal(0, 1, n)
            gv = estimate_global_variance(X, ResponseFamily.gaussian(y))
            if 0.05 <= gv.tau_global <= 0.2:
                hits += 1
        assert hits >= 7

    def test_zero_response_gives_vanishing_tau(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((20, 10))
        gv = estimate_global_variance(X, ResponseFamily.gaussian(np.zeros(20)))
        assert gv.tau_global < 1e-6

    @staticmethod
    def intercept_draw(seed, sd):
        rng = np.random.default_rng(seed)
        n, p = 40, 120
        X = np.hstack([rng.standard_normal((n, p)), np.ones((n, 1))])
        y = X[:, :p] @ rng.normal(0.0, sd, p) + rng.standard_normal(n)
        return X, y, np.arange(p + 1) == p

    @staticmethod
    def estimate(X, y, mask, collapse):
        if not collapse:
            return estimate_global_variance(X, ResponseFamily.gaussian(y), unpenalized_mask=mask)
        with pytest.warns(UserWarning, match="grid boundary"):
            return estimate_global_variance(X, ResponseFamily.gaussian(y), unpenalized_mask=mask)

    # an interior optimum, and a sigma2 collapse (the profiled likelihood
    # falls towards kappa -> inf), which the search puts at its bracket's end
    DRAWS = (((18, 0.1), False), ((16, 0.3), True))

    def test_gaussian_intercept_shift_invariance(self):
        # with an unpenalised intercept the likelihood is that of the error
        # contrasts, which a shift of y leaves unchanged up to rounding
        for draw, collapse in self.DRAWS:
            X, y, mask = self.intercept_draw(*draw)
            gv = self.estimate(X, y, mask, collapse)
            assert gv.on_grid_boundary == collapse
            assert collapse or 0.5 < gv.sigma2 < 2.0
            for c in (3.0, -50.0):
                shifted = self.estimate(X, y + c, mask, collapse)
                assert shifted.sigma2 == pytest.approx(gv.sigma2, rel=1e-6)
                assert shifted.tau_global == pytest.approx(gv.tau_global, rel=1e-6)

    def test_gaussian_rescaling_equivariance(self):
        # X -> cX scales tau2 by 1 / c^2, y -> cy scales both variances by c^2
        for draw, collapse in self.DRAWS:
            X, y, mask = self.intercept_draw(*draw)
            gv = self.estimate(X, y, mask, collapse)
            wide = self.estimate(10.0 * X, y, mask, collapse)
            assert wide.sigma2 == pytest.approx(gv.sigma2, rel=1e-6)
            assert wide.tau_global == pytest.approx(gv.tau_global / 100.0, rel=1e-6)
            tall = self.estimate(X, 3.0 * y, mask, collapse)
            assert tall.sigma2 == pytest.approx(9.0 * gv.sigma2, rel=1e-6)
            assert tall.tau_global == pytest.approx(9.0 * gv.tau_global, rel=1e-6)

    @pytest.mark.parametrize("p", [15, 120])
    @pytest.mark.parametrize("u", [1, 2])
    def test_gaussian_contrasts_from_the_penalised_gram(self, p, u):
        # with unpenalised columns U the search runs on the error contrasts'
        # Gram N'KN, formed from the returned K = X_P X_P'; it must reach the
        # optimum of the projected form, the Gram of N'X_P.  The REML
        # likelihood is compared, not the variances: where it is flat (near
        # a sigma2 collapse or no signal) rounding moves the search along it
        n = 40

        def reml_nll(Xc, yc, gv):  # dense, per contrast, less constants
            S = gv.sigma2 * np.eye(n - u) + gv.tau_global * Xc @ Xc.T
            return (np.linalg.slogdet(S)[1] + yc @ np.linalg.solve(S, yc)) / (n - u)

        for seed in range(10):
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((n, p))
            U = np.column_stack([np.ones(n), rng.standard_normal(n)])[:, :u]
            y = X @ rng.normal(0.0, 0.3, p) + U @ rng.normal(0.0, 3.0, u) + rng.standard_normal(n)
            mask = np.arange(p + u) >= p
            N = np.linalg.qr(U, mode="complete")[0][:, u:]
            Xc, yc = N.T @ X, N.T @ y
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # a collapse ends on the bracket
                gv = estimate_global_variance(
                    np.hstack([X, U]), ResponseFamily.gaussian(y), unpenalized_mask=mask
                )
                projected = estimate_global_variance(Xc, ResponseFamily.gaussian(yc))
            assert np.allclose(gv.gram, X @ X.T, rtol=1e-14, atol=0.0)
            assert gv.on_grid_boundary == projected.on_grid_boundary
            best = reml_nll(Xc, yc, projected)
            assert abs(reml_nll(Xc, yc, gv) - best) <= 1e-12 * (1.0 + abs(best))

    def test_supplied_sigma2_with_zero_response_is_the_lower_end(self):
        # the bracket's lower end: kappa mean(d) = 1e-8, mean(d) = |X|_F^2 / n
        rng = np.random.default_rng(12)
        X = rng.standard_normal((20, 10))
        with pytest.warns(UserWarning, match="grid boundary"):
            gv = estimate_global_variance(X, ResponseFamily.gaussian(np.zeros(20), sigma2=2.0))
        assert gv.on_grid_boundary and gv.sigma2 == 2.0
        assert gv.tau_global == pytest.approx(2.0 * 1e-8 * 20 / np.sum(X**2), rel=1e-9)

    def test_fixed_sigma2_respected(self):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((30, 10))
        y = rng.standard_normal(30)
        gv = estimate_global_variance(X, ResponseFamily.gaussian(y, sigma2=1.0))
        assert gv.sigma2 == 1.0

    def test_binomial_duplication_invariance(self):
        # every covariate twice doubles the Gram X X', so the estimate
        # halves and the prior of the linear predictor, tau2 X X', is unchanged
        rng = np.random.default_rng(14)
        n, p = 40, 10
        X = rng.standard_normal((n, p))
        y = (rng.uniform(size=n) < expit(X[:, 0])).astype(float)
        gv1 = estimate_global_variance(X, ResponseFamily.binomial(y))
        gv2 = estimate_global_variance(np.hstack([X, X]), ResponseFamily.binomial(y))
        assert not gv1.on_grid_boundary and not gv2.on_grid_boundary
        assert gv2.tau_global == pytest.approx(gv1.tau_global / 2.0, rel=1e-6)
        assert np.allclose(gv2.grid, gv1.grid - np.log(2.0), rtol=0.0, atol=1e-12)
        assert np.allclose(gv2.scores, gv1.scores, rtol=1e-9, atol=0.0)

    def test_binomial_tau_is_reciprocal_lambda(self):
        # the estimate is the best point the search scored, and its
        # objective is that of the ridge fit at the penalty lambda = 1 / tau2
        rng = np.random.default_rng(15)
        X = rng.standard_normal((40, 8))
        y = (rng.uniform(size=40) < expit(X[:, 0])).astype(float)
        resp = ResponseFamily.binomial(y)
        gv = estimate_global_variance(X, resp)
        assert not gv.on_grid_boundary
        laplace = assert_laplace_matches_dense(X, resp, np.zeros(8, bool), 1.0 / gv.tau_global)
        assert laplace(math.log(gv.tau_global)) <= gv.scores.min() + 1e-12

    @pytest.mark.parametrize("family", ["binomial", "cox", "gaussian"])
    @pytest.mark.parametrize("c", [0.01, 100.0])
    def test_rescaling_equivariance(self, family, c):
        # X -> cX scales tau2 by 1 / c^2: the bracket is centred on the
        # spectrum's mean, which scales by c^2.  Binomial with an intercept
        # (scaled too), cox without one.
        X, resp, mask = gv_problem(family, 21, 50, 80, unpenalized=family != "cox")
        gv = estimate_global_variance(X, resp, unpenalized_mask=mask)
        scaled = estimate_global_variance(c * X, resp, unpenalized_mask=mask)
        assert not gv.on_grid_boundary and not scaled.on_grid_boundary
        assert scaled.tau_global == pytest.approx(gv.tau_global / c**2, rel=1e-4)
        assert scaled.sigma2 == gv.sigma2


def gv_problem(family, seed, n, p, unpenalized):
    """``p`` penalised covariates, plus one unpenalised column if asked: an
    intercept for gaussian and binomial, a covariate for cox (which has no
    intercept)."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p + unpenalized))
    if unpenalized and family != "cox":
        X[:, p] = 1.0
    mask = np.zeros(X.shape[1], dtype=bool)
    mask[p:] = True
    lp = X[:, :p] @ rng.normal(0.0, 0.3, p)
    if family == "binomial":
        resp = ResponseFamily.binomial((rng.uniform(size=n) < expit(lp)).astype(float))
    elif family == "gaussian":
        resp = ResponseFamily.gaussian(lp + rng.standard_normal(n), sigma2=1.0)
    else:
        resp = ResponseFamily.cox(
            rng.exponential(size=n) / np.exp(lp), (rng.uniform(size=n) < 0.7).astype(float)
        )
    return X, resp, mask


def laplace_oracle(X, resp, mask, tau, beta):
    """Minus the Laplace log marginal likelihood at the fit ``beta`` of the
    penalties ``1 / tau`` on the columns outside ``mask``, by p x p algebra:
    ``-l + 0.5 beta' Omega beta + 0.5 log det(H_PP) - 0.5 log det(Omega_P)``,
    ``H = X'WX [- G'G] + Omega`` the negative Hessian of the penalised
    log-likelihood, its penalised block only (the unpenalised
    coefficients are held at their estimate)."""
    pen = ~mask
    omega = np.where(pen, 1.0 / tau, 0.0)
    lp = X @ beta
    ll, _, w = family_terms(resp, lp)
    H = (X.T * w) @ X + np.diag(omega)
    G = information_factor(resp, lp, X)
    if G is not None:
        H -= G.T @ G
    sign, logdet = np.linalg.slogdet(H[np.ix_(pen, pen)])
    assert sign == 1.0
    return -ll + 0.5 * beta @ (omega * beta) + 0.5 * logdet + 0.5 * pen.sum() * math.log(tau)


def polished(*args, fit=glm.fit_weighted_ridge, **kwargs):
    """A converged fit, then one more run from it: its score is at rounding
    level, so two fits of one problem agree far below the stop rule's
    ``1e-8 (1 + |objective|)``."""
    return fit(*args, **{**kwargs, "beta0": fit(*args, **kwargs).beta})


@contextmanager
def polished_fits():
    """Every fit of ``glm`` polished (:func:`polished`)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(glm, "fit_weighted_ridge", polished)
        yield


def assert_laplace_matches_dense(X, resp, mask, lam):
    """The row-space objective at ``tau2 = 1 / lam`` equals the dense
    p x p one at a dense fit, to 1e-10 relative."""
    Xp = X[:, ~mask]
    with polished_fits():
        laplace = glm._LaplaceScore(Xp @ Xp.T, X[:, mask], resp)
        score = laplace(math.log(1.0 / lam))
    state = PenaltyState.uniform(1.0 / lam, X.shape[1], mask)
    ref = laplace_oracle(X, resp, mask, 1.0 / lam, polished(X, resp, state, fit=dense_fit).beta)
    assert abs(score - ref) <= 1e-10 * abs(ref)
    return laplace


class TestGlobalVarianceCV:
    """Step 1 of binomial and cox: the Laplace marginal likelihood, which
    replaced a cross-validation, and its search."""

    @pytest.mark.parametrize("family", ["binomial", "cox"])
    @pytest.mark.parametrize("unpenalized", [0, 1])
    @pytest.mark.parametrize("n,p", [(40, 70), (60, 12)])
    @pytest.mark.parametrize("lam", [5.0, 50.0])
    def test_rotated_fit_matches_cold_full_fit(self, family, unpenalized, n, p, lam):
        # the dense oracle: the objective on the rotated design, p > n and
        # p <= n, with and without an unpenalised column, equals the p x p
        # evaluation at a cold fit on the full design
        X, resp, mask = gv_problem(family, 16, n, p, unpenalized)
        assert_laplace_matches_dense(X, resp, mask, lam)

    @given(
        st.sampled_from(["binomial", "cox"]),
        st.integers(0, 10_000),
        st.sampled_from(["p<n", "p=n", "p>n"]),
        st.booleans(),
        st.integers(0, 1),
        st.sampled_from([2.0, 20.0, 200.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_gram_scores_match_cold_full_fit(self, family, seed, shape, duplicated, unpenalized, lam):
        # the coordinates from the n x n Gram and one eigh, on both sides of
        # p = n, with half the penalised columns copies of the other half (a
        # rank-deficient block when p <= n), score what the dense p x p
        # algebra scores
        n = 24
        p = {"p<n": 12, "p=n": 24, "p>n": 53}[shape]
        X, resp, mask = gv_problem(family, seed, n, p, unpenalized)
        if duplicated:
            X[:, p // 2 : 2 * (p // 2)] = X[:, : p // 2]
        assert_laplace_matches_dense(X, resp, mask, lam)

    @pytest.mark.parametrize("family", ["binomial", "cox"])
    def test_cv_takes_no_svd(self, family, monkeypatch):
        # one Gram and one eigh serve every point of the search
        def fail(*args, **kwargs):
            raise AssertionError("np.linalg.svd called")

        X, resp, mask = gv_problem(family, 19, 40, 100, unpenalized=family == "binomial")
        monkeypatch.setattr(np.linalg, "svd", fail)
        monkeypatch.setattr(glm._LaplaceScore, "STOP", math.inf)  # every point fitted
        gv = estimate_global_variance(X, resp, unpenalized_mask=mask)
        assert np.isfinite(gv.scores).all()

    def test_newton_solves_stay_in_the_row_space(self, monkeypatch):
        X, resp, mask = gv_problem("binomial", 17, 40, 100, unpenalized=1)
        shapes = []
        solve = glm.solve_penalized_system

        def checked(Xs, *args):
            shapes.append(Xs.shape)
            return solve(Xs, *args)

        monkeypatch.setattr(glm, "solve_penalized_system", checked)
        estimate_global_variance(X, resp, unpenalized_mask=mask)
        assert shapes
        assert all(cols <= rows + 1 for rows, cols in shapes)

    def test_no_fit_below_the_first_failure(self, monkeypatch):
        # a failure injected two grid points above the optimum, before the
        # scan would stop: the grid is fitted from its smallest tau2 up to
        # the first failure, and every point above scores +inf unfitted
        X, resp, _ = gv_problem("cox", 18, 40, 100, unpenalized=0)
        grid = estimate_global_variance(X, resp).grid
        best = int(np.argmin(estimate_global_variance(X, resp).scores))
        limit = math.exp(0.5 * (grid[best + 1] + grid[best + 2]))
        taus, steps = [], []
        score, fit = glm._LaplaceScore._score, glm.fit_weighted_ridge

        def recorded(self, log_tau):
            taus.append(math.exp(log_tau))
            return score(self, log_tau)

        def failing(*args, **kwargs):
            out = fit(*args, **kwargs)
            steps.append(out.iterations)
            if taus[-1] > limit:
                raise ConvergenceError("injected", last_iterate=out)
            return out

        monkeypatch.setattr(glm._LaplaceScore, "_score", recorded)
        monkeypatch.setattr(glm, "fit_weighted_ridge", failing)
        gv = estimate_global_variance(X, resp)
        assert gv.newton_steps == sum(steps)  # the capped fit's steps included
        k = int(np.flatnonzero(np.isinf(gv.scores))[0])
        assert k == best + 2
        assert np.isfinite(gv.scores[:k]).all() and np.isinf(gv.scores[k:]).all()
        assert np.array_equal(taus[: k + 1], np.exp(gv.grid[: k + 1]))
        assert taus[k] > limit >= taus[k - 1]
        # the refine stays between the best point's neighbours, below the failure
        assert not gv.on_grid_boundary and gv.tau_global < limit
        assert all(tau < taus[k] for tau in taus[k + 1 :])

    @pytest.mark.parametrize("family,unpenalized", [("binomial", 1), ("cox", 0)])
    def test_scan_stops_past_the_minimum(self, family, unpenalized, monkeypatch):
        # the scan stops once two points each score log(100) above the best:
        # fewer fits, the same scores where fitted, the same estimate
        X, resp, mask = gv_problem(family, 18, 40, 100, unpenalized)
        gv = estimate_global_variance(X, resp, unpenalized_mask=mask)
        monkeypatch.setattr(glm._LaplaceScore, "STOP", math.inf)
        full = estimate_global_variance(X, resp, unpenalized_mask=mask)
        k = int(np.isfinite(gv.scores).sum())
        assert k < len(gv.grid) and np.isinf(gv.scores[k:]).all()
        assert np.isfinite(full.scores).all()
        assert np.array_equal(gv.scores[:k], full.scores[:k])
        best = int(np.argmin(gv.scores))
        assert k >= best + 3 and best == int(np.argmin(full.scores))
        assert (gv.scores[k - 2 : k] > gv.scores[best] + math.log(100.0)).all()
        assert gv.tau_global == full.tau_global
        assert gv.on_grid_boundary == full.on_grid_boundary
        assert gv.newton_steps < full.newton_steps

    @pytest.mark.parametrize(
        "error",
        [lambda out: ConvergenceError("injected", last_iterate=out),
         lambda out: SingularSystemError("injected"),
         lambda out: FloatingPointError("injected")],
        ids=["capped", "singular", "overflow"],
    )
    def test_no_finite_score_is_an_error(self, error, monkeypatch):
        # a fit that fails at the smallest tau2 leaves no finite score: the
        # search raises, after that one fit, rather than pick a grid end
        X, resp, _ = gv_problem("cox", 18, 40, 100, unpenalized=0)
        calls = []
        fit = glm.fit_weighted_ridge

        def failing(*args, **kwargs):
            calls.append(fit(*args, **kwargs))
            raise error(calls[-1])

        monkeypatch.setattr(glm, "fit_weighted_ridge", failing)
        with pytest.raises(ConvergenceError, match="no point of its grid has a finite objective"):
            estimate_global_variance(X, resp)
        assert len(calls) == 1

    @given(
        st.sampled_from(["binomial", "cox"]),
        st.integers(0, 10_000),
        st.integers(30, 60),
        st.sampled_from([10, 40, 120]),
        st.integers(0, 1),
    )
    @settings(max_examples=15, deadline=None)
    def test_walk_matches_the_full_path(self, family, seed, n, p, unpenalized):
        # the grid's warm-started fits score what a cold fit from zero scores
        # at every point up to the grid's first +inf, where that fit works
        # (near the top of the bracket its first steps may overflow); the
        # best point is the best of the cold fits on the whole grid, the
        # points the scan stopped short of included; the estimate is the best
        # point, refined between its neighbours unless it is an end, which
        # is flagged and warned
        X, resp, mask = gv_problem(family, seed, n, p, unpenalized)
        with polished_fits(), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            gv = estimate_global_variance(X, resp, unpenalized_mask=mask)
            cold = np.full(len(gv.grid), np.nan)
            for k, t in enumerate(gv.grid):
                cold[k] = glm._LaplaceScore(gv.gram, X[:, mask], resp)(t)
        fitted = np.isfinite(gv.scores)
        assert fitted.all() or np.isinf(gv.scores[np.argmin(fitted) :]).all()
        best = int(np.argmin(gv.scores))
        assert np.isfinite(cold[best]) and best == int(np.argmin(cold))
        both = fitted & np.isfinite(cold)
        assert np.allclose(gv.scores[both], cold[both], rtol=1e-9, atol=0.0)
        boundary = [w for w in caught if "grid boundary" in str(w.message)]
        assert gv.on_grid_boundary == (best in (0, len(gv.grid) - 1)) == bool(boundary)
        log_tau = math.log(gv.tau_global)
        if gv.on_grid_boundary:
            assert log_tau == pytest.approx(gv.grid[best], abs=1e-12)
        else:
            assert gv.grid[best - 1] <= log_tau <= gv.grid[best + 1]


def cd_problem(form, seed, n, p):
    """One problem in each caller's form: the hyper lasso (unit weights),
    IRLS selection (working weights, ridge, an unpenalised intercept) and
    DSS (weights 1/n)."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    z = X[:, :3] @ np.array([1.5, -1.0, 0.5]) + rng.standard_normal(n)
    ridge, pen = None, None
    if form == "unit":
        w = 1.0
    elif form == "irls":
        w = rng.uniform(0.05, 0.25, n)
        X[:, -1] = 1.0
        ridge = rng.uniform(0.1, 2.0, p)
        ridge[-1] = 0.0
        pen = np.arange(p) < p - 1
    else:
        w = 1.0 / n
    return X, w, z, ridge, pen


class TestElasticNetCD:
    @given(
        st.sampled_from(["unit", "irls", "inv_n"]),
        st.sampled_from([(30, 80), (60, 12)]),
        st.sampled_from(["cold", "path", "random"]),
        st.floats(-6.0, 0.08),
        st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_kkt_conditions(self, form, shape, start, log_frac, seed):
        n, p = shape
        frac = 10.0**log_frac
        X, w, z, ridge, pen = cd_problem(form, seed, n, p)
        wv = np.broadcast_to(w, (n,))
        pen_mask = np.ones(p, dtype=bool) if pen is None else pen
        ridge_v = np.zeros(p) if ridge is None else ridge
        lam1 = frac * np.abs(X[:, pen_mask].T @ (wv * z)).max()
        beta0 = None
        if start == "path":
            beta0 = glm.elastic_net_cd(X, w, z, 2.0 * lam1, ridge, pen)
        elif start == "random":
            beta0 = np.random.default_rng(seed + 1).standard_normal(p)
        b = glm.elastic_net_cd(X, w, z, lam1, ridge, pen, beta0=beta0)
        g = X.T @ (wv * (z - X @ b))
        tol = 1e-8 * (1.0 + np.abs(g).max())
        zero = pen_mask & (b == 0)
        nonzero = pen_mask & (b != 0)
        assert (np.abs(g[zero]) <= lam1 + tol).all()
        assert np.allclose(
            g[nonzero] - ridge_v[nonzero] * b[nonzero],
            lam1 * np.sign(b[nonzero]),
            rtol=0.0,
            atol=tol,
        )
        assert np.allclose(g[~pen_mask] - ridge_v[~pen_mask] * b[~pen_mask], 0.0, atol=tol)

    def test_sweep_cap_raises_with_last_iterate(self, monkeypatch):
        X, w, z, ridge, pen = cd_problem("unit", 0, 30, 80)
        monkeypatch.setattr(glm, "CD_MAX_SWEEPS", 1)
        with pytest.raises(ConvergenceError) as info:
            glm.elastic_net_cd(X, w, z, 1.0, ridge, pen)
        assert info.value.last_iterate.shape == (80,)
        assert np.abs(info.value.last_iterate).sum() > 0


class TestFamilyChecks:
    def test_binomial_rejects_nonbinary(self):
        with pytest.raises(DataError):
            ResponseFamily.binomial(np.array([0.0, 0.5]))

    def test_cox_rejects_nonpositive_times(self):
        with pytest.raises(DataError):
            ResponseFamily.cox(np.array([0.0, 1.0]), np.array([1.0, 0.0]))

    def test_unknown_family(self):
        with pytest.raises(DataError):
            ResponseFamily("poisson", y=np.zeros(3))

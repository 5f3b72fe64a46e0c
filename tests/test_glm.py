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
    estimate_global_variance,
    fit_weighted_ridge,
    martingale_residuals,
)
from ecpc import glm
from ecpc.glm import (
    _fold_path_scores,
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
    """Record the order of every matrix ``glm`` factors, by Cholesky (scipy's
    wrapper or LAPACK's ``dpotrf``) or LU."""
    factored = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("cho_factor", "dpotrf", "lu_factor"):
            factor = getattr(glm, name)
            mp.setattr(
                glm,
                name,
                lambda M, *a, f=factor, **kw: factored.append(len(M)) or f(M, *a, **kw),
            )
        yield factored


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
        st.sampled_from([None, 1, 3]),
        st.integers(0, 2),
    )
    @settings(max_examples=80, deadline=None)
    def test_primal_and_dual_paths_agree(self, seed, n, shape, n_unpen, n_rhs, n_zero):
        # at most n penalised columns take the primal Cholesky, more the dual
        # kernel with a Schur complement for unpenalised columns; both must
        # match a dense solve, also with exact-zero weights (single-event cox
        # moment weights), whose kernel rows are those of the identity
        p = {"p<n": n - 2, "p=n": n, "p=n+1": n + 1, "p=n+2": n + 2}.get(shape, 2 * n + 3)
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, p))
        w = rng.uniform(0.5, 2.0, n)
        w[:n_zero] = 0.0
        omega = rng.uniform(0.3, 3.0, p)
        omega[:n_unpen] = 0.0
        rhs = rng.standard_normal(p if n_rhs is None else (p, n_rhs))
        with counted_factorisations() as factored:  # primal p or dual n
            Z = glm.solve_penalized_system(X, w, omega, rhs)
        assert factored[0] == (p if p - n_unpen <= n else n)
        ref = np.linalg.solve((X.T * w) @ X + np.diag(omega), rhs)
        assert Z.shape == ref.shape
        assert np.abs(Z - ref).max() <= 1e-8 * np.abs(ref).max()

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
        # X_U'WX_U - M_UP M_PP^-1 M_PU formed by subtraction cancels: through
        # the dual kernel an intercept costs the solve no accuracy
        n, p = 50, 500

        def rel_error(seed, s2, unpenalised):
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((n, p))
            X[:, 0] = 1.0
            omega = np.full(p, 10.0)
            omega[0] = 0.0 if unpenalised else 10.0
            w = np.full(n, 1.0 / s2)
            rhs = X.T @ (w * rng.standard_normal(n))
            Z = glm.solve_penalized_system(X, w, omega, rhs)
            ref = np.linalg.solve((X.T * w) @ X + np.diag(omega), rhs)
            return np.abs(Z - ref).max() / np.abs(ref).max()

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


class TestRiskSetSolve:
    @given(
        st.integers(0, 10_000),
        st.integers(4, 12),
        st.sampled_from(["p<n", "p=n", "p=n+1", "p=n+2", "p>n"]),
        st.integers(0, 2),
        st.sampled_from([1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0]),
        st.sampled_from([None, 1, 3]),
        st.sampled_from([2, None]),
        st.integers(0, 2),
    )
    @settings(max_examples=80, deadline=None)
    def test_primal_dual_and_dense_solve_agree(
        self, seed, n, shape, n_unpen, penalty, n_rhs, n_times, n_zero
    ):
        # X' diag(w) X - G' G + Omega from a Cox response, as rows [X; G] at
        # weights [w; -1] plus n_zero rows at weight exactly 0: the primal
        # Cholesky (at most as many penalised columns as rows) and the
        # indefinite dual kernel (more) both solve it to a small backward
        # error and match a dense solve as far as the conditioning allows
        p = {"p<n": n - 2, "p=n": n, "p=n+1": n + 1, "p=n+2": n + 2}.get(shape, 2 * n + 3)
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
        rhs = rng.standard_normal(p if n_rhs is None else (p, n_rhs))
        with counted_factorisations() as factored:
            Z = glm.solve_penalized_system(Xq, wq, omega, rhs)
        assert factored[0] == (p if p - n_unpen <= len(Xq) else len(Xq))
        M = (Xq.T * wq) @ Xq + np.diag(omega)
        ref = np.linalg.solve(M, rhs)
        assert Z.shape == ref.shape
        scale = np.abs(M).max() * np.abs(Z).max() + np.abs(rhs).max()
        assert np.abs(M @ Z - rhs).max() <= 1e-10 * scale
        assert np.abs(Z - ref).max() <= 1e-11 * np.linalg.cond(M) * np.abs(ref).max()

    def test_dual_refined_at_small_penalty(self):
        # At penalty 1e-4 the indefinite kernel's Woodbury solve alone is off
        # by up to 9e-6 relative here, above 1e-9 in 58 of these 60 cases;
        # refined with the same factors, the worst is 1.2e-10.
        errors = []
        for seed in range(20):
            for n in (7, 9, 11):
                rng = np.random.default_rng(seed)
                X = rng.standard_normal((n, 2 * n + 3))
                resp = ResponseFamily.cox(
                    rng.exponential(size=n) + 0.01, (rng.uniform(size=n) < 0.7).astype(float)
                )
                lp = rng.standard_normal(n)
                Xq, wq = risk_set_rows(resp, lp, X)
                omega = 1e-4 * rng.uniform(1.0, 3.0, X.shape[1])
                rhs = rng.standard_normal(X.shape[1])
                Z = glm.solve_penalized_system(Xq, wq, omega, rhs)
                ref = np.linalg.solve((Xq.T * wq) @ Xq + np.diag(omega), rhs)
                errors.append(np.abs(Z - ref).max() / np.abs(ref).max())
        assert max(errors) <= 1e-9

    def test_singular_indefinite_kernel_raises(self):
        # the row at weight -1 cancels the penalty on the first coordinate
        X = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        with pytest.raises(SingularSystemError, match="dual kernel"):
            glm.solve_penalized_system(X, [-1.0, 1.0], np.ones(3), np.ones(3))

    @pytest.mark.parametrize("n_unpen", [0, 2])
    def test_dual_factors_the_kernel_once(self, n_unpen):
        # the refinement step applies the kernel's (and the Schur
        # complement's) factors to the residual instead of refactoring
        rng = np.random.default_rng(5)
        n, p = 9, 40
        X = rng.standard_normal((n, p))
        resp = ResponseFamily.cox(rng.exponential(size=n) + 0.01, np.ones(n))
        Xq, wq = risk_set_rows(resp, rng.standard_normal(n), X)
        omega = rng.uniform(0.1, 1.0, p)
        omega[:n_unpen] = 0.0
        rhs = rng.standard_normal((p, 2))
        with counted_factorisations() as factored:
            Z = glm.solve_penalized_system(Xq, wq, omega, rhs)
        assert factored == [len(Xq)] + [n_unpen] * (n_unpen > 0)
        ref = np.linalg.solve((Xq.T * wq) @ Xq + np.diag(omega), rhs)
        assert np.abs(Z - ref).max() <= 1e-9 * np.abs(ref).max()


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
        X, resp, mask = cv_problem("cox", 16, 40, 70, 0)
        train = np.arange(40) % 4 != 0
        state = PenaltyState.uniform(1.0 / penalty, 70, mask)
        fit = fit_weighted_ridge(X[train], resp.subset(train), state)
        assert fit.converged and fit.iterations <= 30


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
            X, resp, mask = cv_problem(family, seed, 40, 30, 1)
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
        X, resp, mask = cv_problem("binomial", 3, 40, 30, 1)
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
        rng = np.random.default_rng(14)
        n, p = 40, 10
        X = rng.standard_normal((n, p))
        y = (rng.uniform(size=n) < expit(X[:, 0])).astype(float)
        gv1 = estimate_global_variance(X, ResponseFamily.binomial(y), n_folds=4, seed=0)
        # duplicate every row; assign each copy of sample i to the same fold
        folds = stratified_folds(ResponseFamily.binomial(y), 4, seed=0)
        X2 = np.vstack([X, X])
        y2 = np.concatenate([y, y])
        folds2 = np.concatenate([folds, folds])
        gv2 = estimate_global_variance(
            X2, ResponseFamily.binomial(y2), n_folds=4, seed=0, folds=folds2
        )
        # the per-observation penalty level is the duplication-invariant
        # quantity; the total penalty doubles with the doubled sample count
        per_obs1 = gv1.lambda_star / n
        per_obs2 = gv2.lambda_star / (2 * n)
        step = gv1.grid[1] / gv1.grid[0]
        assert per_obs2 / per_obs1 < step**2 and per_obs1 / per_obs2 < step**2

    def test_binomial_tau_is_reciprocal_lambda(self):
        rng = np.random.default_rng(15)
        X = rng.standard_normal((40, 8))
        y = (rng.uniform(size=40) < 0.5).astype(float)
        gv = estimate_global_variance(X, ResponseFamily.binomial(y), n_folds=4, seed=1)
        assert np.isclose(gv.tau_global, 1.0 / gv.lambda_star)


def cv_problem(family, seed, n, p, unpenalized):
    """``p`` penalised covariates, plus one unpenalised column if asked: an
    intercept for binomial, a covariate for cox (which has no intercept)."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p + unpenalized))
    if unpenalized and family == "binomial":
        X[:, p] = 1.0
    mask = np.zeros(X.shape[1], dtype=bool)
    mask[p:] = True
    lp = X[:, :p] @ rng.normal(0.0, 0.3, p)
    if family == "binomial":
        resp = ResponseFamily.binomial((rng.uniform(size=n) < expit(lp)).astype(float))
    else:
        resp = ResponseFamily.cox(
            rng.exponential(size=n) / np.exp(lp), (rng.uniform(size=n) < 0.7).astype(float)
        )
    return X, resp, mask


class TestGlobalVarianceCV:
    @pytest.mark.parametrize("family", ["binomial", "cox"])
    @pytest.mark.parametrize("unpenalized", [0, 1])
    @pytest.mark.parametrize("n,p", [(40, 70), (60, 12)])
    @pytest.mark.parametrize("lam", [5.0, 50.0])
    def test_rotated_fit_matches_cold_full_fit(self, family, unpenalized, n, p, lam):
        # Exact Newton steps do not depend on the coordinates, and both fits
        # stop converged, so the rotated fit scores what a fit on the full
        # design scores.
        X, resp, mask = cv_problem(family, 16, n, p, unpenalized)
        test = np.arange(n) % 4 == 0
        train = ~test
        resp_tr, resp_te = resp.subset(train), resp.subset(test)
        Xp = X[:, ~mask]
        (score,), steps = _fold_path_scores(
            Xp @ Xp.T, X[:, mask], train, resp_tr, resp_te, np.array([lam])
        )
        state = PenaltyState.uniform(1.0 / lam, X.shape[1], mask)
        fit = fit_weighted_ridge(X[train], resp_tr, state)
        ref = family_loglik(resp_te, X[test] @ fit.beta)
        assert abs(score - ref) <= 1e-8
        assert 1 <= steps <= 30

    @given(
        st.sampled_from(["binomial", "cox"]),
        st.integers(0, 10_000),
        st.sampled_from(["p<m", "p=m", "p>m"]),
        st.booleans(),
        st.integers(0, 1),
        st.sampled_from([2.0, 20.0, 200.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_gram_fold_scores_match_cold_full_fit(
        self, family, seed, shape, duplicated, unpenalized, lam
    ):
        # the fold's coordinates from the n x n Gram and one eigh, on both
        # sides of p = m (training rows), with half the penalised columns
        # copies of the other half (a rank-deficient block when p <= m),
        # score what a fit on the full design scores.  Every fit takes one
        # Newton step past the stop rule, whose test is relative to
        # 1 + |objective|: a step short, the two sides differ by up to 1e-7
        # here, the same with the parent's per-fold SVD.
        n = 32
        test = np.arange(n) % 4 == 0
        train = ~test
        p = {"p<m": 12, "p=m": 24, "p>m": 53}[shape]
        X, resp, mask = cv_problem(family, seed, n, p, unpenalized)
        if duplicated:
            X[:, p // 2 : 2 * (p // 2)] = X[:, : p // 2]
        resp_tr, resp_te = resp.subset(train), resp.subset(test)
        fit = glm.fit_weighted_ridge

        def polished(*args, **kwargs):
            return fit(*args, **{**kwargs, "beta0": fit(*args, **kwargs).beta})

        Xp = X[:, ~mask]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(glm, "fit_weighted_ridge", polished)
            (score,), _ = _fold_path_scores(
                Xp @ Xp.T, X[:, mask], train, resp_tr, resp_te, np.array([lam])
            )
        state = PenaltyState.uniform(1.0 / lam, X.shape[1], mask)
        ref = family_loglik(resp_te, X[test] @ polished(X[train], resp_tr, state).beta)
        assert abs(score - ref) <= 1e-10

    @pytest.mark.parametrize("family", ["binomial", "cox"])
    def test_cv_takes_no_svd(self, family, monkeypatch):
        # one Gram and a small eigh per fold replace the per-fold SVDs
        def fail(*args, **kwargs):
            raise AssertionError("np.linalg.svd called")

        X, resp, mask = cv_problem(family, 19, 40, 100, unpenalized=family == "binomial")
        monkeypatch.setattr(np.linalg, "svd", fail)
        gv = estimate_global_variance(X, resp, n_folds=4, seed=0, unpenalized_mask=mask)
        assert np.isfinite(gv.cv_scores).any()

    def test_newton_solves_stay_in_the_row_space(self, monkeypatch):
        X, resp, mask = cv_problem("binomial", 17, 40, 100, unpenalized=1)
        shapes = []
        solve = glm.solve_penalized_system

        def checked(Xs, *args):
            shapes.append(Xs.shape)
            return solve(Xs, *args)

        monkeypatch.setattr(glm, "solve_penalized_system", checked)
        estimate_global_variance(X, resp, n_folds=4, seed=0, unpenalized_mask=mask)
        assert shapes
        assert all(cols <= rows + 1 for rows, cols in shapes)

    def test_no_fit_below_the_first_failure(self, monkeypatch):
        # exact Newton fits converge at every penalty of the grid, so a
        # failure is injected below the penalty 0.1
        X, resp, mask = cv_problem("cox", 18, 40, 100, unpenalized=0)
        calls = []
        fit = glm.fit_weighted_ridge

        def failing(Xs, resp_tr, state, **kwargs):
            penalty = 1.0 / state.tau_global
            out = fit(Xs, resp_tr, state, **kwargs)
            calls.append((penalty, penalty >= 0.1, out.iterations))
            if penalty < 0.1:
                raise ConvergenceError("injected", last_iterate=out)
            return out

        monkeypatch.setattr(glm, "fit_weighted_ridge", failing)
        gv = estimate_global_variance(X, resp, n_folds=4, seed=0)
        assert gv.newton_steps == sum(steps for *_, steps in calls)
        # a fold's path starts at its largest penalty and only descends
        starts = [0] + [i for i in range(1, len(calls)) if calls[i][0] > calls[i - 1][0]]
        assert len(starts) == 4
        for a, b in zip(starts, starts[1:] + [len(calls)]):
            fold = calls[a:b]
            assert all(ok for _, ok, _ in fold[:-1])
            assert not fold[-1][1]
            assert len(fold) < len(gv.grid)
        failed = np.isneginf(gv.cv_scores)
        k = int(failed.sum())
        assert 0 < k < len(gv.grid)
        assert failed[:k].all() and np.isfinite(gv.cv_scores[k:]).all()


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

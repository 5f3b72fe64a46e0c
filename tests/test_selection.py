import numpy as np
import pytest

from ecpc import (
    DataError,
    Grouping,
    ResponseFamily,
    fit_ecpc,
    posterior_sds,
    refit_selected,
    select_credible,
    select_dss,
    select_l1,
)


def disjoint_grouping(p, G):
    size = p // G
    groups = tuple(tuple(range(g * size, (g + 1) * size)) for g in range(G))
    return Grouping(groups=groups, p=p)


def sparse_gaussian(seed=0, n=80, p=40, k=8, G=4):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    beta = np.zeros(p)
    beta[:k] = rng.normal(0.0, 1.5, k)
    y = X @ beta + rng.normal(0.0, 1.0, n)
    resp = ResponseFamily.gaussian(y)
    model = fit_ecpc(X, resp, [disjoint_grouping(p, G)])
    return X, resp, model, beta


class TestSelectL1:
    def test_exact_counts(self):
        X, resp, model, _ = sparse_gaussian(1)
        for count in (3, 10, 25):
            res = select_l1(model, X, resp, count)
            assert len(res.selected) == count
            assert res.exact_count
            assert res.method == "l1"
            nz = np.flatnonzero(res.beta)
            assert np.array_equal(nz, res.selected)

    def test_finds_true_signals(self):
        X, resp, model, beta = sparse_gaussian(2, k=6)
        res = select_l1(model, X, resp, 6)
        # every clearly non-null signal must be recovered
        strong = set(np.flatnonzero(np.abs(beta) > 0.8).tolist())
        assert strong <= set(res.selected.tolist())

    def test_full_count_matches_dense_fit(self):
        # selecting every covariate and refitting with the same penalties
        # reproduces the dense fit
        X, resp, model, _ = sparse_gaussian(3)
        res = select_l1(model, X, resp, model.p)
        assert len(res.selected) == model.p
        assert np.abs(res.beta - model.beta).max() < 1e-8

    def test_count_monotone_in_strength(self):
        X, resp, model, _ = sparse_gaussian(4)
        counts = [len(select_l1(model, X, resp, c).selected) for c in (5, 15, 30)]
        assert counts == sorted(counts)

    def test_bad_count_rejected(self):
        X, resp, model, _ = sparse_gaussian(5)
        with pytest.raises(DataError):
            select_l1(model, X, resp, 0)
        with pytest.raises(DataError):
            select_l1(model, X, resp, model.p + 1)

    def test_binomial_counts(self):
        rng = np.random.default_rng(6)
        n, p = 100, 30
        X = rng.standard_normal((n, p))
        lp = X[:, :5] @ np.array([1.5, -1.2, 1.0, 0.8, -1.0])
        y = (rng.random(n) < 1 / (1 + np.exp(-lp))).astype(float)
        resp = ResponseFamily.binomial(y)
        model = fit_ecpc(X, resp, [disjoint_grouping(p, 3)], intercept=True)
        res = select_l1(model, X, resp, 8)
        assert len(res.selected) == 8


class TestSelectDSS:
    def test_zero_strength_returns_dense(self):
        X, resp, model, _ = sparse_gaussian(7)
        res = select_dss(model, X, 0.0)
        assert np.array_equal(res.beta, model.beta)
        assert np.array_equal(res.selected, np.flatnonzero(model.beta))

    def test_large_strength_empties(self):
        X, resp, model, _ = sparse_gaussian(8)
        # null threshold for the substituted problem: max_j 2|x_j' f|/n with
        # unit-scaled columns; anything above it zeroes every coordinate
        fitted = X @ model.beta
        Xa = X * np.abs(model.beta)[None, :]
        lam_max = 2 * np.abs(Xa.T @ fitted).max() / X.shape[0]
        res = select_dss(model, X, lam_max * 1.01)
        assert len(res.selected) == 0

    def test_matches_adaptive_lasso_oracle(self):
        cvxpy = pytest.importorskip("cvxpy")
        X, resp, model, _ = sparse_gaussian(9, n=50, p=20, G=2)
        n = X.shape[0]
        fitted = X @ model.beta
        lam = 0.05
        g = cvxpy.Variable(model.p)
        obj = cvxpy.sum_squares(fitted - X @ g) / n + lam * cvxpy.sum(
            cvxpy.multiply(1.0 / np.abs(model.beta), cvxpy.abs(g))
        )
        cvxpy.Problem(cvxpy.Minimize(obj)).solve()
        res = select_dss(model, X, lam)

        def objective(gamma):
            r = fitted - X @ gamma
            return r @ r / n + lam * (np.abs(gamma) / np.abs(model.beta)).sum()

        # the coordinate-descent solution must be at least as good as the
        # general-purpose solver's (which converges loosely)
        raw = select_dss(model, X, lam, resp=None)
        assert objective(raw.beta) <= objective(np.asarray(g.value)) + 1e-8
        assert abs(objective(raw.beta) - objective(np.asarray(g.value))) < 1e-4

    @pytest.mark.parametrize("seed,n,p,G", [(9, 50, 20, 2), (16, 30, 60, 4)])
    @pytest.mark.parametrize("frac", [1e-3, 1e-2, 0.1, 0.5])
    def test_kkt_conditions(self, seed, n, p, G, frac):
        # the offline twin of the cvxpy oracle: with g_j = |beta_hat_j| u_j
        # the adaptive lasso is a lasso in u at strength lam / 2, whose
        # sub-gradient conditions the solution meets (as
        # test_glm.py::TestElasticNetCD::test_kkt_conditions checks them for
        # the kernel); coordinates with a zero dense coefficient stay zero
        X, resp, model, _ = sparse_gaussian(seed, n=n, p=p, G=G)
        fitted = X @ model.beta
        scale = np.abs(model.beta)
        active = scale > 0
        lam_max = 2 * np.abs((X * scale).T @ fitted).max() / n
        lam = frac * lam_max
        gamma = select_dss(model, X, lam).beta
        assert (gamma[~active] == 0).all()
        g = (X[:, active] * scale[active]).T @ (fitted - X @ gamma) / n
        tol = 1e-8 * (1.0 + np.abs(g).max())
        u = gamma[active] / scale[active]
        assert (np.abs(g[u == 0]) <= lam / 2 + tol).all()
        assert np.allclose(g[u != 0], lam / 2 * np.sign(u[u != 0]), rtol=0.0, atol=tol)
        assert 0 < np.count_nonzero(u) < active.sum() or frac >= 0.5

    def test_sparsity_increases_with_strength(self):
        X, resp, model, _ = sparse_gaussian(10)
        sizes = [
            len(select_dss(model, X, lam).selected) for lam in (0.001, 0.05, 0.5)
        ]
        assert sizes == sorted(sizes, reverse=True)

    def test_refit_when_response_given(self):
        X, resp, model, _ = sparse_gaussian(11)
        res = select_dss(model, X, 0.05, resp=resp)
        assert res.refit_mode == "dense"
        ref = refit_selected(model, X, resp, res.selected)
        assert np.array_equal(res.beta, ref)


class TestPosteriorSds:
    def test_gaussian_matches_direct_inversion(self):
        X, resp, model, _ = sparse_gaussian(12, n=50, p=20, G=2)
        sd = posterior_sds(model, X, resp)
        w = np.full(X.shape[0], 1.0 / model.sigma2)
        prec = 1.0 / (model.tau_global * np.maximum(model.tau_local, 1e-6))
        Sigma = np.linalg.inv(X.T @ (w[:, None] * X) + np.diag(prec))
        assert np.abs(sd - np.sqrt(np.diag(Sigma))).max() < 1e-8

    def test_p_greater_n(self):
        X, resp, model, _ = sparse_gaussian(13, n=30, p=60, G=4, k=5)
        sd = posterior_sds(model, X, resp)
        w = np.full(X.shape[0], 1.0 / model.sigma2)
        prec = 1.0 / (model.tau_global * np.maximum(model.tau_local, 1e-6))
        Sigma = np.linalg.inv(X.T @ (w[:, None] * X) + np.diag(prec))
        assert np.abs(sd - np.sqrt(np.diag(Sigma))).max() < 1e-8

    @pytest.mark.parametrize("family", ["gaussian", "binomial"])
    @pytest.mark.parametrize("seed", range(5))
    def test_intercept_matches_direct_inversion(self, family, seed):
        # the penalised sds are the diagonal of the inverse (p + 1) x (p + 1)
        # posterior precision, whose intercept entry is unpenalised
        rng = np.random.default_rng(40 + seed)
        n, p = 30, 20
        X = rng.standard_normal((n, p)) + rng.uniform(-1.0, 1.0, p)
        lp = 1.5 + X[:, :3].sum(axis=1)
        if family == "gaussian":
            resp = ResponseFamily.gaussian(lp + rng.standard_normal(n))
        else:
            pr = 1.0 / (1.0 + np.exp(-lp / 3.0))
            resp = ResponseFamily.binomial((rng.uniform(size=n) < pr).astype(float))
        model = fit_ecpc(X, resp, [disjoint_grouping(p, 4)], intercept=True)
        sd = posterior_sds(model, X, resp)
        lp = X @ model.beta + model.intercept
        if family == "gaussian":
            w = np.full(n, 1.0 / model.sigma2)
        else:
            pr = 1.0 / (1.0 + np.exp(-lp))
            w = pr * (1.0 - pr)
        X1 = np.hstack([X, np.ones((n, 1))])
        prec = np.append(1.0 / (model.tau_global * np.maximum(model.tau_local, 1e-6)), 0.0)
        Sigma = np.linalg.inv(X1.T @ (w[:, None] * X1) + np.diag(prec))
        ref = np.sqrt(np.diag(Sigma)[:p])
        assert np.abs(sd / ref - 1.0).max() <= 1e-10

    @pytest.mark.parametrize("family", ["gaussian", "binomial"])
    @pytest.mark.parametrize("n,p", [(40, 25), (30, 30), (20, 70)])
    def test_matches_svd_formula(self, family, n, p):
        # the n x n Gram's eigendecomposition gives the standard deviations
        # of the thin SVD of the weighted, prior-rescaled design
        # Xt = U D V': 1 - rowsum(V^2 D^2 / (D^2 + 1)), over delta
        rng = np.random.default_rng(n + p)
        X = rng.standard_normal((n, p))
        if family == "gaussian":
            resp = ResponseFamily.gaussian(X[:, :3].sum(axis=1) + rng.standard_normal(n))
        else:
            resp = ResponseFamily.binomial((rng.uniform(size=n) < 0.5).astype(float))
        model = fit_ecpc(X, resp, [disjoint_grouping(p, 5)], intercept=True)
        sd = posterior_sds(model, X, resp)
        delta = 1.0 / (model.tau_global * np.maximum(model.tau_local, 1e-6))
        lp = X @ model.beta + model.intercept
        if family == "gaussian":
            w = np.full(n, 1.0 / model.sigma2)
        else:
            pr = 1.0 / (1.0 + np.exp(-lp))
            w = pr * (1.0 - pr)
        Xt = np.sqrt(w)[:, None] * X / np.sqrt(delta)
        u = np.sqrt(w) / np.linalg.norm(np.sqrt(w))  # the intercept, integrated out
        Xt -= np.outer(u, u @ Xt)
        _, d, Vt = np.linalg.svd(Xt, full_matrices=False)
        inner = 1.0 - (Vt.T**2 * (d**2 / (d**2 + 1.0))).sum(axis=1)
        ref = np.sqrt(inner / delta)
        assert np.abs(sd / ref - 1.0).max() <= 1e-10

    def test_positive(self):
        X, resp, model, _ = sparse_gaussian(14)
        assert (posterior_sds(model, X, resp) > 0).all()

    def test_no_data_equals_prior_sd(self):
        X, resp, model, _ = sparse_gaussian(15, n=40, p=10, G=2)
        X0 = np.zeros((4, 10))
        r0 = ResponseFamily.gaussian(np.zeros(4), sigma2=1.0)
        sd = posterior_sds(model, X0, r0)
        prior_sd = np.sqrt(model.tau_global * np.maximum(model.tau_local, 1e-6))
        assert np.allclose(sd, prior_sd, atol=1e-10)


class TestSelectCredible:
    def test_count_and_ordering(self):
        X, resp, model, _ = sparse_gaussian(16)
        res = select_credible(model, X, resp, 10)
        assert len(res.selected) == 10
        sd = posterior_sds(model, X, resp)
        score = np.abs(model.beta) / (sd / sd.min())
        assert set(res.selected.tolist()) == set(
            np.argsort(-score, kind="stable")[:10].tolist()
        )

    def test_symmetric_design_picks_largest_coefficients(self):
        # orthonormal-ish symmetric case: equal sds, so ranking reduces to |beta|
        X, resp, model, _ = sparse_gaussian(17, n=60, p=12, G=2)
        Xo, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((60, 12)))
        r = ResponseFamily.gaussian(np.zeros(60), sigma2=1.0)
        sd = posterior_sds(model, Xo * np.sqrt(60), r)
        # equal local variances within a fit of a symmetric design give
        # near-equal sds; ranking then matches |beta|
        if np.ptp(model.tau_local) < 1e-9:
            res = select_credible(model, Xo * np.sqrt(60), r, 4)
            top = np.sort(np.argsort(-np.abs(model.beta), kind="stable")[:4])
            assert np.array_equal(res.selected, top)

    def test_finds_signals(self):
        X, resp, model, beta = sparse_gaussian(18, k=6)
        res = select_credible(model, X, resp, 6)
        true = set(np.flatnonzero(beta))
        assert len(true & set(res.selected.tolist())) >= 4


class TestRefitSelected:
    def test_full_selection_dense_reproduces_model(self):
        X, resp, model, _ = sparse_gaussian(19)
        beta = refit_selected(model, X, resp, np.arange(model.p), mode="dense")
        assert np.abs(beta - model.beta).max() < 1e-8

    def test_unselected_are_zero(self):
        X, resp, model, _ = sparse_gaussian(20)
        sel = np.array([0, 3, 7])
        beta = refit_selected(model, X, resp, sel)
        mask = np.zeros(model.p, dtype=bool)
        mask[sel] = True
        assert np.array_equal(beta[~mask], np.zeros(model.p - 3))
        assert (beta[mask] != 0).any()

    def test_empty_selection_rejected(self):
        X, resp, model, _ = sparse_gaussian(21)
        with pytest.raises(DataError):
            refit_selected(model, X, resp, np.array([], dtype=int))

    def test_unknown_mode_rejected(self):
        X, resp, model, _ = sparse_gaussian(22)
        with pytest.raises(DataError):
            refit_selected(model, X, resp, np.array([0]), mode="bogus")

    def test_recalibrated_differs_and_fits(self):
        X, resp, model, beta_true = sparse_gaussian(23, k=6)
        sel = np.sort(np.flatnonzero(beta_true))
        dense = refit_selected(model, X, resp, sel, mode="dense")
        recal = refit_selected(model, X, resp, sel, mode="recalibrated")
        assert not np.allclose(dense, recal)
        # recalibrated on the true support should track the truth well
        assert np.abs(recal - beta_true).max() < np.abs(model.beta - beta_true).max() + 0.5

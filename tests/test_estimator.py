import warnings

import numpy as np
import pytest

from ecpc import (
    DataError,
    FittedModel,
    Grouping,
    ResponseFamily,
    combine_local_variances,
    fit_ecpc,
    model_from_json,
    model_to_json,
    predict,
    solve_grouping_weights,
)
from ecpc import ConvergenceError, glm, hypershrinkage
from ecpc.codata import build_hierarchy_from_continuous
from ecpc.estimator import TAU_LOCAL_FLOOR
from ecpc.glm import PenaltyState, estimate_global_variance, fit_weighted_ridge
from ecpc.hypershrinkage import solve_hierarchical_lasso
from ecpc.mom import MomentSystem


def disjoint_grouping(p, G, name="g"):
    size = p // G
    groups = tuple(tuple(range(g * size, (g + 1) * size)) for g in range(G))
    return Grouping(groups=groups, p=p, name=name)


def gaussian_data(seed=0, n=60, p=30, G=3, tau2=0.5, sigma2=1.0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    beta = rng.normal(0.0, np.sqrt(tau2), p)
    y = X @ beta + rng.normal(0.0, np.sqrt(sigma2), n)
    return X, ResponseFamily.gaussian(y), disjoint_grouping(p, G)


class TestCombineLocalVariances:
    def test_single_source_passthrough(self):
        g = disjoint_grouping(4, 2)
        out = combine_local_variances([g], [np.array([2.0, 5.0])], np.ones(1))
        assert np.allclose(out, [2, 2, 5, 5])

    def test_overlap_membership_average(self):
        g = Grouping(groups=((0, 1), (1, 2)), p=3)
        out = combine_local_variances([g], [np.array([2.0, 4.0])], np.ones(1))
        # covariate 1 belongs to both groups: average of 2 and 4
        assert np.allclose(out, [2.0, 3.0, 4.0])

    def test_two_sources_weighted(self):
        g1 = disjoint_grouping(4, 2, "a")
        g2 = Grouping(groups=((0, 1, 2, 3),), p=4, name="b")
        out = combine_local_variances(
            [g1, g2],
            [np.array([1.0, 3.0]), np.array([2.0])],
            np.array([0.3, 0.7]),
        )
        assert np.allclose(out, [0.3 * 1 + 1.4, 0.3 * 1 + 1.4, 0.3 * 3 + 1.4, 0.3 * 3 + 1.4])

    def test_mismatched_lengths(self):
        g = disjoint_grouping(4, 2)
        with pytest.raises(DataError):
            combine_local_variances([g], [np.ones(2), np.ones(2)], np.ones(2))

    def test_negative_combination_floored(self):
        g = disjoint_grouping(4, 2)
        with pytest.warns(UserWarning, match="floored"):
            out = combine_local_variances([g], [np.array([-1.0, 2.0])], np.ones(1))
        assert np.allclose(out, [0, 0, 2, 2])


class TestSolveGroupingWeights:
    def test_scalar_system(self):
        sys = MomentSystem(A=np.array([[2.0]]), b=np.array([3.0]), group_labels=("g",))
        assert np.allclose(solve_grouping_weights(sys), [1.5])

    def test_negative_truncated(self):
        sys = MomentSystem(A=np.array([[2.0]]), b=np.array([-3.0]), group_labels=("g",))
        assert np.allclose(solve_grouping_weights(sys), [0.0])

    def test_normal_equations_oracle(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((6, 2))
        b = rng.standard_normal(6)
        ref = np.maximum(np.linalg.solve(A.T @ A, A.T @ b), 0.0)
        sys = MomentSystem(A=A, b=b, group_labels=tuple("abcdef"))
        assert np.allclose(solve_grouping_weights(sys), ref, atol=1e-10)

    def test_nearly_collinear_sources_stay_bounded(self):
        # two nearly equal columns, as when both sources' group weights are
        # close to 1: least squares splits the fit into +-9.4e3 and
        # truncating gave one source a weight of 9.4e3; the non-negative
        # optimum puts the weight on one source
        rng = np.random.default_rng(9)
        a = rng.uniform(0.5, 1.5, 10)
        A = np.column_stack([a, a + 1e-6 * rng.standard_normal(10)])
        b = a + 0.05 * rng.standard_normal(10)
        assert np.maximum(np.linalg.lstsq(A, b, rcond=None)[0], 0.0).max() > 1e3
        w = solve_grouping_weights(MomentSystem(A=A, b=b, group_labels=tuple("abcdefghij")))
        # the oracle: the best non-negative fit over every support
        fits = [np.zeros(2)]
        for cols in ([0], [1], [0, 1]):
            sub = np.linalg.lstsq(A[:, cols], b, rcond=None)[0]
            if (sub >= 0).all():
                fits.append(np.zeros(2))
                fits[-1][cols] = sub
        ref = min(fits, key=lambda v: np.linalg.norm(A @ v - b))
        assert (w >= 0).all() and w.max() < 2.0
        assert np.abs(w - ref).max() <= 1e-8

    def test_rank_deficient_warns(self):
        A = np.column_stack([np.ones(4), np.ones(4)])
        sys = MomentSystem(A=A, b=np.ones(4), group_labels=tuple("abcd"))
        with pytest.warns(UserWarning, match="rank deficient"):
            solve_grouping_weights(sys)

    def test_more_sources_than_equations(self):
        sys = MomentSystem(
            A=np.ones((1, 2)), b=np.ones(1), group_labels=("g",)
        )
        with pytest.raises(DataError):
            solve_grouping_weights(sys)


class TestFitEcpc:
    def test_deterministic(self):
        X, resp, g = gaussian_data(1)
        m1 = fit_ecpc(X, resp, [g], seed=3)
        m2 = fit_ecpc(X, resp, [g], seed=3)
        assert np.array_equal(m1.beta, m2.beta)
        assert np.array_equal(m1.tau_local, m2.tau_local)
        assert m1.tau_global == m2.tau_global

    def test_noninformative_limit_is_ordinary_ridge(self):
        X, resp, g = gaussian_data(2)
        model = fit_ecpc(X, resp, [g], forced_hyperlambda=1e10)
        gv = estimate_global_variance(X, resp)
        state = PenaltyState(
            tau_global=gv.tau_global,
            tau_local=np.ones(X.shape[1]),
            unpenalized_mask=np.zeros(X.shape[1], dtype=bool),
        )
        ridge = fit_weighted_ridge(X, resp.with_sigma2(gv.sigma2), state)
        assert np.abs(model.beta - ridge.beta).max() < 1e-6
        assert np.abs(model.tau_local - 1.0).max() < 1e-6

    def test_single_group_gamma_near_one(self):
        # one group covering everything: the moment equation is self-consistent
        # at gamma = 1 when the global variance is calibrated
        X, resp, _ = gaussian_data(5, n=120, p=40, G=4)
        g = Grouping(groups=(tuple(range(40)),), p=40)
        model = fit_ecpc(X, resp, [g])
        assert model.gammas[0].shape == (1,)
        assert 0.6 < model.gammas[0][0] < 1.5
        assert np.allclose(model.tau_local, model.gammas[0][0])

    def test_single_source_weight_is_one(self):
        X, resp, g = gaussian_data(3)
        model = fit_ecpc(X, resp, [g])
        assert np.array_equal(model.w, [1.0])

    def test_informative_codata_orders_groups(self):
        # group 0 carries all the signal; its learnt weight should dominate
        rng = np.random.default_rng(11)
        n, p = 100, 60
        X = rng.standard_normal((n, p))
        beta = np.zeros(p)
        beta[:20] = rng.normal(0.0, 1.0, 20)
        y = X @ beta + rng.normal(0.0, 1.0, n)
        g = disjoint_grouping(p, 3)
        model = fit_ecpc(X, ResponseFamily.gaussian(y), [g])
        gam = model.gammas[0]
        assert gam[0] > gam[1] and gam[0] > gam[2]

    def test_two_sources(self):
        X, resp, g1 = gaussian_data(7, n=80, p=40, G=4)
        g2 = Grouping(groups=(tuple(range(20)), tuple(range(20, 40))), p=40, name="h")
        model = fit_ecpc(X, resp, [g1, g2])
        assert model.w.shape == (2,)
        assert (model.w >= 0).all()
        assert len(model.gammas) == 2
        assert model.grouping_names == ["g", "h"]

    def test_intercept_binomial(self):
        rng = np.random.default_rng(9)
        n, p = 80, 20
        X = rng.standard_normal((n, p))
        y = (rng.random(n) < 0.7).astype(float)
        g = disjoint_grouping(p, 2)
        model = fit_ecpc(X, ResponseFamily.binomial(y), [g], intercept=True)
        assert model.has_intercept
        assert np.isfinite(model.intercept)

    def test_sparse_kind_drops_covariates(self):
        rng = np.random.default_rng(13)
        n, p = 90, 40
        X = rng.standard_normal((n, p))
        beta = np.zeros(p)
        beta[:10] = rng.normal(0.0, 1.5, 10)
        y = X @ beta + rng.normal(0.0, 1.0, n)
        g = disjoint_grouping(p, 4)
        model = fit_ecpc(
            X, ResponseFamily.gaussian(y), [g], hyper="lasso", forced_hyperlambda=3.0
        )
        dropped = model.tau_local == 0
        assert dropped.any() and not dropped.all()
        assert np.array_equal(model.beta[dropped], np.zeros(dropped.sum()))
        assert model.diagnostics["n_dropped"] == int(dropped.sum())
        # the signal-bearing first group survives
        assert not dropped[:10].any()

    def test_all_zero_local_variance_rejected(self):
        rng = np.random.default_rng(14)
        n, p = 90, 40
        X = rng.standard_normal((n, p))
        y = X[:, 0] + rng.normal(0.0, 1.0, n)
        g = disjoint_grouping(p, 4)
        with pytest.raises(DataError, match="no covariate left"):
            fit_ecpc(
                X, ResponseFamily.gaussian(y), [g], hyper="lasso", forced_hyperlambda=1e4
            )

    def test_floor_applied_for_dense_kinds(self):
        X, resp, g = gaussian_data(17)
        model = fit_ecpc(X, resp, [g])
        assert (model.tau_local >= 1e-6).all()

    def test_grouping_covering_mismatch(self):
        X, resp, _ = gaussian_data(19)
        bad = disjoint_grouping(10, 2)
        with pytest.raises(DataError):
            fit_ecpc(X, resp, [bad])

    def test_nonfinite_rejected(self):
        X, resp, g = gaussian_data(23)
        X[0, 0] = np.nan
        with pytest.raises(DataError):
            fit_ecpc(X, resp, [g])

    def test_hierarchical_kind_needs_tree(self):
        X, resp, g = gaussian_data(29)
        with pytest.raises(DataError, match="hierarchy"):
            fit_ecpc(X, resp, [g], hyper="hierarchical_lasso")

    def test_hyper_takes_kind_names_only(self):
        # a strength given with the kind would be ignored: the tuning sets it
        X, resp, g = gaussian_data(29)
        with pytest.raises(DataError, match="forced_hyperlambda"):
            fit_ecpc(X, resp, [g], hyper=("ridge", 5.0))
        with pytest.raises(DataError, match="forced_hyperlambda"):
            fit_ecpc(X, resp, [g, g], hyper=["ridge", ("lasso", 5.0)])
        with pytest.raises(DataError, match="unknown hyperpenalty kind 'group_lasso'"):
            fit_ecpc(X, resp, [g], hyper="group_lasso")

    def test_hierarchical_lasso_with_missing_annotations(self):
        rng = np.random.default_rng(37)
        n, p = 60, 200
        X = rng.standard_normal((n, p))
        y = X @ rng.normal(0.0, 0.3, p) + rng.standard_normal(n)
        vals = rng.uniform(size=p)
        vals[:7] = np.nan
        g, tree = build_hierarchy_from_continuous(vals, min_group_size=20)
        assert g.n_groups == tree.n_nodes + 1
        model = fit_ecpc(X, ResponseFamily.gaussian(y), [g], hyper="hierarchical_lasso")
        assert np.isfinite(model.beta).all()
        assert len(model.gammas[0]) == g.n_groups
        # the missing-value group is unpenalised: kept at any strength
        G = g.n_groups
        A = rng.standard_normal((G, G)) + 2 * np.eye(G)
        sys = MomentSystem(A=A, b=rng.standard_normal(G), group_labels=("",) * G)
        out = solve_hierarchical_lasso(sys, tree, 1e9, g.sizes.astype(float))
        assert out.selected[tree.node_group[tree.root]] and out.selected[G - 1]
        assert not out.selected[list(tree.leaves)].any()

    def test_cox_baseline_stored(self):
        rng = np.random.default_rng(31)
        n, p = 70, 20
        X = rng.standard_normal((n, p))
        times = rng.exponential(1.0, n)
        status = (rng.random(n) < 0.7).astype(int)
        g = disjoint_grouping(p, 2)
        model = fit_ecpc(X, ResponseFamily.cox(times, status), [g])
        assert model.baseline_times is not None
        assert len(model.baseline_times) == int(status.sum())
        assert (np.diff(model.baseline_cumhaz) >= -1e-12).all()


def edge_data(seed, n=40, p=60):
    rng = np.random.default_rng(seed)
    return rng, rng.standard_normal((n, p)), disjoint_grouping(p, 4)


class TestEdgeCases:
    @pytest.mark.parametrize("n_times", [1, 2, 3])
    def test_cox_heavy_ties_finite(self, n_times):
        rng, X, g = edge_data(50 + n_times)
        times = rng.integers(1, n_times + 1, len(X)).astype(float)
        status = (rng.random(len(X)) < 0.6).astype(float)
        model = fit_ecpc(X, ResponseFamily.cox(times, status), [g])
        assert np.isfinite(model.beta).all() and np.isfinite(model.tau_local).all()
        assert np.isfinite(model.baseline_cumhaz).all()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cox_single_event(self, seed):
        # One event carries almost no information: the marginal likelihood
        # is finite at every point and puts tau2 at or near its lower end,
        # no signal, and the fit is all but null.
        rng, X, g = edge_data(seed)
        status = np.zeros(len(X))
        status[5] = 1.0
        resp = ResponseFamily.cox(rng.exponential(1.0, len(X)), status)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a boundary optimum
            gv = estimate_global_variance(X, resp)
            model = fit_ecpc(X, resp, [g])
        assert np.isfinite(gv.scores).all()
        assert gv.tau_global < 1e-3 and model.tau_global == gv.tau_global
        assert model.diagnostics["converged"] and np.abs(model.beta).max() < 1e-2

    def test_cox_intercept_rejected(self):
        # the exact information is singular along a constant column
        rng, X, g = edge_data(57)
        resp = ResponseFamily.cox(rng.exponential(1.0, len(X)), np.ones(len(X)))
        with pytest.raises(DataError, match="no intercept"):
            fit_ecpc(X, resp, [g], intercept=True)

    @pytest.mark.parametrize("seed", range(8))
    def test_gaussian_intercept_fit_is_stationary(self, seed):
        # Independent covariates, signal variance 4 decaying over 4 groups,
        # y shifted by 3: sigma2 often lands near 0, where the likelihood
        # needs the intercept's direction removed and the solve must not
        # cancel.  The final fit's penalised score vanishes on every seed.
        n, p, G = 4, 8, 4
        rng = np.random.default_rng(seed)
        beta = rng.normal(0.0, np.repeat(np.exp(-np.arange(G) / (G / 2)), p // G))
        beta *= 2.0 / np.linalg.norm(beta)
        X = rng.standard_normal((n, p))
        y = X @ beta + rng.standard_normal(n) + 3.0
        model = fit_ecpc(X, ResponseFamily.gaussian(y), [disjoint_grouping(p, G)], intercept=True)
        keep = model.tau_local > 0  # the covariates the final fit penalises
        omega = 1.0 / (model.tau_global * np.maximum(model.tau_local[keep], TAU_LOCAL_FLOOR))
        beta = model.beta[keep]
        r = (y - X @ model.beta - model.intercept) / model.sigma2
        score = np.append(X[:, keep].T @ r - omega * beta, r.sum())
        objective = -0.5 * (r @ r * model.sigma2 + n * np.log(2 * np.pi * model.sigma2))
        objective -= 0.5 * beta @ (omega * beta)
        assert np.abs(score).max() <= 1e-5 * (1.0 + abs(objective))

    def test_gaussian_collapse_is_recorded(self):
        # sigma2 collapses on this draw (tests/test_glm.py, TestGlobalVariance):
        # the estimate is the bracket's upper end, flagged in the record
        rng = np.random.default_rng(16)
        n, p = 40, 120
        X = rng.standard_normal((n, p))
        y = X @ rng.normal(0.0, 0.3, p) + rng.standard_normal(n)
        with pytest.warns(UserWarning, match="global-variance optimum on the grid boundary"):
            model = fit_ecpc(
                X, ResponseFamily.gaussian(y), [disjoint_grouping(p, 4)], intercept=True
            )
        assert model.diagnostics["global_variance"]["on_grid_boundary"] is True
        assert model.diagnostics["converged"]

    def test_cox_all_censored_zero_beta(self):
        rng, X, g = edge_data(54)
        resp = ResponseFamily.cox(rng.exponential(1.0, len(X)), np.zeros(len(X)))
        model = fit_ecpc(X, resp, [g])
        assert np.array_equal(model.beta, np.zeros(X.shape[1]))

    def test_binomial_single_positive_finite(self):
        # no folds to leave a single class: step 1 finds an interior optimum
        rng, X, g = edge_data(55)
        y = np.zeros(len(X))
        y[7] = 1.0
        model = fit_ecpc(X, ResponseFamily.binomial(y), [g], intercept=True)
        assert not model.diagnostics["global_variance"]["on_grid_boundary"]
        assert np.isfinite(model.beta).all() and np.isfinite(model.intercept)

    @pytest.mark.parametrize("intercept", [False, True])
    def test_binomial_single_class_rejected(self, intercept):
        rng, X, g = edge_data(55)
        with pytest.raises(DataError, match="single class: all 40 samples are 0"):
            fit_ecpc(X, ResponseFamily.binomial(np.zeros(len(X))), [g], intercept=intercept)

    def test_binomial_two_positives_finite(self):
        rng, X, g = edge_data(56)
        y = np.zeros(len(X))
        y[[3, 21]] = 1.0
        model = fit_ecpc(X, ResponseFamily.binomial(y), [g], intercept=True)
        assert np.isfinite(model.beta).all() and np.isfinite(model.intercept)


class TestPredict:
    def _model(self, beta, intercept=0.0, family="gaussian", **kw):
        return FittedModel(
            beta=np.asarray(beta, dtype=float),
            intercept=intercept,
            tau_global=1.0,
            sigma2=1.0,
            gammas=[np.ones(1)],
            w=np.ones(1),
            tau_local=np.ones(len(beta)),
            hyperlambdas=[0.0],
            family=family,
            grouping_names=["g"],
            n_groups=[1],
            has_intercept=intercept != 0.0,
            **kw,
        )

    def test_gaussian_is_matmul(self):
        rng = np.random.default_rng(0)
        beta = rng.standard_normal(5)
        X = rng.standard_normal((8, 5))
        m = self._model(beta, intercept=0.7)
        assert np.allclose(predict(m, X), X @ beta + 0.7)
        assert np.allclose(predict(m, X, kind="link"), X @ beta + 0.7)

    def test_binomial_probabilities(self):
        m = self._model([1.0, -1.0], family="binomial")
        X = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        p = predict(m, X)
        assert np.allclose(p, [0.5, 1.0, 0.0], atol=1e-4)
        assert ((p >= 0) & (p <= 1)).all()

    def test_cox_survival_matrix(self):
        m = self._model(
            [0.5],
            family="cox",
            baseline_times=np.array([1.0, 2.0]),
            baseline_cumhaz=np.array([0.3, 0.9]),
        )
        X = np.array([[0.0], [1.0]])
        S = predict(m, X, kind="survival")
        ref = np.exp(-np.outer(np.exp(X[:, 0] * 0.5), [0.3, 0.9]))
        assert np.allclose(S, ref)
        assert (np.diff(S, axis=1) <= 0).all()

    def test_dimension_mismatch(self):
        m = self._model([1.0, 2.0])
        with pytest.raises(DataError):
            predict(m, np.ones((3, 5)))


class TestSerialization:
    def test_round_trip_gaussian(self):
        X, resp, g = gaussian_data(37)
        model = fit_ecpc(X, resp, [g])
        back = model_from_json(model_to_json(model))
        assert np.array_equal(back.beta, model.beta)
        assert np.array_equal(back.tau_local, model.tau_local)
        assert back.tau_global == model.tau_global
        assert back.sigma2 == model.sigma2
        assert back.family == model.family
        assert back.grouping_names == model.grouping_names
        record = back.diagnostics["global_variance"]
        assert record["tau_global"] == model.tau_global
        assert len(record["log_tau_grid"]) == len(record["objective"]) == 33
        assert record["log_tau_grid"] == sorted(record["log_tau_grid"])
        assert record["on_grid_boundary"] is False and record["newton_steps"] == 0
        assert back.diagnostics == model.diagnostics
        assert back.diagnostics["moments"] == [{"route": "direct", "rank": X.shape[0]}]
        Xn = np.random.default_rng(1).standard_normal((5, X.shape[1]))
        assert np.array_equal(predict(back, Xn), predict(model, Xn))

    def test_round_trip_cox(self, monkeypatch):
        rng = np.random.default_rng(41)
        n, p = 60, 16
        X = rng.standard_normal((n, p))
        resp = ResponseFamily.cox(
            rng.exponential(1.0, n), (rng.random(n) < 0.6).astype(int)
        )
        steps = []
        fit = glm.fit_weighted_ridge

        def counted(*args, **kwargs):
            out = fit(*args, **kwargs)
            steps.append(out.iterations)
            return out

        monkeypatch.setattr(glm, "fit_weighted_ridge", counted)  # step 1's fits only
        model = fit_ecpc(X, resp, [disjoint_grouping(p, 2)])
        monkeypatch.undo()
        back = model_from_json(model_to_json(model))
        assert np.array_equal(back.baseline_times, model.baseline_times)
        assert np.array_equal(back.baseline_cumhaz, model.baseline_cumhaz)
        record = model.diagnostics["global_variance"]
        assert record["tau_global"] == model.tau_global
        grid, objective = np.array(record["log_tau_grid"]), np.array(record["objective"])
        k = int(np.isfinite(objective).sum())  # +inf past the scan's stop
        assert len(grid) == len(objective) == 33 and np.isfinite(objective[:k]).all()
        assert isinstance(record["on_grid_boundary"], bool)
        assert grid[0] <= np.log(model.tau_global) <= grid[-1]
        assert record["newton_steps"] == sum(steps) and len(steps) >= k  # the grid, Brent's
        assert model.diagnostics["initial_iterations"] >= 1
        assert model.diagnostics["moments"] == [{"route": "direct", "rank": n}]
        assert back.diagnostics == model.diagnostics

    def test_round_trip_hyperlambda_record(self, monkeypatch):
        X, resp, g = gaussian_data(37)
        # the optimum (near 5.6) lies above what three extensions of this grid reach
        with monkeypatch.context() as mp, pytest.warns(
            UserWarning, match="grid boundary after 3 extensions"
        ):
            mp.setattr(hypershrinkage, "default_lambda_grid", lambda: np.array([1e-9, 1e-8]))
            model = fit_ecpc(X, resp, [g, g], hyper=["ridge", "none"])
        ridge, untuned = model.diagnostics["hyperlambda"]
        # two points and two scored extensions; the third is not scored
        scored = [1e-9, 1e-8] + [1e-8 * 10.0**k for k in range(1, 7)]
        assert np.allclose(ridge["grid"], scored, rtol=1e-12, atol=0.0)
        assert len(ridge["mean_rss"]) == 8
        assert {k: ridge[k] for k in ("lambda", "on_grid_boundary", "n_grid_extensions")} == {
            "lambda": model.hyperlambdas[0], "on_grid_boundary": True, "n_grid_extensions": 3
        }
        assert untuned == {
            "lambda": 0.0,
            "on_grid_boundary": False,
            "n_grid_extensions": 0,
            "grid": [],
            "mean_rss": [],
        }
        back = model_from_json(model_to_json(model))
        assert back.diagnostics == model.diagnostics
        tuned = fit_ecpc(X, resp, [g]).diagnostics["hyperlambda"]
        assert not tuned[0]["on_grid_boundary"] and tuned[0]["n_grid_extensions"] == 0

    def test_round_trip_split_rss_curve(self, monkeypatch):
        # the scored candidates and their mean out-half RSS, an unconverged
        # candidate's inf included; forced and untuned sources record none
        X, resp, g = gaussian_data(37)
        top = hypershrinkage.default_lambda_grid()[-1]
        solve = hypershrinkage.solve_hyper

        def failing_at_top(systems, kind, lam, *args, **kwargs):
            if np.any(np.asarray(lam) == top):  # the batch, then top alone
                raise ConvergenceError("no convergence")
            return solve(systems, kind, lam, *args, **kwargs)

        monkeypatch.setattr(hypershrinkage, "solve_hyper", failing_at_top)
        model = fit_ecpc(X, resp, [g, g], hyper=["ridge", "none"])
        tuned, untuned = model.diagnostics["hyperlambda"]
        assert tuned["grid"] == sorted(tuned["grid"]) and top in tuned["grid"]
        assert tuned["lambda"] in tuned["grid"]
        rss = dict(zip(tuned["grid"], tuned["mean_rss"]))
        assert rss.pop(top) == np.inf and np.isfinite(list(rss.values())).all()
        assert untuned["grid"] == untuned["mean_rss"] == []
        back = model_from_json(model_to_json(model))
        assert back.diagnostics == model.diagnostics
        forced = fit_ecpc(X, resp, [g], forced_hyperlambda=2.0).diagnostics["hyperlambda"]
        assert forced[0]["grid"] == forced[0]["mean_rss"] == []

    def test_round_trip_source_weights(self):
        # the non-negative source weights and their residual, and the record
        # of a single source, which solves no system
        X, resp, g = gaussian_data(38)
        rng = np.random.default_rng(2)
        perm = rng.permutation(X.shape[1])
        other = Grouping(groups=(tuple(perm[:15]), tuple(perm[15:])), p=X.shape[1], name="r")
        model = fit_ecpc(X, resp, [g, other])
        record = model.diagnostics["source_weights"]
        assert record["w"] == list(model.w) and min(record["w"]) >= 0.0
        assert record["residual"] >= 0.0 and np.isfinite(record["residual"])
        back = model_from_json(model_to_json(model))
        assert back.diagnostics == model.diagnostics
        single = fit_ecpc(X, resp, [g]).diagnostics["source_weights"]
        assert single == {"w": [1.0], "residual": None}

    def test_rejects_other_documents(self):
        with pytest.raises(DataError):
            model_from_json('{"format": "something-else"}')

    def test_serialised_text_stable(self):
        X, resp, g = gaussian_data(43)
        model = fit_ecpc(X, resp, [g])
        assert model_to_json(model) == model_to_json(model)

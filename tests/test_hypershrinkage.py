import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecpc import (
    Grouping,
    HierTree,
    compute_moment_core,
    estimate_hyperlambda,
    solve_hierarchical_lasso,
    solve_lasso_hyper,
    solve_ridge_hyper,
)
from ecpc.hypershrinkage import (
    group_size_scaling,
    lasso_null_threshold,
)
from ecpc.mom import MomentSystem

cvxpy = pytest.importorskip("cvxpy")


def rand_system(seed, G):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((G, G)) + 2 * np.eye(G)
    b = rng.standard_normal(G)
    return MomentSystem(A=A, b=b, group_labels=tuple(str(i) for i in range(G)))


BALANCED_TREE = HierTree(
    node_group=(0, 1, 3, 4, 2, 5, 6),
    parent=(None, 0, 1, 1, 0, 4, 4),
    leaves=(2, 3, 5, 6),
)


class TestSizeScaling:
    def test_sizes(self):
        g = Grouping(groups=((0, 1, 2, 3, 4), (5, 6, 7, 8, 9, 10)), p=11)
        assert np.array_equal(group_size_scaling(g), [5.0, 6.0])

    def test_single_group(self):
        g = Grouping(groups=(tuple(range(7)),), p=7)
        assert np.array_equal(group_size_scaling(g), [7.0])

    def test_equal_sizes_cancel_in_argmin(self):
        # with equal group sizes the scaling is a scalar multiple of the
        # identity, so the minimiser location matches the unscaled problem
        sys = rand_system(0, 4)
        lam = 1.3
        out_scaled = solve_ridge_hyper(sys, lam * 3.0, np.full(4, 3.0))
        out_unit = solve_ridge_hyper(sys, lam * 3.0 / 3.0 * 3.0, np.full(4, 3.0))
        assert np.allclose(out_scaled.gamma, out_unit.gamma, atol=1e-12)


class TestRidgeHyper:
    def test_large_lambda_hits_target(self):
        sys = rand_system(1, 5)
        out = solve_ridge_hyper(sys, 1e10, np.arange(2.0, 7.0))
        assert np.abs(out.gamma - 1.0).max() < 1e-4

    def test_zero_lambda_square_invertible(self):
        sys = rand_system(2, 5)
        out = solve_ridge_hyper(sys, 0.0, np.full(5, 2.0))
        ref = np.maximum(np.linalg.solve(sys.A, sys.b), 0.0)
        assert np.allclose(out.gamma, ref, atol=1e-10)

    def test_matches_qp_oracle(self):
        sys = rand_system(3, 6)
        W = np.array([2.0, 5.0, 3.0, 7.0, 4.0, 6.0])
        lam = 2.4
        gp = cvxpy.Variable(6)
        sqw = np.sqrt(W)
        obj = cvxpy.sum_squares(sys.A @ (gp / sqw) - sys.b) + lam * cvxpy.sum_squares(
            gp - sqw
        )
        cvxpy.Problem(cvxpy.Minimize(obj)).solve()
        ref = np.maximum(gp.value / sqw, 0.0)
        out = solve_ridge_hyper(sys, lam, W)
        assert np.allclose(out.gamma, ref, atol=1e-8)

    def test_nonnegative_always(self):
        for seed in range(10):
            sys = rand_system(100 + seed, 5)
            out = solve_ridge_hyper(sys, 0.5, np.full(5, 3.0))
            assert (out.gamma >= 0).all()

    def test_rejects_negative_lambda(self):
        from ecpc import DataError

        with pytest.raises(DataError):
            solve_ridge_hyper(rand_system(4, 3), -1.0, np.ones(3))


class TestLassoHyper:
    def test_above_null_threshold_selects_nothing(self):
        sys = rand_system(5, 6)
        W = np.full(6, 4.0)
        lam_max = lasso_null_threshold(sys, W)
        out = solve_lasso_hyper(sys, lam_max * 1.0001, W)
        assert not out.selected.any()
        assert np.array_equal(out.gamma, np.zeros(6))

    def test_zero_lambda_equals_ridge_at_zero(self):
        sys = rand_system(6, 5)
        W = np.full(5, 2.0)
        assert np.allclose(
            solve_lasso_hyper(sys, 0.0, W).gamma,
            solve_ridge_hyper(sys, 0.0, W).gamma,
            atol=1e-12,
        )

    def test_first_stage_matches_proximal_oracle(self):
        sys = rand_system(7, 6)
        W = np.array([3.0, 2.0, 5.0, 4.0, 2.0, 6.0])
        lam = 0.5 * lasso_null_threshold(sys, W)
        As = sys.A / np.sqrt(W)[None, :]
        g = cvxpy.Variable(6)
        prob = cvxpy.Problem(
            cvxpy.Minimize(cvxpy.sum_squares(As @ g - sys.b) + lam * cvxpy.norm1(g))
        )
        prob.solve()
        from ecpc.glm import elastic_net_cd

        mine = elastic_net_cd(As, 1.0, sys.b, lam / 2)
        obj = lambda x: ((As @ x - sys.b) ** 2).sum() + lam * np.abs(x).sum()
        assert abs(obj(mine) - prob.value) < 1e-8

    @given(st.integers(0, 40))
    @settings(max_examples=20, deadline=None)
    def test_null_threshold_property(self, seed):
        G = 5
        sys = rand_system(1000 + seed, G)
        rng = np.random.default_rng(seed)
        W = rng.uniform(1.0, 8.0, G)
        lam_max = lasso_null_threshold(sys, W)
        out = solve_lasso_hyper(sys, lam_max * (1 + 1e-9), W)
        assert not out.selected.any()


class TestHierarchicalLasso:
    def test_large_lambda_selects_root_only(self):
        sys = rand_system(8, 7)
        out = solve_hierarchical_lasso(sys, BALANCED_TREE, 1e8, np.full(7, 3.0))
        root_group = BALANCED_TREE.node_group[BALANCED_TREE.root]
        expected = np.zeros(7, dtype=bool)
        expected[root_group] = True
        assert np.array_equal(out.selected, expected)

    def test_zero_lambda_selects_all(self):
        sys = rand_system(9, 7)
        out = solve_hierarchical_lasso(sys, BALANCED_TREE, 0.0, np.full(7, 2.0))
        assert out.selected.all()

    def test_objective_matches_convex_oracle(self):
        for seed, lam in [(10, 0.5), (11, 2.0), (12, 8.0)]:
            sys = rand_system(seed, 7)
            rng = np.random.default_rng(seed)
            W = rng.uniform(1.0, 6.0, 7)
            As = sys.A / np.sqrt(W)[None, :]
            paths = [
                [BALANCED_TREE.node_group[m] for m in BALANCED_TREE.path_to_root(node)]
                for node in range(7)
            ]
            us = [cvxpy.Variable(len(p)) for p in paths]
            gexpr = 0
            for p, u in zip(paths, us):
                M = np.zeros((7, len(p)))
                for i, gidx in enumerate(p):
                    M[gidx, i] = 1
                gexpr = gexpr + M @ u
            root = BALANCED_TREE.root
            prob = cvxpy.Problem(
                cvxpy.Minimize(
                    cvxpy.sum_squares(As @ gexpr - sys.b)
                    + lam * sum(cvxpy.norm(us[m]) for m in range(7) if m != root)
                )
            )
            prob.solve()
            out = solve_hierarchical_lasso(sys, BALANCED_TREE, lam, W)
            assert abs(out.objective - prob.value) < 1e-6

    @given(st.integers(0, 60), st.floats(0.01, 50.0))
    @settings(max_examples=25, deadline=None)
    def test_selection_always_ancestor_closed(self, seed, lam):
        sys = rand_system(2000 + seed, 7)
        out = solve_hierarchical_lasso(sys, BALANCED_TREE, lam, np.full(7, 2.0))
        selected_nodes = {
            node
            for node in range(BALANCED_TREE.n_nodes)
            if out.selected[BALANCED_TREE.node_group[node]]
        }
        for node in selected_nodes:
            for anc in BALANCED_TREE.path_to_root(node):
                assert anc in selected_nodes

    def test_tree_group_mismatch(self):
        from ecpc import DataError

        with pytest.raises(DataError):
            solve_hierarchical_lasso(rand_system(13, 5), BALANCED_TREE, 1.0, np.ones(5))


def _core_and_grouping(seed=21, n=20, p=12, G=4):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    w = np.ones(n)
    omega = np.full(p, 2.0)
    beta = rng.standard_normal(p)
    core = compute_moment_core(X, w, omega, beta)
    groups = tuple(tuple(range(g * (p // G), (g + 1) * (p // G))) for g in range(G))
    return core, Grouping(groups=groups, p=p)


class TestEstimateHyperlambda:
    def test_single_candidate_returned(self):
        core, g = _core_and_grouping()
        lam = estimate_hyperlambda(g, core, n_splits=2, seed=0, grid=np.array([3.3]))
        assert lam == 3.3

    def test_deterministic(self):
        core, g = _core_and_grouping()
        l1 = estimate_hyperlambda(g, core, n_splits=5, seed=7)
        l2 = estimate_hyperlambda(g, core, n_splits=5, seed=7)
        assert l1 == l2

    def test_large_lambda_rss_limit(self):
        # as the strength grows the in-part solution pins to the target 1,
        # so the out-part score converges to ||A_out 1 - b_out||^2
        core, g = _core_and_grouping()
        from ecpc.codata import split_groups_random
        from ecpc.mom import build_split_systems

        rss_direct = []
        for s in range(3):
            split = split_groups_random(g, seed=100 + s)
            _, sys_out = build_split_systems(core, g, split)
            r = sys_out.A @ np.ones(4) - sys_out.b
            rss_direct.append(r @ r)
        expected = np.mean(rss_direct)

        from ecpc.hypershrinkage import HyperPenalty, solve_hyper
        from ecpc.mom import build_split_systems as bss

        scores = []
        for s in range(3):
            split = split_groups_random(g, seed=100 + s)
            sys_in, sys_out = bss(core, g, split)
            sizes_in = np.array([len(p_) for p_ in split.in_groups], dtype=float)
            gw = solve_hyper(sys_in, HyperPenalty(kind="ridge", lam=1e12), sizes_in)
            r = sys_out.A @ gw.gamma - sys_out.b
            scores.append(r @ r)
        assert np.isclose(np.mean(scores), expected, rtol=1e-4)

    def test_none_kind_returns_zero(self):
        core, g = _core_and_grouping()
        assert estimate_hyperlambda(g, core, penalty_kind="none") == 0.0

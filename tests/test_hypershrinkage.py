import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecpc import (
    ConvergenceError,
    Grouping,
    HierTree,
    compute_moment_core,
    estimate_hyperlambda,
    solve_hierarchical_lasso,
    solve_lasso_hyper,
    solve_ridge_hyper,
)
from ecpc import hypershrinkage
from ecpc.codata import build_hierarchy_from_continuous
from ecpc.glm import elastic_net_cd
from ecpc.hypershrinkage import (
    KINDS,
    _fista_latents,
    _latent_layout,
    lasso_null_threshold,
    solve_hyper,
)
from ecpc.mom import MomentSystem


def rand_system(seed, G):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((G, G)) + 2 * np.eye(G)
    b = rng.standard_normal(G)
    return MomentSystem(A=A, b=b, group_labels=tuple(str(i) for i in range(G)))


BALANCED_TREE = HierTree(
    node_group=(0, 1, 3, 4, 2, 5, 6),
    parent=(None, 0, 1, 1, 0, 4, 4),
)


def hier_case(seed, G):
    """A random system for BALANCED_TREE; with G = 8, group 7 is outside the tree."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((G, G)) + 2 * np.eye(G)
    b = rng.standard_normal(G)
    W = rng.uniform(1.0, 6.0, G)
    return MomentSystem(A=A, b=b, group_labels=tuple(map(str, range(G)))), W


def ridge_closed_form(A, b, lam, W):
    """The ridge hypershrinkage weights at ``lam > 0``: its normal equations, solved."""
    sqw = np.sqrt(W)
    As = A / sqw
    g_scaled = np.linalg.solve(As.T @ As + lam * np.eye(len(W)), As.T @ b + lam * sqw)
    return np.maximum(g_scaled / sqw, 0.0)


def loop_reference(sys, W, lam):
    """The per-latent FISTA loop the batched solver replaced, on BALANCED_TREE.

    Returns the selected groups, the refit weights and the objective.
    """
    G = len(W)
    As = sys.A / np.sqrt(W)
    tree = BALANCED_TREE
    paths = [[tree.node_group[m] for m in tree.path_to_root(node)] for node in range(7)]
    paths += [[g] for g in range(7, G)]
    penalised = [m for m in range(7) if m != tree.root]
    offsets = np.concatenate([[0], np.cumsum([len(path) for path in paths])])
    segments = [slice(offsets[m], offsets[m + 1]) for m in range(len(paths))]

    def combine(u):
        g = np.zeros(G)
        for path, seg in zip(paths, segments):
            g[path] += u[seg]
        return g

    def objective(u):
        pen = sum(np.linalg.norm(u[segments[m]]) for m in penalised)
        return float(((As @ combine(u) - sys.b) ** 2).sum() + lam * pen)

    L = 2.0 * np.linalg.norm(np.hstack([As[:, path] for path in paths]), 2) ** 2
    u = np.zeros(offsets[-1])
    z, t_mom, prev_obj = u.copy(), 1.0, objective(u)
    for _ in range(20_000):
        grad_g = 2.0 * As.T @ (As @ combine(z) - sys.b)
        u_new = z - np.concatenate([grad_g[path] for path in paths]) / L
        for m in penalised:
            nrm = np.linalg.norm(u_new[segments[m]])
            u_new[segments[m]] *= max(0.0, 1.0 - lam / (L * nrm)) if nrm > 0 else 0.0
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom**2))
        z = u_new + ((t_mom - 1.0) / t_new) * (u_new - u)
        u, t_mom = u_new, t_new
        obj = objective(u)
        if abs(prev_obj - obj) < 1e-12 * (1.0 + abs(obj)):
            break
        prev_obj = obj
    selected = np.zeros(G, dtype=bool)
    for m, (path, seg) in enumerate(zip(paths, segments)):
        if m not in penalised or np.linalg.norm(u[seg]) > 1e-8 * (1.0 + np.abs(sys.b).max()):
            selected[path] = True
    gamma = np.zeros(G)
    gamma[selected] = ridge_closed_form(sys.A[:, selected], sys.b, lam, W[selected])
    return selected, gamma, objective(u)


def null_fit(sys, W):
    """The BALANCED_TREE optimum at or above the null threshold, solved directly.

    Every penalised latent is zero; the root's (group 0) and those of the
    groups outside the tree are the least-squares fit.  Returns the stacked
    latents, the latent design B and the objective ``||B u - b||^2``.
    """
    G = len(W)
    flat, sizes, penalised = _latent_layout(BALANCED_TREE, G)
    B = (sys.A / np.sqrt(W))[:, flat]
    free = np.repeat(~penalised, sizes)
    u = np.zeros(len(flat))
    u[free] = np.linalg.lstsq(B[:, free], sys.b, rcond=None)[0]
    r = B @ u - sys.b
    return u, B, float(r @ r)


def solve_capped(systems, Ws, lam, max_iter):
    """Batch solve with FISTA capped at ``max_iter`` iterations; returns the fits
    and whether it warned."""
    fista = hypershrinkage._fista_latents
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings(record=True) as caught:
        mp.setattr(hypershrinkage, "_fista_latents", lambda *args: fista(*args, max_iter, 1e-12))
        warnings.simplefilter("always")
        fits = solve_hyper(systems, "hierarchical_lasso", lam, Ws, tree=BALANCED_TREE)
    return fits, any("iteration cap" in str(w.message) for w in caught)


class TestSizeScaling:
    def test_sizes(self):
        g = Grouping(groups=((0, 1, 2, 3, 4), (5, 6, 7, 8, 9, 10)), p=11)
        assert np.array_equal(g.sizes, [5.0, 6.0])

    def test_single_group(self):
        g = Grouping(groups=(tuple(range(7)),), p=7)
        assert np.array_equal(g.sizes, [7.0])

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
        cvxpy = pytest.importorskip("cvxpy")
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

    @given(st.integers(0, 200), st.sampled_from([0.0, 1e-3, 0.7, 30.0]))
    @settings(max_examples=30, deadline=None)
    def test_matches_closed_form(self, seed, lam):
        rng = np.random.default_rng(seed)
        G, m = 5, 8
        sys = MomentSystem(
            A=rng.standard_normal((m, G)), b=rng.standard_normal(m), group_labels=("",) * G
        )
        W = rng.uniform(1.0, 8.0, G)
        sqw = np.sqrt(W)
        As = sys.A / sqw
        if lam == 0:
            g_scaled = np.linalg.lstsq(As, sys.b, rcond=None)[0]
        else:
            g_scaled = np.linalg.inv(As.T @ As + lam * np.eye(G)) @ (
                As.T @ sys.b + lam * sqw
            )
        ref = np.maximum(0.0, g_scaled / sqw)
        out = solve_ridge_hyper(sys, lam, W)
        assert np.allclose(out.gamma, ref, rtol=1e-10, atol=1e-12)
        assert np.array_equal(out.selected, ref > 0)

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
        cvxpy = pytest.importorskip("cvxpy")
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
        cvxpy = pytest.importorskip("cvxpy")
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

    @given(st.integers(0, 39), st.sampled_from([7, 8]), st.sampled_from([0.05, 0.5, 2.0, 8.0]))
    @settings(max_examples=40, deadline=None)
    def test_block_kkt_conditions(self, seed, G, lam):
        # minimiser of ||B u - b||^2 + lam * sum_pen ||u_m||: with g = 2 B'(B u - b),
        # g_m = -lam u_m / ||u_m|| on non-zero penalised latents, ||g_m|| <= lam on
        # zero ones, and g_m = 0 on unpenalised ones (root, groups outside the tree)
        sys, W = hier_case(seed, G)
        flat, sizes, penalised = _latent_layout(BALANCED_TREE, G)
        tree = BALANCED_TREE
        paths = [[tree.node_group[m] for m in tree.path_to_root(node)] for node in range(7)]
        paths += [[g] for g in range(7, G)]
        assert np.array_equal(flat, np.concatenate(paths))
        assert np.array_equal(sizes, [len(path) for path in paths])
        expected = [m != tree.root and m < 7 for m in range(len(paths))]
        assert np.array_equal(penalised, expected)
        B = (sys.A / np.sqrt(W))[:, flat]
        u, obj = _fista_latents(B[None], sys.b[None], sizes, penalised, lam, 20_000, 1e-12)
        u = u[0]
        grad = 2.0 * B.T @ (B @ u - sys.b)
        scale = lam + np.abs(2.0 * B.T @ sys.b).max()
        bounds = np.cumsum(sizes)[:-1]
        for g_m, u_m, pen in zip(np.split(grad, bounds), np.split(u, bounds), penalised):
            nrm = np.linalg.norm(u_m)
            if not pen:
                residual = np.linalg.norm(g_m)
            elif nrm > 0:
                residual = np.linalg.norm(g_m + lam * u_m / nrm)
            else:
                residual = max(0.0, np.linalg.norm(g_m) - lam)
            assert residual <= 1e-3 * scale
        norms = np.array([np.linalg.norm(u_m) for u_m in np.split(u, bounds)])
        assert np.isclose(
            obj[0], ((B @ u - sys.b) ** 2).sum() + lam * norms[penalised].sum(), rtol=1e-12
        )
        out = solve_hierarchical_lasso(sys, BALANCED_TREE, lam, W)
        # at or above the null threshold the solver reports the exact optimum,
        # below it the FISTA objective
        if lam >= lasso_null_threshold(sys, W, BALANCED_TREE):
            assert abs(out.objective - null_fit(sys, W)[2]) <= 1e-12 * obj[0]
        else:
            assert abs(out.objective - obj[0]) <= 1e-12 * obj[0]
        kept = ~penalised | (norms > 1e-8 * (1.0 + np.abs(sys.b).max()))
        in_kept = np.isin(np.arange(G), flat[np.repeat(kept, sizes)])
        assert np.array_equal(out.selected, in_kept)

    @given(st.integers(0, 39), st.sampled_from([7, 8]), st.sampled_from([0.05, 0.5, 2.0, 8.0]))
    @settings(max_examples=10, deadline=None)
    def test_matches_loop_reference(self, seed, G, lam):
        # same iteration, summed in another order: equal up to rounding
        sys, W = hier_case(seed, G)
        selected, gamma, objective = loop_reference(sys, W, lam)
        out = solve_hierarchical_lasso(sys, BALANCED_TREE, lam, W)
        assert np.array_equal(out.selected, selected)
        assert np.abs(out.gamma - gamma).max() <= 1e-12
        if lam >= lasso_null_threshold(sys, W, BALANCED_TREE):
            objective = null_fit(sys, W)[2]  # exact, where FISTA stops near it
        assert abs(out.objective - objective) <= 1e-12

    @given(
        st.lists(st.integers(0, 39), min_size=6, max_size=6, unique=True),
        st.sampled_from([7, 8]),
        st.sampled_from([0.05, 0.5, 2.0, 8.0]),
    )
    @settings(max_examples=6, deadline=None)
    def test_objective_matches_long_run(self, seeds, G, lam):
        cases = [hier_case(seed, G) for seed in seeds]
        systems, Ws = [c[0] for c in cases], [c[1] for c in cases]
        fits = solve_hyper(systems, "hierarchical_lasso", lam, Ws, tree=BALANCED_TREE)
        # the reference is FISTA itself on every system, screened ones included
        flat, sizes, penalised = _latent_layout(BALANCED_TREE, G)
        B = np.stack([(s.A / np.sqrt(W))[:, flat] for s, W in zip(systems, Ws)])
        b = np.stack([s.b for s in systems])
        with pytest.warns(UserWarning, match="iteration cap"):
            _, long = _fista_latents(B, b, sizes, penalised, lam, 10_000, 0.0)
        for fit, ref in zip(fits, long):
            assert abs(fit.objective - ref) <= 1e-5 * (1.0 + abs(ref))

    @pytest.mark.parametrize("G", [7, 8])
    def test_batch_equals_alone(self, G):
        lam = 2.0
        cases = [hier_case(seed, G) for seed in range(6)]
        # one system loses an equation, so the stack is padded
        sys0, W0 = cases[0]
        sys0 = MomentSystem(A=sys0.A[:-1], b=sys0.b[:-1], group_labels=sys0.group_labels)
        cases[0] = (sys0, W0)
        systems, Ws = [c[0] for c in cases], [c[1] for c in cases]
        # the problems stop on different iterations: some within 300, some later
        warned = [solve_capped([s], [W], lam, 300)[1] for s, W in cases]
        assert any(warned) and not all(warned)

        batch = solve_hyper(systems, "hierarchical_lasso", lam, Ws, tree=BALANCED_TREE)
        for (sys, W), got in zip(cases, batch):
            alone = solve_hierarchical_lasso(sys, BALANCED_TREE, lam, W)
            assert np.array_equal(got.selected, alone.selected)
            assert np.abs(got.gamma - alone.gamma).max() <= 1e-12
            assert abs(got.objective - alone.objective) <= 1e-12

        capped, batch_warned = solve_capped(systems, Ws, lam, 300)
        assert batch_warned
        for (sys, W), got in zip(cases, capped):
            (alone,), _ = solve_capped([sys], [W], lam, 300)
            assert np.array_equal(got.selected, alone.selected)
            assert np.abs(got.gamma - alone.gamma).max() <= 1e-12
            assert abs(got.objective - alone.objective) <= 1e-12

    def test_iteration_cap_warns(self):
        sys, W = hier_case(0, 7)
        assert solve_capped([sys], [W], 0.5, 5)[1]


def ridge_weights(sys, selected, lam, W):
    """The ridge refit of the selected groups at ``lam``, zero elsewhere."""
    gamma = np.zeros(len(W))
    if selected.any():
        gamma[selected] = ridge_closed_form(sys.A[:, selected], sys.b, lam, W[selected])
    return gamma


def without_last_equation(sys):
    return MomentSystem(A=sys.A[:-1], b=sys.b[:-1], group_labels=sys.group_labels)


class TestNullScreening:
    """At and above the null threshold the sparse kinds answer in closed form."""

    FACTORS = (0.999, 1.0, 1.001, 10.0)

    @pytest.mark.parametrize("factor", FACTORS)
    @pytest.mark.parametrize("G,drop", [(7, 0), (8, 0), (8, 1)])
    def test_lasso_matches_coordinate_descent(self, factor, G, drop):
        for seed in range(4):
            sys, W = hier_case(100 + seed, G)
            if drop:
                sys = without_last_equation(sys)
            As = sys.A / np.sqrt(W)
            lam = factor * lasso_null_threshold(sys, W)
            out = solve_lasso_hyper(sys, lam, W)
            selected = elastic_net_cd(As, 1.0, sys.b, lam / 2) != 0
            assert np.array_equal(out.selected, selected)
            assert np.abs(out.gamma - ridge_weights(sys, selected, lam, W)).max() <= 1e-12
            # KKT of the empty selection: |2 As' b| <= lam on every group,
            # exactly from the threshold up
            assert (np.abs(2.0 * As.T @ sys.b).max() <= lam) == (factor >= 1.0)
            assert selected.any() == (factor < 1.0)

    @pytest.mark.parametrize("factor", FACTORS)
    @pytest.mark.parametrize("G,drop", [(7, 0), (8, 0), (8, 1)])
    def test_hierarchical_matches_long_fista(self, factor, G, drop):
        flat, sizes, penalised = _latent_layout(BALANCED_TREE, G)
        bounds = np.cumsum(sizes)[:-1]
        sys, W = hier_case(200, G)
        if drop:  # padded with a zero row in the stack below
            sys = without_last_equation(sys)
        lam = factor * lasso_null_threshold(sys, W, BALANCED_TREE)
        partner = hier_case(300, G)
        out = solve_hyper(
            [sys, partner[0]], "hierarchical_lasso", lam, [W, partner[1]], tree=BALANCED_TREE
        )[0]

        B = (sys.A / np.sqrt(W))[:, flat]
        with pytest.warns(UserWarning, match="iteration cap"):
            u, _ = _fista_latents(B[None], sys.b[None], sizes, penalised, lam, 20_000, 0.0)
        norms = np.array([np.linalg.norm(u_m) for u_m in np.split(u[0], bounds)])
        kept = ~penalised | (norms > 1e-8 * (1.0 + np.abs(sys.b).max()))
        selected = np.isin(np.arange(G), flat[np.repeat(kept, sizes)])
        assert np.array_equal(out.selected, selected)
        assert np.abs(out.gamma - ridge_weights(sys, selected, lam, W)).max() <= 1e-12

        # block KKT of the null solution: zero gradient on the unpenalised
        # latents, ||g_m|| <= lam on the penalised ones from the threshold up
        u0, B, objective = null_fit(sys, W)
        grad = np.split(2.0 * B.T @ (B @ u0 - sys.b), bounds)
        scale = np.abs(2.0 * B.T @ sys.b).max()
        free = [np.linalg.norm(g) for g, pen in zip(grad, penalised) if not pen]
        worst = max(np.linalg.norm(g) for g, pen in zip(grad, penalised) if pen)
        assert max(free) <= 1e-12 * scale
        if factor >= 1.0:
            assert worst <= lam + 1e-12 * scale
            assert abs(out.objective - objective) <= 1e-12 * objective
        else:
            assert worst > lam

    def test_no_iterative_solver_above_threshold(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("iterative solver run above the null threshold")

        monkeypatch.setattr(hypershrinkage, "_fista_latents", fail)
        monkeypatch.setattr(hypershrinkage, "elastic_net_cd", fail)
        cases = [hier_case(seed, 8) for seed in range(5)]
        systems = [without_last_equation(cases[0][0])] + [c[0] for c in cases[1:]]
        Ws = [c[1] for c in cases]
        null_selection = np.isin(np.arange(8), [BALANCED_TREE.node_group[0], 7])
        for kind, tree, expected in [
            ("lasso", None, np.zeros(8, dtype=bool)),
            ("hierarchical_lasso", BALANCED_TREE, null_selection),
        ]:
            top = max(lasso_null_threshold(s, W, tree) for s, W in zip(systems, Ws))
            for lam in (top, 10.0 * top):
                fits = solve_hyper(systems, kind, lam, Ws, tree=tree)
                for fit in fits:
                    assert np.array_equal(fit.selected, expected)

    @pytest.mark.parametrize("G", [7, 8])
    def test_batch_equals_alone_mixed(self, G):
        # some systems are screened, the rest share one FISTA stack
        cases = [hier_case(seed, G) for seed in range(8)]
        cases[0] = (without_last_equation(cases[0][0]), cases[0][1])
        systems, Ws = [c[0] for c in cases], [c[1] for c in cases]
        thresholds = [lasso_null_threshold(s, W, BALANCED_TREE) for s, W in zip(systems, Ws)]
        lam = float(np.median(thresholds))
        screened = [lam >= t for t in thresholds]
        assert any(screened) and not all(screened)
        batch = solve_hyper(systems, "hierarchical_lasso", lam, Ws, tree=BALANCED_TREE)
        for (sys, W), got, null in zip(cases, batch, screened):
            alone = solve_hierarchical_lasso(sys, BALANCED_TREE, lam, W)
            assert np.array_equal(got.selected, alone.selected)
            assert np.abs(got.gamma - alone.gamma).max() <= 1e-12
            assert abs(got.objective - alone.objective) <= 1e-12
            if null:
                assert abs(got.objective - null_fit(sys, W)[2]) <= 1e-12 * got.objective

    @pytest.mark.parametrize("G", [7, 8])
    @pytest.mark.parametrize("where", ["below all", "median"])
    def test_lasso_batch_matches_per_system_refits(self, G, where):
        # the lasso's refits are stacked per selection pattern, the systems
        # with fewer equations padded; each must equal its own ridge refit
        cases = [hier_case(400 + seed, G) for seed in range(8)]
        extra, W0 = hier_case(399, G + 1)  # one equation more than the others
        cases[0] = (
            MomentSystem(A=extra.A[:, :G], b=extra.b, group_labels=extra.group_labels),
            W0[:G],
        )
        systems, Ws = [c[0] for c in cases], [c[1] for c in cases]
        thresholds = [lasso_null_threshold(s, W) for s, W in zip(systems, Ws)]
        lam = 1e-6 * min(thresholds) if where == "below all" else float(np.median(thresholds))
        batch = solve_hyper(systems, "lasso", lam, Ws)
        patterns = set()
        for (sys, W), got in zip(cases, batch):
            selected = elastic_net_cd(sys.A / np.sqrt(W), 1.0, sys.b, lam / 2) != 0
            if lam >= lasso_null_threshold(sys, W):
                selected[:] = False
            assert np.array_equal(got.selected, selected)
            ref = ridge_weights(sys, selected, lam, W)
            assert np.abs(got.gamma - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())
            patterns.add(selected.tobytes())
        if where == "below all":  # one stack of eight, the padded system in it
            assert patterns == {np.ones(G, dtype=bool).tobytes()}
        else:  # screened systems and refits side by side
            assert np.zeros(G, dtype=bool).tobytes() in patterns and len(patterns) > 1


class TestDispatch:
    """solve_hyper: least squares at zero strength, one stacked ridge refit above it."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("m", [5, 8, 12])
    def test_zero_strength_is_min_norm_least_squares(self, kind, m):
        # every kind at lam = 0 (and kind none at any strength) is the
        # minimum-norm least-squares fit of the size-scaled system, truncated
        # at 0; m = 5 equations leave the 8 groups rank deficient
        rng = np.random.default_rng(m)
        systems = [
            MomentSystem(
                A=rng.standard_normal((m, 8)), b=rng.standard_normal(m), group_labels=("",) * 8
            )
            for _ in range(5)
        ]
        Ws = [rng.uniform(1.0, 6.0, 8) for _ in systems]
        for lam in (0.0, 2.0) if kind == "none" else (0.0,):
            fits = solve_hyper(systems, kind, lam, Ws, tree=BALANCED_TREE)
            for sys, W, fit in zip(systems, Ws, fits):
                sqw = np.sqrt(W)
                ref = np.maximum(np.linalg.lstsq(sys.A / sqw, sys.b, rcond=None)[0] / sqw, 0.0)
                assert np.allclose(fit.gamma, ref, rtol=1e-12, atol=0.0)
                # the hierarchical lasso penalises no latent at zero strength
                keep_all = kind == "hierarchical_lasso"
                assert np.array_equal(fit.selected, np.full(8, True) if keep_all else ref > 0)
                assert fit.objective is None

    @pytest.mark.parametrize("kind", ["ridge", "none"])
    @pytest.mark.parametrize("lam", [1e-7, 0.7, 30.0, 1e7])
    def test_batch_equals_alone(self, kind, lam):
        cases = [hier_case(500 + seed, 8) for seed in range(6)]
        systems, Ws = [c[0] for c in cases], [c[1] for c in cases]
        batch = solve_hyper(systems, kind, lam, Ws)
        for (sys, W), got in zip(cases, batch):
            (alone,) = solve_hyper([sys], kind, lam, [W])
            assert np.array_equal(got.gamma, alone.gamma)
            assert np.array_equal(got.selected, alone.gamma > 0)
            if kind == "ridge":
                ref = ridge_closed_form(sys.A, sys.b, lam, W)
                assert np.allclose(got.gamma, ref, rtol=1e-10, atol=1e-12)

    def test_every_kind_refits_with_one_stacked_ridge_solve(self, monkeypatch):
        calls = []
        refits = hypershrinkage._ridge_refits

        def counted(systems, selections, lam, W_gammas):
            calls.append(len(systems))
            return refits(systems, selections, lam, W_gammas)

        monkeypatch.setattr(hypershrinkage, "_ridge_refits", counted)
        cases = [hier_case(600 + seed, 8) for seed in range(4)]
        systems, Ws = [c[0] for c in cases], [c[1] for c in cases]
        for kind in KINDS:
            calls.clear()
            solve_hyper(systems, kind, 0.5, Ws, tree=BALANCED_TREE)
            assert calls == ([] if kind == "none" else [4])
            calls.clear()
            solve_hyper(systems, kind, 0.0, Ws, tree=BALANCED_TREE)
            assert calls == []

    @pytest.mark.parametrize("kind", KINDS)
    def test_batch_equals_one_call_per_strength(self, kind):
        # one call with a strength per system, zeros among them, gives each
        # system exactly what one call per strength gives it: screened and
        # solved systems, coordinate descent and FISTA alike
        cases = [hier_case(700 + seed, 8) for seed in range(12)]
        systems, Ws = [c[0] for c in cases], [c[1] for c in cases]
        lams = np.array([0.0, 0.05, 0.5, 2.0, 8.0, 1e3] * 2)
        batch = solve_hyper(systems, kind, lams, Ws, tree=BALANCED_TREE)
        for lam in np.unique(lams):
            idx = np.flatnonzero(lams == lam)
            alone = solve_hyper(
                [systems[i] for i in idx], kind, lam, [Ws[i] for i in idx], tree=BALANCED_TREE
            )
            for i, fit in zip(idx, alone):
                assert np.array_equal(batch[i].gamma, fit.gamma)
                assert np.array_equal(batch[i].selected, fit.selected)
                assert batch[i].objective == fit.objective
                assert (fit.objective is None) == (kind != "hierarchical_lasso" or lam == 0)

    def test_rejects_unknown_kind_and_negative_strength(self):
        from ecpc import DataError

        sys, W = hier_case(0, 8)
        with pytest.raises(DataError, match="unknown hyperpenalty kind"):
            solve_hyper([sys], "group_lasso", 1.0, [W])
        with pytest.raises(DataError, match="non-negative"):
            solve_hyper([sys], "lasso", -1.0, [W])
        with pytest.raises(DataError, match="non-negative"):
            solve_hyper([sys, sys], "ridge", [1.0, np.nan], [W, W])
        with pytest.raises(DataError, match="one hyperpenalty strength per system"):
            solve_hyper([sys, sys], "ridge", [1.0, 2.0, 3.0], [W, W])
        with pytest.raises(DataError, match="requires a hierarchy"):
            solve_hyper([sys], "hierarchical_lasso", 1.0, [W])


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
        choice = estimate_hyperlambda(g, core, n_splits=2, seed=0, grid=np.array([3.3]))
        assert choice.lam == 3.3

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

        from ecpc.mom import build_split_systems as bss

        scores = []
        for s in range(3):
            split = split_groups_random(g, seed=100 + s)
            sys_in, sys_out = bss(core, g, split)
            sizes_in = np.array([len(p_) for p_ in split.in_groups], dtype=float)
            (gw,) = solve_hyper([sys_in], "ridge", 1e12, [sizes_in])
            r = sys_out.A @ gw.gamma - sys_out.b
            scores.append(r @ r)
        assert np.isclose(np.mean(scores), expected, rtol=1e-4)

    def test_grid_boundary_recorded_and_warned(self):
        core, g = _core_and_grouping()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inside = estimate_hyperlambda(g, core, n_splits=3)
            once = estimate_hyperlambda(g, core, n_splits=3, grid=[1e-3, 1e-2, 1e-1])
        assert not inside.on_grid_boundary and inside.n_grid_extensions == 0
        assert not once.on_grid_boundary and once.n_grid_extensions == 1
        # the optimum lies far below this grid: three extensions do not reach it
        with pytest.warns(UserWarning, match="grid boundary"):
            edge = estimate_hyperlambda(g, core, n_splits=3, grid=np.array([1e6, 1e7]))
        assert edge.on_grid_boundary and edge.n_grid_extensions == 3

    def test_none_kind_returns_zero(self):
        core, g = _core_and_grouping()
        assert estimate_hyperlambda(g, core, penalty_kind="none").lam == 0.0

    @pytest.mark.parametrize("grid", [None, [1e6, 1e7]])
    def test_one_solve_per_batch_of_candidates(self, grid, monkeypatch):
        # the grid, then each extension, is one solve_hyper call on the
        # in-systems of every split, repeated once per new candidate
        core, g = _core_and_grouping()
        calls = []
        solve = hypershrinkage.solve_hyper

        def counted(systems, kind, lam, *args, **kwargs):
            calls.append(np.unique(lam).tolist())
            assert len(systems) == 3 * len(calls[-1])
            return solve(systems, kind, lam, *args, **kwargs)

        monkeypatch.setattr(hypershrinkage, "solve_hyper", counted)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a grid-boundary end
            choice = estimate_hyperlambda(g, core, n_splits=3, grid=grid)
        assert len(calls) == min(choice.n_grid_extensions + 1, 3)
        assert sorted(sum(calls, [])) == list(choice.grid)


def _codata_hier_problem(seed=5, n=60, p=60):
    """A small problem shaped like the codata-hier benchmark workload.

    A hierarchy from a noisy annotation of |beta| (two covariates without
    one, so one group lies outside the tree) and a random partition, on the
    moment core of a ridge fit.
    """
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    beta = rng.standard_normal(p)
    y = X @ beta + rng.standard_normal(n)
    annotation = np.abs(beta) + rng.normal(0.0, 0.1, p)
    annotation[:2] = np.nan
    hier, _ = build_hierarchy_from_continuous(annotation, min_group_size=12)
    part = Grouping(groups=tuple(map(tuple, np.array_split(rng.permutation(p), 6))), p=p)
    omega = np.full(p, 1.0)
    beta_hat = np.linalg.solve(X.T @ X + np.diag(omega), X.T @ y)
    return compute_moment_core(X, np.ones(n), omega, beta_hat), hier, part


class TestSearchScreening:
    def test_a_failing_candidate_alone_scores_inf(self, monkeypatch):
        # coordinate descent capped at one strength: that candidate scores
        # inf, and every other keeps the score of the unpatched search
        core, _, part = _codata_hier_problem()
        cd = hypershrinkage.elastic_net_cd
        ran = set()

        def recorded(As, w, b, lam1):
            ran.add(2.0 * lam1)
            return cd(As, w, b, lam1)

        monkeypatch.setattr(hypershrinkage, "elastic_net_cd", recorded)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a grid-boundary end
            shipped = estimate_hyperlambda(part, core, "lasso", 5)
        target = max(ran - {shipped.lam})

        def capped(As, w, b, lam1):
            if 2.0 * lam1 == target:
                raise ConvergenceError("coordinate descent did not converge")
            return cd(As, w, b, lam1)

        monkeypatch.setattr(hypershrinkage, "elastic_net_cd", capped)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            failed = estimate_hyperlambda(part, core, "lasso", 5)
        k = shipped.grid.index(target)
        assert failed.grid == shipped.grid and failed.lam == shipped.lam
        assert failed.mean_rss[k] == np.inf and np.isfinite(shipped.mean_rss[k])
        assert failed.mean_rss[:k] + failed.mean_rss[k + 1 :] == (
            shipped.mean_rss[:k] + shipped.mean_rss[k + 1 :]
        )

    def test_same_choice_without_screening(self, monkeypatch):
        # screening may change how a candidate is solved, never its score
        core, hier, part = _codata_hier_problem()
        fista_rows = []
        fista = hypershrinkage._fista_latents

        def counted(B, *args):
            fista_rows.append(len(B))
            return fista(B, *args)

        def search():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # a grid-boundary end
                return [
                    estimate_hyperlambda(hier, core, "hierarchical_lasso", 5),
                    estimate_hyperlambda(part, core, "lasso", 5),
                ]

        monkeypatch.setattr(hypershrinkage, "_fista_latents", counted)
        shipped = search()
        screened_rows = sum(fista_rows)
        monkeypatch.setattr(hypershrinkage, "lasso_null_threshold", lambda *args: np.inf)
        monkeypatch.setattr(
            hypershrinkage, "_null_fits", lambda B, b, *args: (np.full(len(B), np.inf), b)
        )
        unscreened = search()
        assert shipped == unscreened
        assert sum(fista_rows) - screened_rows > screened_rows  # most were screened
        for choice in shipped:
            assert len(choice.grid) == len(choice.mean_rss) > 1
            assert list(choice.grid) == sorted(choice.grid)
            assert choice.lam in choice.grid or choice.on_grid_boundary

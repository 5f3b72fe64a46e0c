import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecpc import (
    Grouping,
    MomentCore,
    ResponseFamily,
    build_grouping_weight_system,
    build_mean_system,
    build_split_systems,
    build_variance_system,
    compute_moment_core,
    fit_ecpc,
    split_groups_random,
)
from ecpc import DataError, estimator, glm, mom
from ecpc.codata import GroupSplit


def naive_core(X, w, omega):
    M = (X.T * w) @ X + np.diag(omega)
    Minv = np.linalg.inv(M)
    C = Minv @ ((X.T * w) @ X)
    v = np.diag(Minv @ (X.T * w) @ X @ Minv)
    return C, v


def naive_variance_A(C, Z, groups):
    G = len(groups)
    A = np.zeros((G, Z.shape[1]))
    for g, members in enumerate(groups):
        for k in members:
            A[g] += (C[k, :] ** 2) @ Z
        A[g] /= len(members)
    return A


def rand_instance(seed, n, p, unpen=()):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    w = rng.uniform(0.5, 2.0, n)
    omega = rng.uniform(0.3, 3.0, p)
    for j in unpen:
        omega[j] = 0.0
    beta = rng.standard_normal(p)
    return X, w, omega, beta


class TestMomentCore:
    def test_orthonormal_uniform(self):
        rng = np.random.default_rng(0)
        Q, _ = np.linalg.qr(rng.standard_normal((10, 4)))
        lam = 1.5
        core = compute_moment_core(Q, np.ones(10), np.full(4, lam), np.zeros(4))
        assert np.allclose(core.C, np.eye(4) / (1 + lam), atol=1e-10)
        assert np.allclose(core.v, 1.0 / (1 + lam) ** 2, atol=1e-10)

    def test_matches_naive_inversion(self):
        X, w, omega, beta = rand_instance(1, 8, 5)
        C_ref, v_ref = naive_core(X, w, omega)
        core = compute_moment_core(X, w, omega, beta)
        assert np.allclose(core.C, C_ref, atol=1e-8)
        assert np.allclose(core.v, v_ref, atol=1e-8)

    def test_unpenalized_column_zero_offdiagonal(self):
        X, w, omega, beta = rand_instance(2, 10, 6, unpen=(4,))
        core = compute_moment_core(X, w, omega, beta)
        col = core.C[:, 4].copy()
        col[4] = 0.0
        assert np.abs(col).max() < 1e-12

    @pytest.mark.parametrize("n,p,unpen", [(6, 10, ()), (6, 12, (0, 5))])
    def test_factor_path_matches_naive(self, n, p, unpen):
        X, w, omega, beta = rand_instance(3, n, p, unpen=unpen)
        C_ref, v_ref = naive_core(X, w, omega)
        core = compute_moment_core(X, w, omega, beta)
        assert np.allclose(core.C, C_ref, atol=1e-8)
        assert np.allclose(core.v, v_ref, atol=1e-8)

    @given(
        st.integers(0, 10_000),
        st.integers(8, 14),
        st.sampled_from(["p<n", "p=n", "p=n+1", "p=n+2", "p>n"]),
        st.integers(0, 2),
        st.integers(0, 2),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_core_over_shapes(self, seed, n, shape, n_unpen, n_zero):
        # a dense p x p solve with at most n penalised columns, the fit's row
        # space with more; also at exact-zero weights (single-event cox
        # moment weights)
        p = {"p<n": n - 2, "p=n": n, "p=n+1": n + 1, "p=n+2": n + 2}.get(shape, 2 * n + 3)
        X, w, omega, beta = rand_instance(seed, n, p, unpen=range(n_unpen))
        w[:n_zero] = 0.0
        C_ref, v_ref = naive_core(X, w, omega)
        with pytest.MonkeyPatch.context() as mp:
            # several row blocks per pass over C
            mp.setattr(mom, "ROW_BLOCK", 3)
            core = compute_moment_core(X, w, omega, beta)
            blocks = list(core.iter_row_blocks())
        assert len(blocks) > 1
        pen = core.pen_idx
        Y_ref = np.linalg.solve((X.T * w) @ X + np.diag(omega), X.T * np.sqrt(w))
        assert np.abs(core._Y - Y_ref).max() <= 1e-8 * np.abs(Y_ref).max()
        assert np.abs(core.C - C_ref).max() <= 1e-8
        assert np.abs(core.v - v_ref).max() <= 1e-8
        C_pp = np.vstack([rows for _, rows in blocks])
        assert np.abs(C_pp - C_ref[np.ix_(pen, pen)]).max() <= 1e-8

    @pytest.mark.parametrize("n,p,unpen", [(10, 6, ()), (10, 10, (0,)), (6, 40, ()), (6, 40, (0, 3))])
    def test_factor_is_c_contiguous(self, n, p, unpen):
        # the member-set Grams gather rows of Y
        X, w, omega, beta = rand_instance(4, n, p, unpen)
        assert compute_moment_core(X, w, omega, beta)._Y.flags.c_contiguous

    @pytest.mark.parametrize("n,p", [(6, 4), (6, 10)])
    def test_all_zero_design(self, n, p):
        # no data: C = 0 and v = 0, also through a row space of rank 0
        core = compute_moment_core(np.zeros((n, p)), np.ones(n), np.ones(p), np.zeros(p))
        assert not core._Y.any() and not core.v.any()

    def test_shared_rotation_gives_the_same_core(self):
        # the rotation of the initial fit, passed in, is the one built here
        X, w, omega, beta = rand_instance(5, 8, 30, unpen=(2,))
        rows = glm._RowSpace.of(X, omega)
        shared = compute_moment_core(X, w, omega, beta, rows=rows)
        own = compute_moment_core(X, w, omega, beta)
        assert np.array_equal(shared._Y, own._Y) and np.array_equal(shared.v, own.v)

    def test_no_quadratic_allocation(self):
        # the core keeps n x p factors; a p x p matrix would be 200 n p floats,
        # and an unpenalised column must not add copies of X
        n, p = 20, 4000
        for unpen in ((), (0,)):
            X, w, omega, beta = rand_instance(22, n, p, unpen)
            tracemalloc.start()
            try:
                compute_moment_core(X, w, omega, beta)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 6.5 * n * p * 8, unpen

    @given(st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_v_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 12))
        p = int(rng.integers(2, 14))
        X, w, omega, beta = rand_instance(seed, n, p)
        core = compute_moment_core(X, w, omega, beta)
        assert (core.v >= -1e-12).all()


class TestVarianceSystem:
    def test_single_group_scalar(self):
        X, w, omega, beta = rand_instance(5, 8, 6)
        core = compute_moment_core(X, w, omega, beta)
        g = Grouping(groups=(tuple(range(6)),), p=6)
        sys = build_variance_system(core, g)
        assert sys.A.shape == (1, 1)
        assert np.isclose(sys.A[0, 0], (core.C**2).sum() / 6, atol=1e-10)
        assert np.isclose(sys.b[0], (beta**2 - core.v).mean(), atol=1e-10)
        assert sys.A[0, 0] > 0

    def test_matches_naive_summation_with_overlap(self, monkeypatch):
        X, w, omega, beta = rand_instance(6, 9, 7)
        core = compute_moment_core(X, w, omega, beta)
        for groups in [
            ((0, 1, 2, 3), (3, 4, 5, 6), (1, 6)),
            # nested, overlapping and a singleton
            ((0, 1, 2, 3, 4, 5, 6), (0, 2, 4), (1, 2, 3), (5,)),
        ]:
            g = Grouping(groups=groups, p=7)
            A_ref = naive_variance_A(core.C, g.entries, g.groups)
            # one block per pass, then blocks of three rows
            for row_block in (mom.ROW_BLOCK, 3):
                monkeypatch.setattr(mom, "ROW_BLOCK", row_block)
                sys = build_variance_system(compute_moment_core(X, w, omega, beta), g)
                assert np.allclose(sys.A, A_ref, atol=1e-10)
                assert (sys.A >= -1e-14).all()

    def test_tau_global_scales_A_only(self):
        X, w, omega, beta = rand_instance(7, 8, 5)
        core = compute_moment_core(X, w, omega, beta)
        g = Grouping(groups=((0, 1, 2), (3, 4)), p=5)
        s1 = build_variance_system(core, g, tau_global=1.0)
        s2 = build_variance_system(core, g, tau_global=0.25)
        assert np.allclose(s2.A, 0.25 * s1.A, atol=1e-12)
        assert np.allclose(s2.b, s1.b, atol=1e-12)


class TestMeanSystem:
    def test_zero_target_gives_group_means(self):
        X, w, omega, beta = rand_instance(10, 8, 6)
        core = compute_moment_core(X, w, omega, beta)
        g = Grouping(groups=((0, 1, 2), (3, 4, 5)), p=6)
        sys = build_mean_system(core, g)
        assert np.allclose(sys.b, [beta[:3].mean(), beta[3:].mean()], atol=1e-12)

    def test_orthonormal_uniform_case(self):
        rng = np.random.default_rng(11)
        Q, _ = np.linalg.qr(rng.standard_normal((10, 4)))
        lam = 2.0
        beta = rng.standard_normal(4)
        core = compute_moment_core(Q, np.ones(10), np.full(4, lam), beta)
        g = Grouping(groups=(tuple(range(4)),), p=4)
        sys = build_mean_system(core, g)
        assert np.isclose(sys.A[0, 0], 1.0 / (1 + lam), atol=1e-10)
        assert np.isclose(sys.b[0], beta.mean(), atol=1e-12)

    def test_elementwise_summation_oracle(self):
        X, w, omega, beta = rand_instance(12, 9, 6)
        core = compute_moment_core(X, w, omega, beta)
        g = Grouping(groups=((0, 1, 2, 3), (2, 4, 5)), p=6)
        sys = build_mean_system(core, g)
        A_ref = np.zeros((2, 2))
        for gi, members in enumerate(g.groups):
            for k in members:
                A_ref[gi] += core.C[k, :] @ g.entries
            A_ref[gi] /= len(members)
        assert np.allclose(sys.A, A_ref, atol=1e-10)


class TestSplitSystems:
    def test_degenerate_split_equals_full(self):
        X, w, omega, beta = rand_instance(13, 8, 6)
        core = compute_moment_core(X, w, omega, beta)
        g = Grouping(groups=((0, 1, 2), (3, 4, 5)), p=6)
        split = GroupSplit(in_groups=g.groups, out_groups=((), ()), seed=0)
        with pytest.warns(UserWarning):
            sys_in, _ = build_split_systems(core, g, split)
        full = build_variance_system(core, g)
        assert np.allclose(sys_in.A, full.A, atol=1e-12)
        assert np.allclose(sys_in.b, full.b, atol=1e-12)

    def test_hand_enumerated_two_group(self):
        X, w, omega, beta = rand_instance(14, 8, 4)
        core = compute_moment_core(X, w, omega, beta)
        g = Grouping(groups=((0, 1), (2, 3)), p=4)
        split = GroupSplit(in_groups=((0,), (2,)), out_groups=((1,), (3,)), seed=0)
        sys_in, sys_out = build_split_systems(core, g, split)
        Z = g.entries
        assert np.allclose(sys_in.A, [(core.C[0] ** 2) @ Z, (core.C[2] ** 2) @ Z], atol=1e-12)
        assert np.allclose(
            sys_out.b,
            [beta[1] ** 2 - core.v[1], beta[3] ** 2 - core.v[3]],
            atol=1e-12,
        )

    def test_in_out_sum_identity(self):
        X, w, omega, beta = rand_instance(15, 10, 8)
        core = compute_moment_core(X, w, omega, beta)
        g = Grouping(groups=((0, 1, 2, 3, 4), (5, 6, 7)), p=8)
        split = split_groups_random(g, seed=3)
        sys_in, sys_out = build_split_systems(core, g, split)
        full = build_variance_system(core, g)
        for gi in range(2):
            n_in = len(split.in_groups[gi])
            n_out = len(split.out_groups[gi])
            lhs = n_in * sys_in.A[gi] + n_out * sys_out.A[gi]
            assert np.allclose(lhs, (n_in + n_out) * full.A[gi], atol=1e-10)


class TestGroupingWeightSystem:
    def setup_core(self, seed=16, n=9, p=6):
        X, w, omega, beta = rand_instance(seed, n, p)
        return compute_moment_core(X, w, omega, beta), p

    def test_single_source_column(self):
        core, p = self.setup_core()
        g = Grouping(groups=((0, 1, 2), (3, 4, 5)), p=p)
        gamma = np.array([0.7, 2.0])
        tau = 0.3
        sys = build_grouping_weight_system(core, [g], [gamma], tau)
        full = build_variance_system(core, g, tau_global=tau)
        assert sys.A.shape == (2, 1)
        assert np.allclose(sys.A[:, 0], full.A @ gamma, atol=1e-10)
        assert np.allclose(sys.b, full.b, atol=1e-12)

    def test_duplicated_source_identical_columns(self):
        core, p = self.setup_core(seed=17)
        g = Grouping(groups=((0, 1, 2), (3, 4, 5)), p=p)
        gamma = np.array([1.2, 0.4])
        sys = build_grouping_weight_system(core, [g, g], [gamma, gamma], 0.5)
        assert sys.A.shape == (4, 2)
        assert np.allclose(sys.A[:, 0], sys.A[:, 1], atol=1e-12)

    def test_two_source_block_assembly(self):
        core, p = self.setup_core(seed=18)
        g1 = Grouping(groups=((0, 1, 2), (3, 4, 5)), p=p, name="a")
        gam1 = np.array([0.5, 1.5])
        tau = 0.8
        # disjoint, then overlapping second source
        for groups2 in [((0, 3), (1, 4), (2, 5)), ((0, 1, 3), (1, 4), (2, 4, 5), (0, 5))]:
            g2 = Grouping(groups=groups2, p=p, name="b")
            gam2 = np.array([2.0, 0.1, 1.0, 0.6])[: len(groups2)]
            sys = build_grouping_weight_system(core, [g1, g2], [gam1, gam2], tau)
            # hand-assembled: pooled rows over all groups, block columns
            Z_all = np.hstack([g1.entries, g2.entries])
            all_groups = list(g1.groups) + list(g2.groups)
            A_pool = naive_variance_A(core.C, Z_all, all_groups)
            A_ref = np.column_stack(
                [tau * A_pool[:, :2] @ gam1, tau * A_pool[:, 2:] @ gam2]
            )
            assert np.allclose(sys.A, A_ref, atol=1e-10)

    def test_dimension_mismatch(self):
        core, p = self.setup_core(seed=19)
        g = Grouping(groups=((0, 1, 2), (3, 4, 5)), p=p)
        with pytest.raises(DataError):
            build_grouping_weight_system(core, [g], [np.ones(3)], 1.0)


def _random_grouping(rng, p, kind, name="grouping"):
    """Disjoint groups, plus an overlapping group or singleton groups."""
    G = int(rng.integers(2, 4))
    groups = [tuple(part) for part in np.array_split(rng.permutation(p), G)]
    if kind == "overlapping":
        groups.append(tuple(rng.choice(p, size=max(2, p // 2), replace=False)))
    elif kind == "singleton":
        groups = [groups[0][:1], groups[0][1:]] + groups[1:] + [(int(groups[-1][0]),)]
    return Grouping(groups=tuple(groups), p=p, name=name)


def _systems_by_route(route, X, w, omega, beta, groupings, splits, gammas, tau):
    """Every variance-type system of one core, with the route forced."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mom, "_route", lambda *args: route)
        core = compute_moment_core(X, w, omega, beta)
        systems = [build_variance_system(core, groupings[0], tau_global=tau)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for split in splits:
                systems += build_split_systems(core, groupings[0], split, tau)
        systems.append(build_grouping_weight_system(core, groupings, gammas, tau))
        assert all(core.plan(g) == route for g in groupings)
    return systems, [str(m.message) for m in caught]


class TestRoutes:
    @given(
        st.integers(0, 10_000),
        st.integers(8, 14),
        st.sampled_from(["p<n", "p=n", "p>n"]),
        st.integers(0, 2),
        st.sampled_from(["disjoint", "overlapping", "singleton"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_routes_agree(self, seed, n, shape, n_unpen, kind):
        p = {"p<n": n - 2, "p=n": n, "p>n": 2 * n + 3}[shape]
        X, w, omega, beta = rand_instance(seed, n, p, unpen=range(n_unpen))
        rng = np.random.default_rng(seed)
        n_pen = p - n_unpen
        groupings = [
            _random_grouping(rng, n_pen, kind, "a"),
            _random_grouping(rng, n_pen, "overlapping", "b"),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # singleton groups go to the in-part
            splits = [split_groups_random(groupings[0], seed=s) for s in range(3)]
        gammas = [rng.uniform(0.5, 2.0, g.n_groups) for g in groupings]
        args = (X, w, omega, beta, groupings, splits, gammas, 0.7)
        direct, direct_warnings = _systems_by_route("direct", *args)
        gram, gram_warnings = _systems_by_route("gram", *args)
        assert gram_warnings == direct_warnings
        if kind == "singleton":
            assert direct_warnings
            assert all("empty out-part dropped" in m for m in direct_warnings)
        for ref, got in zip(direct, gram):
            assert got.group_labels == ref.group_labels
            assert np.array_equal(got.b, ref.b)
            scale = np.abs(ref.A).max(initial=0.0)
            assert np.abs(got.A - ref.A).max(initial=0.0) <= 1e-10 * scale

    @pytest.mark.parametrize(
        "n_pen,r,nnz,n_groups,route",
        [
            (8000, 150, 8000, 40, "gram"),  # gaussian-wide
            (2000, 100, 2000, 20, "gram"),  # binomial-cv
            (200, 200, 600, 7, "direct"),  # codata-hier, hierarchy source
            (200, 200, 200, 20, "direct"),  # codata-hier, partition source
            (200, 100, 200, 10, "direct"),  # cox-cli
        ],
    )
    def test_route_for_benchmark_shapes(self, n_pen, r, nnz, n_groups, route):
        assert mom._route(n_pen, r, nnz, n_groups, n_splits=10) == route

    def test_split_halves_must_partition_groups(self):
        X, w, omega, beta = rand_instance(23, 8, 6)
        core = compute_moment_core(X, w, omega, beta)
        g = Grouping(groups=((0, 1, 2), (3, 4, 5)), p=6)
        for in_groups, out_groups in [
            (((0,), (3,)), ((1,), (4, 5))),  # a member missing
            (((0, 1), (3,)), ((1,), (4, 5))),  # a member twice, sizes equal
            (((0, 1), (2,)), ((3,), (4, 5))),  # members swapped between groups
            (((0,), (3,)), ((1, 7), (4, 5))),  # a member out of range
            (((0, 1), (-4,)), ((9,), (4, 5))),  # out of range, each in the other's place
            (((0, 1), (3, 4)), ((2,),)),  # a group without halves
        ]:
            split = GroupSplit(in_groups=in_groups, out_groups=out_groups, seed=0)
            with pytest.raises(DataError, match="partition"):
                build_split_systems(core, g, split)


def _count_passes(monkeypatch):
    """Record every pass over C (a call of ``MomentCore.iter_row_blocks``)."""
    passes = []
    iter_row_blocks = MomentCore.iter_row_blocks

    def counted(core):
        passes.append(1)
        return iter_row_blocks(core)

    monkeypatch.setattr(MomentCore, "iter_row_blocks", counted)
    return passes


def _equal_groups(p, G):
    return Grouping(groups=tuple(tuple(range(k, k + p // G)) for k in range(0, p, p // G)), p=p)


def _two_sources(p):
    overlapping = (tuple(range(0, 2 * p // 3)), tuple(range(p // 2, p)))
    return [_equal_groups(p, 4), Grouping(groups=overlapping, p=p, name="b")]


class TestPassesOverC:
    def test_wide_fit_forms_no_row_of_C(self, monkeypatch):
        passes = _count_passes(monkeypatch)
        rng = np.random.default_rng(24)
        n, p = 20, 800
        X = rng.standard_normal((n, p))
        y = X @ rng.normal(0.0, 0.1, p) + rng.standard_normal(n)
        model = fit_ecpc(X, ResponseFamily.gaussian(y), _two_sources(p))
        assert passes == []
        assert model.diagnostics["moments"] == [{"route": "gram", "rank": n}] * 2

    @pytest.mark.parametrize("n_sources", [1, 2])
    def test_direct_fit_streams_C_once_per_codata_matrix(self, monkeypatch, n_sources):
        passes = _count_passes(monkeypatch)
        weight_system_passes = []
        weight_system = estimator.build_grouping_weight_system

        def counted_weight_system(*args, **kwargs):
            before = len(passes)
            out = weight_system(*args, **kwargs)
            weight_system_passes.append(len(passes) - before)
            return out

        monkeypatch.setattr(
            estimator, "build_grouping_weight_system", counted_weight_system
        )
        rng = np.random.default_rng(21)
        n, p = 30, 60
        X = rng.standard_normal((n, p))
        y = X @ rng.normal(0.0, 0.5, p) + rng.standard_normal(n)
        model = fit_ecpc(X, ResponseFamily.gaussian(y), _two_sources(p)[:n_sources])
        assert len(passes) == n_sources
        assert weight_system_passes == ([] if n_sources == 1 else [0])
        assert model.diagnostics["moments"] == [{"route": "direct", "rank": n}] * n_sources

    def test_systems_of_one_grouping_stream_C_once(self, monkeypatch):
        # the core keeps what it streamed per grouping: every later system of
        # the same grouping reads it, whoever builds the system
        passes = _count_passes(monkeypatch)
        X, w, omega, beta = rand_instance(26, 30, 60)
        core = compute_moment_core(X, w, omega, beta)
        g = _equal_groups(60, 4)
        first = build_variance_system(core, g)
        assert core.plan(g) == "direct"
        again = build_variance_system(core, g, tau_global=0.5)
        build_split_systems(core, g, split_groups_random(g, seed=0))
        assert len(passes) == 1
        assert np.array_equal(again.A, 0.5 * first.A)

    def test_split_systems_allocate_no_p_by_G_block(self):
        # the Gram route keeps G group Grams and forms G in-half Grams, r x r
        # each with r = n, next to O(p) index and residual vectors; a p x G
        # product alone (160 000 floats) would be 2.5 times the bound; the
        # grouping's own co-data matrix is built before the trace
        n, p, G = 20, 4000, 40
        X, w, omega, beta = rand_instance(25, n, p)
        core = compute_moment_core(X, w, omega, beta)
        g = _equal_groups(p, G)
        assert g.entries.shape == (p, G)
        splits = [split_groups_random(g, seed=s) for s in range(3)]
        tracemalloc.start()
        try:
            assert core.plan(g, n_splits=len(splits)) == "gram"
            for split in splits:
                build_split_systems(core, g, split)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (2 * G * n**2 + 8 * p) * 8


class TestUnpenalizedDecoupling:
    def test_system_identical_with_appended_intercept(self):
        rng = np.random.default_rng(20)
        n, p = 12, 6
        X = rng.standard_normal((n, p))
        w = rng.uniform(0.5, 2.0, n)
        omega = rng.uniform(0.5, 2.0, p)
        beta = rng.standard_normal(p)
        g = Grouping(groups=((0, 1, 2), (3, 4, 5)), p=p)
        core_plain = compute_moment_core(X, w, omega, beta)
        sys_plain = build_variance_system(core_plain, g)

        # identical fit, intercept column appended and unpenalised
        X_aug = np.hstack([X, np.ones((n, 1))])
        core_aug = compute_moment_core(
            X_aug, w, np.concatenate([omega, [0.0]]), np.concatenate([beta, [0.3]])
        )
        sys_aug = build_variance_system(core_aug, g)
        # the systems are not expected to be equal (the fit changes), but the
        # penalised-block decoupling means the unpenalised column contributes
        # nothing: check by zeroing the intercept's influence explicitly
        assert core_aug.C[:p, p].max() == 0.0
        assert sys_aug.A.shape == sys_plain.A.shape

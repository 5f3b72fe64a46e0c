"""End-to-end acceptance checks for the whole package.

Each test prints a single ``[PASS]``/``[FAIL]`` line for its criterion so a
plain ``pytest -s`` run doubles as an acceptance report.
"""

import json

import numpy as np
import pytest

from ecpc import (
    Grouping,
    HierTree,
    ResponseFamily,
    breslow_cumhaz,
    compute_moment_core,
    fit_ecpc,
    fit_weighted_ridge,
    martingale_residuals,
    model_to_json,
    posterior_sds,
    predict,
    refit_selected,
    select_l1,
    solve_hierarchical_lasso,
    solve_lasso_hyper,
    solve_ridge_hyper,
)
from ecpc.cli import _simulate_one, auc_mann_whitney
from ecpc.glm import PenaltyState, family_loglik
from ecpc.hypershrinkage import lasso_null_threshold
from ecpc.mom import (
    MomentSystem,
    build_grouping_weight_system,
    build_mean_system,
    build_variance_system,
)


def report(num, desc, ok):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}")
    assert ok, f"criterion {num}: {desc}"


def disjoint_grouping(p, G, name="g"):
    bounds = np.linspace(0, p, G + 1).astype(int)
    groups = tuple(tuple(range(bounds[g], bounds[g + 1])) for g in range(G))
    return Grouping(groups=groups, p=p, name=name)


# ---------------------------------------------------------------------------
# 1. simulation-study reproduction


def test_criterion_1_simulation_study():
    reps, G_values = 30, (1, 5, 10, 20, 30)
    means = {}
    for informative in (False, True):
        for G in G_values:
            runs = [
                _simulate_one(7919 * r + 1, 100, 300, G, informative, 10)
                for r in range(reps)
            ]
            for key in ("ecpc_hyper", "ecpc_nohyper", "ridge"):
                means[(informative, G, key)] = float(
                    np.mean([run[key] for run in runs])
                )

    ok = True
    # random groupings carry no information: with hypershrinkage the fit must
    # stay within 5% of ordinary ridge at every G
    for G in G_values:
        hyper = means[(False, G, "ecpc_hyper")]
        ridge = means[(False, G, "ridge")]
        ok &= hyper <= 1.05 * ridge
    # without hypershrinkage, many random groups overfit the group weights
    ok &= means[(False, 30, "ecpc_nohyper")] > means[(False, 30, "ecpc_hyper")]
    # informative groupings must beat ordinary ridge at moderate G
    ok &= means[(True, 10, "ecpc_hyper")] < means[(True, 10, "ridge")]
    report(
        1,
        "simulation study: random co-data within 5% of ridge, hypershrinkage "
        "protective at G=30, informative co-data beats ridge at G=10",
        ok,
    )


# ---------------------------------------------------------------------------
# 2. Monte-Carlo moment identity


def test_criterion_2_monte_carlo_moment_identity():
    rng = np.random.default_rng(0)
    n, p, G, sims = 40, 60, 2, 2000
    sigma2 = 1.0
    grouping = disjoint_grouping(p, G)
    Z = grouping.entries
    tau2_groups = np.array([0.3, 0.05])
    tau_cov = Z @ tau2_groups

    X = rng.standard_normal((n, p))
    w = np.full(n, 1.0 / sigma2)
    omega = 1.0 / tau_cov
    M = X.T @ (w[:, None] * X) + np.diag(omega)
    Minv = np.linalg.inv(M)
    proj = Minv @ X.T * w[None, :]

    sq_sum = np.zeros(p)
    for _ in range(sims):
        beta = rng.normal(0.0, np.sqrt(tau_cov))
        y = X @ beta + rng.normal(0.0, np.sqrt(sigma2), n)
        bt = proj @ y
        sq_sum += bt**2
    emp = sq_sum / sims

    core = compute_moment_core(X, w, omega, np.zeros(p))
    theory = core.v + (core.C**2) @ tau_cov

    # group-level comparison within 3 Monte-Carlo standard errors
    ok = True
    for g in grouping.groups:
        idx = np.asarray(g)
        diff = abs(emp[idx].mean() - theory[idx].mean())
        # var of a squared ~ 2 * second-moment^2 per covariate; group mean SE
        se = np.sqrt(2 * (theory[idx] ** 2).sum()) / len(idx) / np.sqrt(sims)
        ok &= diff <= 3 * se
    report(
        2,
        "Monte-Carlo moment identity E[ridge coef^2] = v + C.^2 (Z tau^2) "
        "holds per group within 3 MC standard errors (2000 sims)",
        ok,
    )


# ---------------------------------------------------------------------------
# 3. dense-algebra oracles


def naive_quantities(X, w, omega, beta, Z, grouping):
    p = X.shape[1]
    XtWX = X.T @ (w[:, None] * X)
    M = XtWX + np.diag(omega)
    Minv = np.linalg.inv(M)
    C = Minv @ XtWX
    v = np.diag(Minv @ XtWX @ Minv)
    P = np.zeros((grouping.n_groups, p))
    for gi, g in enumerate(grouping.groups):
        P[gi, list(g)] = 1.0 / len(g)
    A_tau = P @ (C**2) @ Z
    A_mu = P @ C @ Z
    b_tau = P @ (beta**2 - v)
    b_mu = P @ beta
    return C, v, A_tau, A_mu, b_tau, b_mu


def test_criterion_3_dense_algebra_oracles():
    rng = np.random.default_rng(3)
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(4, 13))
        p = int(rng.integers(2, 13))
        G = int(rng.integers(1, min(p, 12) + 1))
        X = rng.standard_normal((n, p))
        w = rng.uniform(0.5, 2.0, n)
        omega = rng.uniform(0.5, 3.0, p)
        grouping = disjoint_grouping(p, G)
        Z = grouping.entries

        beta_t = rng.standard_normal(p)
        core = compute_moment_core(X, w, omega, beta_t)
        C_ref, v_ref, A_tau_ref, A_mu_ref, b_tau_ref, b_mu_ref = naive_quantities(
            X, w, omega, beta_t, Z, grouping
        )
        sys_tau = build_variance_system(core, grouping)
        sys_mu = build_mean_system(core, grouping)
        worst = max(
            worst,
            np.abs(core.C - C_ref).max(),
            np.abs(core.v - v_ref).max(),
            np.abs(sys_tau.A - A_tau_ref).max(),
            np.abs(sys_tau.b - b_tau_ref).max(),
            np.abs(sys_mu.A - A_mu_ref).max(),
            np.abs(sys_mu.b - b_mu_ref).max(),
        )
        # pooled source-weight matrix for two duplicated sources
        gam = rng.uniform(0.5, 2.0, G)
        W_sys = build_grouping_weight_system(
            core, [grouping, grouping], [gam, gam], tau_global=1.7
        )
        # rows are pooled over both sources' groups; with identical sources
        # each column repeats tau^2 * A_tau @ gamma stacked twice
        ref_col = np.concatenate([1.7 * A_tau_ref @ gam] * 2)
        worst = max(worst, np.abs(W_sys.A - np.column_stack([ref_col, ref_col])).max())
    report(
        3,
        f"moment matrices match naive dense formulas on 20 random instances "
        f"(max abs deviation {worst:.2e} <= 1e-8)",
        worst <= 1e-8,
    )


# ---------------------------------------------------------------------------
# 4. hypershrinkage solvers


def test_criterion_4_hypershrinkage_solvers():
    sys, W, tree = _criterion_4_problem()
    ok = True

    # ridge limits
    g_inf = solve_ridge_hyper(sys, 1e12, W).gamma
    ok &= np.abs(g_inf - 1.0).max() < 1e-4
    g_zero = solve_ridge_hyper(sys, 0.0, W).gamma
    ok &= np.abs(g_zero - np.maximum(np.linalg.solve(sys.A, sys.b), 0.0)).max() < 1e-8

    # lasso null threshold
    lam_max = lasso_null_threshold(sys, W)
    ok &= not solve_lasso_hyper(sys, lam_max * 1.001, W).selected.any()

    # hierarchical limits: huge strength keeps only the root's group, zero keeps all
    top = solve_hierarchical_lasso(sys, tree, 1e9, W).selected
    ok &= top.sum() == 1 and top[tree.node_group[tree.root]]
    ok &= solve_hierarchical_lasso(sys, tree, 0.0, W).selected.all()
    report(4, "hypershrinkage: ridge limits, lasso null threshold, hierarchical limits", ok)


def test_criterion_4_hierarchical_objective_oracle():
    cvxpy = pytest.importorskip("cvxpy")
    sys, W, tree = _criterion_4_problem()
    # 7-node hierarchical problem vs a generic convex solver
    lam = 1.5
    As = sys.A / np.sqrt(W)[None, :]
    us, gexpr = [], 0
    for node in range(7):
        path = [tree.node_group[m] for m in tree.path_to_root(node)]
        u = cvxpy.Variable(len(path))
        us.append(u)
        M = np.zeros((7, len(path)))
        for i, gidx in enumerate(path):
            M[gidx, i] = 1
        gexpr = gexpr + M @ u
    prob = cvxpy.Problem(
        cvxpy.Minimize(
            cvxpy.sum_squares(As @ gexpr - sys.b)
            + lam * sum(cvxpy.norm(us[m]) for m in range(7) if m != tree.root)
        )
    )
    prob.solve()
    mine = solve_hierarchical_lasso(sys, tree, lam, W)
    report(
        4,
        "hypershrinkage: hierarchical objective matches convex-solver oracle to 1e-6",
        abs(mine.objective - prob.value) < 1e-6,
    )


def _criterion_4_problem():
    rng = np.random.default_rng(4)
    G = 7
    A = rng.standard_normal((G, G)) + 2 * np.eye(G)
    b = rng.standard_normal(G)
    sys = MomentSystem(A=A, b=b, group_labels=tuple(str(i) for i in range(G)))
    W = rng.uniform(1.0, 5.0, G)
    tree = HierTree(
        node_group=(0, 1, 3, 4, 2, 5, 6),
        parent=(None, 0, 1, 1, 0, 4, 4),
    )
    return sys, W, tree


# ---------------------------------------------------------------------------
# 5. unpenalised covariates decouple from the moment system


def test_criterion_5_unpenalised_decoupling():
    rng = np.random.default_rng(5)
    n, p, G = 30, 12, 3
    X = rng.standard_normal((n, p))
    w = rng.uniform(0.5, 2.0, n)
    omega = rng.uniform(0.5, 3.0, p)
    grouping = disjoint_grouping(p, G)
    Z = grouping.entries
    beta_t = rng.standard_normal(p + 1)

    # augmented design: an unpenalised intercept column appended
    X_aug = np.hstack([X, np.ones((n, 1))])
    omega_aug = np.concatenate([omega, [0.0]])
    core_aug = compute_moment_core(X_aug, w, omega_aug, beta_t)

    # naive extended system over G+1 groups (last group = the intercept)
    XtWX = X_aug.T @ (w[:, None] * X_aug)
    M = XtWX + np.diag(omega_aug)
    C_full = np.linalg.inv(M) @ XtWX
    Z_ext = np.zeros((p + 1, G + 1))
    Z_ext[:p, :G] = Z
    Z_ext[p, G] = 1.0
    P_ext = np.zeros((G + 1, p + 1))
    for gi, g in enumerate(grouping.groups):
        P_ext[gi, list(g)] = 1.0 / len(g)
    P_ext[G, p] = 1.0
    A_ext = P_ext @ (C_full**2) @ Z_ext

    # the shrinkage matrix has a zero column for the unpenalised covariate
    # (off the diagonal), so the extended system's penalised equations never
    # involve the intercept unknown: that column of A vanishes and the
    # penalised block equals the system built from penalised rows and columns
    # of the augmented core alone.  (The intercept's own equation row need not
    # vanish, but it is never used.)
    sys_pen = build_variance_system(core_aug, grouping)
    block_err = np.abs(A_ext[:G, :G] - sys_pen.A).max()
    col_err = np.abs(A_ext[:G, G]).max()
    ok = block_err <= 1e-10 and col_err <= 1e-10
    report(
        5,
        f"unpenalised intercept decouples: penalised moment block deviation "
        f"{block_err:.2e}, intercept column {col_err:.2e} (both <= 1e-10)",
        ok,
    )


# ---------------------------------------------------------------------------
# 6. Cox machinery


def test_criterion_6_cox():
    ok = True
    # Breslow estimator on a hand-worked tied dataset, all linear predictors 0:
    # risk sets of sizes 4 then 2 with 2 events each
    times = np.array([1.0, 1.0, 2.0, 2.0])
    status = np.array([1, 1, 1, 1])
    H = breslow_cumhaz(times, status, np.zeros(4))
    ok &= np.allclose(H, [0.5, 0.5, 1.5, 1.5], atol=1e-12)

    # martingale residuals sum to zero
    rng = np.random.default_rng(6)
    t = rng.exponential(1.0, 50)
    s = (rng.random(50) < 0.6).astype(int)
    lp = rng.standard_normal(50)
    H0 = breslow_cumhaz(t, s, lp)
    ok &= abs(martingale_residuals(t, s, lp, H0).sum()) <= 1e-8

    # penalised partial-likelihood optimum vs a numerical-derivative Newton
    n, p = 6, 2
    X = rng.standard_normal((n, p))
    t6 = np.array([3.0, 1.0, 2.0, 5.0, 4.0, 6.0])
    s6 = np.array([1, 1, 0, 1, 1, 0])
    resp = ResponseFamily.cox(t6, s6)
    lam = 2.0

    def obj(beta):
        return -family_loglik(resp, X @ beta) + 0.5 * lam * beta @ beta

    beta = np.zeros(p)
    h = 1e-5
    for _ in range(60):
        grad = np.zeros(p)
        Hm = np.zeros((p, p))
        for i in range(p):
            e = np.zeros(p)
            e[i] = h
            grad[i] = (obj(beta + e) - obj(beta - e)) / (2 * h)
            for j in range(p):
                e2 = np.zeros(p)
                e2[j] = h
                Hm[i, j] = (
                    obj(beta + e + e2) - obj(beta + e - e2) - obj(beta - e + e2) + obj(beta - e - e2)
                ) / (4 * h * h)
        step = np.linalg.solve(Hm, grad)
        beta = beta - step
        if np.abs(step).max() < 1e-12:
            break

    state = PenaltyState(
        tau_global=1.0 / lam,
        tau_local=np.ones(p),
        unpenalized_mask=np.zeros(p, dtype=bool),
    )
    fit = fit_weighted_ridge(X, resp, state)
    ok &= np.abs(fit.beta - beta).max() <= 1e-6
    report(
        6,
        "Cox: Breslow hand example, martingale residuals sum to zero, "
        "penalised fit matches numerical Newton to 1e-6",
        ok,
    )


# ---------------------------------------------------------------------------
# 7. posterior spread formula


def test_criterion_7_posterior_sds():
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(15, 40))
        p = int(rng.integers(5, 50))
        G = int(rng.integers(1, 4))
        X = rng.standard_normal((n, p))
        beta = rng.normal(0.0, 0.5, p)
        y = X @ beta + rng.normal(0.0, 1.0, n)
        resp = ResponseFamily.gaussian(y)
        model = fit_ecpc(X, resp, [disjoint_grouping(p, G)])
        sd = posterior_sds(model, X, resp)
        w = np.full(n, 1.0 / model.sigma2)
        prec = 1.0 / (model.tau_global * np.maximum(model.tau_local, 1e-6))
        Sigma = np.linalg.inv(X.T @ (w[:, None] * X) + np.diag(prec))
        worst = max(worst, np.abs(sd - np.sqrt(np.diag(Sigma))).max())
    report(
        7,
        f"posterior standard deviations match direct precision inversion on "
        f"20 random fits (max abs deviation {worst:.2e} <= 1e-8)",
        worst <= 1e-8,
    )


# ---------------------------------------------------------------------------
# 8. selection


def test_criterion_8_selection():
    rng = np.random.default_rng(8)
    n, p, G = 100, 300, 10
    X = rng.standard_normal((n, p))
    beta = rng.normal(0.0, np.sqrt(0.1), p)
    y = X @ beta + rng.normal(0.0, 1.0, n)
    resp = ResponseFamily.gaussian(y)
    model = fit_ecpc(X, resp, [disjoint_grouping(p, G)])

    ok = True
    for count in (5, 25, 50):
        res = select_l1(model, X, resp, count)
        ok &= len(res.selected) == count and res.exact_count

    # selecting everything and refitting under the same penalties reproduces
    # the dense fit
    beta_full = refit_selected(model, X, resp, np.arange(p), mode="dense")
    ok &= np.abs(beta_full - model.beta).max() <= 1e-8

    # rank-sum AUC hand example: 3 concordant pairs of 4
    ok &= auc_mann_whitney([0.9, 0.4, 0.5, 0.1], [1, 1, 0, 0]) == pytest.approx(0.75)
    report(
        8,
        "selection: exact counts 5/25/50 on the n=100, p=300 benchmark, "
        "full-selection refit equals the dense fit, AUC hand example 0.75",
        ok,
    )


# ---------------------------------------------------------------------------
# 9. honest substitute for the clinical-data benchmarks


def test_criterion_9_substitute_determinism():
    # The published benchmark figures (holdout AUC around 0.8 and 0.73) come
    # from proprietary clinical cohorts that cannot be redistributed, so they
    # are not reproducible here.  As the agreed substitute, this criterion
    # asserts that (a) criteria 1-8 above cover every computational claim the
    # benchmarks rest on, and (b) the full pipeline is bit-for-bit
    # deterministic, so any external benchmark run is exactly repeatable.
    rng = np.random.default_rng(9)
    n, p = 80, 120
    X = rng.standard_normal((n, p))
    y = (rng.random(n) < 0.5).astype(float)
    resp = ResponseFamily.binomial(y)
    g = disjoint_grouping(p, 4)
    m1 = fit_ecpc(X, resp, [g], intercept=True, seed=11)
    m2 = fit_ecpc(X, resp, [g], intercept=True, seed=11)
    ok = model_to_json(m1) == model_to_json(m2)
    Xn = rng.standard_normal((10, p))
    ok &= np.array_equal(predict(m1, Xn), predict(m2, Xn))
    report(
        9,
        "clinical-cohort AUC benchmarks are not reproducible without the "
        "(non-redistributable) data; substitute asserted instead: criteria "
        "1-8 plus bit-for-bit deterministic refits",
        ok,
    )

"""Penalised solvers for group-level weight systems.

The moment systems relating group prior weights to the data are small but
often noisy and rank-deficient, so the weights themselves are regularised:
ridge shrinkage towards the non-informative weight 1, lasso for dropping
uninformative groups, or a latent-overlapping-group lasso that respects a
group hierarchy (a node may be selected only if all its ancestors are).
The strength of this extra penalty is tuned by random in/out splits of the
groups, scoring each candidate on the held-out half of the system.

Both sparse kinds share one null threshold, :func:`lasso_null_threshold`:
the smallest strength at which every penalised latent is zero.  At or
above it the KKT conditions give the solution in closed form (the
unpenalised latents' least-squares fit, zero elsewhere), so the solvers
return it without running coordinate descent or FISTA.  A screened answer
is the exact optimum, not an iterate stopped near it.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .codata import (
    CoDataMatrix,
    Grouping,
    HierTree,
    build_codata_matrix,
    split_groups_random,
)
from .errors import ConvergenceError, DataError
from .glm import elastic_net_cd
from .mom import MomentCore, MomentSystem, build_split_systems

__all__ = [
    "HyperPenalty",
    "HyperLambda",
    "GroupWeights",
    "group_size_scaling",
    "solve_ridge_hyper",
    "solve_lasso_hyper",
    "solve_hierarchical_lasso",
    "estimate_hyperlambda",
    "solve_hyper",
]

KINDS = ("none", "ridge", "lasso", "hierarchical_lasso")


@dataclass(frozen=True)
class HyperPenalty:
    """Configuration of the penalty applied to group weights."""

    kind: str = "ridge"
    lam: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DataError(f"unknown hyperpenalty kind '{self.kind}'")
        if self.lam < 0:
            raise DataError("hyperpenalty strength must be non-negative")


@dataclass
class GroupWeights:
    """Fitted group weights, the groups kept by sparse kinds, and the penalty used."""

    gamma: np.ndarray
    selected: np.ndarray
    lambda_used: float
    objective: float | None = None


@dataclass(frozen=True)
class HyperLambda:
    """A tuned hyperpenalty strength and how the grid search ended.

    ``grid`` holds the scored candidates in ascending order and
    ``mean_rss`` their mean out-half residual sums of squares (``inf`` for
    a candidate whose solver did not converge).
    """

    lam: float
    on_grid_boundary: bool = False
    n_grid_extensions: int = 0
    grid: tuple[float, ...] = ()
    mean_rss: tuple[float, ...] = ()


def group_size_scaling(grouping: Grouping) -> np.ndarray:
    """Diagonal scaling of the weight penalty: one entry per group, its size."""
    return grouping.sizes.astype(float)


def solve_ridge_hyper(
    system: MomentSystem,
    lam: float,
    W_gamma: np.ndarray,
) -> GroupWeights:
    """Shrink group weights towards the non-informative weight 1.

    Minimises ``||A W^{-1/2} g' - b||^2 + lam * ||g' - W^{1/2}||^2``
    over the scaled weights ``g' = W^{1/2} gamma`` and returns the
    unscaled minimiser truncated at zero.  The scaling makes the penalty
    act on the same per-covariate scale for groups of different sizes.
    """
    if lam < 0:
        raise DataError("ridge hyperpenalty must be non-negative")
    A = np.asarray(system.A, dtype=float)
    b = np.asarray(system.b, dtype=float)
    W = np.asarray(W_gamma, dtype=float)
    sqw = np.sqrt(W)
    As = A / sqw[None, :]
    G = A.shape[1]
    if lam == 0:
        g_scaled, *_ = np.linalg.lstsq(As, b, rcond=None)
    else:
        lhs = As.T @ As + lam * np.eye(G)
        rhs = As.T @ b + lam * sqw
        g_scaled = np.linalg.solve(lhs, rhs)
    gamma = np.maximum(g_scaled / sqw, 0.0)
    return GroupWeights(gamma=gamma, selected=gamma > 0, lambda_used=float(lam))


def solve_lasso_hyper(
    system: MomentSystem,
    lam: float,
    W_gamma: np.ndarray,
) -> GroupWeights:
    """Drop uninformative groups with an L1 penalty, then refit the survivors.

    The L1 problem is solved on the size-scaled system; groups with zero
    scaled weight are deselected, and the surviving groups are refit with
    the ridge shrinkage at the same strength.  At or above the null
    threshold nothing is selected, without a coordinate-descent run: its
    first violator test is the same comparison.
    """
    return _lasso_batch([system], lam, [W_gamma])[0]


def _lasso_batch(systems, lam, W_gammas) -> list[GroupWeights]:
    """:func:`solve_lasso_hyper` on each system, with one stacked ridge refit."""
    if lam == 0:
        return [solve_ridge_hyper(s, 0.0, w) for s, w in zip(systems, W_gammas)]
    selections = []
    for system, W in zip(systems, W_gammas):
        W = np.asarray(W, dtype=float)
        if lam >= lasso_null_threshold(system, W):
            selections.append(np.zeros(len(W), dtype=bool))
            continue
        As = np.asarray(system.A, dtype=float) / np.sqrt(W)[None, :]
        # ||As g - b||^2 + lam ||g||_1, halved
        g_scaled = elastic_net_cd(As, 1.0, np.asarray(system.b, dtype=float), lam / 2.0)
        selections.append(np.abs(g_scaled) > 0)
    gammas = _ridge_refits(systems, selections, lam, W_gammas)
    return [GroupWeights(g, sel, float(lam)) for g, sel in zip(gammas, selections)]


def _ridge_refits(systems, selections, lam: float, W_gammas) -> list[np.ndarray]:
    """Ridge weights of each system's selected groups at strength ``lam > 0``,
    zero elsewhere: :func:`solve_ridge_hyper` on the selected columns, with
    one stacked solve for all systems of one selection pattern (a system
    with fewer equations is padded with zero rows, which change nothing)."""
    gammas = [np.zeros(len(sel)) for sel in selections]
    patterns: dict[bytes, list[int]] = {}
    for s, sel in enumerate(selections):
        if sel.any():
            patterns.setdefault(sel.tobytes(), []).append(s)
    for members in patterns.values():
        sel = selections[members[0]]
        sqw = np.sqrt([np.asarray(W_gammas[s], dtype=float)[sel] for s in members])
        As = np.zeros((len(members), max(len(systems[s].b) for s in members), len(sqw[0])))
        b = np.zeros(As.shape[:2])
        for i, s in enumerate(members):
            A = np.asarray(systems[s].A, dtype=float)
            As[i, : len(A)] = A[:, sel] / sqw[i]
            b[i, : len(A)] = systems[s].b
        AsT = As.transpose(0, 2, 1)
        lhs = AsT @ As + lam * np.eye(As.shape[2])
        rhs = AsT @ b[:, :, None] + lam * sqw[:, :, None]
        g_scaled = np.linalg.solve(lhs, rhs)[:, :, 0]
        for s, g, q in zip(members, g_scaled, sqw):
            gammas[s][sel] = np.maximum(g / q, 0.0)
    return gammas


def lasso_null_threshold(
    system: MomentSystem, W_gamma: np.ndarray, tree: HierTree | None = None
) -> float:
    """Smallest strength at which every penalised latent is zero.

    Without a tree this is the lasso's threshold, ``max |2 As' b|`` on the
    size-scaled system ``As``, the same comparison as the first violator
    test of :func:`elastic_net_cd`; with one, the hierarchical lasso's
    threshold of :func:`_null_fits`.
    """
    As = np.asarray(system.A, dtype=float) / np.sqrt(np.asarray(W_gamma, dtype=float))[None, :]
    b = np.asarray(system.b, dtype=float)
    if tree is None:
        return float(np.abs(2.0 * As.T @ b).max())
    flat, sizes, penalised = _latent_layout(tree, As.shape[1])
    return float(_null_fits(As[None][:, :, flat], b[None], sizes, penalised)[0][0])


def _null_fits(B, b, sizes, penalised):
    """Null thresholds of a stack of latent problems, and residuals at and above them.

    Problem ``s`` is ``||B[s] u - b[s]||^2 + lam * sum_pen ||u_m||`` as in
    :func:`_fista_latents`.  Fits its unpenalised latents by least squares
    and returns the largest ``||2 B_m' r0||`` over the penalised latents
    ``m``, with the residual ``r0`` of that fit.  At any strength at or
    above the threshold the KKT conditions hold with every penalised
    latent at zero, so that fit is the exact optimum, with objective
    ``||r0||^2``.
    """
    free = B[:, :, np.repeat(~penalised, sizes)]
    r0 = b - (free @ (np.linalg.pinv(free) @ b[:, :, None]))[:, :, 0]
    grad = 2.0 * (r0[:, None, :] @ B)[:, 0, :]
    norms = np.sqrt(np.add.reduceat(grad * grad, np.cumsum(sizes) - sizes, axis=1))
    return norms[:, penalised].max(axis=1, initial=0.0), r0


def _latent_layout(tree: HierTree, n_groups: int):
    """Latent supports as one flat group-index array, their sizes, a penalty mask.

    One root-to-node path per tree node, then one single-group support per
    group outside the tree; ``flat`` concatenates them, so latent ``m``
    owns the ``sizes[m]`` entries of a stacked latent vector that follow
    ``sum(sizes[:m])``.  Every latent but the root's and those of the
    groups outside the tree is penalised.
    """
    paths = []
    for node in range(tree.n_nodes):
        path = [tree.node_group[m] for m in tree.path_to_root(node)]
        if any(g >= n_groups for g in path):
            raise DataError("hierarchy references a group outside the system")
        paths.append(path)
    paths += [[g] for g in sorted(set(range(n_groups)) - set(tree.node_group))]
    sizes = np.array([len(path) for path in paths])
    penalised = np.arange(len(paths)) < tree.n_nodes
    penalised[tree.root] = False
    return np.concatenate(paths), sizes, penalised


def _fista_latents(B, b, sizes, penalised, lam, max_iter, tol):
    """FISTA on a stack of latent group lasso problems with one latent layout.

    Problem ``s`` minimises ``||B[s] u - b[s]||^2 + lam * sum ||u_m||`` over
    the stacked latents ``u`` (the penalised blocks of ``sizes``).  Each
    problem has its own step ``1/L`` and stops once its objective changes by
    less than ``tol * (1 + |obj|)``; it then leaves the stack with its
    iterate frozen, so it stops on the iteration it would stop on alone.
    Returns the latents and their objectives, one row per problem.
    """
    starts = np.cumsum(sizes) - sizes
    lam_pen = lam * penalised
    # Lipschitz constant of each smooth part's gradient
    L = 2.0 * np.linalg.norm(B, 2, axis=(1, 2))[:, None] ** 2
    L[L == 0] = 1.0
    active = np.arange(B.shape[0])
    u_out = np.zeros((B.shape[0], B.shape[2]))
    u = z = u_out.copy()
    t_mom = 1.0
    prev_obj = (b * b).sum(axis=1)
    obj_out = prev_obj.copy()
    with np.errstate(divide="ignore"):  # a zero latent gets scale 0
        for _ in range(max_iter):
            r = (B @ z[:, :, None])[:, :, 0] - b
            v = z - 2.0 * (r[:, None, :] @ B)[:, 0, :] / L
            norms = np.sqrt(np.add.reduceat(v * v, starts, axis=1))
            scale = np.where(penalised, np.maximum(0.0, 1.0 - lam / (L * norms)), 1.0)
            u_new = v * np.repeat(scale, sizes, axis=1)
            t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom**2))
            z = u_new + ((t_mom - 1.0) / t_new) * (u_new - u)
            u, t_mom = u_new, t_new
            r = (B @ u[:, :, None])[:, :, 0] - b
            obj = (r * r).sum(axis=1) + (scale * norms) @ lam_pen
            done = np.abs(prev_obj - obj) < tol * (1.0 + np.abs(obj))
            if done.any():
                u_out[active[done]], obj_out[active[done]] = u[done], obj[done]
                go = ~done
                if not go.any():
                    return u_out, obj_out
                active, B, b, L, u, z, obj = (x[go] for x in (active, B, b, L, u, z, obj))
            prev_obj = obj
    warnings.warn("hierarchical lasso reached the iteration cap", stacklevel=4)
    u_out[active], obj_out[active] = u, prev_obj
    return u_out, obj_out


def _hierarchical_lasso_batch(
    systems, tree, lam, W_gammas, max_iter: int = 20_000, tol: float = 1e-12
):
    """:func:`solve_hierarchical_lasso` on many systems with one FISTA run.

    The systems must have the same groups.  Their scaled latent designs are
    stacked; a system with fewer equations is padded with zero rows, which
    change neither its objective nor its gradient.  A system at or above
    its null threshold gets the closed-form solution of :func:`_null_fits`;
    FISTA solves the others.
    """
    A = [np.asarray(s.A, dtype=float) for s in systems]
    b = [np.asarray(s.b, dtype=float) for s in systems]
    W = [np.asarray(w, dtype=float) for w in W_gammas]
    G = A[0].shape[1]
    if any(a.shape[1] != G for a in A):
        raise DataError("systems solved together must have the same groups")
    if tree.n_nodes > G:
        raise DataError(
            f"hierarchy has {tree.n_nodes} nodes but the system has only {G} groups"
        )
    flat, sizes, penalised = _latent_layout(tree, G)
    if lam == 0:
        return [
            GroupWeights(solve_ridge_hyper(s, 0.0, w).gamma, np.ones(G, dtype=bool), 0.0)
            for s, w in zip(systems, W)
        ]

    # one column per latent entry: B[s] u = As[s] @ (sum of the latents)
    B = np.zeros((len(A), max(a.shape[0] for a in A), len(flat)))
    b_pad = np.zeros(B.shape[:2])
    for s, (a, rhs, w) in enumerate(zip(A, b, W)):
        B[s, : len(rhs)] = (a / np.sqrt(w)[None, :])[:, flat]
        b_pad[s, : len(rhs)] = rhs
    threshold, r0 = _null_fits(B, b_pad, sizes, penalised)
    objective = (r0 * r0).sum(axis=1)
    latent_norms = np.zeros((len(A), len(sizes)))  # zero penalised latents if screened
    fista = lam < threshold
    if fista.any():
        u, objective[fista] = _fista_latents(
            B[fista], b_pad[fista], sizes, penalised, lam, max_iter, tol
        )
        latent_norms[fista] = np.sqrt(np.add.reduceat(u * u, np.cumsum(sizes) - sizes, axis=1))

    selections = []
    for s, norms in enumerate(latent_norms):
        latent_norm_tol = 1e-8 * (1.0 + np.abs(b[s]).max())
        kept = ~penalised | (norms > latent_norm_tol)
        selected = np.zeros(G, dtype=bool)
        selected[flat[np.repeat(kept, sizes)]] = True
        selections.append(selected)
    gammas = _ridge_refits(systems, selections, lam, W)
    return [
        GroupWeights(gamma, selected, float(lam), float(obj))
        for gamma, selected, obj in zip(gammas, selections, objective)
    ]


def solve_hierarchical_lasso(
    system: MomentSystem,
    tree: HierTree,
    lam: float,
    W_gamma: np.ndarray,
    max_iter: int = 20_000,
    tol: float = 1e-12,
) -> GroupWeights:
    """Hierarchy-respecting sparse weights via a latent overlapping group lasso.

    Each tree node contributes a latent vector supported on its root-to-node
    path; the scaled weights are the sum of the latents and each latent's
    Euclidean norm is penalised (the root's is not, so arbitrarily strong
    penalties fall back to the non-informative single-group solution rather
    than an empty one).  A group outside the hierarchy, such as the group of
    covariates with a missing annotation, gets its own unpenalised latent.
    Any union of root-to-node paths is closed under taking ancestors, so the
    selected node set always is too.  Selected groups are then refit with
    ridge shrinkage at the same strength.  Below the null threshold of
    :func:`lasso_null_threshold` the problem is solved by FISTA (Beck &
    Teboulle, 2009) on the stacked latents; at or above it the solution is
    exact and closed-form.
    """
    return _hierarchical_lasso_batch([system], tree, lam, [W_gamma], max_iter, tol)[0]


def solve_hyper(
    systems: Sequence[MomentSystem],
    penalty: HyperPenalty,
    W_gammas: Sequence[np.ndarray],
    tree: HierTree | None = None,
) -> list[GroupWeights]:
    """Solve each system, with its group sizes, under the penalty's kind.

    The hierarchical lasso solves all systems in one batched run; the lasso
    selects on each system and refits the selections with one stacked solve
    per selection pattern; the ridge kinds solve the systems one by one.
    """
    kind = penalty.kind
    if kind == "hierarchical_lasso":
        if tree is None:
            raise DataError(f"hyperpenalty kind '{kind}' requires a hierarchy")
        return _hierarchical_lasso_batch(systems, tree, penalty.lam, W_gammas)
    if kind == "none":
        solve = lambda s, w: solve_ridge_hyper(s, 0.0, w)
    elif kind == "ridge":
        solve = lambda s, w: solve_ridge_hyper(s, penalty.lam, w)
    elif kind == "lasso":
        return _lasso_batch(systems, penalty.lam, W_gammas)
    else:
        raise DataError(f"unknown hyperpenalty kind '{kind}'")
    return [solve(s, w) for s, w in zip(systems, W_gammas)]


def default_lambda_grid() -> np.ndarray:
    return np.logspace(-3, 7, 25)


def estimate_hyperlambda(
    grouping: Grouping,
    core: MomentCore,
    penalty_kind: str = "ridge",
    n_splits: int = 10,
    seed: int = 0,
    grid: np.ndarray | None = None,
    tree: HierTree | None = None,
    tau_global: float = 1.0,
    Z: CoDataMatrix | None = None,
) -> HyperLambda:
    """Tune the hyperpenalty strength by random in/out group splits.

    Each group is split in half; the weights are fit on the in-half system
    and scored by the residual sum of squares on the out-half.  The grid
    value with the smallest mean score wins; a winner on the grid boundary
    extends the grid a decade in that direction, scoring only the new
    candidates.  If the winner is still on the boundary after three
    extensions, the search stops with a warning and returns the value at the
    winner's index in the grid extended once more.  The result also carries
    every scored candidate and its mean score.  The in-half systems of
    one candidate are solved in one :func:`solve_hyper` call.  ``Z`` is the
    grouping's co-data matrix; passing the caller's own lets the core reuse
    what it keeps for that matrix.
    """
    if penalty_kind == "none":
        return HyperLambda(0.0)
    if n_splits < 1:
        raise DataError("at least one split required")
    grid = default_lambda_grid() if grid is None else np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise DataError("empty hyperpenalty grid")

    if Z is None:
        Z = build_codata_matrix(grouping)
    core.plan(Z, n_splits)
    systems_in, systems_out, sizes_in = [], [], []
    for s in range(n_splits):
        split = split_groups_random(grouping, seed=seed + s)
        sys_in, sys_out = build_split_systems(
            core, grouping, split, Z=Z, tau_global=tau_global
        )
        systems_in.append(sys_in)
        systems_out.append(sys_out)
        sizes = np.array([len(part) for part in split.in_groups], dtype=float)
        sizes_in.append(np.maximum(sizes, 1.0))

    def mean_rss(lam):
        penalty = HyperPenalty(kind=penalty_kind, lam=float(lam))
        try:
            fits = solve_hyper(systems_in, penalty, sizes_in, tree=tree)
        except ConvergenceError:
            return np.inf
        resids = [s.A @ gw.gamma - s.b for s, gw in zip(systems_out, fits)]
        return float(np.mean([float(r @ r) for r in resids]))

    grid = np.sort(grid)
    scores: dict[float, float] = {}

    def choice(lam, **how):
        scored = sorted(scores)
        return HyperLambda(
            float(lam),
            grid=tuple(map(float, scored)),
            mean_rss=tuple(scores[x] for x in scored),
            **how,
        )

    for n_ext in range(3):
        for lam in grid:
            if lam not in scores:
                scores[lam] = mean_rss(lam)
        rss = np.array([scores[lam] for lam in grid])
        if not np.isfinite(rss).any():
            raise ConvergenceError("no hyperpenalty candidate produced a finite score")
        best = int(np.nanargmin(np.where(np.isfinite(rss), rss, np.nan)))
        if len(grid) == 1:
            return choice(grid[0])
        step = grid[1] / grid[0]
        if best == 0:
            grid = np.sort(np.concatenate([grid[:1] / step ** np.arange(1, 4), grid]))
        elif best == len(grid) - 1:
            grid = np.sort(np.concatenate([grid, grid[-1:] * step ** np.arange(1, 4)]))
        else:
            return choice(grid[best], n_grid_extensions=n_ext)
    warnings.warn(
        "hyperpenalty optimum on the grid boundary after 3 extensions", stacklevel=2
    )
    return choice(grid[best], on_grid_boundary=True, n_grid_extensions=3)

"""Penalised solvers for group-level weight systems.

The moment systems relating group prior weights to the data are small but
often noisy and rank-deficient, so the weights themselves are regularised:
ridge shrinkage towards the non-informative weight 1, lasso for dropping
uninformative groups, or a latent-overlapping-group lasso that respects a
group hierarchy (a node may be selected only if all its ancestors are).
The strength of this extra penalty is tuned by random in/out splits of the
groups, scoring each candidate on the held-out half of the system.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

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
    target: float = 1.0

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


def group_size_scaling(grouping: Grouping) -> np.ndarray:
    """Diagonal scaling of the weight penalty: one entry per group, its size."""
    return grouping.sizes.astype(float)


def solve_ridge_hyper(
    system: MomentSystem,
    lam: float,
    W_gamma: np.ndarray,
    target: float = 1.0,
) -> GroupWeights:
    """Shrink group weights towards a common target.

    Minimises ``||A W^{-1/2} g' - b||^2 + lam * ||g' - W^{1/2} target||^2``
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
    t_scaled = sqw * target
    G = A.shape[1]
    if lam == 0:
        g_scaled, *_ = np.linalg.lstsq(As, b, rcond=None)
    else:
        lhs = As.T @ As + lam * np.eye(G)
        rhs = As.T @ b + lam * t_scaled
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
    the ridge shrinkage at the same strength.
    """
    if lam == 0:
        return solve_ridge_hyper(system, 0.0, W_gamma)
    A = np.asarray(system.A, dtype=float)
    b = np.asarray(system.b, dtype=float)
    W = np.asarray(W_gamma, dtype=float)
    As = A / np.sqrt(W)[None, :]
    # ||As g - b||^2 + lam ||g||_1, halved
    g_scaled = elastic_net_cd(As, 1.0, b, lam / 2.0)
    selected = np.abs(g_scaled) > 0
    gamma = np.zeros(A.shape[1])
    if selected.any():
        sub = MomentSystem(
            A=A[:, selected],
            b=b,
            group_labels=tuple(np.asarray(system.group_labels)[selected]),
        )
        refit = solve_ridge_hyper(sub, lam, W[selected])
        gamma[selected] = refit.gamma
    return GroupWeights(gamma=gamma, selected=selected, lambda_used=float(lam))


def lasso_null_threshold(system: MomentSystem, W_gamma: np.ndarray) -> float:
    """Smallest L1 strength at which every group is dropped."""
    As = np.asarray(system.A, dtype=float) / np.sqrt(np.asarray(W_gamma, dtype=float))[None, :]
    return float(np.abs(2.0 * As.T @ np.asarray(system.b, dtype=float)).max())


def _latent_paths(tree: HierTree, n_groups: int):
    """Latent supports and the indices of the penalised latents.

    One root-to-node group-index path per tree node, then one single-group
    support per group outside the tree.  Every latent but the root's and
    those of the groups outside the tree is penalised.
    """
    paths = []
    for node in range(tree.n_nodes):
        path = [tree.node_group[m] for m in tree.path_to_root(node)]
        if any(g >= n_groups for g in path):
            raise DataError("hierarchy references a group outside the system")
        paths.append(np.asarray(path))
    outside = sorted(set(range(n_groups)) - set(tree.node_group))
    paths += [np.array([g]) for g in outside]
    penalised = [m for m in range(tree.n_nodes) if m != tree.root]
    return paths, penalised


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
    ridge shrinkage at the same strength.
    """
    A = np.asarray(system.A, dtype=float)
    b = np.asarray(system.b, dtype=float)
    G = A.shape[1]
    W = np.asarray(W_gamma, dtype=float)
    if tree.n_nodes > G:
        raise DataError(
            f"hierarchy has {tree.n_nodes} nodes but the system has only {G} groups"
        )
    As = A / np.sqrt(W)[None, :]
    paths, penalised = _latent_paths(tree, G)

    if lam == 0:
        base = solve_ridge_hyper(system, 0.0, W_gamma)
        return GroupWeights(
            gamma=base.gamma, selected=np.ones(G, dtype=bool), lambda_used=0.0
        )

    # FISTA on the stacked latent variables
    sizes = [len(p) for p in paths]
    total = sum(sizes)
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(int)

    def combine(u):
        g = np.zeros(G)
        for m, path in enumerate(paths):
            g[path] += u[offsets[m] : offsets[m + 1]]
        return g

    def scatter(grad_g):
        out = np.empty(total)
        for m, path in enumerate(paths):
            out[offsets[m] : offsets[m + 1]] = grad_g[path]
        return out

    # Lipschitz constant of the smooth part's gradient
    B_cols = np.hstack([As[:, path] for path in paths])
    L = 2.0 * np.linalg.norm(B_cols, 2) ** 2
    if L == 0:
        L = 1.0

    def objective(u):
        g = combine(u)
        pen = sum(
            np.linalg.norm(u[offsets[m] : offsets[m + 1]])
            for m in penalised
        )
        return float(((As @ g - b) ** 2).sum() + lam * pen)

    u = np.zeros(total)
    z = u.copy()
    t_mom = 1.0
    prev_obj = objective(u)
    for _ in range(max_iter):
        g = combine(z)
        grad_g = 2.0 * As.T @ (As @ g - b)
        u_new = z - scatter(grad_g) / L
        for m in penalised:
            seg = u_new[offsets[m] : offsets[m + 1]]
            nrm = np.linalg.norm(seg)
            scale = max(0.0, 1.0 - lam / (L * nrm)) if nrm > 0 else 0.0
            u_new[offsets[m] : offsets[m + 1]] = seg * scale
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom**2))
        z = u_new + ((t_mom - 1.0) / t_new) * (u_new - u)
        u, t_mom = u_new, t_new
        obj = objective(u)
        if abs(prev_obj - obj) < tol * (1.0 + abs(obj)):
            break
        prev_obj = obj
    else:
        warnings.warn("hierarchical lasso reached the iteration cap", stacklevel=2)

    latent_norm_tol = 1e-8 * (1.0 + np.abs(b).max())
    selected = np.zeros(G, dtype=bool)
    for m, path in enumerate(paths):
        seg = u[offsets[m] : offsets[m + 1]]
        if m not in penalised or np.linalg.norm(seg) > latent_norm_tol:
            selected[path] = True

    gamma = np.zeros(G)
    if selected.any():
        sub = MomentSystem(
            A=A[:, selected],
            b=b,
            group_labels=tuple(np.asarray(system.group_labels)[selected]),
        )
        refit = solve_ridge_hyper(sub, lam, W[selected])
        gamma[selected] = refit.gamma
    return GroupWeights(
        gamma=gamma, selected=selected, lambda_used=float(lam), objective=objective(u)
    )


def solve_hyper(
    system: MomentSystem,
    penalty: HyperPenalty,
    W_gamma: np.ndarray,
    tree: HierTree | None = None,
) -> GroupWeights:
    """Dispatch to the solver matching the penalty kind."""
    kind = penalty.kind
    if kind == "none":
        return solve_ridge_hyper(system, 0.0, W_gamma, target=penalty.target)
    if kind == "ridge":
        return solve_ridge_hyper(system, penalty.lam, W_gamma, target=penalty.target)
    if kind == "lasso":
        return solve_lasso_hyper(system, penalty.lam, W_gamma)
    if kind == "hierarchical_lasso":
        if tree is None:
            raise DataError(f"hyperpenalty kind '{kind}' requires a hierarchy")
        return solve_hierarchical_lasso(system, tree, penalty.lam, W_gamma)
    raise DataError(f"unknown hyperpenalty kind '{kind}'")


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
) -> float:
    """Tune the hyperpenalty strength by random in/out group splits.

    Each group is split in half; the weights are fit on the in-half system
    and scored by the residual sum of squares on the out-half.  The grid
    value with the smallest mean score wins; a winner on the grid boundary
    extends the grid a decade in that direction (up to three times).
    ``Z`` is the grouping's co-data matrix; passing the caller's own lets
    the core reuse the product it keeps for that matrix.
    """
    if penalty_kind == "none":
        return 0.0
    if n_splits < 1:
        raise DataError("at least one split required")
    grid = default_lambda_grid() if grid is None else np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise DataError("empty hyperpenalty grid")

    if Z is None:
        Z = build_codata_matrix(grouping)
    systems = []
    for s in range(n_splits):
        split = split_groups_random(grouping, seed=seed + s)
        sys_in, sys_out = build_split_systems(
            core, grouping, split, Z=Z, tau_global=tau_global
        )
        sizes_in = np.array([len(part) for part in split.in_groups], dtype=float)
        sizes_in = np.maximum(sizes_in, 1.0)
        systems.append((sys_in, sys_out, sizes_in))

    penalty_of = lambda lam: HyperPenalty(kind=penalty_kind, lam=float(lam))

    def mean_rss(lam):
        scores = []
        for sys_in, sys_out, W_in in systems:
            try:
                gw = solve_hyper(sys_in, penalty_of(lam), W_in, tree=tree)
            except ConvergenceError:
                return np.inf
            resid = sys_out.A @ gw.gamma - sys_out.b
            scores.append(float(resid @ resid))
        return float(np.mean(scores))

    grid = np.sort(grid)
    for _extension in range(3):
        rss = np.array([mean_rss(lam) for lam in grid])
        if not np.isfinite(rss).any():
            raise ConvergenceError("no hyperpenalty candidate produced a finite score")
        best = int(np.nanargmin(np.where(np.isfinite(rss), rss, np.nan)))
        if len(grid) == 1:
            return float(grid[0])
        step = grid[1] / grid[0]
        if best == 0:
            grid = np.sort(np.concatenate([grid[:1] / step ** np.arange(1, 4), grid]))
        elif best == len(grid) - 1:
            grid = np.sort(np.concatenate([grid, grid[-1:] * step ** np.arange(1, 4)]))
        else:
            return float(grid[best])
    return float(grid[best])

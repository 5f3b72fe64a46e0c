"""Penalised solvers for group-level weight systems.

The moment systems relating group prior weights to the data are small but
often noisy and rank-deficient, so the weights themselves are regularised:
ridge shrinkage towards the non-informative weight 1, lasso for dropping
uninformative groups, or a latent-overlapping-group lasso that respects a
group hierarchy (a node may be selected only if all its ancestors are).
The strength of this extra penalty is tuned by random in/out splits of the
groups, scoring each candidate on the held-out half of the system.

:func:`solve_hyper` is the one dispatch on the kind.  At zero strength,
and for kind ``none``, every kind is the minimum-norm least-squares fit.
Above zero a kind only selects groups (ridge keeps all of them), and one
ridge solve, stacked over the systems of one selection pattern, gives the
weights of every kind.

Both sparse kinds share one null threshold, :func:`lasso_null_threshold`:
the smallest strength at which every penalised latent is zero.  At or
above it the KKT conditions give the solution in closed form (the
unpenalised latents' least-squares fit, zero elsewhere), so the selection
is made without running coordinate descent or FISTA.  A screened answer
is the exact optimum, not an iterate stopped near it.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .codata import Grouping, HierTree, split_groups_random
from .errors import ConvergenceError, DataError
from .glm import elastic_net_cd
from .mom import MomentCore, MomentSystem, build_split_systems

__all__ = [
    "HyperLambda",
    "GroupWeights",
    "solve_ridge_hyper",
    "solve_lasso_hyper",
    "solve_hierarchical_lasso",
    "estimate_hyperlambda",
    "solve_hyper",
]

KINDS = ("none", "ridge", "lasso", "hierarchical_lasso")


@dataclass
class GroupWeights:
    """Fitted group weights, the groups kept, and a hierarchical lasso's objective."""

    gamma: np.ndarray
    selected: np.ndarray
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
    return solve_hyper([system], "ridge", lam, [W_gamma])[0]


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
    return solve_hyper([system], "lasso", lam, [W_gamma])[0]


def solve_hierarchical_lasso(
    system: MomentSystem,
    tree: HierTree,
    lam: float,
    W_gamma: np.ndarray,
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
    return solve_hyper([system], "hierarchical_lasso", lam, [W_gamma], tree=tree)[0]


def solve_hyper(
    systems: Sequence[MomentSystem],
    kind: str,
    lam,
    W_gammas: Sequence[np.ndarray],
    tree: HierTree | None = None,
) -> list[GroupWeights]:
    """Solve each system, with its group sizes, under hypershrinkage ``kind``.

    ``lam`` holds one strength per system; a scalar is every system's.  At
    zero strength, and for kind ``none``, every kind is the minimum-norm
    least-squares fit of the size-scaled system, truncated at zero.  Above
    zero the kind only picks the groups of each system: ridge keeps all of
    them, the lasso and the hierarchical lasso those their sparse problem
    keeps.  One :func:`_ridge_refits` call then gives every kind's weights.
    ``selected`` is ``gamma > 0`` for the ridge kinds (and the lasso at zero
    strength), every group for the hierarchical lasso at zero strength, and
    the sparse selection otherwise.  Each system's fit is the one it gets
    alone, whatever the other systems and strengths of the call.
    """
    if kind not in KINDS:
        raise DataError(f"unknown hyperpenalty kind '{kind}'")
    lam = np.asarray(lam, dtype=float)
    if lam.ndim and lam.shape != (len(systems),):
        raise DataError("give one hyperpenalty strength per system, or one for all")
    lam = np.broadcast_to(lam, (len(systems),))
    if not (lam >= 0).all():
        raise DataError("hyperpenalty strength must be non-negative")
    W_gammas = [np.asarray(w, dtype=float) for w in W_gammas]
    if kind == "hierarchical_lasso":
        if tree is None:
            raise DataError(f"hyperpenalty kind '{kind}' requires a hierarchy")
        G = np.shape(systems[0].A)[1]
        if any(np.shape(s.A)[1] != G for s in systems):
            raise DataError("systems solved together must have the same groups")
        if tree.n_nodes > G:
            raise DataError(
                f"hierarchy has {tree.n_nodes} nodes but the system has only {G} groups"
            )
        layout = _latent_layout(tree, G)
    fits: list[GroupWeights] = [None] * len(systems)
    for s in np.flatnonzero((lam == 0) | (kind == "none")):
        g = _min_norm_fit(systems[s], W_gammas[s])
        # no latent is penalised: the hierarchical lasso keeps every group
        fits[s] = GroupWeights(g, np.full(len(g), kind == "hierarchical_lasso") | (g > 0))
    pos = [s for s, fit in enumerate(fits) if fit is None]
    if not pos:
        return fits
    systems, lam, W_gammas = [systems[s] for s in pos], lam[pos], [W_gammas[s] for s in pos]
    objectives = [None] * len(systems)
    if kind == "ridge":
        selections = [np.ones(len(W), dtype=bool) for W in W_gammas]
    elif kind == "lasso":
        selections = _lasso_selections(systems, lam, W_gammas)
    else:
        selections, objectives = _hierarchical_selections(systems, layout, lam, W_gammas)
    gammas = _ridge_refits(systems, selections, lam, W_gammas)
    if kind == "ridge":
        selections = [g > 0 for g in gammas]
    for s, fit in zip(pos, zip(gammas, selections, objectives)):
        fits[s] = GroupWeights(*fit)
    return fits


def _min_norm_fit(system: MomentSystem, W: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares weights of the size-scaled system, truncated at zero."""
    sqw = np.sqrt(W)
    g_scaled = np.linalg.lstsq(
        np.asarray(system.A, dtype=float) / sqw[None, :],
        np.asarray(system.b, dtype=float),
        rcond=None,
    )[0]
    return np.maximum(g_scaled / sqw, 0.0)


def _ridge_refits(systems, selections, lam, W_gammas) -> list[np.ndarray]:
    """Ridge weights of each system's selected groups at its strength ``lam
    > 0``, zero elsewhere.

    On the selected columns of the size-scaled system ``As`` this minimises
    ``||As g' - b||^2 + lam * ||g' - W^{1/2}||^2`` (see
    :func:`solve_ridge_hyper`), with one stacked solve for all systems of
    one selection pattern (a system with fewer equations is padded with
    zero rows, which change nothing).
    """
    gammas = [np.zeros(len(sel)) for sel in selections]
    patterns: dict[bytes, list[int]] = {}
    for s, sel in enumerate(selections):
        if sel.any():
            patterns.setdefault(sel.tobytes(), []).append(s)
    for members in patterns.values():
        sel = selections[members[0]]
        sqw = np.sqrt([W_gammas[s][sel] for s in members])
        As = np.zeros((len(members), max(len(systems[s].b) for s in members), len(sqw[0])))
        b = np.zeros(As.shape[:2])
        for i, s in enumerate(members):
            A = np.asarray(systems[s].A, dtype=float)
            As[i, : len(A)] = A[:, sel] / sqw[i]
            b[i, : len(A)] = systems[s].b
        AsT = As.transpose(0, 2, 1)
        lhs = AsT @ As + lam[members, None, None] * np.eye(As.shape[2])
        rhs = AsT @ b[:, :, None] + lam[members, None, None] * sqw[:, :, None]
        g_scaled = np.linalg.solve(lhs, rhs)[:, :, 0]
        for s, g, q in zip(members, g_scaled, sqw):
            gammas[s][sel] = np.maximum(g / q, 0.0)
    return gammas


def _lasso_selections(systems, lam, W_gammas) -> list[np.ndarray]:
    """The groups the lasso keeps in each system at its strength: none at or
    above the null threshold, computed once per distinct system, else those
    with a non-zero scaled weight after coordinate descent."""
    first, index = _distinct(systems, W_gammas)
    threshold = [lasso_null_threshold(systems[s], W_gammas[s]) for s in first]
    selections = []
    for system, lam, W, i in zip(systems, lam, W_gammas, index):
        if lam >= threshold[i]:
            selections.append(np.zeros(len(W), dtype=bool))
            continue
        As = np.asarray(system.A, dtype=float) / np.sqrt(W)[None, :]
        # ||As g - b||^2 + lam ||g||_1, halved
        g_scaled = elastic_net_cd(As, 1.0, np.asarray(system.b, dtype=float), lam / 2.0)
        selections.append(np.abs(g_scaled) > 0)
    return selections


def _distinct(systems, W_gammas):
    """The first of each distinct (system, sizes) pair, by identity, and
    each pair's index among them: a batch of candidates repeats its
    in-systems once per candidate."""
    ids = np.array([(id(system), id(W)) for system, W in zip(systems, W_gammas)])
    _, first, index = np.unique(ids, axis=0, return_index=True, return_inverse=True)
    return first, index.ravel()


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


def _fista_latents(B, b, sizes, penalised, lam, max_iter=20_000, tol=1e-12):
    """FISTA on a stack of latent group lasso problems with one latent layout.

    Problem ``s`` minimises ``||B[s] u - b[s]||^2 + lam[s] * sum ||u_m||``
    over the stacked latents ``u`` (the penalised blocks of ``sizes``).  Each
    problem has its own step ``1/L`` and stops once its objective changes by
    less than ``tol * (1 + |obj|)``; it then leaves the stack with its
    iterate frozen.  Every product and sum runs problem by problem, so each
    takes the iterates it takes alone.  Returns the latents and their
    objectives, one row per problem.
    """
    starts = np.cumsum(sizes) - sizes
    lam = np.broadcast_to(np.asarray(lam, dtype=float), (B.shape[0],))[:, None]
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
            pen = (scale * norms)[:, None, :] @ lam_pen[:, :, None]  # one dot per problem
            obj = (r * r).sum(axis=1) + pen[:, 0, 0]
            done = np.abs(prev_obj - obj) < tol * (1.0 + np.abs(obj))
            if done.any():
                u_out[active[done]], obj_out[active[done]] = u[done], obj[done]
                go = ~done
                if not go.any():
                    return u_out, obj_out
                active, B, b, L, lam, lam_pen, u, z, obj = (
                    x[go] for x in (active, B, b, L, lam, lam_pen, u, z, obj)
                )
            prev_obj = obj
    warnings.warn("hierarchical lasso reached the iteration cap", stacklevel=4)
    u_out[active], obj_out[active] = u, prev_obj
    return u_out, obj_out


def _hierarchical_selections(systems, layout, lam, W_gammas):
    """The groups the hierarchical lasso keeps in each system at its
    strength, and its objective.

    The systems share one latent ``layout`` of :func:`_latent_layout`.
    Their scaled latent designs are stacked; a system with fewer equations
    is padded with zero rows, which change neither its objective nor its
    gradient.  Each distinct system is stacked and screened once.  A
    system at or above its null threshold gets the closed-form solution of
    :func:`_null_fits`; one FISTA run solves the others.
    """
    flat, sizes, penalised = layout
    b = [np.asarray(s.b, dtype=float) for s in systems]
    first, index = _distinct(systems, W_gammas)
    # one column per latent entry: B[i] u = As[i] @ (sum of the latents)
    B = np.zeros((len(first), max(map(len, b)), len(flat)))
    b_pad = np.zeros(B.shape[:2])
    for i, s in enumerate(first):
        A = np.asarray(systems[s].A, dtype=float)
        B[i, : len(b[s])] = (A / np.sqrt(W_gammas[s])[None, :])[:, flat]
        b_pad[i, : len(b[s])] = b[s]
    threshold, r0 = _null_fits(B, b_pad, sizes, penalised)
    threshold, r0 = threshold[index], r0[index]
    objective = (r0 * r0).sum(axis=1)
    latent_norms = np.zeros((len(b), len(sizes)))  # zero penalised latents if screened
    fista = lam < threshold
    if fista.any():
        u, objective[fista] = _fista_latents(
            B[index[fista]], b_pad[index[fista]], sizes, penalised, lam[fista]
        )
        latent_norms[fista] = np.sqrt(np.add.reduceat(u * u, np.cumsum(sizes) - sizes, axis=1))

    selections = []
    for s, norms in enumerate(latent_norms):
        kept = ~penalised | (norms > 1e-8 * (1.0 + np.abs(b[s]).max()))
        selected = np.zeros(len(W_gammas[s]), dtype=bool)
        selected[flat[np.repeat(kept, sizes)]] = True
        selections.append(selected)
    return selections, [float(obj) for obj in objective]


def default_lambda_grid() -> np.ndarray:
    return np.logspace(-3, 7, 25)


def estimate_hyperlambda(
    grouping: Grouping,
    core: MomentCore,
    penalty_kind: str = "ridge",
    n_splits: int = 10,
    seed: int = 0,
    grid: np.ndarray | None = None,
    tau_global: float = 1.0,
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
    the grid, and then of each extension, are solved for all their new
    candidates in one :func:`solve_hyper` call, under the grouping's
    hierarchy if it has one; if that call does not converge, each candidate
    is solved alone and a failing one scores ``inf``.
    """
    if penalty_kind == "none":
        return HyperLambda(0.0)
    if n_splits < 1:
        raise DataError("at least one split required")
    grid = default_lambda_grid() if grid is None else np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise DataError("empty hyperpenalty grid")

    core.plan(grouping, n_splits)
    systems_in, systems_out, sizes_in = [], [], []
    for s in range(n_splits):
        split = split_groups_random(grouping, seed=seed + s)
        sys_in, sys_out = build_split_systems(core, grouping, split, tau_global=tau_global)
        systems_in.append(sys_in)
        systems_out.append(sys_out)
        sizes = np.array([len(part) for part in split.in_groups], dtype=float)
        sizes_in.append(np.maximum(sizes, 1.0))

    def mean_rss(lams):  # of a batch of candidates, on every split
        m, k = len(lams), len(systems_in)
        try:
            fits = solve_hyper(
                systems_in * m, penalty_kind, np.repeat(lams, k), sizes_in * m, tree=grouping.tree
            )
        except ConvergenceError:  # alone, a failing candidate scores inf
            return [np.inf] if m == 1 else [mean_rss([lam])[0] for lam in lams]
        rss = [float(r @ r) for r in (s.A @ f.gamma - s.b for s, f in zip(systems_out * m, fits))]
        return [float(np.mean(rss[i : i + k])) for i in range(0, m * k, k)]

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
        new = [lam for lam in grid if lam not in scores]
        scores.update(zip(new, mean_rss(new)))
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

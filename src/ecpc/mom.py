"""Moment-based linear systems for group-level prior parameters.

From an initial ridge fit (coefficients ``beta_tilde``, weights ``W`` and
diagonal precision ``Omega``) the shrinkage matrix ``C = M^{-1} X'WX`` and
the variance vector ``v = diag(M^{-1} X'WX M^{-1})``, with
``M = X'WX + Omega``, summarise the estimator's first two moments.
Group-averaging those moments yields small linear systems whose solutions
are group-level prior variances, means and co-data weights.

One penalised solve gives ``Y = M^{-1} X' W^{1/2}`` (p x n); with
``R = W^{1/2} X`` that is ``C = Y R`` and ``v = rowsums(Y o Y)``.
Every system is a group average of the rows of ``(C o C) Z`` (``C Z`` for
the means) for some member sets: groups, half-groups or the pooled groups
of several sources.  The core streams C in row blocks once per co-data
matrix to form that product, keeps it, and each system averages its rows
with a sparse matrix.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .codata import CoDataMatrix, GroupSplit, Grouping, build_codata_matrix
from .errors import DataError
from .glm import solve_penalized_system

__all__ = [
    "MomentCore",
    "MomentSystem",
    "compute_moment_core",
    "build_variance_system",
    "build_mean_system",
    "build_split_systems",
    "build_grouping_weight_system",
]

# rows of C formed at once when streaming it
ROW_BLOCK = 1024


@dataclass
class MomentCore:
    """Variance vector and initial estimate of a ridge fit, with C in factors.

    ``C = _Y @ _R`` with ``_Y = M^{-1} X' W^{1/2}`` and ``_R = W^{1/2} X``;
    the systems only read its penalised block (columns of unpenalised
    covariates are unit vectors and decouple from the group systems).
    Products with co-data matrices are kept per matrix object.
    """

    beta_tilde: np.ndarray
    v: np.ndarray
    pen_mask: np.ndarray
    _Y: np.ndarray
    _R: np.ndarray
    _products: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def p(self) -> int:
        return len(self.beta_tilde)

    @property
    def pen_idx(self) -> np.ndarray:
        return np.flatnonzero(self.pen_mask)

    @property
    def n_pen(self) -> int:
        return int(self.pen_mask.sum())

    @property
    def C(self) -> np.ndarray:
        """The full p x p shrinkage matrix, formed on demand for inspection.

        Unpenalised columns are set to exact unit vectors, as
        ``C = I - M^{-1} Omega`` implies.
        """
        C = self._Y @ self._R
        unp = np.flatnonzero(~self.pen_mask)
        C[:, unp] = 0.0
        C[unp, unp] = 1.0
        return C

    def iter_row_blocks(self):
        """Yield (penalised row indices, C rows over penalised columns)."""
        pen = self.pen_idx
        Rc = self._R[:, pen]
        for start in range(0, len(pen), ROW_BLOCK):
            rows = np.arange(start, min(start + ROW_BLOCK, len(pen)))
            yield rows, self._Y[pen[rows]] @ Rc

    def codata_product(self, Z: CoDataMatrix, squared: bool = True) -> np.ndarray:
        """``(C o C) @ Z.entries`` over the penalised block (``C @ Z.entries``
        with ``squared=False``), from one pass over C per matrix.

        The result is kept, for the life of the core, next to ``Z`` itself, so
        the key ``id(Z)`` cannot be reused by another matrix; callers reuse it
        by passing the same matrix object.
        """
        key = (id(Z), squared)
        if key not in self._products:
            Zm = Z.entries
            if Zm.shape[0] != self.n_pen:
                raise DataError(
                    "co-data matrix rows must match the penalised covariate count"
                )
            out = np.empty((self.n_pen, Zm.shape[1]))
            for rows, C_rows in self.iter_row_blocks():
                out[rows] = (C_rows**2 if squared else C_rows) @ Zm
            self._products[key] = (Z, out)
        return self._products[key][1]


def compute_moment_core(X, W, precision_diag, beta_tilde) -> MomentCore:
    """Build the moment core from the initial ridge fit's ingredients.

    ``W`` holds the per-sample information-scale weights and
    ``precision_diag`` the diagonal prior precision used for that fit (zero
    entries mark unpenalised covariates).
    """
    X = np.asarray(X, dtype=float)
    n, p = X.shape
    w = np.broadcast_to(np.asarray(W, dtype=float), (n,))
    omega = np.asarray(precision_diag, dtype=float)
    beta_tilde = np.asarray(beta_tilde, dtype=float)
    if len(omega) != p or len(beta_tilde) != p:
        raise DataError("precision and beta_tilde must have one entry per column of X")
    R = np.sqrt(w)[:, None] * X
    Y = solve_penalized_system(X, w, omega, R.T)
    return MomentCore(
        beta_tilde=beta_tilde, v=(Y**2).sum(axis=1), pen_mask=omega > 0, _Y=Y, _R=R
    )


@dataclass
class MomentSystem:
    """Left-hand matrix and right-hand vector of a group-level linear system."""

    A: np.ndarray
    b: np.ndarray
    group_labels: tuple[str, ...]


def _average_rows(rows, member_sets, resid, labels, tau: float = 1.0) -> MomentSystem:
    """Average ``rows`` and ``resid`` over each member set: ``A = tau P rows``.

    ``P`` is the sparse row-averaging matrix with entry ``1/|set|`` in the
    columns of each set's members.
    """
    sizes = np.array([len(m) for m in member_sets], dtype=int)
    members = np.array([k for m in member_sets for k in m], dtype=int)
    indptr = np.concatenate([[0], np.cumsum(sizes)])
    P = sparse.csr_matrix(
        (np.repeat(1.0 / sizes, sizes), members, indptr),
        shape=(len(member_sets), len(resid)),
    )
    return MomentSystem(A=tau * (P @ rows), b=P @ resid, group_labels=tuple(labels))


def _beta_sq_minus_v(core: MomentCore) -> np.ndarray:
    pen = core.pen_idx
    return core.beta_tilde[pen] ** 2 - core.v[pen]


def build_variance_system(
    core: MomentCore,
    Z: CoDataMatrix,
    grouping: Grouping,
    tau_global: float = 1.0,
) -> MomentSystem:
    """Second-moment system whose unknowns are the group prior weights.

    ``A[g,h] = tau_global / |G_g| * sum_{k in G_g} sum_l C_kl^2 Z[l,h]`` and
    ``b[g]`` averages ``beta_tilde^2 - v`` over group ``g``.  With the
    default ``tau_global=1`` this is the raw group-averaged system; passing
    the estimated global variance puts the unknowns on the local-variance
    scale with non-informative target 1.
    """
    groups = grouping.groups
    if any(len(g) == 0 for g in groups):
        raise DataError("empty group in variance system")
    rows = core.codata_product(Z)
    labels = [f"{grouping.name}:{g}" for g in range(len(groups))]
    return _average_rows(rows, groups, _beta_sq_minus_v(core), labels, tau_global)


def build_mean_system(
    core: MomentCore,
    Z: CoDataMatrix,
    grouping: Grouping,
) -> MomentSystem:
    """First-moment system for group prior means: ``A = P C Z``."""
    rows = core.codata_product(Z, squared=False)
    labels = [f"{grouping.name}:{g}" for g in range(grouping.n_groups)]
    return _average_rows(rows, grouping.groups, core.beta_tilde[core.pen_idx], labels)


def build_split_systems(
    core: MomentCore,
    grouping: Grouping,
    split: GroupSplit,
    Z: CoDataMatrix | None = None,
    tau_global: float = 1.0,
) -> tuple[MomentSystem, MomentSystem]:
    """Variance systems restricted to the in- and out-halves of each group.

    Row sums run over the half's members only; the column structure (and
    hence the unknowns) stays per original group.  A group with an empty
    half has its equation dropped from that half's system, with a warning.
    """
    if Z is None:
        Z = build_codata_matrix(grouping)
    rows = core.codata_product(Z)
    resid = _beta_sq_minus_v(core)

    def restricted(parts, tag):
        keep = [g for g, part in enumerate(parts) if len(part) > 0]
        if len(keep) < len(parts):
            warnings.warn(
                f"{len(parts) - len(keep)} group(s) with empty {tag}-part dropped",
                stacklevel=3,
            )
        labels = [f"{grouping.name}:{g}:{tag}" for g in keep]
        return _average_rows(rows, [parts[g] for g in keep], resid, labels, tau_global)

    return restricted(split.in_groups, "in"), restricted(split.out_groups, "out")


def build_grouping_weight_system(
    core: MomentCore,
    codata_matrices: list[CoDataMatrix],
    groupings: list[Grouping],
    gamma_hats: list[np.ndarray],
    tau_global: float,
) -> MomentSystem:
    """Pooled system for the per-grouping weights.

    All groups of all groupings are pooled into one variance system; fixing
    the fitted group weights turns it into ``G_total`` equations in the D
    grouping weights, with column d equal to
    ``tau_global * A_pool[:, block d] @ gamma_hat_d``.
    """
    if not (len(codata_matrices) == len(groupings) == len(gamma_hats)):
        raise DataError("one co-data matrix and weight vector per grouping required")
    for Z, grouping, gam in zip(codata_matrices, groupings, gamma_hats):
        if Z.n_groups != len(gam):
            raise DataError(
                f"grouping '{grouping.name}': {Z.n_groups} groups but "
                f"{len(gam)} fitted weights"
            )
    rows = np.column_stack(
        [
            core.codata_product(Z) @ np.asarray(gam, dtype=float)
            for Z, gam in zip(codata_matrices, gamma_hats)
        ]
    )
    groups = [members for grouping in groupings for members in grouping.groups]
    labels = [
        f"{grouping.name}:{g}" for grouping in groupings for g in range(grouping.n_groups)
    ]
    return _average_rows(rows, groups, _beta_sq_minus_v(core), labels, tau_global)

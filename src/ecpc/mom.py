"""Moment-based linear systems for group-level prior parameters.

From an initial ridge fit (coefficients ``beta_tilde``, weights ``W`` and
diagonal precision ``Omega``) the shrinkage matrix
``C = (X'WX + Omega)^{-1} X'WX`` and the variance vector
``v = diag((X'WX + Omega)^{-1} X'WX (X'WX + Omega)^{-1})`` summarise the
estimator's first two moments.  Group-averaging those moments yields small
linear systems whose solutions are group-level prior variances, means and
co-data weights.

For p > n both quantities are built through an n x n kernel; C is kept in
low-rank factor form and never materialised beyond a configurable size.
Every system is a group average of the rows of ``(C o C) Z`` (``C Z`` for
the means) for some member sets: groups, half-groups or the pooled groups
of several sources.  The core streams C once per co-data matrix to form that
product, keeps it, and each system averages its rows with a sparse matrix.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.linalg import cho_factor, cho_solve

from .codata import CoDataMatrix, GroupSplit, Grouping, build_codata_matrix
from .errors import DataError, SingularSystemError

__all__ = [
    "MomentCore",
    "MomentSystem",
    "compute_moment_core",
    "build_variance_system",
    "build_mean_system",
    "build_split_systems",
    "build_grouping_weight_system",
]


@dataclass
class MomentCore:
    """Shrinkage matrix, variance vector and initial estimate of a ridge fit.

    ``C`` is materialised only for small problems; otherwise it is held as a
    low-rank product ``Lc @ Rc`` restricted to the penalised block (columns
    of unpenalised covariates are unit vectors and decouple from the group
    systems).  Products with co-data matrices are kept per matrix object.
    """

    beta_tilde: np.ndarray
    v: np.ndarray
    pen_mask: np.ndarray
    C: np.ndarray | None = None
    _Lc: np.ndarray | None = None
    _Rc: np.ndarray | None = None
    block_size: int = 1024
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

    def iter_row_blocks(self):
        """Yield (penalised row indices, C rows over penalised columns)."""
        pen = self.pen_idx
        if self.C is not None:
            yield np.arange(len(pen)), self.C[np.ix_(pen, pen)]
            return
        for start in range(0, len(pen), self.block_size):
            rows = np.arange(start, min(start + self.block_size, len(pen)))
            yield rows, self._Lc[rows] @ self._Rc

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

    def matvec_pen(self, x: np.ndarray) -> np.ndarray:
        """C restricted to the penalised block applied to a vector."""
        pen = self.pen_idx
        if self.C is not None:
            return self.C[np.ix_(pen, pen)] @ x
        return self._Lc @ (self._Rc @ x)


def _dense_core(X, w, omega, beta_tilde):
    n, p = X.shape
    M = (X.T * w) @ X + np.diag(omega)
    try:
        c, low = cho_factor(M)
    except np.linalg.LinAlgError:
        raise SingularSystemError(
            f"moment-core system singular (cond={np.linalg.cond(M):.3e})"
        )
    Minv = cho_solve((c, low), np.eye(p))
    C = np.eye(p) - Minv * omega[None, :]
    v = np.diag(Minv) - (Minv**2 * omega[None, :]).sum(axis=1)
    return C, v


def _factor_core(X, w, omega, pen, block_size):
    """Low-rank factors of the penalised block of C, plus the v vector."""
    n, p = X.shape
    unp = ~pen
    Xp = X[:, pen]
    om = omega[pen]
    sw = np.sqrt(w)
    Sb = (sw[:, None] * Xp) / np.sqrt(om)[None, :]  # W^{1/2} X_P Omega^{-1/2}
    K = np.eye(n) + Sb @ Sb.T
    try:
        cK = cho_factor(K)
    except np.linalg.LinAlgError:
        raise SingularSystemError(
            f"moment-core kernel singular (cond={np.linalg.cond(K):.3e})"
        )
    Sbb = Sb / np.sqrt(om)[None, :]  # W^{1/2} X_P Omega^{-1}
    KinvSbb = cho_solve(cK, Sbb)  # n x p_pen; M_PP^{-1} = Omega^{-1} - Sbb' K^{-1} Sbb

    if unp.any():
        Xu = X[:, unp]
        M_pu = (Xp.T * w) @ Xu
        M_uu = (Xu.T * w) @ Xu
        E = M_pu / om[:, None] - Sbb.T @ (KinvSbb @ M_pu)  # M_PP^{-1} M_PU
        schur = M_uu - M_pu.T @ E
        try:
            cS = cho_factor(schur)
        except np.linalg.LinAlgError:
            raise SingularSystemError("unpenalised block not identifiable")
        ScEt = cho_solve(cS, E.T)  # u x p_pen
        Lc = np.hstack([Sbb.T, -E])
        Rc = np.vstack([KinvSbb * om[None, :], ScEt * om[None, :]])
    else:
        E = ScEt = None
        Lc = Sbb.T
        Rc = KinvSbb * om[None, :]

    # v over penalised rows, streamed: v_k = Minv_kk - sum_l om_l Minv_kl^2
    p_pen = int(pen.sum())
    v_pen = np.zeros(p_pen)
    for start in range(0, p_pen, block_size):
        rows = np.arange(start, min(start + block_size, p_pen))
        Minv_rows = -Sbb.T[rows] @ KinvSbb
        if E is not None:
            Minv_rows += E[rows] @ ScEt
        Minv_rows[np.arange(len(rows)), rows] += 1.0 / om[rows]
        v_pen[rows] = Minv_rows[np.arange(len(rows)), rows] - (
            Minv_rows**2 * om[None, :]
        ).sum(axis=1)

    v = np.zeros(p)
    v[pen] = v_pen
    C_up = None
    if unp.any():
        Minv_up = -ScEt  # rows of M^{-1} over unpenalised, penalised columns
        Minv_uu = cho_solve(cS, np.eye(int(unp.sum())))
        v[unp] = np.diag(Minv_uu) - (Minv_up**2 * om[None, :]).sum(axis=1)
        C_up = ScEt * om[None, :]  # C rows over unpenalised, penalised columns
    return Lc, Rc, v, C_up


def compute_moment_core(
    X,
    W,
    precision_diag,
    beta_tilde,
    materialize_threshold: int = 5000,
    block_size: int = 1024,
) -> MomentCore:
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
    pen = omega > 0

    if p <= n and p <= materialize_threshold:
        C, v = _dense_core(X, w, omega, beta_tilde)
        return MomentCore(beta_tilde=beta_tilde, v=v, pen_mask=pen, C=C, block_size=block_size)

    Lc, Rc, v, C_up = _factor_core(X, w, omega, pen, block_size)
    core = MomentCore(
        beta_tilde=beta_tilde, v=v, pen_mask=pen, _Lc=Lc, _Rc=Rc, block_size=block_size
    )
    if p <= materialize_threshold:
        # materialise the full C for direct inspection; unpenalised columns
        # are exact unit vectors
        C = np.zeros((p, p))
        pen_idx = np.flatnonzero(pen)
        C[np.ix_(pen_idx, pen_idx)] = Lc @ Rc
        if (~pen).any():
            unp_idx = np.flatnonzero(~pen)
            C[np.ix_(unp_idx, pen_idx)] = C_up
            C[unp_idx, unp_idx] = 1.0
        core.C = C
    return core


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
    prior_mean=None,
    mu_tilde=None,
    tau_global: float = 1.0,
) -> MomentSystem:
    """Second-moment system whose unknowns are the group prior weights.

    ``A[g,h] = tau_global / |G_g| * sum_{k in G_g} sum_l C_kl^2 Z[l,h]`` and
    ``b[g]`` averages ``beta_tilde^2 - v`` (minus the squared-mean term when
    a non-zero prior mean is supplied) over group ``g``.  With the default
    ``tau_global=1`` this is the raw group-averaged system; passing the
    estimated global variance puts the unknowns on the local-variance scale
    with non-informative target 1.
    """
    groups = grouping.groups
    if any(len(g) == 0 for g in groups):
        raise DataError("empty group in variance system")
    rows = core.codata_product(Z)
    resid = _beta_sq_minus_v(core)
    if prior_mean is not None:
        mu = np.asarray(prior_mean, dtype=float)
        mt = np.zeros(core.n_pen) if mu_tilde is None else np.asarray(mu_tilde, dtype=float)
        # ((I - C) mu_tilde + C Z mu)^2
        resid = resid - (mt - core.matvec_pen(mt) + core.matvec_pen(Z.entries @ mu)) ** 2
    labels = [f"{grouping.name}:{g}" for g in range(len(groups))]
    return _average_rows(rows, groups, resid, labels, tau_global)


def build_mean_system(
    core: MomentCore,
    Z: CoDataMatrix,
    grouping: Grouping,
    mu_tilde=None,
) -> MomentSystem:
    """First-moment system for group prior means: ``A = P C Z``."""
    rows = core.codata_product(Z, squared=False)
    beta = core.beta_tilde[core.pen_idx]
    mt = np.zeros(core.n_pen) if mu_tilde is None else np.asarray(mu_tilde, dtype=float)
    rhs = beta - (mt - core.matvec_pen(mt))
    labels = [f"{grouping.name}:{g}" for g in range(grouping.n_groups)]
    return _average_rows(rows, grouping.groups, rhs, labels)


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

"""Moment-based linear systems for group-level prior parameters.

From an initial ridge fit (coefficients ``beta_tilde``, weights ``W`` and
diagonal precision ``Omega``) the shrinkage matrix ``C = M^{-1} X'WX`` and
the variance vector ``v = diag(M^{-1} X'WX M^{-1})``, with
``M = X'WX + Omega``, summarise the estimator's first two moments.
Group-averaging those moments yields small linear systems whose solutions
are group-level prior variances, means and co-data weights.

One penalised solve gives ``Y = M^{-1} X' W^{1/2}`` (p x r, with r = n);
with ``R = W^{1/2} X`` that is ``C = Y R`` and ``v = rowsums(Y o Y)``, so C
has rank at most r.  Every variance-type system entry sums, over the members
k of a member set h (a group, a half-group or a group of another source),
the rows of ``(C o C) Z``, with ``Z = grouping.entries`` the co-data matrix
of a source.  With ``Y_k`` the k-th row of Y, each such sum is the inner
product of two r x r Gram matrices:

    sum_{k in h} ((C o C) Z)[k, g] = < sum_{k in h} Y_k Y_k',  R diag(Z_g) R' >

Two routes build the sums of one source's Z (G columns, p covariates):

- *direct*: stream C once in row blocks, keep ``(C o C) Z`` (p x G) and add
  up its rows per set; about ``p^2 (r + G)`` flops.
- *Gram*: form the group Grams ``R diag(Z_g) R'`` once from the nonzeros of
  ``Z_g``, a member-set Gram per set, and all H x G entries of a system in
  one ``(H x r^2) @ (r^2 x G)`` product; about
  ``(nnz(Z) + sum |h|) r^2 + H G r^2`` flops.  No row of C is formed.

The right-hand sides average ``beta_tilde^2 - v`` over the same sets.  A
split's out-half sums, of both, are its group sums minus its in-half sums,
so a split pair costs Grams for the in-halves only.  ``_route`` compares
the two flop counts once per grouping, given how many split pairs will be
built from it, and the core keeps what the chosen route needs.  The
routes agree to rounding.  Only the penalised block enters (columns of
unpenalised covariates are unit vectors and decouple from the group
systems).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import chain

import numpy as np
from scipy import sparse

from .codata import GroupSplit, Grouping
from .errors import DataError
from .glm import _RowSpace, solve_penalized_system

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


def _route(n_pen: int, r: int, nnz: int, n_groups: int, n_splits: int) -> str:
    """The route with fewer flops for one grouping's systems.

    ``n_pen`` penalised covariates, factor rank ``r``, and a co-data matrix
    with ``n_groups`` columns and ``nnz`` nonzeros, from which the variance
    system (one set per group) and ``n_splits`` split pairs (in-halves of
    ``ceil(|g|/2)`` members) are built.
    """
    direct = n_pen**2 * (r + n_groups)
    members = nnz + n_splits * ((nnz + n_groups) // 2)
    sets = n_groups * (1 + n_splits)
    gram = (nnz + members) * r**2 + sets * n_groups * r**2
    return "gram" if gram < direct else "direct"


@dataclass
class _CoDataTerms:
    """What a route keeps for one grouping.

    ``terms`` is ``(C o C) Z`` over the penalised block (direct route) or the
    group Grams ``R diag(Z_g) R'`` flattened to rows (Gram route), and
    ``group_sums`` the sums over the grouping's groups, once formed.  The
    grouping itself is held so that its ``id`` cannot be reused by another.
    """

    grouping: Grouping
    route: str
    terms: np.ndarray
    group_sums: np.ndarray | None = None


@dataclass
class MomentCore:
    """Variance vector and initial estimate of a ridge fit, with C in factors.

    ``C = _Y @ _R`` with ``_Y = M^{-1} X' W^{1/2}`` and ``_R = W^{1/2} X``;
    the systems only read its penalised block.  What each grouping's
    systems need is kept per grouping object (see :meth:`plan`).
    """

    beta_tilde: np.ndarray
    v: np.ndarray
    pen_mask: np.ndarray
    _Y: np.ndarray
    _R: np.ndarray
    _codata: dict = field(default_factory=dict, repr=False, compare=False)

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
    def rank(self) -> int:
        """Inner dimension r of C's factors, a bound on its rank."""
        return self._R.shape[0]

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

    def plan(self, grouping: Grouping, n_splits: int = 0) -> str:
        """Choose the route for the systems of ``grouping`` and build what it
        keeps.

        The choice is made once per grouping object, at its first use, for a
        variance system plus ``n_splits`` split pairs; later calls return it.
        """
        return self._terms(grouping, n_splits).route

    def _terms(self, grouping: Grouping, n_splits: int = 0) -> _CoDataTerms:
        """What :meth:`plan` keeps for ``grouping``, built at the first call."""
        kept = self._codata.get(id(grouping))
        if kept is not None:
            return kept
        Zm = _checked_entries(self, grouping)
        pen = self.pen_idx
        cols = [np.flatnonzero(Zm[:, g]) for g in range(Zm.shape[1])]
        nnz = sum(len(c) for c in cols)
        route = _route(self.n_pen, self.rank, nnz, Zm.shape[1], n_splits)
        if route == "direct":
            terms = np.empty((self.n_pen, Zm.shape[1]))
            for rows, C_rows in self.iter_row_blocks():
                terms[rows] = C_rows**2 @ Zm
        else:
            terms = np.empty((Zm.shape[1], self.rank**2))
            for g, members in enumerate(cols):
                R_g = self._R[:, pen[members]]
                terms[g] = ((R_g * Zm[members, g]) @ R_g.T).ravel()
        kept = self._codata[id(grouping)] = _CoDataTerms(grouping, route, terms)
        return kept

    def _set_grams(self, member_sets) -> np.ndarray:
        """``sum_{k in h} Y_k Y_k'`` for each member set h, one row each."""
        pen = self.pen_idx
        out = np.empty((len(member_sets), self.rank**2))
        for i, members in enumerate(member_sets):
            Y_h = self._Y[pen[np.asarray(members, dtype=int)]]
            out[i] = (Y_h.T @ Y_h).ravel()
        return out

    def _sums(self, grouping: Grouping, member_sets) -> np.ndarray:
        """Sums over each member set of the rows of ``(C o C) Z`` and, in a
        last column, of ``beta_tilde^2 - v`` (H x (G + 1))."""
        kept = self._terms(grouping)
        P = _indicator(member_sets, self.n_pen)
        resid_sums = P @ _beta_sq_minus_v(self)
        if kept.route == "direct":
            sums = P @ kept.terms
        else:
            sums = self._set_grams(member_sets) @ kept.terms.T
        return np.column_stack([sums, resid_sums])

    def _group_sums(self, grouping: Grouping) -> np.ndarray:
        """:meth:`_sums` over the grouping's groups, kept for the systems that
        reuse it."""
        kept = self._terms(grouping)
        if kept.group_sums is None:
            kept.group_sums = self._sums(grouping, grouping.groups)
        return kept.group_sums


def _checked_entries(core: MomentCore, grouping: Grouping) -> np.ndarray:
    if grouping.p != core.n_pen:
        raise DataError("co-data matrix rows must match the penalised covariate count")
    return grouping.entries


def compute_moment_core(X, W, precision_diag, beta_tilde, *, rows=None) -> MomentCore:
    """Build the moment core from the initial ridge fit's ingredients.

    ``W`` holds the per-sample information-scale weights and
    ``precision_diag`` the diagonal prior precision used for that fit (zero
    entries mark unpenalised covariates).  With more penalised columns than
    samples ``Y`` lies in the fit's row space (``glm._RowSpace``, ``rows``
    if the fit shares it): with ``beta = T alpha`` and ``Z = X T``, ``Y = T
    (Z'WZ + T'Omega T)^{-1} Z'W^{1/2}``, one small solve and one p x n x n
    product.  ``Y`` is C-contiguous: the member sets gather its rows.
    """
    X = np.asarray(X, dtype=float)
    n, p = X.shape
    w = np.broadcast_to(np.asarray(W, dtype=float), (n,))
    omega = np.asarray(precision_diag, dtype=float)
    beta_tilde = np.asarray(beta_tilde, dtype=float)
    if len(omega) != p or len(beta_tilde) != p:
        raise DataError("precision and beta_tilde must have one entry per column of X")
    sw = np.sqrt(w)
    R = sw[:, None] * X
    rows = rows or _RowSpace.of(X, omega)
    if rows is None:
        Y = np.ascontiguousarray(solve_penalized_system(X, w, omega, R.T))
    else:  # Z' W^{1/2}: the rotated R'
        Y = rows.beta(solve_penalized_system(rows.Z, w, rows.omega, (sw[:, None] * rows.Z).T))
    return MomentCore(
        beta_tilde=beta_tilde, v=(Y**2).sum(axis=1), pen_mask=omega > 0, _Y=Y, _R=R
    )


@dataclass
class MomentSystem:
    """Left-hand matrix and right-hand vector of a group-level linear system."""

    A: np.ndarray
    b: np.ndarray
    group_labels: tuple[str, ...]


def _indicator(member_sets, n: int) -> sparse.csr_matrix:
    """Sparse H x n matrix summing over each set's members."""
    sizes = [len(m) for m in member_sets]
    members = np.fromiter(chain.from_iterable(member_sets), dtype=np.intp, count=sum(sizes))
    return sparse.csr_matrix(
        (np.ones(len(members)), members, np.concatenate([[0], np.cumsum(sizes)])),
        shape=(len(member_sets), n),
    )


def _averaged(sums, member_sets, labels, tau: float = 1.0) -> MomentSystem:
    """``A = tau sums[:, :-1] / |set|`` and ``b = sums[:, -1] / |set|``."""
    sizes = np.array([len(m) for m in member_sets], dtype=float)
    A = tau * sums[:, :-1] / sizes[:, None]
    return MomentSystem(A=A, b=sums[:, -1] / sizes, group_labels=tuple(labels))


def _beta_sq_minus_v(core: MomentCore) -> np.ndarray:
    pen = core.pen_idx
    return core.beta_tilde[pen] ** 2 - core.v[pen]


def build_variance_system(
    core: MomentCore,
    grouping: Grouping,
    tau_global: float = 1.0,
) -> MomentSystem:
    """Second-moment system whose unknowns are the group prior weights.

    ``A[g,h] = tau_global / |G_g| * sum_{k in G_g} sum_l C_kl^2 Z[l,h]``,
    with ``Z = grouping.entries``, and
    ``b[g]`` averages ``beta_tilde^2 - v`` over group ``g``.  With the
    default ``tau_global=1`` this is the raw group-averaged system; passing
    the estimated global variance puts the unknowns on the local-variance
    scale with non-informative target 1.
    """
    groups = grouping.groups
    labels = [f"{grouping.name}:{g}" for g in range(len(groups))]
    return _averaged(core._group_sums(grouping), groups, labels, tau_global)


def build_mean_system(core: MomentCore, grouping: Grouping) -> MomentSystem:
    """First-moment system for group prior means: ``A = P C Z``.

    ``P`` averages over each group; ``C Z`` comes from the factors of C,
    ``Y (R Z)``, summed over each group's rows first.
    """
    Zm = _checked_entries(core, grouping)
    pen = core.pen_idx
    groups = grouping.groups
    P = _indicator(groups, core.n_pen)
    sums = np.column_stack(
        [(P @ core._Y[pen]) @ (core._R[:, pen] @ Zm), P @ core.beta_tilde[pen]]
    )
    labels = [f"{grouping.name}:{g}" for g in range(grouping.n_groups)]
    return _averaged(sums, groups, labels)


def build_split_systems(
    core: MomentCore,
    grouping: Grouping,
    split: GroupSplit,
    tau_global: float = 1.0,
) -> tuple[MomentSystem, MomentSystem]:
    """Variance systems restricted to the in- and out-halves of each group.

    Row sums run over the half's members only; the column structure (and
    hence the unknowns) stays per original group.  The halves must
    partition each group: the out-half sums are the group's sums minus the
    in-half's.  A group with an empty half has its equation dropped from
    that half's system, with a warning.
    """
    if not _halves_partition(split, grouping):
        raise DataError("split halves must partition the grouping's groups")
    sums_in = core._sums(grouping, split.in_groups)
    sums_out = core._group_sums(grouping) - sums_in

    def restricted(parts, sums, tag):
        keep = [g for g, part in enumerate(parts) if len(part) > 0]
        if len(keep) < len(parts):
            warnings.warn(
                f"{len(parts) - len(keep)} group(s) with empty {tag}-part dropped",
                stacklevel=3,
            )
        labels = [f"{grouping.name}:{g}:{tag}" for g in keep]
        sets = [parts[g] for g in keep]
        return _averaged(sums[keep], sets, labels, tau_global)

    return (
        restricted(split.in_groups, sums_in, "in"),
        restricted(split.out_groups, sums_out, "out"),
    )


def _halves_partition(split: GroupSplit, grouping: Grouping) -> bool:
    """Whether a split's halves partition each group: one sort, keyed by group."""
    halves = [a + b for a, b in zip(split.in_groups, split.out_groups)]
    sizes = [len(h) for h in halves]
    if sizes != grouping.sizes.tolist():
        return False
    members = np.fromiter(chain.from_iterable(halves), dtype=np.intp, count=sum(sizes))
    if members.min() < 0 or members.max() >= grouping.p:  # keys out of their group's range
        return False
    offset = np.repeat(np.arange(len(sizes)) * grouping.p, sizes)
    return np.array_equal(np.sort(members + offset), grouping.members + offset)


def build_grouping_weight_system(
    core: MomentCore,
    groupings: list[Grouping],
    gamma_hats: list[np.ndarray],
    tau_global: float,
) -> MomentSystem:
    """Pooled system for the per-grouping weights.

    All groups of all groupings are pooled into one variance system; fixing
    the fitted group weights turns it into ``G_total`` equations in the D
    grouping weights, with column d equal to
    ``tau_global * A_pool[:, block d] @ gamma_hat_d``.  On the Gram route
    that column takes one Gram ``sum_g gamma_g R diag(Z_g) R'`` per source.
    """
    if len(groupings) != len(gamma_hats):
        raise DataError("one weight vector per grouping required")
    for grouping, gam in zip(groupings, gamma_hats):
        if grouping.n_groups != len(gam):
            raise DataError(
                f"grouping '{grouping.name}': {grouping.n_groups} groups but "
                f"{len(gam)} fitted weights"
            )
    groups = [members for grouping in groupings for members in grouping.groups]
    P = _indicator(groups, core.n_pen)
    set_grams = None
    columns = []
    for grouping, gam in zip(groupings, gamma_hats):
        kept = core._terms(grouping)
        gam = np.asarray(gam, dtype=float)
        if kept.route == "direct":
            columns.append(P @ (kept.terms @ gam))
        else:
            if set_grams is None:
                set_grams = core._set_grams(groups)
            columns.append(set_grams @ (gam @ kept.terms))
    columns.append(P @ _beta_sq_minus_v(core))
    labels = [
        f"{grouping.name}:{g}" for grouping in groupings for g in range(grouping.n_groups)
    ]
    return _averaged(np.column_stack(columns), groups, labels, tau_global)

"""Groupings of covariates and the matrices derived from them.

A grouping is a collection of (possibly overlapping) index sets covering all
covariates: one co-data source.  It carries its membership-averaging matrix
(:attr:`Grouping.entries`), which maps group-level weights to
covariate-level prior variances.  Continuous covariate annotations are
handled by an adaptive median-split discretisation that produces a
hierarchy of nested groups.

Indices are 0-based internally; the file formats use 1-based indices.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, islice

import numpy as np

from .errors import CoverageError, DataError

__all__ = [
    "Grouping",
    "HierTree",
    "GroupSplit",
    "build_codata_matrix",
    "build_hierarchy_from_continuous",
    "split_groups_random",
    "load_grouping_json",
    "load_continuous_csv",
]


@dataclass(frozen=True)
class HierTree:
    """Hierarchy over the groups of a grouping.

    ``node_group[i]`` is the group index represented by node ``i``;
    ``parent[i]`` is the parent node index or ``None`` for the root.
    Nodes are stored in depth-first preorder (low branch first), so
    iterating ``leaves`` walks the leaf groups left to right.
    """

    node_group: tuple[int, ...]
    parent: tuple[int | None, ...]

    @property
    def n_nodes(self) -> int:
        return len(self.node_group)

    @property
    def leaves(self) -> tuple[int, ...]:
        """The nodes that are no node's parent, in node order."""
        parents = set(self.parent)
        return tuple(i for i in range(self.n_nodes) if i not in parents)

    @property
    def root(self) -> int:
        roots = [i for i, par in enumerate(self.parent) if par is None]
        if len(roots) != 1:
            raise DataError(f"hierarchy must have exactly one root, found {len(roots)}")
        return roots[0]

    def children(self, node: int) -> list[int]:
        return [i for i, par in enumerate(self.parent) if par == node]

    def path_to_root(self, node: int) -> list[int]:
        """Node indices from the root down to ``node`` (inclusive)."""
        path = [node]
        while self.parent[path[-1]] is not None:
            if len(path) > self.n_nodes:
                raise DataError(f"node {node} cannot reach the root (a parent cycle)")
            path.append(self.parent[path[-1]])
        return path[::-1]

    def validate_against(self, groups: list[tuple[int, ...]]) -> None:
        """Check that every node reaches the one root, that each node's
        children partition its member set, and hence that the leaves
        partition the root's."""
        self.root  # raises unless there is exactly one root
        for node in range(self.n_nodes):
            self.path_to_root(node)
        for i, par in enumerate(self.parent):
            if par is None:
                continue
            child_set = set(groups[self.node_group[i]])
            parent_set = set(groups[self.node_group[par]])
            if not child_set <= parent_set:
                raise DataError(f"node {i} is not a subset of its parent {par}")
        for node in range(self.n_nodes):
            kids = self.children(node)
            if not kids:
                continue
            member_sets = [set(groups[self.node_group[k]]) for k in kids]
            union = set().union(*member_sets)
            total = sum(len(s) for s in member_sets)
            if union != set(groups[self.node_group[node]]) or total != len(union):
                raise DataError(f"children of node {node} do not partition its member set")


@dataclass(frozen=True)
class Grouping:
    """A named collection of covariate index groups covering ``{0..p-1}``.

    Groups are stored as sorted tuples of 0-based indices.  An optional
    hierarchy links the groups as a tree of nested member sets.  The
    grouping is the handle of its co-data source: :attr:`entries`, its
    co-data matrix, is built at first use and kept.
    """

    groups: tuple[tuple[int, ...], ...]
    p: int
    name: str = "grouping"
    tree: HierTree | None = None

    def __post_init__(self):
        object.__setattr__(
            self, "groups", tuple(tuple(sorted(g)) for g in self.groups)
        )
        covered = np.zeros(self.p, dtype=bool)
        for gi, g in enumerate(self.groups):
            if len(g) == 0:
                raise DataError(f"group {gi} of grouping '{self.name}' is empty")
            if len(set(g)) != len(g):
                raise DataError(f"group {gi} of grouping '{self.name}' has duplicate indices")
            arr = np.asarray(g)
            if arr.min() < 0 or arr.max() >= self.p:
                raise DataError(
                    f"group {gi} of grouping '{self.name}' has out-of-bounds indices"
                )
            covered[arr] = True
        if not covered.all():
            missing = int(np.flatnonzero(~covered)[0])
            raise CoverageError(
                f"covariate {missing + 1} belongs to no group of grouping '{self.name}'"
            )
        if self.tree is not None:
            self.tree.validate_against(list(self.groups))

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @property
    def sizes(self) -> np.ndarray:
        return np.array([len(g) for g in self.groups])

    def membership_counts(self) -> np.ndarray:
        """Number of groups each covariate belongs to."""
        return np.bincount(self.members, minlength=self.p)

    @cached_property
    def members(self) -> np.ndarray:
        """The groups' indices concatenated in group order, read-only."""
        out = np.fromiter(chain.from_iterable(self.groups), dtype=np.intp)
        out.flags.writeable = False
        return out

    @cached_property
    def entries(self) -> np.ndarray:
        """The co-data matrix of :func:`build_codata_matrix`, built once per
        grouping and read-only."""
        Z = build_codata_matrix(self)
        Z.flags.writeable = False
        return Z


def build_codata_matrix(grouping: Grouping) -> np.ndarray:
    """Build the p x G membership-averaging matrix of a grouping.

    Entry (k, g) is 1/m_k if covariate k is in group g, with m_k the number
    of groups holding k.  Rows sum to one: group weights pool by averaging.
    """
    counts = grouping.membership_counts()  # all positive: a Grouping covers every covariate
    Z = np.zeros((grouping.p, grouping.n_groups))
    members = grouping.members
    Z[members, np.repeat(np.arange(grouping.n_groups), grouping.sizes)] = 1.0 / counts[members]
    return Z


@dataclass(frozen=True)
class GroupSplit:
    """Random halves of every group: in-parts get ceil(|g|/2) members."""

    in_groups: tuple[tuple[int, ...], ...]
    out_groups: tuple[tuple[int, ...], ...]
    seed: int


def split_groups_random(grouping: Grouping, seed: int) -> GroupSplit:
    """Split every group of a grouping randomly in two parts.

    The in-part receives ceil(|g|/2) members, the out-part the rest.
    Singleton groups go wholly to the in-part with a warning.  Deterministic
    for a fixed seed: one permutation per group of two or more members.
    """
    rng = np.random.default_rng(seed)
    sizes = grouping.sizes.tolist()
    inside = np.zeros(len(grouping.members), dtype=bool)
    for g_idx, (start, size) in enumerate(zip(accumulate([0] + sizes), sizes)):
        if size < 2:
            warnings.warn(
                f"group {g_idx} of grouping '{grouping.name}' has a single member; "
                "assigned wholly to the in-part",
                stacklevel=2,
            )
        inside[start + (rng.permutation(size)[: math.ceil(size / 2)] if size > 1 else 0)] = True
    # the groups are sorted, so the members each part keeps are too
    ins, outs = (iter(grouping.members[part].tolist()) for part in (inside, ~inside))
    n_in = [math.ceil(size / 2) for size in sizes]
    return GroupSplit(
        in_groups=tuple(tuple(islice(ins, k)) for k in n_in),
        out_groups=tuple(tuple(islice(outs, size - k)) for size, k in zip(sizes, n_in)),
        seed=seed,
    )


def build_hierarchy_from_continuous(
    values,
    min_group_size: int,
    initial_threshold: float | None = None,
    name: str = "continuous",
) -> tuple[Grouping, HierTree]:
    """Discretise a continuous covariate annotation into hierarchical groups.

    The root group holds all covariates ordered by value.  Each node is split
    at its median into two near-equal children (ties broken by original
    index); recursion stops when a child would fall below ``min_group_size``.

    With ``initial_threshold`` the root is first split at that fixed value
    and only the low branch is recursed further.  Covariates
    with missing (NaN) values go to a dedicated extra group outside the
    hierarchy.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise DataError("continuous annotation must be a non-empty vector")
    p = values.size
    if min_group_size < 1:
        raise DataError("min_group_size must be at least 1")
    missing = np.flatnonzero(np.isnan(values))
    present = np.flatnonzero(~np.isnan(values))
    if present.size == 0:
        raise DataError("all annotation values are missing")
    if min_group_size > present.size:
        raise DataError(
            f"min_group_size {min_group_size} exceeds the number of annotated covariates "
            f"({present.size})"
        )

    # stable ordering by value, ties by original covariate index
    order = present[np.argsort(values[present], kind="stable")]

    groups: list[tuple[int, ...]] = []
    parent: list[int | None] = []

    def add_node(members: np.ndarray, par: int | None) -> int:
        node = len(groups)
        groups.append(tuple(sorted(members.tolist())))
        parent.append(par)
        return node

    def recurse(members: np.ndarray, node: int, low_branch: bool) -> None:
        if initial_threshold is not None and not low_branch:
            return
        if math.floor(len(members) / 2) < min_group_size:
            return
        n_lo = math.ceil(len(members) / 2)  # members sorted by (value, index)
        lo, hi = members[:n_lo], members[n_lo:]
        lo_node = add_node(lo, node)
        recurse(lo, lo_node, True)
        hi_node = add_node(hi, node)
        recurse(hi, hi_node, False)

    root = add_node(order, None)
    if initial_threshold is not None:
        mask_lo = values[order] < initial_threshold
        lo, hi = order[mask_lo], order[~mask_lo]
        if lo.size == 0 or hi.size == 0:
            warnings.warn(
                "initial_threshold puts all covariates on one side; ignored",
                stacklevel=2,
            )
            recurse(order, root, True)
        else:
            lo_node = add_node(lo, root)
            recurse(lo, lo_node, True)
            hi_node = add_node(hi, root)
            recurse(hi, hi_node, False)
    else:
        recurse(order, root, True)

    tree = HierTree(node_group=tuple(range(len(groups))), parent=tuple(parent))
    if missing.size:
        groups.append(tuple(sorted(missing.tolist())))
    grouping = Grouping(groups=tuple(groups), p=p, name=name, tree=tree)
    return grouping, tree


def load_grouping_json(path: str, p: int, name: str | None = None) -> Grouping:
    """Read a grouping from a JSON file.

    The file maps group names to arrays of 1-based covariate indices.  An
    optional ``"parent"`` object maps group names to parent group names and
    induces a hierarchy.
    """
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or not doc:
        raise DataError(f"{path}: expected a JSON object of group definitions")
    parent_map = doc.pop("parent", None)
    group_names = list(doc.keys())
    groups = []
    for gname in group_names:
        idx = doc[gname]
        if not isinstance(idx, list) or not idx:
            raise DataError(f"{path}: group '{gname}' must be a non-empty index array")
        zero_based = []
        for v in idx:
            if isinstance(v, bool) or not isinstance(v, int) or not 1 <= v <= p:
                raise DataError(
                    f"{path}: group '{gname}' has index {v!r}, not an integer in 1..{p}"
                )
            zero_based.append(v - 1)
        groups.append(tuple(zero_based))

    tree = None
    if parent_map is not None:
        if not isinstance(parent_map, dict) or not all(
            isinstance(par, str) for par in parent_map.values()
        ):
            raise DataError(f'{path}: "parent" must map group names to group names')
        name_to_idx = {n: i for i, n in enumerate(group_names)}
        parent: list[int | None] = [None] * len(group_names)
        for child, par in parent_map.items():
            if child not in name_to_idx or par not in name_to_idx:
                raise DataError(f"{path}: parent map references unknown group")
            parent[name_to_idx[child]] = name_to_idx[par]
        tree = HierTree(node_group=tuple(range(len(group_names))), parent=tuple(parent))
    return Grouping(groups=tuple(groups), p=p, name=name or "grouping", tree=tree)


def load_continuous_csv(path: str) -> np.ndarray:
    """Read a single-column CSV (with header) of per-covariate real values."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        raise DataError(f"{path}: expected a header row plus one value per covariate")
    values = []
    for i, row in enumerate(rows[1:], start=2):
        if len(row) > 1:
            raise DataError(f"{path}: row {i} has {len(row)} columns, expected 1")
        cell = row[0].strip() if row else ""
        if cell == "" or cell.upper() in {"NA", "NAN"}:
            values.append(np.nan)
        else:
            try:
                values.append(float(cell))
            except ValueError as exc:
                raise DataError(f"{path}: row {i}: cannot parse {cell!r}") from exc
    return np.asarray(values)

"""Groupings of covariates and the matrices derived from them.

A grouping is a collection of (possibly overlapping) index sets covering all
covariates.  Each grouping induces a membership-averaging matrix used to map
group-level weights to covariate-level prior variances.  Continuous covariate
annotations are handled by an adaptive median-split discretisation that
produces a hierarchy of nested groups.

Indices are 0-based internally; the file formats use 1-based indices.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import CoverageError, DataError

__all__ = [
    "Grouping",
    "CoDataMatrix",
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
    leaves: tuple[int, ...]

    @property
    def n_nodes(self) -> int:
        return len(self.node_group)

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
        """Check that every node reaches the root and the nesting/partition
        invariants with respect to group member sets."""
        root = self.root
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
        leaf_union: set[int] = set()
        leaf_total = 0
        for leaf in self.leaves:
            leaf_union |= set(groups[self.node_group[leaf]])
            leaf_total += len(groups[self.node_group[leaf]])
        if leaf_union != set(groups[self.node_group[root]]) or leaf_total != len(leaf_union):
            raise DataError("leaves do not partition the root's member set")


@dataclass(frozen=True)
class Grouping:
    """A named collection of covariate index groups covering ``{0..p-1}``.

    Groups are stored as sorted tuples of 0-based indices.  An optional
    hierarchy links the groups as a tree of nested member sets.
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
        counts = np.zeros(self.p, dtype=int)
        for g in self.groups:
            counts[list(g)] += 1
        return counts


@dataclass(frozen=True)
class CoDataMatrix:
    """p x G membership-averaging matrix: entry (k, g) is 1/|I_k| if k is in group g."""

    entries: np.ndarray
    membership_counts: np.ndarray

    @property
    def p(self) -> int:
        return self.entries.shape[0]

    @property
    def n_groups(self) -> int:
        return self.entries.shape[1]


def build_codata_matrix(grouping: Grouping) -> CoDataMatrix:
    """Build the membership-averaging matrix of a grouping.

    Rows sum to one: a covariate in m groups contributes 1/m to each of its
    group columns, pooling group weights by averaging.
    """
    counts = grouping.membership_counts()
    if (counts == 0).any():
        missing = int(np.flatnonzero(counts == 0)[0])
        raise CoverageError(f"covariate {missing + 1} belongs to no group")
    Z = np.zeros((grouping.p, grouping.n_groups))
    for g_idx, g in enumerate(grouping.groups):
        idx = np.asarray(g)
        Z[idx, g_idx] = 1.0 / counts[idx]
    return CoDataMatrix(entries=Z, membership_counts=counts)


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
    for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    in_groups = []
    out_groups = []
    for g_idx, g in enumerate(grouping.groups):
        size = len(g)
        if size < 2:
            warnings.warn(
                f"group {g_idx} of grouping '{grouping.name}' has a single member; "
                "assigned wholly to the in-part",
                stacklevel=2,
            )
            in_groups.append(tuple(g))
            out_groups.append(())
            continue
        shuffled = np.asarray(g)[rng.permutation(size)]
        n_in = math.ceil(size / 2)
        in_groups.append(tuple(np.sort(shuffled[:n_in]).tolist()))
        out_groups.append(tuple(np.sort(shuffled[n_in:]).tolist()))
    return GroupSplit(in_groups=tuple(in_groups), out_groups=tuple(out_groups), seed=seed)


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

    n_nodes = len(groups)
    has_child = [False] * n_nodes
    for par in parent:
        if par is not None:
            has_child[par] = True
    leaves = tuple(i for i in range(n_nodes) if not has_child[i])

    tree = HierTree(
        node_group=tuple(range(n_nodes)),
        parent=tuple(parent),
        leaves=leaves,
    )
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
            if not isinstance(v, int) or v < 1 or v > p:
                raise DataError(
                    f"{path}: group '{gname}' has index {v!r} outside 1..{p}"
                )
            zero_based.append(v - 1)
        groups.append(tuple(zero_based))

    tree = None
    if parent_map is not None:
        name_to_idx = {n: i for i, n in enumerate(group_names)}
        parent: list[int | None] = [None] * len(group_names)
        for child, par in parent_map.items():
            if child not in name_to_idx or par not in name_to_idx:
                raise DataError(f"{path}: parent map references unknown group")
            parent[name_to_idx[child]] = name_to_idx[par]
        has_child = [False] * len(group_names)
        for par in parent:
            if par is not None:
                has_child[par] = True
        tree = HierTree(
            node_group=tuple(range(len(group_names))),
            parent=tuple(parent),
            leaves=tuple(i for i in range(len(group_names)) if not has_child[i]),
        )
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

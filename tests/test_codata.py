import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecpc import (
    CoverageError,
    DataError,
    Grouping,
    build_codata_matrix,
    build_hierarchy_from_continuous,
    split_groups_random,
)
from ecpc.codata import load_continuous_csv, load_grouping_json


def grp(groups, p, **kw):
    return Grouping(groups=tuple(tuple(sorted(g)) for g in groups), p=p, **kw)


class TestCoDataMatrix:
    def test_disjoint_indicator(self):
        Z = build_codata_matrix(grp([(0, 1), (2, 3)], 4))
        assert np.array_equal(Z, [[1, 0], [1, 0], [0, 1], [0, 1]])

    def test_overlap_averages_membership(self):
        Z = build_codata_matrix(grp([(0, 1), (1, 2)], 3))
        assert np.array_equal(Z[1], [0.5, 0.5])

    def test_single_covering_group_is_ones_column(self):
        Z = build_codata_matrix(grp([tuple(range(5))], 5))
        assert Z.shape == (5, 1)
        assert np.array_equal(Z, np.ones((5, 1)))

    def test_membership_counts(self):
        g = grp([(0, 1), (1, 2), (1, 3)], 4)
        assert np.array_equal(g.membership_counts(), [1, 3, 1, 1])

    def test_grouping_keeps_its_entries(self):
        g = grp([(0, 1), (1, 2), (1, 3)], 4)
        assert g.entries is g.entries
        assert np.array_equal(g.entries, build_codata_matrix(g))
        with pytest.raises(ValueError, match="read-only"):
            g.entries[0, 0] = 2.0

    def test_uncovered_covariate_rejected(self):
        with pytest.raises(CoverageError, match="3"):
            grp([(0, 1)], 3)

    def test_out_of_bounds_rejected(self):
        with pytest.raises(DataError):
            grp([(0, 5)], 3)

    def test_duplicate_indices_rejected(self):
        with pytest.raises(DataError):
            Grouping(groups=((0, 0, 1), (2,)), p=3)

    def test_empty_group_rejected(self):
        with pytest.raises(DataError):
            grp([(0, 1, 2), ()], 3)

    @given(st.integers(1, 12), st.integers(1, 4), st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_row_sums_always_one(self, p, n_groups, seed):
        rng = np.random.default_rng(seed)
        groups = [set() for _ in range(n_groups)]
        for k in range(p):
            for g in rng.choice(n_groups, size=rng.integers(1, n_groups + 1), replace=False):
                groups[g].add(k)
        groups = [g for g in groups if g]
        Z = build_codata_matrix(grp(groups, p))
        assert np.allclose(Z.sum(axis=1), 1.0, atol=1e-12)


class TestGroupSplit:
    def test_even_split(self):
        s = split_groups_random(grp([tuple(range(6))], 6), seed=0)
        assert len(s.in_groups[0]) == 3 and len(s.out_groups[0]) == 3

    def test_odd_split_extra_to_in(self):
        s = split_groups_random(grp([tuple(range(5))], 5), seed=0)
        assert len(s.in_groups[0]) == 3 and len(s.out_groups[0]) == 2

    def test_determinism(self):
        g = grp([tuple(range(7)), tuple(range(7, 12))], 12)
        a = split_groups_random(g, seed=42)
        b = split_groups_random(g, seed=42)
        assert a.in_groups == b.in_groups and a.out_groups == b.out_groups

    def test_partition_property(self):
        g = grp([tuple(range(9)), tuple(range(9, 14))], 14)
        s = split_groups_random(g, seed=5)
        for src, inn, out in zip(g.groups, s.in_groups, s.out_groups):
            assert set(inn) | set(out) == set(src)
            assert set(inn) & set(out) == set()

    def test_halves_are_the_sorted_seeded_permutation(self):
        # each group's halves are the sorted first ceil(|g|/2) and remaining
        # members of one seeded permutation per group of two or more, as
        # Python ints; a singleton draws none
        groups = [tuple(range(0, 15, 2)), (3,), tuple(range(1, 15, 2)), tuple(range(5, 12))]
        g = grp(groups, 15)
        for seed in range(5):
            with pytest.warns(UserWarning, match="single member"):
                s = split_groups_random(g, seed=seed)
            rng = np.random.default_rng(seed)
            for members, inn, out in zip(g.groups, s.in_groups, s.out_groups):
                if len(members) == 1:
                    assert inn == members and out == ()
                    continue
                shuffled = [members[k] for k in rng.permutation(len(members))]
                n_in = (len(members) + 1) // 2
                assert inn == tuple(sorted(shuffled[:n_in]))
                assert out == tuple(sorted(shuffled[n_in:]))
                assert all(type(k) is int for k in inn + out)

    def test_singleton_goes_in_with_warning(self):
        g = grp([(0,), (1, 2)], 3)
        with pytest.warns(UserWarning):
            s = split_groups_random(g, seed=0)
        assert s.in_groups[0] == (0,) and s.out_groups[0] == ()

    def test_balanced_over_seeds(self):
        g = grp([tuple(range(8))], 8)
        freq = np.zeros(8)
        for seed in range(1000):
            s = split_groups_random(g, seed=seed)
            freq[list(s.in_groups[0])] += 1
        assert ((freq / 1000 >= 0.4) & (freq / 1000 <= 0.6)).all()


class TestContinuousHierarchy:
    def test_eight_distinct_values(self):
        vals = np.array([0.8, 0.1, 0.5, 0.3, 0.7, 0.2, 0.9, 0.4])
        grouping, tree = build_hierarchy_from_continuous(vals, min_group_size=2)
        sizes = sorted(len(g) for g in grouping.groups)
        assert sizes == [2, 2, 2, 2, 4, 4, 8]
        assert tree.n_nodes == 7
        tree.validate_against(list(grouping.groups))

    def test_ties_broken_by_index(self):
        vals = np.ones(8)
        grouping, tree = build_hierarchy_from_continuous(vals, min_group_size=4)
        root = tree.root
        kids = tree.children(root)
        assert len(kids) == 2
        low = grouping.groups[tree.node_group[kids[0]]]
        assert low == (0, 1, 2, 3)

    def test_threshold_mode_recurses_low_only(self):
        rng = np.random.default_rng(0)
        vals = np.concatenate([rng.uniform(0, 0.5, 60), rng.uniform(0.5, 1, 40)])
        grouping, tree = build_hierarchy_from_continuous(
            vals, min_group_size=20, initial_threshold=0.5
        )
        sizes = sorted(len(g) for g in grouping.groups)
        assert sizes == [30, 30, 40, 60, 100]

    def test_leaves_reproduce_sorted_order(self):
        rng = np.random.default_rng(1)
        vals = rng.standard_normal(20)
        grouping, tree = build_hierarchy_from_continuous(vals, min_group_size=3)
        order = []
        for leaf in tree.leaves:
            members = list(grouping.groups[tree.node_group[leaf]])
            order.extend(sorted(members, key=lambda k: (vals[k], k)))
        expected = sorted(range(20), key=lambda k: (vals[k], k))
        assert order == expected

    def test_json_leaves_are_the_childless_nodes(self, tmp_path):
        # nodes in file order, not preorder: the leaves keep that order
        path = tmp_path / "g.json"
        doc = {
            "a1": [1, 2],
            "all": [1, 2, 3, 4, 5, 6],
            "a": [1, 2, 3, 4],
            "b": [5, 6],
            "a2": [3, 4],
            "parent": {"a1": "a", "a": "all", "b": "all", "a2": "a"},
        }
        path.write_text(json.dumps(doc))
        g = load_grouping_json(str(path), p=6)
        assert g.tree.leaves == (0, 3, 4)
        members = sorted(k for leaf in g.tree.leaves for k in g.groups[leaf])
        assert members == list(g.groups[g.tree.root])

    def test_nan_values_get_extra_group(self):
        vals = np.array([0.1, np.nan, 0.5, 0.2, np.nan, 0.9])
        grouping, tree = build_hierarchy_from_continuous(vals, min_group_size=2)
        nan_groups = [g for g in grouping.groups if set(g) == {1, 4}]
        assert len(nan_groups) == 1
        tree_groups = {tree.node_group[i] for i in range(tree.n_nodes)}
        assert grouping.groups.index(nan_groups[0]) not in tree_groups

    def test_min_group_size_too_large(self):
        with pytest.raises(DataError):
            build_hierarchy_from_continuous(np.arange(3.0), min_group_size=4)

    def test_empty_values(self):
        with pytest.raises(DataError):
            build_hierarchy_from_continuous(np.array([]), min_group_size=1)


class TestFileFormats:
    def test_grouping_json_round_trip(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"a": [1, 2], "b": [3, 4, 5]}))
        g = load_grouping_json(str(path), p=5)
        assert g.groups == ((0, 1), (2, 3, 4))

    def test_grouping_json_with_parent_builds_tree(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(
            json.dumps(
                {
                    "all": [1, 2, 3, 4],
                    "lo": [1, 2],
                    "hi": [3, 4],
                    "parent": {"lo": "all", "hi": "all"},
                }
            )
        )
        g = load_grouping_json(str(path), p=4)
        assert g.tree is not None
        assert g.tree.root == 0
        g.tree.validate_against(list(g.groups))

    def test_grouping_json_parent_cycle_rejected(self, tmp_path):
        # "a" and "b" name each other as parent; their member sets are equal,
        # so only the walk to the root can tell
        path = tmp_path / "g.json"
        path.write_text(
            json.dumps(
                {
                    "all": [1, 2, 3, 4, 5, 6],
                    "a": [1, 2, 3],
                    "b": [1, 2, 3],
                    "c": [4, 5, 6],
                    "d": [1, 2, 3],
                    "parent": {"a": "b", "b": "a", "c": "all", "d": "all"},
                }
            )
        )
        with pytest.raises(DataError, match="node 1 cannot reach the root"):
            load_grouping_json(str(path), p=6)

    def test_grouping_json_bad_index(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"a": [0, 1]}))
        with pytest.raises(DataError):
            load_grouping_json(str(path), p=3)

    def test_continuous_csv_na_handling(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("value\n0.5\nNA\n\n1.5\n")
        vals = load_continuous_csv(str(path))
        assert np.isnan(vals[1]) and np.isnan(vals[2])
        assert vals[0] == 0.5 and vals[3] == 1.5


class TestHierTreeValidation:
    def test_non_nested_rejected(self):
        from ecpc import HierTree

        g = grp([(0, 1, 2, 3), (0, 1), (2, 3), (1, 2)], 4)
        tree = HierTree(node_group=(0, 1, 3), parent=(None, 0, 0))
        with pytest.raises(DataError):
            tree.validate_against(list(g.groups))

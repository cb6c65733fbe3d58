"""Segment tree paths, backtracking, and the compilation chain.

The oracle here re-derives each root-to-leaf path by descending (lo, hi)
intervals with the same midpoint rule as the code, so the explicit expected
paths and chains below are the independent checks.
"""

from __future__ import annotations

from itertools import chain, combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toc.cue_tree import (
    backtrack,
    build_tree,
    layer_compilations,
    trajectory_layers,
)
from toc.errors import EmptySelectionError, RangeError


def interval_path(n: int, idx: int) -> list[tuple[int, int]]:
    lo, hi = 0, n - 1
    path = [(lo, hi)]
    while lo != hi:
        mid = (lo + hi) // 2
        if idx <= mid:
            hi = mid
        else:
            lo = mid + 1
        path.append((lo, hi))
    return path


def oracle_chain(n: int, selected) -> list[list[int]]:
    """Covered-clip chain computed from raw interval descent."""
    paths = [interval_path(n, idx) for idx in sorted(set(selected))]
    out: list[list[int]] = []
    for depth in range(max(len(p) for p in paths)):
        covered: set[int] = set()
        for path in paths:
            lo, hi = path[min(depth, len(path) - 1)]
            covered.update(range(lo, hi + 1))
        ordered = sorted(covered)
        if not out or ordered != out[-1]:
            out.append(ordered)
    return out


def leaf_paths(n_leaves: int) -> list[tuple[tuple[int, int], ...]]:
    return backtrack(n_leaves, range(n_leaves))


def max_depth(n_leaves: int) -> int:
    return max(len(path) - 1 for path in leaf_paths(n_leaves))


def all_subsets(n: int):
    indices = range(n)
    return chain.from_iterable(combinations(indices, k) for k in range(1, n + 1))


class TestBuildTree:
    def test_single_leaf(self):
        tree = build_tree(1)
        assert leaf_paths(tree) == [((0, 0),)]
        assert max_depth(tree) == 0

    def test_power_of_two_is_perfect(self):
        tree = build_tree(4)
        assert leaf_paths(tree) == [
            ((0, 3), (0, 1), (0, 0)),
            ((0, 3), (0, 1), (1, 1)),
            ((0, 3), (2, 3), (2, 2)),
            ((0, 3), (2, 3), (3, 3)),
        ]
        assert max_depth(tree) == 2

    def test_odd_split_puts_extra_clip_left(self):
        assert leaf_paths(build_tree(3)) == [
            ((0, 2), (0, 1), (0, 0)),
            ((0, 2), (0, 1), (1, 1)),
            ((0, 2), (2, 2)),
        ]

    @pytest.mark.parametrize("n", [0, -2])
    def test_invalid_size(self, n):
        with pytest.raises(RangeError, match=rf"^n_leaves must be >= 1, got {n}$"):
            build_tree(n)

    @given(st.integers(1, 128))
    def test_structure_invariants(self, n):
        tree = build_tree(n)
        children: dict[tuple[int, int], set[tuple[int, int]]] = {}
        for idx, path in enumerate(leaf_paths(tree)):
            assert path[0] == (0, n - 1)
            assert path[-1] == (idx, idx)
            for (lo, hi), child in zip(path, path[1:]):
                assert lo <= child[0] <= idx <= child[1] <= hi
                children.setdefault((lo, hi), set()).add(child)
        for (lo, hi), halves in children.items():
            (left_lo, left_hi), (right_lo, right_hi) = sorted(halves)
            assert (left_lo, right_hi) == (lo, hi)
            assert left_hi + 1 == right_lo
            # midpoint split: a surplus clip lands in the left half
            assert left_hi - left_lo in (right_hi - right_lo, right_hi - right_lo + 1)

    @given(st.integers(1, 128))
    def test_depth_is_logarithmic(self, n):
        assert max_depth(build_tree(n)) == (n - 1).bit_length()


class TestPathToLeaf:
    """The one root-to-leaf path that backtrack gives for a single clip."""

    def test_path_intervals(self):
        assert backtrack(build_tree(4), [2]) == [((0, 3), (2, 3), (2, 2))]

    def test_short_path_for_shallow_leaf(self):
        # in a 3-leaf tree, clip 2 sits one level below the root
        assert backtrack(build_tree(3), [2]) == [((0, 2), (2, 2))]

    @pytest.mark.parametrize("idx", [-1, 4])
    def test_out_of_range(self, idx):
        with pytest.raises(RangeError, match=rf"^clip index {idx} outside \[0, 3\]$"):
            backtrack(build_tree(4), [idx])

    @given(st.integers(1, 64), st.data())
    def test_matches_interval_descent(self, n, data):
        idx = data.draw(st.integers(0, n - 1))
        (path,) = backtrack(build_tree(n), [idx])
        assert list(path) == interval_path(n, idx)


class TestBacktrack:
    def test_sorts_and_dedups_selection(self):
        paths = backtrack(build_tree(6), [4, 1, 4])
        assert tuple(path[-1][0] for path in paths) == (1, 4)

    def test_empty_selection(self):
        with pytest.raises(EmptySelectionError):
            backtrack(build_tree(4), [])

    def test_out_of_range_selection(self):
        with pytest.raises(RangeError, match=r"^clip index 4 outside \[0, 3\]$"):
            backtrack(build_tree(4), [0, 4])

    def test_layers_group_nodes_by_exact_depth(self):
        paths = backtrack(build_tree(4), [0, 2])
        assert trajectory_layers(paths) == [((0, 3),), ((0, 1), (2, 3)), ((0, 0), (2, 2))]

    def test_shallow_leaf_absent_from_deeper_layers(self):
        # clip 2's path in a 3-leaf tree stops at depth 1, so depth 2 holds
        # only clip 0's leaf; the chain still carries clip 2 forward
        paths = backtrack(build_tree(3), [0, 2])
        assert trajectory_layers(paths) == [((0, 2),), ((0, 1), (2, 2)), ((0, 0),)]
        assert layer_compilations(paths)[-1].clip_indices == (0, 2)

    def test_covered_at_tightens_with_depth(self):
        # coverage per depth: all 8, all 8 (dropped as a repeat), {0, 1, 6, 7}, {1, 6}
        paths = backtrack(build_tree(8), [1, 6])
        assert [c.clip_indices for c in layer_compilations(paths)] == [
            tuple(range(8)), (0, 1, 6, 7), (1, 6),
        ]


class TestLayerCompilations:
    def chain_sets(self, n: int, selected) -> list[list[int]]:
        paths = backtrack(build_tree(n), selected)
        return [list(c.clip_indices) for c in layer_compilations(paths)]

    def test_four_clips_select_alternating(self):
        assert self.chain_sets(4, [0, 2]) == [[0, 1, 2, 3], [0, 2]]

    def test_three_clips_select_left_pair(self):
        assert self.chain_sets(3, [0, 1]) == [[0, 1, 2], [0, 1]]

    def test_full_selection_collapses_to_root(self):
        assert self.chain_sets(4, [0, 1, 2, 3]) == [[0, 1, 2, 3]]

    def test_single_clip_video(self):
        assert self.chain_sets(1, [0]) == [[0]]

    def test_deep_single_selection(self):
        assert self.chain_sets(8, [5]) == [
            [0, 1, 2, 3, 4, 5, 6, 7], [4, 5, 6, 7], [4, 5], [5],
        ]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_exhaustive_small_trees_match_oracle(self, n):
        tree = build_tree(n)
        for selected in all_subsets(n):
            got = [list(c.clip_indices) for c in layer_compilations(backtrack(tree, selected))]
            assert got == oracle_chain(n, selected), (n, selected)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 64), st.data())
    def test_chain_properties(self, n, data):
        selected = data.draw(
            st.sets(st.integers(0, n - 1), min_size=1, max_size=n)
        )
        chain = layer_compilations(backtrack(build_tree(n), selected))
        for c in chain:
            assert list(c.clip_indices) == sorted(set(c.clip_indices))  # ascending, no repeats
        sets = [frozenset(c.clip_indices) for c in chain]
        assert sets[0] == frozenset(range(n))
        assert sets[-1] == frozenset(selected)
        for wider, tighter in zip(sets, sets[1:]):
            assert tighter < wider  # strict subset, never equal
        for s in sets:
            assert frozenset(selected) <= s

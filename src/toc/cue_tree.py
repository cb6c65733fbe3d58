"""Binary segment tree over clip indices and the layer-compilation chain.

The tree recursively halves the clip index range until every span holds one
clip; a node is its inclusive interval (lo, hi), computed on demand rather
than stored.  Backtracking from the selected leaves to the root yields a
trajectory subtree; the clips covered at each depth, with exact repeats
dropped, form a strictly shrinking chain of clip sets that starts at the
whole video and ends at the selected clips.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import EmptySelectionError, InvalidSizeError, OutOfRangeError

# A tree node: the inclusive clip index interval it covers.
Interval = tuple[int, int]


@dataclass(frozen=True)
class CueTree:
    """Segment tree with one leaf per clip index 0..n_leaves-1."""

    n_leaves: int

    def path_to_leaf(self, clip_index: int) -> tuple[Interval, ...]:
        """Root-to-leaf intervals for one clip index.

        Each span splits at its midpoint, so an odd span puts its extra clip
        in the left half.
        """
        if not 0 <= clip_index < self.n_leaves:
            raise OutOfRangeError(
                f"clip index {clip_index} outside [0, {self.n_leaves - 1}]"
            )
        lo, hi = 0, self.n_leaves - 1
        path = [(lo, hi)]
        while lo != hi:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if clip_index <= mid else (mid + 1, hi)
            path.append((lo, hi))
        return tuple(path)


def build_tree(n_leaves: int) -> CueTree:
    """The segment tree over clips 0..n_leaves-1."""
    if n_leaves < 1:
        raise InvalidSizeError(f"n_leaves must be >= 1, got {n_leaves}")
    return CueTree(n_leaves)


@dataclass(frozen=True)
class TrajectorySubtree:
    """Union of root-to-leaf paths for the selected clips."""

    paths: tuple[tuple[Interval, ...], ...]

    @property
    def layers(self) -> list[tuple[Interval, ...]]:
        """Subtree intervals grouped by depth, in ascending order.

        Layer 0 is always just the root; the last layer is the depth of the
        deepest selected leaf.
        """
        depth_count = max(len(p) for p in self.paths)
        return [
            tuple(sorted({p[depth] for p in self.paths if len(p) > depth}))
            for depth in range(depth_count)
        ]

    def covered_at(self, depth: int) -> frozenset[int]:
        """Clips covered at one depth.

        A path that ends above this depth keeps contributing its leaf, so
        selected clips never drop out of a layer.
        """
        covered: set[int] = set()
        for path in self.paths:
            lo, hi = path[min(depth, len(path) - 1)]
            covered.update(range(lo, hi + 1))
        return frozenset(covered)


def backtrack(tree: CueTree, selected: Iterable[int]) -> TrajectorySubtree:
    """Trace every selected clip back to the root."""
    chosen = sorted(set(selected))
    if not chosen:
        raise EmptySelectionError("no clips selected")
    return TrajectorySubtree(paths=tuple(tree.path_to_leaf(idx) for idx in chosen))


@dataclass(frozen=True)
class Compilation:
    """The clips visible at one stage of the coarse-to-fine chain, in ascending order."""

    clip_indices: tuple[int, ...]
    caption: str | None = None

    @property
    def as_set(self) -> frozenset[int]:
        return frozenset(self.clip_indices)


def layer_compilations(subtree: TrajectorySubtree) -> list[Compilation]:
    """Per-depth clip unions with exact repeats removed.

    Coverage only shrinks with depth, so dropping any layer equal to the one
    kept before it leaves a chain of strictly nested sets: the full clip
    range first, the selected clips last.
    """
    depth_count = max(len(p) for p in subtree.paths)
    chain: list[Compilation] = []
    for depth in range(depth_count):
        covered = subtree.covered_at(depth)
        if chain and covered == chain[-1].as_set:
            continue
        chain.append(Compilation(clip_indices=tuple(sorted(covered))))
    return chain

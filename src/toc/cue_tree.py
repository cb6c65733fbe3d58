"""Binary segment tree over clip indices and the layer-compilation chain.

The tree recursively halves the clip index range until every leaf holds one
clip.  Backtracking from the selected leaves to the root yields a trajectory
subtree; the clips covered at each depth, with exact repeats dropped, form a
strictly shrinking chain of clip sets that starts at the whole video and
ends at the selected clips.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import EmptySelectionError, InvalidSizeError, OutOfRangeError


@dataclass(frozen=True)
class TreeNode:
    """A node covering the inclusive clip index interval [lo, hi]."""

    lo: int
    hi: int
    children: tuple["TreeNode", ...] = ()

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def clip_indices(self) -> tuple[int, ...]:
        return tuple(range(self.lo, self.hi + 1))


def _split(lo: int, hi: int) -> TreeNode:
    if lo == hi:
        return TreeNode(lo, hi)
    mid = (lo + hi) // 2
    return TreeNode(lo, hi, (_split(lo, mid), _split(mid + 1, hi)))


@dataclass(frozen=True)
class CueTree:
    """Segment tree with one leaf per clip index 0..n_leaves-1."""

    n_leaves: int
    root: TreeNode

    def path_to_leaf(self, clip_index: int) -> tuple[TreeNode, ...]:
        """Root-to-leaf path for one clip index."""
        if not 0 <= clip_index < self.n_leaves:
            raise OutOfRangeError(
                f"clip index {clip_index} outside [0, {self.n_leaves - 1}]"
            )
        path = [self.root]
        node = self.root
        while not node.is_leaf:
            node = next(c for c in node.children if c.lo <= clip_index <= c.hi)
            path.append(node)
        return tuple(path)


def build_tree(n_leaves: int) -> CueTree:
    """Build the tree by repeated midpoint splits; odd spans put the extra clip left."""
    if n_leaves < 1:
        raise InvalidSizeError(f"n_leaves must be >= 1, got {n_leaves}")
    return CueTree(n_leaves=n_leaves, root=_split(0, n_leaves - 1))


@dataclass(frozen=True)
class TrajectorySubtree:
    """Union of root-to-leaf paths for the selected clips."""

    paths: tuple[tuple[TreeNode, ...], ...]

    @property
    def layers(self) -> list[tuple[TreeNode, ...]]:
        """Subtree nodes grouped by depth, ordered by interval start.

        Layer 0 is always just the root; the last layer is the depth of the
        deepest selected leaf.
        """
        depth_count = max(len(p) for p in self.paths)
        grouped: list[tuple[TreeNode, ...]] = []
        for depth in range(depth_count):
            at_depth = {p[depth] for p in self.paths if len(p) > depth}
            grouped.append(tuple(sorted(at_depth, key=lambda n: n.lo)))
        return grouped

    def covered_at(self, depth: int) -> frozenset[int]:
        """Clips covered at one depth.

        A path that ends above this depth keeps contributing its leaf, so
        selected clips never drop out of a layer.
        """
        covered: set[int] = set()
        for path in self.paths:
            covered.update(path[min(depth, len(path) - 1)].clip_indices)
        return frozenset(covered)


def backtrack(tree: CueTree, selected: Iterable[int]) -> TrajectorySubtree:
    """Trace every selected clip back to the root."""
    chosen = sorted(set(selected))
    if not chosen:
        raise EmptySelectionError("no clips selected")
    return TrajectorySubtree(paths=tuple(tree.path_to_leaf(idx) for idx in chosen))


@dataclass(frozen=True)
class Compilation:
    """The clips visible at one stage of the coarse-to-fine chain."""

    clip_indices: tuple[int, ...]
    caption: str | None = None

    def __post_init__(self) -> None:
        if not self.clip_indices:
            raise ValueError("compilation must cover at least one clip")
        if any(b <= a for a, b in zip(self.clip_indices, self.clip_indices[1:])):
            raise ValueError(
                f"clip indices must be strictly increasing, got {self.clip_indices}"
            )

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

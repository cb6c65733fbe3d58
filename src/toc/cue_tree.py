"""Binary segment tree over clip indices and the layer-compilation chain.

The tree recursively halves the clip index range until every span holds one
clip; a node is its inclusive interval (lo, hi), computed on demand rather
than stored.  Backtracking from the selected leaves to the root yields one
root-to-leaf path per selected clip; the clips covered at each depth, with
exact repeats dropped, form a strictly shrinking chain of clip sets that
starts at the whole video and ends at the selected clips.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import EmptySelectionError, RangeError

# A tree node: the inclusive clip index interval it covers.
Interval = tuple[int, int]
# The nodes from the root down to one clip's leaf.
LeafPath = tuple[Interval, ...]


def build_tree(n_leaves: int) -> int:
    """The leaf count of the segment tree over clips 0..n_leaves-1, checked to be >= 1."""
    if n_leaves < 1:
        raise RangeError(f"n_leaves must be >= 1, got {n_leaves}")
    return n_leaves


def backtrack(n_leaves: int, selected: Iterable[int]) -> list[LeafPath]:
    """The root-to-leaf path of every selected clip in the tree over clips
    0..n_leaves-1, in ascending clip order.

    Each span splits at its midpoint, so an odd span puts its extra clip in
    the left half.
    """
    chosen = sorted(set(selected))
    if not chosen:
        raise EmptySelectionError("no clips selected")
    paths = []
    for clip_index in chosen:
        if not 0 <= clip_index < n_leaves:
            raise RangeError(f"clip index {clip_index} outside [0, {n_leaves - 1}]")
        lo, hi = 0, n_leaves - 1
        path = [(lo, hi)]
        while lo != hi:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if clip_index <= mid else (mid + 1, hi)
            path.append((lo, hi))
        paths.append(tuple(path))
    return paths


def trajectory_layers(paths: Sequence[LeafPath]) -> list[tuple[Interval, ...]]:
    """The paths' nodes grouped by depth, each layer sorted; layer 0 is the root alone."""
    return [
        tuple(sorted({path[depth] for path in paths if len(path) > depth}))
        for depth in range(max(map(len, paths)))
    ]


@dataclass(frozen=True)
class Compilation:
    """The clips visible at one stage of the coarse-to-fine chain, in ascending order."""

    clip_indices: tuple[int, ...]
    caption: str | None = None


def layer_compilations(paths: Sequence[LeafPath]) -> list[Compilation]:
    """Per-depth clip unions with exact repeats removed.

    A path that ends above a depth keeps its leaf there.  backtrack's paths
    ascend by clip, so at one depth each node is the previous path's or lies
    right of it, and one walk lists the covered clips sorted.  Coverage
    only shrinks with depth, so the chain runs from every clip to the
    selected ones, each set strictly inside the one before.
    """
    chain: list[Compilation] = []
    for depth in range(max(map(len, paths))):
        covered: list[int] = []
        for path in paths:
            lo, hi = path[min(depth, len(path) - 1)]
            if not covered or covered[-1] < lo:
                covered.extend(range(lo, hi + 1))
        if not chain or tuple(covered) != chain[-1].clip_indices:
            chain.append(Compilation(tuple(covered)))
    return chain

"""Merge adjacent shots into clips by embedding similarity.

A single left-to-right pass keeps a running clip and folds the next shot in
whenever the cosine between the clip's pooled embedding and the shot's
embedding clears the threshold.  Pooling is a duration-weighted mean of unit
vectors, re-normalized, so a long shot pulls the running direction harder
than a short one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, EmptyInputError, ZeroVectorError
from .records import Clip, check_record, float_array

DEFAULT_TAU = 0.85


@dataclass(frozen=True, eq=False)
class ShotBoundarySet:
    """One video's detector output: cut times plus one embedding per shot.

    boundaries_s runs from 0 to the video duration; shot i spans
    [boundaries_s[i], boundaries_s[i+1]).  The embedding rows given become
    one read-only float64 (shots, dims) matrix, and norms holds each row's
    norm, which must be finite and non-zero: every shot needs a direction.
    """

    video_id: str
    boundaries_s: tuple[float, ...]
    embeddings: np.ndarray
    norms: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.boundaries_s) < 2:
            raise EmptyInputError(
                f"need at least 2 boundaries for one shot, got {len(self.boundaries_s)}"
            )
        if self.boundaries_s[0] != 0.0:
            raise ValueError(f"boundaries must start at 0, got {self.boundaries_s[0]}")
        if any(b <= a for a, b in zip(self.boundaries_s, self.boundaries_s[1:])):
            raise ValueError(f"boundaries must strictly increase: {self.boundaries_s}")
        rows = self.embeddings
        if len(rows) != len(self.boundaries_s) - 1:
            raise ValueError(f"{len(self.boundaries_s) - 1} shots but {len(rows)} embeddings")
        dim = len(rows[0])
        if dim < 1:
            raise DimensionMismatchError("embeddings must have at least 1 dimension")
        for pos, emb in enumerate(rows):
            if len(emb) != dim:
                raise DimensionMismatchError(
                    f"shot {pos} embedding has {len(emb)} dims, expected {dim}"
                )
        embeddings = float_array(rows, 2, "embeddings")
        # One 1-D norm per row: norm(axis=1) can differ in the last bit.  A
        # sum of squares beyond the float range reads as an infinite norm.
        with np.errstate(over="ignore"):
            norms = np.array([np.linalg.norm(row) for row in embeddings])
        bad = np.flatnonzero(~np.isfinite(norms) | (norms == 0.0))
        if bad.size:
            pos = int(bad[0])
            raise ZeroVectorError(
                f"shot {pos} embedding has no direction (norm {float(norms[pos])})"
            )
        norms.flags.writeable = False
        object.__setattr__(self, "embeddings", embeddings)
        object.__setattr__(self, "norms", norms)

    @property
    def shot_count(self) -> int:
        return len(self.embeddings)

    @classmethod
    def from_record(cls, rec: dict) -> "ShotBoundarySet":
        check_record(rec, "shots")
        return cls(
            video_id=rec["video_id"],
            boundaries_s=tuple(float(b) for b in rec["boundaries_s"]),
            embeddings=rec["embeddings"],
        )


def stitch(shots: ShotBoundarySet, tau: float = DEFAULT_TAU) -> list[Clip]:
    """Greedily merge the shot sequence into clips indexed 0..N-1."""
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must be in (0, 1], got {tau}")
    units = shots.embeddings / shots.norms[:, None]
    weighted = units * np.diff(shots.boundaries_s)[:, None]

    def direction(total: np.ndarray) -> np.ndarray:
        norm = float(np.linalg.norm(total))
        if not np.isfinite(norm) or norm == 0.0:
            raise ZeroVectorError(f"pooled clip embedding has no direction (norm {norm})")
        return total / norm

    # Clip k spans shots starts[k] .. starts[k+1]-1; sums[k] is its weighted sum.
    starts = [0]
    sums = [weighted[0]]
    for pos in range(1, len(units)):
        if float(np.dot(direction(sums[-1]), units[pos])) >= tau:
            sums[-1] = sums[-1] + weighted[pos]
        else:
            starts.append(pos)
            sums.append(weighted[pos])
    ends = starts[1:] + [len(units)]
    return [
        Clip(
            video_id=shots.video_id,
            index=index,
            start_s=shots.boundaries_s[first],
            end_s=shots.boundaries_s[end],
            embedding=tuple(direction(total).tolist()),
        )
        for index, (first, end, total) in enumerate(zip(starts, ends, sums))
    ]

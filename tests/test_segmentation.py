"""Shot stitching against a pure-Python greedy oracle."""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toc.errors import NonFiniteError
from toc.segmentation import DEFAULT_TAU, ShotBoundarySet, stitch


def at_angle(degrees: float, scale: float = 1.0) -> tuple[float, float]:
    rad = math.radians(degrees)
    return (scale * math.cos(rad), scale * math.sin(rad))


def shots_from(durations, embeddings, video_id="v") -> ShotBoundarySet:
    boundaries = [0.0]
    for d in durations:
        boundaries.append(boundaries[-1] + d)
    return ShotBoundarySet(
        video_id=video_id,
        boundaries_s=tuple(boundaries),
        embeddings=tuple(embeddings),
    )


# Numbers as json.loads gives them: finite floats, and integers in the range
# NumPy reads as 64-bit (alone or mixed with floats).  The float bound keeps
# the sum of a row's squares finite.
json_numbers = st.floats(-1e150, 1e150) | st.integers(-(2**63), 2**64 - 1)


def bits(values) -> list[bytes]:
    return [struct.pack("<d", v) for v in values]


def _punit(vec):
    norm = math.sqrt(sum(x * x for x in vec))
    return tuple(x / norm for x in vec)


def oracle_groups(shots: ShotBoundarySet, tau: float):
    """Re-run the greedy pass in plain Python; returns shot-index groups and
    the similarity seen at every merge decision."""
    units = [_punit(e) for e in shots.embeddings.tolist()]
    durations = np.diff(shots.boundaries_s).tolist()
    groups = [[0]]
    acc = [durations[0] * c for c in units[0]]
    sims = []
    for pos in range(1, shots.shot_count):
        pooled = _punit(acc)
        sim = sum(a * b for a, b in zip(pooled, units[pos]))
        sims.append(sim)
        if sim >= tau:
            groups[-1].append(pos)
            acc = [a + durations[pos] * c for a, c in zip(acc, units[pos])]
        else:
            groups.append([pos])
            acc = [durations[pos] * c for c in units[pos]]
    return groups, sims


class TestShotBoundarySet:
    def test_needs_two_boundaries(self):
        with pytest.raises(ValueError, match=r"^need at least 2 boundaries for one shot, got 1$"):
            ShotBoundarySet(video_id="v", boundaries_s=(0.0,), embeddings=())

    def test_must_start_at_zero(self):
        with pytest.raises(ValueError):
            ShotBoundarySet(video_id="v", boundaries_s=(1.0, 2.0), embeddings=((1.0, 0.0),))

    def test_strictly_increasing(self):
        with pytest.raises(ValueError):
            ShotBoundarySet(
                video_id="v", boundaries_s=(0.0, 2.0, 2.0),
                embeddings=((1.0, 0.0), (0.0, 1.0)),
            )

    def test_embedding_count(self):
        with pytest.raises(ValueError):
            ShotBoundarySet(video_id="v", boundaries_s=(0.0, 1.0, 2.0), embeddings=((1.0, 0.0),))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match=r"^shot 1 embedding has 3 dims, expected 2$"):
            ShotBoundarySet(
                video_id="v", boundaries_s=(0.0, 1.0, 2.0),
                embeddings=((1.0, 0.0), (0.0, 1.0, 0.0)),
            )
        with pytest.raises(ValueError, match=r"^embeddings must have at least 1 dimension$"):
            ShotBoundarySet("v", (0.0, 1.0), [[]])

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            # a leading 1 gives every row a direction
            lambda dim: st.lists(
                st.lists(json_numbers, min_size=dim, max_size=dim).map(lambda row: [1, *row]),
                min_size=1, max_size=4,
            )
        )
    )
    def test_embeddings_are_bit_equal_to_float(self, rows):
        rec = {"video_id": "v", "boundaries_s": [float(i) for i in range(len(rows) + 1)],
               "embeddings": rows}
        shots = ShotBoundarySet.from_record(rec)
        assert shots.embeddings.dtype == np.float64 and not shots.embeddings.flags.writeable
        expect = [bits(float(v) for v in row) for row in rows]
        assert [bits(row) for row in shots.embeddings.tolist()] == expect

    def test_non_finite_embedding(self):
        with pytest.raises(NonFiniteError, match="embeddings must be finite"):
            shots_from([1.0, 1.0], [at_angle(0), (math.inf, 0.0)])

    def test_shot_count(self):
        shots = shots_from([1.5, 2.5], [at_angle(0), at_angle(0)])
        assert shots.shot_count == 2


class TestStitch:
    def test_single_shot(self):
        shots = shots_from([3.0], [at_angle(17)])
        (clip,) = stitch(shots, tau=DEFAULT_TAU)
        assert (clip.start_s, clip.end_s, clip.index) == (0.0, 3.0, 0)

    def test_similar_shots_merge(self):
        shots = shots_from([1.0, 1.0, 1.0], [at_angle(0), at_angle(5), at_angle(10)])
        clips = stitch(shots, tau=0.85)
        assert len(clips) == 1
        assert clips[0].end_s == 3.0

    def test_dissimilar_shots_split(self):
        shots = shots_from([1.0, 1.0], [at_angle(0), at_angle(60)])
        clips = stitch(shots, tau=0.85)
        assert [(c.start_s, c.end_s) for c in clips] == [(0.0, 1.0), (1.0, 2.0)]

    def test_comparison_uses_pooled_not_previous_shot(self):
        # A long opening shot anchors the pooled direction near 0 deg, so the
        # 75 deg shot splits even though it sits within tau of the 40 deg shot
        # it directly follows.
        shots = shots_from(
            [9.0, 1.0, 1.0], [at_angle(0), at_angle(40), at_angle(75)]
        )
        clips = stitch(shots, tau=0.7)
        assert [(c.start_s, c.end_s) for c in clips] == [(0.0, 10.0), (10.0, 11.0)]
        assert math.cos(math.radians(75 - 40)) >= 0.7  # previous-shot rule would merge

    def test_magnitude_is_ignored(self):
        big = shots_from([1.0, 1.0], [at_angle(0, 100.0), at_angle(5, 0.01)])
        small = shots_from([1.0, 1.0], [at_angle(0), at_angle(5)])
        assert [c.embedding for c in stitch(big, tau=DEFAULT_TAU)] == pytest.approx(
            [c.embedding for c in stitch(small, tau=DEFAULT_TAU)]
        )

    def test_pooled_embedding_is_unit_weighted_mean(self):
        shots = shots_from([3.0, 1.0], [at_angle(0), at_angle(20)])
        (clip,) = stitch(shots, tau=0.85)
        expect = _punit(
            [3 * a + 1 * b for a, b in zip(_punit(at_angle(0)), _punit(at_angle(20)))]
        )
        assert clip.embedding == pytest.approx(expect)
        assert math.hypot(*clip.embedding) == pytest.approx(1.0)

    def test_zero_vector(self):
        with pytest.raises(ValueError, match=r"^shot 1 embedding has no direction \(norm 0\.0\)$"):
            shots_from([1.0, 1.0], [at_angle(0), (0.0, 0.0)])

    @pytest.mark.parametrize("tau", [0.0, -0.5, 1.0001])
    def test_tau_out_of_range(self, tau):
        with pytest.raises(ValueError):
            stitch(shots_from([1.0], [at_angle(0)]), tau=tau)

    def test_default_tau(self):
        assert DEFAULT_TAU == 0.85

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 23), st.integers(1, 5)),
            min_size=1,
            max_size=12,
        ),
        st.sampled_from([0.5, 0.7, 0.85, 0.95]),
    )
    def test_matches_oracle(self, shot_specs, tau):
        durations = [float(d) for _, d in shot_specs]
        embeddings = [at_angle(15 * k) for k, _ in shot_specs]
        shots = shots_from(durations, embeddings)
        groups, sims = oracle_groups(shots, tau)
        # keep decisions away from the threshold so numpy/pure-python
        # rounding cannot flip a merge
        assume(all(abs(s - tau) > 1e-9 for s in sims))
        clips = stitch(shots, tau=tau)
        assert len(clips) == len(groups)
        for clip, group in zip(clips, groups):
            assert clip.start_s == shots.boundaries_s[group[0]]
            assert clip.end_s == shots.boundaries_s[group[-1] + 1]
        # clips tile the full video and are indexed consecutively
        assert clips[0].start_s == 0.0
        assert clips[-1].end_s == shots.boundaries_s[-1]
        assert [c.index for c in clips] == list(range(len(clips)))
        for prev, nxt in zip(clips, clips[1:]):
            assert prev.end_s == nxt.start_s

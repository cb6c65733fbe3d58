"""Core record types, target rendering, and the line-record format."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from toc.errors import (
    EmptyError,
    EmptyRationaleError,
    GapError,
    OverlapError,
    RangeError,
    RecordError,
)
from toc.records import (
    Clip,
    QaPair,
    QaTask,
    RlSample,
    SftSample,
    demand_from_alpha,
    difficulty_from_alpha,
    dump_record,
    load_qa_tasks,
    option_label,
    read_records,
    render_target,
    validate_clip_sequence,
    write_records,
)
from toc.rewards import extract_answer


def clip(index: int, start: float, end: float, video_id: str = "v") -> Clip:
    return Clip(video_id=video_id, index=index, start_s=start, end_s=end)


class TestClip:
    def test_rejects_empty_span(self):
        with pytest.raises(ValueError):
            clip(0, 5.0, 5.0)

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            clip(-1, 0.0, 1.0)

    def test_record_round_trip(self):
        original = Clip(
            video_id="v", index=0, start_s=0.0, end_s=2.0,
            embedding=(0.6, 0.8), caption="a door opens",
        )
        assert Clip.from_record(original.to_record()) == original

    def test_none_fields_omitted_from_record(self):
        rec = clip(0, 0.0, 1.0).to_record()
        assert "embedding" not in rec and "caption" not in rec


class TestValidateClipSequence:
    def test_well_formed(self):
        clips = [clip(0, 0.0, 5.0), clip(1, 5.0, 9.0)]
        assert validate_clip_sequence(clips) == clips

    def test_sorts_by_index(self):
        a, b = clip(0, 0.0, 5.0), clip(1, 5.0, 9.0)
        assert validate_clip_sequence([b, a]) == [a, b]

    def test_overlap(self):
        with pytest.raises(OverlapError):
            validate_clip_sequence([clip(0, 0.0, 5.0), clip(1, 4.0, 9.0)])

    def test_index_gap(self):
        with pytest.raises(GapError):
            validate_clip_sequence([clip(0, 0.0, 5.0), clip(2, 5.0, 9.0)])

    def test_empty(self):
        with pytest.raises(EmptyError):
            validate_clip_sequence([])

    def test_mixed_videos(self):
        with pytest.raises(ValueError):
            validate_clip_sequence([clip(0, 0.0, 5.0, "a"), clip(1, 5.0, 9.0, "b")])

    def test_touching_spans_allowed(self):
        validate_clip_sequence([clip(0, 0.0, 5.0), clip(1, 5.0, 5.5)])


class TestQaPair:
    def test_multiple_choice_requires_options(self):
        with pytest.raises(ValueError):
            QaPair(question="q", answer="A", qa_type="multiple_choice")

    def test_answer_must_be_a_label(self):
        with pytest.raises(ValueError):
            QaPair(question="q", answer="E", qa_type="multiple_choice", options=("x", "y"))

    def test_unknown_type(self):
        with pytest.raises(ValueError):
            QaPair(question="q", answer="a", qa_type="essay")

    def test_formatted_question_labels_options(self):
        qa = QaPair(
            question="What happens?", answer="B",
            qa_type="multiple_choice", options=("a dog runs", "a cat sleeps"),
        )
        assert qa.formatted_question() == "What happens?\nA. a dog runs\nB. a cat sleeps"

    def test_open_ended_passes_question_through(self):
        qa = QaPair(question="Describe the scene.", answer="rainy", qa_type="open_ended")
        assert qa.formatted_question() == "Describe the scene."

    def test_option_labels(self):
        assert option_label(0) == "A" and option_label(3) == "D"

    def test_record_round_trip(self):
        qa = QaPair(question="q", answer="A", qa_type="multiple_choice", options=("x", "y"))
        assert QaPair.from_record(qa.to_record()) == qa


class TestRenderTarget:
    def test_renders_both_blocks(self):
        out = render_target("I scan the video and find the key clip.", "B")
        assert out == (
            "<locate>I scan the video and find the key clip.</locate>\n<answer>B</answer>"
        )

    def test_empty_rationale(self):
        with pytest.raises(EmptyRationaleError):
            render_target("", "B")

    def test_blank_rationale(self):
        with pytest.raises(EmptyRationaleError):
            render_target("   ", "B")

    def test_round_trips_through_extract_answer(self):
        assert extract_answer(render_target("some locating text", "C")) == "C"


class TestSftSample:
    def build(self, rationale: str = "I locate the clip.") -> SftSample:
        return SftSample.build(
            id="v#0", video_id="v", question="q", answer="A",
            rationale=rationale, prompt="p",
        )

    def test_build_sets_target(self):
        sample = self.build()
        assert sample.target == "<locate>I locate the clip.</locate>\n<answer>A</answer>"

    def test_rejects_marker_leak(self):
        with pytest.raises(ValueError):
            self.build("Step 1: I locate the clip.")

    def test_rejects_extra_answer_block(self):
        with pytest.raises(ValueError):
            self.build("I locate <answer>A</answer> early.")

    def test_record_round_trip(self):
        sample = self.build()
        assert SftSample.from_record(sample.to_record()) == sample


class TestDemandAndDifficulty:
    def test_endpoints(self):
        assert demand_from_alpha(0, 8) == 1.0
        assert abs(demand_from_alpha(8, 8) - math.exp(-1)) < 1e-15
        assert difficulty_from_alpha(0, 8) == 1.0
        assert difficulty_from_alpha(8, 8) == 0.0

    def test_midpoint(self):
        assert abs(demand_from_alpha(4, 8) - math.exp(-0.5)) < 1e-15
        assert difficulty_from_alpha(4, 8) == 0.5

    @pytest.mark.parametrize("alpha,m", [(-1, 8), (9, 8), (0, 0)])
    def test_range_errors(self, alpha, m):
        with pytest.raises(RangeError):
            demand_from_alpha(alpha, m)
        with pytest.raises(RangeError):
            difficulty_from_alpha(alpha, m)

    @given(st.integers(1, 64), st.data())
    def test_strictly_decreasing_in_alpha(self, m, data):
        alpha = data.draw(st.integers(0, m - 1))
        assert demand_from_alpha(alpha, m) > demand_from_alpha(alpha + 1, m)
        assert difficulty_from_alpha(alpha, m) > difficulty_from_alpha(alpha + 1, m)


class TestRlSample:
    def sample(self, alpha: int = 3) -> RlSample:
        return RlSample.from_trial_count(
            id="v#0", video_id="v", question="q",
            options=("w", "x", "y", "z"), answer="B", alpha=alpha, m_trials=8,
        )

    def test_derived_fields(self):
        s = self.sample(4)
        assert abs(s.reasoning_demand - math.exp(-0.5)) < 1e-15
        assert s.difficulty == 0.5

    def test_recompute_consistent(self):
        assert self.sample().recompute_consistent()

    def test_record_round_trip(self):
        s = self.sample()
        assert RlSample.from_record(s.to_record()) == s


class TestRecordIo:
    def test_write_then_read(self, tmp_path):
        path = tmp_path / "x.records"
        rows = [{"a": 1, "text": "café"}, {"b": [1, 2]}]
        assert write_records(path, rows) == 2
        assert list(read_records(path)) == rows

    def test_non_ascii_not_escaped(self):
        assert dump_record({"t": "café"}) == '{"t": "café"}'

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "x.records"
        path.write_text('{"a": 1}\n\n{"b": 2}\n', encoding="utf-8")
        assert list(read_records(path)) == [{"a": 1}, {"b": 2}]

    def test_malformed_line_names_path_and_line(self, tmp_path):
        path = tmp_path / "x.records"
        path.write_text('{"a": 1}\n\n{"b": \n', encoding="utf-8")
        with pytest.raises(RecordError, match=rf"{path}:3: malformed JSON"):
            list(read_records(path))


class TestQaTasks:
    def test_load_assigns_per_video_indices(self, tmp_path):
        path = tmp_path / "qa.records"
        write_records(
            path,
            [
                {"video_id": "v1", "question": "q0", "answer": "A",
                 "qa_type": "multiple_choice", "options": ["x", "y"]},
                {"video_id": "v1", "question": "q1", "answer": "open", "qa_type": "open_ended"},
                {"video_id": "v2", "question": "q2", "answer": "open", "qa_type": "open_ended"},
            ],
        )
        tasks = load_qa_tasks(path)
        assert [t.sample_id for t in tasks] == ["v1#0", "v1#1", "v2#0"]
        assert tasks[0].video_ref == "v1/full"

    def test_explicit_qa_index_and_ref(self, tmp_path):
        path = tmp_path / "qa.records"
        write_records(
            path,
            [{"video_id": "v", "qa_index": 5, "video_ref": "v/alt", "question": "q",
              "answer": "x", "qa_type": "open_ended"}],
        )
        task = load_qa_tasks(path)[0]
        assert task.sample_id == "v#5" and task.video_ref == "v/alt"
        assert isinstance(task, QaTask)

    def test_duplicate_sample_id_names_both_lines(self, tmp_path):
        path = tmp_path / "qa.records"
        row = {"video_id": "v", "question": "q", "answer": "x", "qa_type": "open_ended"}
        # the third line's explicit index 0 repeats the first line's default one
        write_records(path, [row, {**row, "qa_index": 1}, {**row, "qa_index": 0}])
        with pytest.raises(RecordError, match=r"qa.records:3: sample_id 'v#0' duplicates line 1"):
            load_qa_tasks(path)

"""Core record types, target rendering, and the line-record format."""

from __future__ import annotations

import json
import math
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given
from hypothesis import strategies as st

from toc.errors import EmptyRationaleError, RangeError, RecordError, ReservedTagError
from toc.records import (
    Clip,
    QaPair,
    QaTask,
    RlSample,
    SftSample,
    check_rationale,
    check_record,
    dump_record,
    json_encoder,
    load_qa_tasks,
    read_records,
    render_target,
    write_records,
)
from toc.rewards import extract_answer, rd_reward
from toc.sft_pipeline import load_clips


# Records whose encoding json.dumps fixes: text that needs escapes, floats at
# their limits, nesting, and keys that are not strings.
JSON_CASES = [
    {"t": "café ✓ 視頻 🎬", "ẞ": "ß"},
    {"q": 'say "hi" \\ back/slash', "ctl": "\x00\x01\t\n\r\x1f\x7f\u2028"},
    {"lone": "\ud800", "pair": "\U0001f3ac"},
    {"z": -0.0, "tiny": 1e-300, "sub": 5e-324, "big": 2**70, "neg": -(2**70), "f": 0.1},
    {"nan": math.nan, "inf": math.inf, "ninf": -math.inf},
    {"nested": [[1, [2.5, {"a": [None, True, False]}]], {"b": {"c": []}}], "e": {}},
    {1: "int key", 2.5: "float key", True: "bool key", None: "null key"},
    {},
]


def clip(index: int, start: float, end: float, video_id: str = "v") -> Clip:
    return Clip(video_id=video_id, index=index, start_s=start, end_s=end)


class TestClip:
    def test_rejects_empty_span(self):
        with pytest.raises(ValueError):
            clip(0, 5.0, 5.0)

    def test_rejects_negative_index(self, tmp_path):
        path = tmp_path / "clips.records"
        path.write_text('{"video_id": "v", "index": -1, "start_s": 0.0, "end_s": 1.0}\n')
        with pytest.raises(RecordError, match="clips.records:1: invalid record: "
                                              "index must be finite and >= 0, got -1"):
            load_clips(path)

    def test_record_round_trip(self):
        original = Clip(
            video_id="v", index=0, start_s=0.0, end_s=2.0,
            embedding=(0.6, 0.8), caption="a door opens",
        )
        assert original.to_record() == {
            "video_id": "v", "index": 0, "start_s": 0.0, "end_s": 2.0,
            "embedding": [0.6, 0.8], "caption": "a door opens",
        }

    def test_none_fields_omitted_from_record(self):
        rec = clip(0, 0.0, 1.0).to_record()
        assert "embedding" not in rec and "caption" not in rec


def test_per_record_types_keep_no_instance_dict():
    # slotted: a build-sft run holds one Clip per clip and one QaTask per sample, and an
    # instance __dict__ would be most of each
    qa = QaPair(question="q?", answer="B", qa_type="multiple_choice", options=("x", "y"))
    instances = [
        clip(0, 0.0, 1.0),
        qa,
        QaTask(video_id="v", qa_index=0, qa=qa, video_ref="v/full"),
        RlSample.from_trial_count("v#0", "v", "q?", ("x", "y"), "B", 3, 8),
    ]
    for instance in instances:
        assert not hasattr(instance, "__dict__"), type(instance).__name__


class TestQaPair:
    def test_multiple_choice_requires_options(self):
        with pytest.raises(ValueError):
            QaPair(question="q", answer="A", qa_type="multiple_choice")

    def test_answer_must_be_a_label(self):
        message = r"^answer 'E' is not one of the option labels \('A', 'B'\)$"
        with pytest.raises(ValueError, match=message):
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

    def test_record_round_trip(self):
        qa = QaPair(question="q", answer="A", qa_type="multiple_choice", options=("x", "y"))
        assert QaPair.from_record(qa.to_record()) == qa

    def test_question_and_answer_must_be_strings(self):
        rec = {"video_id": "v", "question": "q", "answer": "x", "qa_type": "open_ended"}
        with pytest.raises(TypeError, match=r"question must be a string, got \['q'\]"):
            check_record({**rec, "question": ["q"]}, "qa")
        with pytest.raises(TypeError, match="answer must be a string, got 7"):
            check_record({**rec, "answer": 7, "qa_type": "numerical"}, "qa")

    def test_record_must_be_an_object(self):
        with pytest.raises(TypeError, match=r"expected a JSON object, got \[1\]"):
            check_record([1], "qa")

    @pytest.mark.parametrize("qa_type", ["open_ended", "numerical"])
    def test_only_multiple_choice_takes_options(self, qa_type):
        # else formatted_question would append them to every prompt
        with pytest.raises(ValueError, match=f"only multiple_choice takes options, not {qa_type}"):
            QaPair(question="q", answer="x", qa_type=qa_type, options=("a", "b"))
        no_options = QaPair(question="q", answer="x", qa_type=qa_type, options=())
        assert no_options.formatted_question() == "q"

    def test_options_need_labels(self):
        with pytest.raises(ValueError, match="at most 26 options"):
            QaPair(question="q", answer="A", qa_type="multiple_choice", options=("x",) * 27)

    @pytest.mark.parametrize("answer", ["<answer>7", "7</answer>", "<locate>", "a</locate>b"])
    def test_answer_must_not_hold_a_target_tag(self, answer):
        with pytest.raises(ValueError, match="answer must not contain"):
            QaPair(question="q", answer=answer, qa_type="open_ended")


class TestRenderTarget:
    def test_renders_both_blocks(self):
        out = render_target("I scan the video and find the key clip.", "B")
        assert out == (
            "<locate>I scan the video and find the key clip.</locate>\n<answer>B</answer>"
        )

    def test_round_trips_through_extract_answer(self):
        assert extract_answer(render_target("some locating text", "C")) == "C"


class TestCheckRationale:
    def test_empty_rationale(self):
        with pytest.raises(EmptyRationaleError, match="rationale is empty once"):
            check_rationale("")

    def test_blank_rationale(self):
        with pytest.raises(EmptyRationaleError, match="rationale is empty once"):
            check_rationale("   ")

    @pytest.mark.parametrize("rationale,error,message", [
        ("I scan. Step 2: I focus.", ValueError, "rationale still contains a step marker"),
        ("I scan <answer>B.", ReservedTagError, r"rationale holds target tags \['<answer>'\]"),
    ], ids=["step_marker", "target_tag"])
    def test_rejects(self, rationale, error, message):
        with pytest.raises(error, match=message):
            check_rationale(rationale)


class TestSftSample:
    def build(self, rationale: str = "I locate the clip.") -> SftSample:
        sample = SftSample(
            id="v#0", video_id="v", question="q", answer="A", rationale=rationale,
            target=render_target(rationale, "A"), prompt="p",
        )
        sample.validate()
        return sample

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

    @pytest.mark.parametrize("rationale,answer,target,message", [
        ("r", "A", "<locate>r</locate><locate>x</locate>\n<answer>A</answer>", "not the rendering"),
        ("r", "A", "<answer>A</answer>\n<locate>r</locate>", "not the rendering"),
        ("r", "A", "<locate>s</locate>\n<answer>A</answer>", "not the rendering"),
        (" ", "A", "<locate> </locate>\n<answer>A</answer>", "rationale is empty"),
        ("r", "A</answer>", "<locate>r</locate>\n<answer>A</answer></answer>",
         "answer must not contain"),
    ], ids=["two_locate_blocks", "answer_first", "other_rationale", "blank_rationale",
            "answer_tag"])
    def test_rejects_malformed_target(self, rationale, answer, target, message):
        sample = SftSample(id="v#0", video_id="v", question="q", answer=answer,
                           rationale=rationale, target=target, prompt="p")
        with pytest.raises(ValueError, match=message):
            sample.validate()


def demand(alpha: int, m: int) -> float:
    """The reasoning demand of alpha correct trials out of m: the reward of a correct
    answer, checked to equal the demand RlSample stores."""
    stored = RlSample.from_trial_count("v#0", "v", "q", ("a",), "A", alpha, m).reasoning_demand
    assert rd_reward(True, alpha, m) == stored
    return stored


def difficulty(alpha: int, m: int) -> float:
    """The difficulty score of alpha correct trials out of m, as RlSample derives it."""
    return RlSample.from_trial_count("v#0", "v", "q", ("a",), "A", alpha, m).difficulty


class TestDemandAndDifficulty:
    def test_endpoints(self):
        assert demand(0, 8) == 1.0
        assert abs(demand(8, 8) - math.exp(-1)) < 1e-15
        assert difficulty(0, 8) == 1.0
        assert difficulty(8, 8) == 0.0

    def test_midpoint(self):
        assert abs(demand(4, 8) - math.exp(-0.5)) < 1e-15
        assert difficulty(4, 8) == 0.5

    @pytest.mark.parametrize("alpha,m", [(-1, 8), (9, 8), (0, 0)])
    def test_range_errors(self, alpha, m):
        with pytest.raises(RangeError):
            rd_reward(True, alpha, m)
        with pytest.raises(RangeError):
            difficulty(alpha, m)

    @given(st.integers(1, 64), st.data())
    def test_strictly_decreasing_in_alpha(self, m, data):
        alpha = data.draw(st.integers(0, m - 1))
        assert demand(alpha, m) > demand(alpha + 1, m)
        assert difficulty(alpha, m) > difficulty(alpha + 1, m)


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

    @pytest.mark.parametrize("rec", JSON_CASES)
    def test_same_bytes_as_json_dumps(self, rec):
        assert dump_record(rec) == json.dumps(rec, ensure_ascii=False)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "x.records"
        path.write_text('{"a": 1}\n\n{"b": 2}\n', encoding="utf-8")
        assert list(read_records(path)) == [{"a": 1}, {"b": 2}]

    def test_malformed_line_names_path_and_line(self, tmp_path):
        path = tmp_path / "x.records"
        path.write_text('{"a": 1}\n\n{"b": \n', encoding="utf-8")
        with pytest.raises(RecordError, match=rf"{path}:3: malformed JSON"):
            list(read_records(path))

    def test_non_object_line_names_path_and_line(self, tmp_path):
        path = tmp_path / "x.records"
        path.write_text('{"a": 1}\n[1, 2]\n', encoding="utf-8")
        with pytest.raises(RecordError, match=rf"{path}:2: expected a JSON object"):
            list(read_records(path))

    @pytest.mark.parametrize(
        "text", ['"\\ud800"', '"a\\uDBFFb"', '["x", "\\udc00"]', '{"\\ud800": 1}'],
        ids=["high", "high_upper_case", "low_in_list", "in_key"],
    )
    def test_lone_surrogate_escape_names_path_and_line(self, tmp_path, text):
        path = tmp_path / "x.records"
        path.write_text('{"a": 1}\n{"t": ' + text + "}\n", encoding="utf-8")
        with pytest.raises(RecordError, match=rf"{path}:2: a string holds a lone surrogate"):
            list(read_records(path))

    @pytest.mark.parametrize(
        "lines,bad",
        [
            ([b'{"a": 1}', b"\xff\xfe"], 2),
            ([b'{"a": "caf\xe9"}'], 1),
            # past the reader's first decoded chunk, with a lone CR that the
            # text reader also counts as a line break
            ([b'{"a": 1}\r{"b": 2}'] + [b'{"a": 1}'] * 3000 + [b'{"t": "\xc3"}'], 3003),
        ],
        ids=["bom_bytes", "latin1", "far_down"],
    )
    def test_non_utf8_line_names_path_and_line(self, tmp_path, lines, bad):
        path = tmp_path / "x.records"
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(RecordError, match=rf"{path}:{bad}: not valid UTF-8"):
            list(read_records(path))

    def test_first_faulty_line_is_named(self, tmp_path):
        path = tmp_path / "x.records"
        path.write_bytes(b'{"a": \n{"t": "\xff"}\n')
        with pytest.raises(RecordError, match=rf"{path}:1: malformed JSON"):
            list(read_records(path))

    def test_paired_surrogate_escape_loads_and_writes_unchanged(self, tmp_path):
        path = tmp_path / "x.records"
        path.write_text('{"t": "a\\ud83d\\ude00b"}\n', encoding="utf-8")
        (row,) = read_records(path)
        assert row == {"t": "a\U0001F600b"}
        write_records(tmp_path / "y.records", [row])
        assert (tmp_path / "y.records").read_text(encoding="utf-8") == '{"t": "a\U0001F600b"}\n'

    def test_write_is_atomic(self, tmp_path):
        path = tmp_path / "x.records"
        write_records(path, [{"a": 1}, {"a": 2}])
        before = path.read_bytes()

        def rows():
            yield {"a": 3}
            raise RuntimeError("producer failed")

        with pytest.raises(RuntimeError, match="producer failed"):
            write_records(path, rows())
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["x.records"]

    @pytest.mark.parametrize(
        "line,message",
        [
            ('{"index": 0, "start_s": 0, "end_s": 1}', "missing key 'video_id'"),
            ('{"video_id": "v", "index": 0, "start_s": 2, "end_s": 1}', "clip span"),
            ('{"video_id": "v", "index": 0, "start_s": "x", "end_s": 1}',
             "start_s must be a number, got 'x'"),
            ('{"video_id": "v", "index": "0", "start_s": 0, "end_s": 1}',
             "index must be an integer, got '0'"),
            ('{"video_id": "v", "index": 0.0, "start_s": 0, "end_s": 1}',
             "index must be an integer, got 0.0"),
            ('{"video_id": "v", "index": 0, "start_s": "0", "end_s": 1}',
             "start_s must be a number, got '0'"),
            ('{"video_id": "v", "index": 0, "start_s": 0, "end_s": 1, "embedding": [0.6, "0.8"]}',
             "embedding must be a list of numbers, got '0.8' at index 1"),
            ('{"video_id": "v", "index": 0, "start_s": 0, "end_s": 1, "embedding": [0.6, NaN]}',
             "embedding must be finite, got nan at index 1"),
        ],
    )
    def test_parse_records_names_path_and_line(self, tmp_path, line, message):
        path = tmp_path / "clips.records"
        path.write_text('{"video_id": "v", "index": 0, "start_s": 0, "end_s": 1}\n\n' + line + "\n")
        with pytest.raises(RecordError, match=rf"clips.records:3: invalid record: {message}"):
            load_clips(path)


# The options of each shared encoder, as json.dumps takes them: dump_record's,
# request_digest's and sample_digest's.
ENCODER_OPTIONS = [
    {"ensure_ascii": False},
    {"sort_keys": True, "separators": (",", ":"), "ensure_ascii": False},
    {"sort_keys": True},
]

JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=20,
)


def encoded(encode, value) -> object:
    """encode(value), or the type and text of the error it raises."""
    try:
        return encode(value)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


class TestCodec:
    @pytest.mark.parametrize("options", ENCODER_OPTIONS, ids=["record", "request", "sample"])
    @pytest.mark.parametrize("rec", JSON_CASES + [
        pytest.param({"set": {1}}, id="set"), pytest.param({"tuple": (1, "a")}, id="tuple"),
        pytest.param("text", id="string"), pytest.param([1], id="list"),
    ])
    def test_each_encoder_gives_json_dumps_bytes(self, options, rec):
        # a key of every type cannot be sorted, and a set cannot be encoded: the errors match too
        assert encoded(json_encoder(**options), rec) == encoded(lambda v: json.dumps(v, **options), rec)

    @pytest.mark.parametrize("options", ENCODER_OPTIONS, ids=["record", "request", "sample"])
    @given(tree=JSON_TREES)
    def test_each_encoder_gives_json_dumps_bytes_on_any_tree(self, options, tree):
        assert json_encoder(**options)(tree) == json.dumps(tree, **options)

    def test_dump_record_from_four_threads_at_once(self, fast_thread_switching):
        recs = [{"i": i, "t": "視頻" * (i % 7), "xs": [i / 7, None, [True]]} for i in range(2000)]
        expected = [dump_record(rec) for rec in recs]
        start = threading.Barrier(4)

        def dump_all(_: int) -> list[str]:
            start.wait()
            return [dump_record(rec) for rec in recs]

        with ThreadPoolExecutor(4) as pool:
            assert list(pool.map(dump_all, range(4), timeout=60)) == [expected] * 4

    @given(recs=st.lists(st.dictionaries(st.text(), JSON_TREES, max_size=4), max_size=5))
    def test_reader_gives_json_loads_records(self, tmp_path_factory, recs):
        path = tmp_path_factory.mktemp("reader") / "x.records"
        lines = [json.dumps(rec, ensure_ascii=pos % 2 == 0) for pos, rec in enumerate(recs)]
        path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
        expected = [json.loads(line) for line in lines]
        # NaN is never equal to itself; its JSON text is
        assert [json.dumps(rec) for rec in read_records(path)] == [json.dumps(rec) for rec in expected]

    @pytest.mark.parametrize(
        "line",
        ['{"a": 1}   x', '{"a": 1} {"b": 2}', "\ufeff{\"a\": 1}", '{"a": [1, 2', '{"a": tru}',
         "[" * 100_000, '{"a": ' + "[" * 100_000 + "]" * 100_000 + "}", '{"a": ' + "1" * 5000 + "}"],
        ids=["trailing_data_after_spaces", "two_objects", "byte_order_mark", "truncated",
             "bad_literal", "deep_nesting", "deep_nesting_in_an_object", "too_many_digits"],
    )
    def test_malformed_line_gives_json_loads_message(self, tmp_path, line):
        path = tmp_path / "x.records"
        path.write_text('{"a": 0}\n' + line + "\n", encoding="utf-8")
        with pytest.raises((ValueError, RecursionError)) as expected:
            json.loads(line)
        with pytest.raises(RecordError) as raised:
            list(read_records(path))
        assert str(raised.value) == f"{path}:2: malformed JSON: {expected.value}"


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

    @pytest.mark.parametrize(
        "row,message",
        [
            ({"question": "q", "answer": "A", "qa_type": "open_ended"}, "missing key 'video_id'"),
            ({"video_id": "v", "question": "q", "answer": "A", "qa_type": "multiple_choice"},
             "multiple_choice requires"),
            # a list video_id is unhashable, so it could not key a sample
            pytest.param({"video_id": ["v"], "question": "q", "answer": "A", "qa_type": "open_ended"},
                         r"video_id must be a string, got \['v'\]", id="row2-unhashable"),
            ({"video_id": "v", "question": ["q"], "answer": "x", "qa_type": "open_ended"},
             r"question must be a string, got \['q'\]"),
            ({"video_id": "v", "question": "q", "answer": 7, "qa_type": "numerical"},
             "answer must be a string, got 7"),
            ({"video_id": "v", "question": "q", "options": "abc", "answer": "A",
              "qa_type": "multiple_choice"}, "options must be a list of strings, got 'abc'"),
            ({"video_id": "v", "qa_index": True, "question": "q", "answer": "x",
              "qa_type": "open_ended"}, "qa_index must be an integer, got True"),
            ({"video_id": "v", "qa_index": -1, "question": "q", "answer": "x",
              "qa_type": "open_ended"}, "qa_index must be finite and >= 0, got -1"),
            ({"video_id": "v", "question": "q", "options": ["a", "b"], "answer": "x",
              "qa_type": "open_ended"}, "only multiple_choice takes options, not open_ended"),
        ],
    )
    def test_invalid_record_names_path_and_line(self, tmp_path, row, message):
        path = tmp_path / "qa.records"
        ok = {"video_id": "w", "question": "q", "answer": "x", "qa_type": "open_ended"}
        write_records(path, [ok, row])
        with pytest.raises(RecordError, match=rf"qa.records:2: invalid record: .*{message}"):
            load_qa_tasks(path)

    def test_null_is_a_missing_optional_key(self, tmp_path):
        path = tmp_path / "qa.records"
        write_records(
            path,
            [{"video_id": "v", "qa_index": None, "video_ref": None, "options": None,
              "question": "q", "answer": "x", "qa_type": "open_ended"}],
        )
        (task,) = load_qa_tasks(path)
        assert (task.sample_id, task.video_ref, task.qa.options) == ("v#0", "v/full", None)

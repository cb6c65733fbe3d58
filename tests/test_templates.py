"""Byte-exact template rendering and reply parsing."""

from __future__ import annotations

import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from toc.errors import ParseError, UnboundPlaceholderError
from toc.templates import (
    TEMPLATES,
    parse_index_array,
    parse_yes_no,
    render_direct_answer,
    render_train_infer,
    step_numbers,
    strip_step_markers,
    substitute,
)

GOLDEN = Path(__file__).parent / "golden"


def golden_text(name: str) -> str:
    return (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


PLACEHOLDER = re.compile(r"\{([A-Za-z][A-Za-z ]*)\}")


def placeholders(body: str) -> tuple[str, ...]:
    """Placeholder names in order of first appearance."""
    return tuple(dict.fromkeys(PLACEHOLDER.findall(body)))


def identity_bindings(body: str) -> dict[str, str]:
    return {name: "{" + name + "}" for name in placeholders(body)}


class TestTemplateBodies:
    @pytest.mark.parametrize("name", TEMPLATES)
    def test_body_matches_golden(self, name):
        body = TEMPLATES[name]
        rendered = substitute(body, identity_bindings(body))
        assert rendered == body  # identity bindings round-trip
        assert rendered == golden_text(name)

    @pytest.mark.parametrize(
        "name,expected",
        [
            ("key_clip_selection", ("Video Clip Descriptions", "Question", "Answer")),
            ("low_quality_filter", ("Question", "Answer", "Cues")),
            ("rationale_generation", ("Question", "Answer", "Reasoning Trajectory")),
            ("train_infer", ("Question", "Task Instruction")),
        ],
    )
    def test_placeholders(self, name, expected):
        assert placeholders(TEMPLATES[name]) == expected


class TestSubstitute:
    def test_unbound_placeholder(self):
        with pytest.raises(UnboundPlaceholderError):
            substitute("{Question}; {Answer}", {"Question": "q"})

    def test_single_pass_never_reexpands_bound_values(self):
        out = substitute("{Question}; {Answer}", {"Question": "{Answer}", "Answer": "x"})
        assert out == "{Answer}; x"

    def test_json_braces_in_value_pass_through(self):
        out = substitute("{Question}", {"Question": '{"num_clips": 2}'})
        assert out == '{"num_clips": 2}'

    def test_extra_bindings_ignored(self):
        assert substitute("plain", {"Question": "q"}) == "plain"


class TestTrainInferRendering:
    def test_multiple_choice_matches_golden(self):
        assert render_train_infer("{Question}", "multiple_choice") == golden_text(
            "train_infer_multiple_choice"
        )

    def test_numerical_matches_golden(self):
        assert render_train_infer("{Question}", "numerical") == golden_text(
            "train_infer_numerical"
        )

    def test_open_ended_instruction(self):
        out = render_train_infer("Describe the scene.", "open_ended")
        assert out.startswith("Describe the scene.\n")
        assert out.endswith("Provide your final answer within the <answer> </answer> tags.")

    def test_unknown_qa_type(self):
        with pytest.raises(KeyError):
            render_train_infer("{Question}", "essay")

    def test_direct_answer_prompt(self):
        out = render_direct_answer("Which door opens?\nA. left\nB. right")
        assert out == (
            "Which door opens?\nA. left\nB. right\n"
            "Answer with only the single option letter within the "
            "<answer> </answer> tags. Do not explain."
        )


class TestParseIndexArray:
    def test_plain_array(self):
        assert parse_index_array("[2, 5]") == [2, 5]

    def test_sorts_and_dedups(self):
        assert parse_index_array("[5, 2, 2]") == [2, 5]

    def test_empty_array(self):
        assert parse_index_array("[]") == []

    @pytest.mark.parametrize(
        "reply",
        ['{"a": 1}', "[1.5]", "[true]", '["2"]', "2, 5", "```json\n[2]\n```"],
    )
    def test_strict_rejects(self, reply):
        with pytest.raises(ParseError):
            parse_index_array(reply)

    def test_lenient_recovers_fenced_array(self):
        assert parse_index_array("```json\n[2]\n```", lenient=True) == [2]

    def test_lenient_recovers_embedded_array(self):
        assert parse_index_array("the key clips are [3, 1].", lenient=True) == [1, 3]

    def test_lenient_still_fails_without_array(self):
        with pytest.raises(ParseError):
            parse_index_array("clips three and one", lenient=True)

    def test_lenient_still_fails_on_non_integers(self):
        with pytest.raises(ParseError):
            parse_index_array("try [a, b]", lenient=True)

    @pytest.mark.parametrize("depth", [3000, 100_000])
    def test_nesting_too_deep_is_unparseable(self, depth):
        with pytest.raises(ParseError, match="not a bare JSON integer array"):
            parse_index_array("[" * depth + "]" * depth)

    @pytest.mark.parametrize("lenient", [False, True])
    def test_integer_of_too_many_digits_is_unparseable(self, lenient):
        with pytest.raises(ParseError):
            parse_index_array("[" + "1" * 5000 + "]", lenient=lenient)


class TestParseYesNo:
    @pytest.mark.parametrize("reply", ["Yes", "yes", "YES, clearly.", '"Yes."', "  yes  "])
    def test_yes(self, reply):
        assert parse_yes_no(reply) is True

    @pytest.mark.parametrize("reply", ["No", "no.", "NO - missing context"])
    def test_no(self, reply):
        assert parse_yes_no(reply) is False

    @pytest.mark.parametrize("reply", ["", "   ", "maybe", "not yes", "yesterday"])
    def test_rejects(self, reply):
        with pytest.raises(ParseError):
            parse_yes_no(reply)


class TestStepMarkers:
    def test_step_numbers_in_order(self):
        assert step_numbers("Step 1: look. Step 3: find. Step 2: check.") == [1, 3, 2]

    def test_step_numbers_empty(self):
        assert step_numbers("no markers here") == []

    def test_strip_basic(self):
        out = strip_step_markers("Step 1: I look around. Step 2: I find the clip.")
        assert out == "I look around. I find the clip."

    def test_strip_collapse_uncovers_marker(self):
        assert strip_step_markers("Step  1: hello") == "hello"

    def test_strip_removal_uncovers_marker(self):
        # deleting the inner marker re-assembles an outer one
        assert strip_step_markers("StStep 3: ep 1: x") == "x"

    def test_strip_no_markers_is_identity(self):
        assert strip_step_markers("plain text, one  two") == "plain text, one two"

    @given(
        st.lists(
            st.one_of(
                st.just("Step "),
                st.from_regex(r"Step \d{1,3}: ", fullmatch=True),
                st.text(alphabet="Step 123:ab .", max_size=8),
            ),
            max_size=8,
        ).map("".join)
    )
    def test_strip_is_idempotent(self, text):
        once = strip_step_markers(text)
        assert strip_step_markers(once) == once
        assert re.search(r"Step \d+: ?", once) is None

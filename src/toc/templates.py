"""Prompt templates and the parsers for their expected reply shapes.

Template bodies are frozen byte-for-byte; tests compare rendered output
against golden files, so any edit here must be deliberate.  Each body is a
`str.format` template whose fields are brace-wrapped names ({Question}), and
no body holds a literal brace.  `format_map` never re-expands a bound value,
so braces inside a question or a JSON binding pass through.
"""

from __future__ import annotations

import json
import re
import string

from .errors import ParseError

KEY_CLIP_SELECTION_BODY = """### Task:
You are an excellent problem solver with a strong ability to comprehend and analyze long-form video content. There is a long video that has been split into multiple semantically coherent clips to help you understand. You are provided with the detailed description for each clip, and a question-answer pair based on this long video. Please carefully understand this long video based on the detailed descriptions for all clips, along with the question-answer pair. And reason how to solve this question using the information provided in the video to arrive at the correct answer. Based on your reasoning process, identify which clips are essential for answering the question.

### Guidelines:
The information provided to you regarding the long video is given in JSON format, which includes the count of clips, the index and detailed description for each clip, and a question-answer pair based on this long video. You should only provide the indices of your selected clips. No need to explain.

### Output Format:
It is critical that you respond only with the exact, parseable JSON and not any preamble, explanation, or anything else outside of the valid JSON as your outputs will be fed directly to a JSON parser to go into a downstream application. Do not include any markup like ```json or anything else that would break our ability to parse the response. This is critical, after you are done reasoning and before you respond, ensure that your response is exactly JSON parseable. You must respond with a JSON array that matches the following schema: [<index_1>, <index_2>, ..., <index_N>]

Please provide the indices of the essential clips for the following video clip descriptions and corresponding question-answer pair:
{Video Clip Descriptions}; {Question}; {Answer}"""

LOW_QUALITY_FILTER_BODY = """I will provide you with a question-answer pair, along with a detailed description of a video. You need to judge whether the video content is sufficient to lead to the answer to the question. If so, respond with "Yes"; otherwise, respond with "No". No need to explain. Please provide your judgement for the following question-answer pair and video content:
{Question}; {Answer}; {Cues}"""

RATIONALE_GENERATION_BODY = """You are an excellent video assistant with a strong ability to comprehend and analyze long-form video content, and you are watching a long video. I will provide you with a question-answer pair and explain the process of locating video clips that are increasingly helpful for solving the question and reaching the answer. Please summarize the locating process in the first-person tone, demonstrating the step-by-step method of how to locate the most important clip for the given question. While you are summarizing, act as if you can only see the entire video and question, and you are unaware of the provided video clip descriptions and the given answer. Your response should be concise, presented in a single paragraph, and follow this format: "Step 1: ... Step 2: ... Step 3: ...". Note that the number of steps in your response MUST equal the number of steps in the provided locating process. Please provide your summarized locating process for the following data:
{Question}; {Answer}; {Reasoning Trajectory}"""

TRAIN_INFER_BODY = """{Question}
First, progressively locate video clips that are increasingly helpful for answering the question, and then provide your final answer. Put your detailed locating process between the <locate> </locate> tags, and your final answer between the <answer> </answer> tags. {Task Instruction}"""

# Minimal no-reasoning elicitation for the demand-estimation trials; shares
# the answer-tag convention so extraction code paths stay identical.
DIRECT_ANSWER_BODY = """{Question}
Answer with only the single option letter within the <answer> </answer> tags. Do not explain."""

TASK_INSTRUCTIONS = {
    "multiple_choice": (
        "Provide only the single option letter (e.g., A, B, C, D, etc.) "
        "within the <answer> </answer> tags."
    ),
    "numerical": (
        "Provide the numerical value (e.g., 42 or 3.14) "
        "within the <answer> </answer> tags."
    ),
    "open_ended": "Provide your final answer within the <answer> </answer> tags.",
}

TEMPLATES = {
    "key_clip_selection": KEY_CLIP_SELECTION_BODY,
    "low_quality_filter": LOW_QUALITY_FILTER_BODY,
    "rationale_generation": RATIONALE_GENERATION_BODY,
    "train_infer": TRAIN_INFER_BODY,
}


def render_train_infer(question: str, qa_type: str) -> str:
    """Unified training/inference prompt: question plus type-specific instruction."""
    return TEMPLATES["train_infer"].format_map(
        {"Question": question, "Task Instruction": TASK_INSTRUCTIONS[qa_type]}
    )


def parse_index_array(reply: str, lenient: bool) -> list[int]:
    """Parse a reply that must be exactly a JSON array of integers.

    Returns sorted, de-duplicated indices.  When lenient, a reply that
    fails the strict parse falls back to the first bracketed array found
    anywhere in the text.
    """
    try:
        return _validate_index_array(json.loads(reply))
    # ValueError: malformed JSON or an integer of too many digits; RecursionError: nested too deep
    except (ValueError, RecursionError, ParseError):
        if not lenient:
            raise ParseError(f"reply is not a bare JSON integer array: {reply!r}") from None
    bracketed = re.search(r"\[[^][]*\]", reply)
    if bracketed is None:
        raise ParseError(f"no bracketed array found in reply: {reply!r}")
    try:
        return _validate_index_array(json.loads(bracketed.group(0)))
    except ValueError:  # malformed, or an integer of too many digits; it cannot nest
        raise ParseError(f"bracketed text is not a JSON array: {bracketed.group(0)!r}") from None


def _validate_index_array(value: object) -> list[int]:
    if not isinstance(value, list):
        raise ParseError(f"expected a JSON array, got {type(value).__name__}")
    for element in value:
        if isinstance(element, bool) or not isinstance(element, int):
            raise ParseError(f"expected integer indices, got {element!r}")
    return sorted(set(value))


def parse_yes_no(reply: str) -> bool:
    """First token, punctuation-trimmed, case-insensitive: yes -> True, no -> False."""
    tokens = reply.split()
    if tokens:
        first = tokens[0].strip(string.punctuation).casefold()
        if first == "yes":
            return True
        if first == "no":
            return False
    raise ParseError(f"reply does not start with yes or no: {reply!r}")


_STEP_MARKER = re.compile(r"Step \d+: ?")
_STEP_NUMBER = re.compile(r"Step (\d+):")
_MULTI_SPACE = re.compile(r" {2,}")


def step_numbers(text: str) -> list[int]:
    """Step marker numerals in order of appearance."""
    return [int(m.group(1)) for m in _STEP_NUMBER.finditer(text)]


def strip_step_markers(text: str) -> str:
    """Remove every "Step <k>:" marker plus one trailing space; collapse double spaces.

    Iterated to a fixed point so the function is idempotent even when a
    removal or collapse uncovers a new marker.
    """
    out = text
    while True:
        squashed = _MULTI_SPACE.sub(" ", _STEP_MARKER.sub("", out))
        if squashed == out:
            return out
        out = squashed

"""Fuzzed input files: every subcommand exits 0, 1 or 2 and never raises.

Each example starts from valid records for one subcommand's input file and
breaks one or more of them: a key goes missing, a value takes the wrong
type or an out-of-range value, an element inside a list does the same, or
a whole line stops being an object.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from toc.cli import main
from toc.records import read_records

ODD_NUMBERS = [0, -1, 1, 2, 27, 0.5, -0.0, 1e308, -1e308, float("nan"), float("inf")]

junk = st.recursive(
    st.none() | st.booleans() | st.sampled_from(ODD_NUMBERS) | st.text(max_size=4),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2)
    ),
    max_leaves=6,
)


@st.composite
def broken(draw, valid: dict) -> object:
    """One valid record with up to three of its keys broken, or a non-object line."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.lists(junk, max_size=2) | st.sampled_from(ODD_NUMBERS) | st.text(max_size=4))
    rec = dict(valid)
    for key in draw(st.lists(st.sampled_from(sorted(valid)), min_size=1, max_size=3, unique=True)):
        action = draw(st.sampled_from(("drop", "replace", "element")))
        if action == "drop":
            del rec[key]
        elif action == "element" and isinstance(rec[key], list) and rec[key]:
            items = list(rec[key])
            items[draw(st.integers(0, len(items) - 1))] = draw(junk)
            rec[key] = items
        else:
            rec[key] = draw(junk)
    return rec


@st.composite
def record_file(draw, valid_rows: list[dict]) -> list[object]:
    """The valid rows with one or two of them broken."""
    rows: list[object] = list(valid_rows)
    for pos in draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=2, unique=True)):
        rows[pos] = draw(broken(rows[pos]))
    return rows


def write_lines(path: Path, rows: list[object]) -> str:
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    return str(path)


def run_main(args: list[str]) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        return main(args)


@pytest.fixture(scope="module")
def inputs(corpus) -> dict:
    """Valid rows for every fuzzed file, plus the corpus's mock config."""
    paths = corpus.manifest["paths"]
    qa = list(read_records(paths["qa"]))[:2]
    videos = {row["video_id"] for row in qa}
    return {
        "config": paths["config"],
        "qa": qa,
        "clips": [row for row in read_records(paths["clips"]) if row["video_id"] in videos],
        "shots": list(read_records(paths["shots"])),
        "demand": [
            {"id": f"v{i}#0", "video_id": f"v{i}", "question": "q", "options": ["a", "b"],
             "answer": "A", "alpha": i, "m_trials": 4, "reasoning_demand": 1.0,
             "difficulty": 1 - i / 4}
            for i in range(4)
        ],
        "groups": [
            {"gamma": 0.5, "correct": [True, False, True]},
            {"gamma": 1.0, "correct": [False, False]},
        ],
        "logprobs": [
            {"current": [[-0.5, -1.0], [-0.2]], "old": [[-0.5, -0.9], [-0.3]],
             "ref": [[-0.4, -1.0], [-0.2]], "scaled_advantages": [0.5, -0.5]},
        ],
    }


# Per subcommand: the input files it reads, one of which is broken per
# example, and its command line given those files, a config and an output.
SUBCOMMANDS = {
    "segment": (
        ("shots",),
        lambda f, config, out: ["segment", "--shots", f["shots"], "-o", out],
    ),
    "build-sft": (
        ("qa", "clips"),
        lambda f, config, out: ["build-sft", "--videos", f["clips"], "--qa", f["qa"],
                                "--config", config, "-o", out],
    ),
    "estimate-demand": (
        ("qa",),
        lambda f, config, out: ["estimate-demand", "--qa", f["qa"], "--config", config, "-o", out],
    ),
    "build-rl": (
        ("demand",),
        lambda f, config, out: ["build-rl", "--in", f["demand"], "--target", "3", "-o", out],
    ),
    "reward": (
        ("groups",),
        lambda f, config, out: ["reward", "--group", f["groups"], "--report", out],
    ),
    "grpo-eval": (
        ("logprobs",),
        lambda f, config, out: ["grpo-eval", "--logprobs", f["logprobs"], "--epsilon", "0.2",
                                "--beta", "0.04", "--report", out],
    ),
}


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_broken_input_exits_with_a_code(inputs, name, data):
    keys, command = SUBCOMMANDS[name]
    target = data.draw(st.sampled_from(keys))
    with tempfile.TemporaryDirectory() as tmp:
        files = {
            key: write_lines(
                Path(tmp) / f"{key}.records",
                data.draw(record_file(inputs[key])) if key == target else inputs[key],
            )
            for key in keys
        }
        code = run_main(command(files, inputs["config"], str(Path(tmp) / "out.records")))
    assert code in (0, 1, 2)

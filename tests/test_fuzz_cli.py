"""Fuzzed inputs: every subcommand exits 0, 1 or 2 and never raises.

Each example starts from valid records for one subcommand's input file and
breaks one or more of them: a key goes missing, a value takes the wrong
type or an out-of-range value, an element inside a list does the same, or
a whole line stops being an object.  The config file is broken the same
way, and the numeric command-line values are drawn from odd numbers and
strings that are not numbers at all.  Input files also get raw bytes that
are not UTF-8, and the mock table gets broken lines and conflicting replies.
Last, each key of each input shape in turn takes a JSON type it does not
accept, which must be a run error naming the line.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from toc.cli import main
from toc.records import read_records

# 10**400 is an integer literal too large for a float.
ODD_NUMBERS = [0, -1, 1, 2, 27, 0.5, -0.0, 1e308, -1e308, float("nan"), float("inf"), 10**400]

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


def run_main(args: list[str]) -> tuple[int, str]:
    """The exit code and the standard error of one command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, err.getvalue()


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
        # the replies the two samples ask for; each note starts with its video
        "mock_table": [
            row for row in read_records(paths["mock_table"]) if row["note"].split()[0] in videos
        ],
        "shots": list(read_records(paths["shots"])),
        "demand": [
            {"id": f"v{i}#0", "video_id": f"v{i}", "question": "q", "options": ["a", "b"],
             "answer": "A", "alpha": i, "m_trials": 4, "reasoning_demand": math.exp(-i / 4),
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
        ("qa", "clips", "mock_table"),
        lambda f, config, out: ["build-sft", "--videos", f["clips"], "--qa", f["qa"],
                                "--config", config, "-o", out],
    ),
    "estimate-demand": (
        ("qa", "mock_table"),
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


def config_for(tmp: str, inputs: dict, files: dict) -> str:
    """The corpus config, reading the example's mock table when it has one."""
    if "mock_table" not in files:
        return inputs["config"]
    config = json.loads(Path(inputs["config"]).read_text(encoding="utf-8"))
    config["mock_table_path"] = files["mock_table"]
    path = Path(tmp) / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(path)


@st.composite
def table_file(draw, valid_rows: list[dict]) -> list[object]:
    """Broken mock-table rows, and maybe a row repeating a digest with another reply."""
    rows = draw(record_file(valid_rows))
    if draw(st.booleans()):
        row = valid_rows[draw(st.integers(0, len(valid_rows) - 1))]
        rows.append({**row, "reply": draw(st.sampled_from([row["reply"], ""]) | st.text(max_size=4))})
    return rows


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_broken_input_exits_with_a_code(inputs, name, data):
    keys, command = SUBCOMMANDS[name]
    target = data.draw(st.sampled_from(keys))
    breaker = table_file if target == "mock_table" else record_file
    with tempfile.TemporaryDirectory() as tmp:
        files = {
            key: write_lines(
                Path(tmp) / f"{key}.records",
                data.draw(breaker(inputs[key])) if key == target else inputs[key],
            )
            for key in keys
        }
        config = config_for(tmp, inputs, files)
        code, _ = run_main(command(files, config, str(Path(tmp) / "out.records")))
    assert code in (0, 1, 2)


# Truncated sequences, stray continuation bytes, an encoded surrogate and a
# code point beyond U+10FFFF: none of them decodes as UTF-8.
NOT_UTF8 = [b"\xff", b"\xfe\xff", b"\xc3", b"\x80", b"\xe2\x82", b"\xed\xa0\x80", b"\xf4\x90\x80\x80"]


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_non_utf8_input_exits_with_a_code(inputs, name, data):
    keys, command = SUBCOMMANDS[name]
    target = data.draw(st.sampled_from(keys))
    with tempfile.TemporaryDirectory() as tmp:
        files = {key: write_lines(Path(tmp) / f"{key}.records", inputs[key]) for key in keys}
        path = Path(files[target])
        raw = path.read_bytes()
        at = data.draw(st.integers(0, len(raw)))
        bad = data.draw(st.sampled_from(NOT_UTF8) | st.binary(min_size=1, max_size=4))
        raw = raw[:at] + bad + raw[at:]
        path.write_bytes(raw)
        config = config_for(tmp, inputs, files)
        code, _ = run_main(command(files, config, str(Path(tmp) / "out.records")))
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError:
        assert code == 1
    assert code in (0, 1, 2)


RETIRED_KEYS = ["tau", "band_lo", "band_hi", "target_rl_size", "seed"]


@st.composite
def config_file(draw, valid: dict) -> object:
    """The valid config with top-level keys, a backend entry or extra keys broken."""
    config = draw(broken(valid))
    if not isinstance(config, dict):
        return config
    if draw(st.booleans()) and isinstance(config.get("backends"), dict):
        config["backends"] = {**config["backends"], "llm": draw(broken(valid["backends"]["llm"]))}
    if draw(st.booleans()):
        config[draw(st.sampled_from(RETIRED_KEYS) | st.text(max_size=3))] = draw(junk)
    return config


# build-sft reads every config key but m_trials and trial_temperature, which
# load_config still checks; the mock table scripts every call it makes for
# these samples whatever the config says, so no fuzzed retry delay is slept.
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_broken_config_exits_with_a_code(inputs, data):
    valid = json.loads(Path(inputs["config"]).read_text(encoding="utf-8"))
    valid["mock_table_path"] = str(Path(inputs["config"]).parent / valid["mock_table_path"])
    valid["backends"]["llm"] = {"kind": "mock", "timeout_s": 60.0}
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(data.draw(config_file(valid))), encoding="utf-8")
        files = {
            key: write_lines(Path(tmp) / f"{key}.records", inputs[key]) for key in ("qa", "clips")
        }
        command = SUBCOMMANDS["build-sft"][1]
        code, _ = run_main(command(files, str(config), str(Path(tmp) / "out.records")))
    assert code in (0, 1, 2)


numbers = st.floats() | st.integers(-10**6, 10**6) | st.sampled_from(ODD_NUMBERS)
# A number as the command line spells it, or a string that is no number.
number_text = numbers.map(str) | st.text(max_size=5)
band_text = st.just("0.2:0.8") | st.tuples(number_text, number_text).map(":".join) | number_text


def small_or_huge(lo: int, hi: int) -> st.SearchStrategy[str]:
    """An integer in [lo, hi] half the time, else one above hi up to 10**9."""
    return st.integers(lo, hi).map(str) | st.integers(hi + 1, 10**9).map(str)


# Per fuzzed flag: the input files the command reads and its command line,
# given those files, a config, an output and the example's data.  Values go
# in as --flag=VALUE so that a leading "-" is read as part of the value.
VALUE_FLAGS = {
    "segment --tau": (
        ("shots",),
        lambda f, config, out, d: [
            "segment", "--shots", f["shots"], f"--tau={d.draw(number_text)}", "-o", out,
        ],
    ),
    "build-rl --band --target": (
        ("demand",),
        lambda f, config, out, d: [
            "build-rl", "--in", f["demand"], f"--band={d.draw(band_text)}",
            f"--target={d.draw(small_or_huge(-3, 3) | number_text)}", "-o", out,
        ],
    ),
    "grpo-eval --epsilon --beta": (
        ("logprobs",),
        lambda f, config, out, d: [
            "grpo-eval", "--logprobs", f["logprobs"], f"--epsilon={d.draw(number_text)}",
            f"--beta={d.draw(number_text)}", "--report", out,
        ],
    ),
    # An M beyond the 8 scripted trials fails in the mock at trial 9, after
    # retries that the corpus config makes instant.
    "estimate-demand --m": (
        ("qa",),
        lambda f, config, out, d: [
            "estimate-demand", "--qa", f["qa"], "--config", config,
            f"--m={d.draw(small_or_huge(-2, 12) | number_text)}",
            f"--parallelism={d.draw(st.integers(1, 8))}", "-o", out,
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(VALUE_FLAGS))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_fuzzed_flag_values_exit_with_a_code(inputs, name, data):
    keys, command = VALUE_FLAGS[name]
    with tempfile.TemporaryDirectory() as tmp:
        files = {key: write_lines(Path(tmp) / f"{key}.records", inputs[key]) for key in keys}
        config = config_for(tmp, inputs, files)
        code, _ = run_main(command(files, config, str(Path(tmp) / "out.records"), data))
    assert code in (0, 1, 2)


# The JSON types each key of each input file takes, written out apart from
# records.SHAPES so that the table itself is under test: a number key takes an
# integer too, [T] is a list of T, and "?" marks an optional key, for which
# null means absent.
KEY_TYPES = {
    "shots": {"video_id": "string", "boundaries_s": "[number]", "embeddings": "[list]"},
    "clips": {"video_id": "string", "index": "integer", "start_s": "number", "end_s": "number",
              "embedding": "[number]?", "caption": "string?"},
    "qa": {"video_id": "string", "qa_index": "integer?", "video_ref": "string?",
           "question": "string", "options": "[string]?", "answer": "string", "qa_type": "string"},
    "mock_table": {"digest": "string", "reply": "string"},
    "demand": {"id": "string", "video_id": "string", "question": "string",
               "options": "[string]", "answer": "string", "alpha": "integer",
               "m_trials": "integer", "reasoning_demand": "number", "difficulty": "number"},
    "groups": {"gamma": "number", "correct": "[boolean]"},
    "logprobs": {"current": "[list]", "old": "[list]", "ref": "[list]",
                 "scaled_advantages": "[number]"},
}

# A value of each JSON type; the strings include numeric-looking ones.
JSON_VALUES = {
    "null": st.none(),
    "boolean": st.booleans(),
    "integer": st.integers(-2, 2),
    "number": st.floats(allow_nan=False, allow_infinity=False),
    "string": st.sampled_from(["0", "1.5", "true"]) | st.text(max_size=3),
    "list": st.lists(st.integers(0, 1), max_size=2),
    "object": st.dictionaries(st.text(max_size=2), st.integers(0, 1), max_size=2),
}


def refused(accepted: str) -> list[str]:
    """The JSON types a value of type `accepted` may not have; null is left to the caller."""
    takes = {"number": {"number", "integer"}}.get(accepted, {accepted})
    return [name for name in JSON_VALUES if name != "null" and name not in takes]


@st.composite
def wrong_value(draw, kind: str, valid: object) -> object:
    """A value for a key of type `kind` whose JSON type it does not take."""
    optional, kind = kind.endswith("?"), kind.rstrip("?")
    choices = [] if optional else ["null"]
    if kind.startswith("["):
        choices += refused("list")
        choices += [f"item {name}" for name in refused(kind[1:-1]) + ["null"]]
    else:
        choices += refused(kind)
    choice = draw(st.sampled_from(choices))
    if not choice.startswith("item "):
        return draw(JSON_VALUES[choice])
    # One item of the list, or of a one-item list, takes the refused type.
    items = list(valid) if isinstance(valid, list) and valid else [None]
    items[draw(st.integers(0, len(items) - 1))] = draw(JSON_VALUES[choice[5:]])
    return items


# Each subcommand's input files, one key of one shape at a time.
SHAPE_KEYS = [
    (name, target, key)
    for name, (keys, _) in sorted(SUBCOMMANDS.items())
    for target in keys
    for key in KEY_TYPES[target]
]


@pytest.mark.parametrize("name,target,key", SHAPE_KEYS, ids=lambda part: str(part))
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_wrongly_typed_key_is_run_error(inputs, name, target, key, data):
    keys, command = SUBCOMMANDS[name]
    rows = [dict(row) for row in inputs[target]]
    pos = data.draw(st.integers(0, len(rows) - 1))
    rows[pos][key] = data.draw(wrong_value(KEY_TYPES[target][key], rows[pos].get(key)))
    with tempfile.TemporaryDirectory() as tmp:
        files = {
            file: write_lines(Path(tmp) / f"{file}.records", rows if file == target else inputs[file])
            for file in keys
        }
        config = config_for(tmp, inputs, files)
        code, err = run_main(command(files, config, str(Path(tmp) / "out.records")))
    assert code == 1 and f"{target}.records:{pos + 1}: " in err, err

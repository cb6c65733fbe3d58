"""The README's examples load: its config through load_config, and each File
formats example line through the reader of the command that takes it.  Each
File formats bullet lists its shape's keys as records.SHAPES has them, the
journal bullet's sub-list lists each stage's payload keys, and the rejected
bullet lists every rejection reason.  The Quickstart runs as written, and the
Layout block names every module of the package."""

from __future__ import annotations

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from toc.cli import _group, _logprob_group
from toc.config import BackendConfig, load_config
from toc.gateway import MockBackend
from toc.records import (
    SHAPES,
    RlSample,
    SftSample,
    load_qa_tasks,
    parse_records,
    read_records,
    render_target,
)
from toc.segmentation import ShotBoundarySet
from toc.sft_pipeline import REJECTION_REASONS, Journal, load_clips

README = Path(__file__).resolve().parent.parent / "README.md"


def section(title: str) -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:end if end != -1 else None]


# A bullet's sub-list item: "  - `stage`: keys", one line each.
STAGE_ITEM = r"^  - `(\w+)`: (.*)$"


def format_bullets() -> dict[str, tuple[str, str]]:
    """Shape name -> its bullet's text without sub-list items, and its json example lines."""
    found = re.findall(r"^- \*\*(.+?)\*\*(.*?)```json\n(.*?)\n\s*```", section("File formats"),
                       re.M | re.S)
    return {
        name: (" ".join(re.sub(STAGE_ITEM, "", text, flags=re.M).split()),
               "\n".join(line.strip() for line in block.splitlines()))
        for name, text, block in found
    }


def stage_items() -> dict[str, str]:
    """Journal stage -> its item in the File formats sub-list."""
    return dict(re.findall(STAGE_ITEM, section("File formats"), re.M))


def format_examples() -> dict[str, str]:
    return {name: example for name, (_, example) in format_bullets().items()}


TYPE_NAMES = {str: "string", int: "integer", float: "number", bool: "boolean", dict: "object",
              list: "list"}


def described(kind, lower, optional) -> str:
    """A key's rule as the README writes it, such as "integer ≥ 0, optional"."""
    text = f"list of {TYPE_NAMES[kind[0]]}s" if isinstance(kind, list) else TYPE_NAMES[kind]
    text += f" ≥ {lower}" if lower is not None else ""
    return text + (", optional" if optional else "")


def parsed(parse):
    return lambda path: [value for _, value in parse_records(path, parse)]


def sft_samples(path):
    samples = parsed(SftSample.from_record)(path)
    for sample in samples:
        sample.validate()
        assert sample.target == render_target(sample.rationale, sample.answer)
    return samples


def journal_states(path):
    entries = list(read_records(path))
    journal = Journal(path)
    states = [journal.resume(entry["sample_id"], entry["digest"]) for entry in entries]
    assert [(state.stage, state.payload) for state in states] == [
        (entry["stage"], entry["payload"]) for entry in entries
    ]
    return states


# Every reason a .rejected line may give: a sample without clips, or a step's rejection.
REASONS = {"missing_clips"} | {reason for row in REJECTION_REASONS.values() for reason in row.values()}


def rejections(path):
    rows = list(read_records(path))
    assert all(set(row) == {"id", "reason", "detail"} and row["reason"] in REASONS for row in rows)
    return rows


def rl_samples(path):
    samples = parsed(RlSample.from_record)(path)
    assert all(sample.recompute_consistent() for sample in samples)
    return samples


READERS = {
    "shots": parsed(ShotBoundarySet.from_record),
    "clip": lambda path: [clip for clips in load_clips(path).values() for clip in clips],
    "qa": load_qa_tasks,
    "sft sample": sft_samples,
    "rejected": rejections,
    "rl sample": rl_samples,
    "reward group": parsed(_group),
    "logprobs": parsed(_logprob_group),
    "mock table": lambda path: list(MockBackend.from_file(path).table),
    "journal": journal_states,
}


def test_every_shape_has_an_example():
    assert sorted(format_examples()) == sorted(READERS)


PAYLOADS = {shape for shape in SHAPES if shape.endswith(" payload")}


def listed_keys(text: str) -> dict[str, str]:
    return dict(re.findall(r"`(\w+)` \(([^)]*)\)", text))


@pytest.mark.parametrize("shape", sorted(set(SHAPES) - {"config", "backend"} - PAYLOADS))
def test_bullet_lists_the_table_keys(shape):
    text, example = format_bullets()[shape]
    assert listed_keys(text) == {key: described(*rule) for key, rule in SHAPES[shape].items()}
    assert set(json.loads(example)) <= set(SHAPES[shape])


def test_journal_sub_list_lists_each_stage_payload():
    assert {stage: listed_keys(text) for stage, text in stage_items().items()} == {
        shape.removesuffix(" payload"): {key: described(*rule) for key, rule in SHAPES[shape].items()}
        for shape in PAYLOADS
    }


def test_rejected_bullet_lists_its_keys_and_every_reason():
    text, _ = format_bullets()["rejected"]
    assert listed_keys(text) == {"id": "string", "reason": "string", "detail": "string"}
    (reasons,) = re.findall(r"The reasons are (.*?)\.", text)
    assert set(re.findall(r"`(\w+)`", reasons)) == REASONS


@pytest.mark.parametrize("shape", sorted(READERS))
def test_format_example_parses(tmp_path, shape):
    path = tmp_path / "example.records"
    path.write_text(format_examples()[shape] + "\n", encoding="utf-8")
    assert len(READERS[shape](path)) == 1


def test_config_example_loads(tmp_path):
    (block,) = re.findall(r"```json\n(.*?)```", section("Configuration"), re.S)
    path = tmp_path / "config.json"
    path.write_text(block, encoding="utf-8")
    config = load_config(path)
    assert config.backends == {
        "mllm": BackendConfig(kind="http", endpoint="https://...", model="...."),
        "llm": BackendConfig(kind="mock"),
    }
    assert config.mock_table_path == str(tmp_path / "mock_table.records")
    assert (config.m_trials, config.parallelism, config.strict_parsing) == (8, 4, True)


def quickstart_commands() -> list[str]:
    """The Quickstart's shell commands in order, continuation lines joined."""
    blocks = re.findall(r"```sh\n(.*?)```", section("Quickstart (fully offline)"), re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [line for line in lines if line.strip() and not line.startswith("#")]


def test_quickstart_runs_as_written(tmp_path):
    # `toc` runs this checkout's package and `scripts/` its scripts, whatever is installed
    python, scripts = shlex.quote(sys.executable), shlex.quote(str(README.parent / "scripts"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(README.parent / "src"), os.environ.get("PYTHONPATH")]))}
    commands = quickstart_commands()
    assert len(commands) == 10
    for command in commands:
        command = re.sub(r"^toc ", f"{python} -m toc.cli ", command)
        command = re.sub(r"^python3 scripts/", f"{python} {scripts}/", command)
        done = subprocess.run(command, shell=True, cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, (command, done.stderr)
        assert "Traceback" not in done.stderr
    examples = format_examples()
    assert (tmp_path / "groups.records").read_text() == examples["reward group"] + "\n"
    assert (tmp_path / "logprobs.records").read_text() == examples["logprobs"] + "\n"


def test_layout_names_every_module():
    (block,) = re.findall(r"```\n(.*?)```", section("Layout"), re.S)
    (package,) = re.findall(r"^src/toc/\n((?:  .*\n)+)", block, re.M)
    listed = re.findall(r"^  (\w+\.py) ", package, re.M)
    modules = sorted(p.name for p in (README.parent / "src" / "toc").glob("*.py"))
    assert sorted(listed) == [name for name in modules if name != "__init__.py"]

"""The README's examples load: its config through load_config, and each File
formats example line through the reader of the command that takes it."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from toc.cli import _group, _logprob_group
from toc.config import BackendConfig, load_config
from toc.records import RlSample, SftSample, load_qa_tasks, parse_records, render_target
from toc.segmentation import ShotBoundarySet
from toc.sft_pipeline import load_clips

README = Path(__file__).resolve().parent.parent / "README.md"


def section(title: str) -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:end if end != -1 else None]


def format_examples() -> dict[str, str]:
    """Shape name -> the example lines of its bullet's json block."""
    found = re.findall(r"^- \*\*(.+?)\*\*.*?```json\n(.*?)\n\s*```", section("File formats"),
                       re.M | re.S)
    return {name: "\n".join(line.strip() for line in block.splitlines()) for name, block in found}


def parsed(parse):
    return lambda path: [value for _, value in parse_records(path, parse)]


def sft_samples(path):
    samples = parsed(SftSample.from_record)(path)
    for sample in samples:
        sample.validate()
        assert sample.target == render_target(sample.rationale, sample.answer)
    return samples


def rl_samples(path):
    samples = parsed(RlSample.from_record)(path)
    assert all(sample.recompute_consistent() for sample in samples)
    return samples


READERS = {
    "shots": parsed(ShotBoundarySet.from_record),
    "clip": lambda path: [clip for clips in load_clips(path).values() for clip in clips],
    "qa": load_qa_tasks,
    "sft sample": sft_samples,
    "rl sample": rl_samples,
    "reward group": parsed(_group),
    "logprobs": parsed(_logprob_group),
}


def test_every_shape_has_an_example():
    assert sorted(format_examples()) == sorted(READERS)


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

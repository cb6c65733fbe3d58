"""Self-test of the benchmark: python3 -m pytest -q bench/test_bench.py

Runs every workload at a tiny size, checks that each metric prints with a
unit as BENCHMARK.json names it, and that a corrupted output is counted as
failed.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import run  # noqa: E402
import stages  # noqa: E402
from workloads import BENCHMARK, WORKLOADS  # noqa: E402


def tiny(name: str):
    return replace(WORKLOADS[name], sft_samples=12, shot_videos=2, shots_per_video=20, dims=64,
                   rl_records=400, reward_groups=50, grpo_groups=4, reps={})


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_prints_every_metric_with_a_unit(name, trace, tmp_path, capsys):
    result = run.measure(tiny(name), seed=3, seconds=0, trace=trace, work=tmp_path / "run")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = [(m["name"], m["unit"]) for m in BENCHMARK["per_layer" if trace else "end_to_end"]]
    assert [(n, m["unit"]) for n, m in result["metrics"].items()] == expected
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    run.report(name, 3, result)
    printed = capsys.readouterr().out
    for metric, unit in expected + [("failed_ratio", "ratio")]:
        assert any(line.split()[:1] == [metric] and line.split()[2] == unit
                   for line in printed.splitlines()), metric


def test_a_corrupted_alpha_raises_failed_ratio(tmp_path, monkeypatch):
    real = stages.run_demand_pipeline

    def one_alpha_off(*args, **kwargs):
        annotated, skipped = real(*args, **kwargs)
        annotated[1] = replace(annotated[1], alpha=(annotated[1].alpha + 1) % 9)
        return annotated, skipped

    monkeypatch.setattr(stages, "run_demand_pipeline", one_alpha_off)
    result = run.measure(tiny("math_bulk"), seed=3, seconds=0, trace=False, work=tmp_path / "run")
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0
    assert result["stages"]["demand"]["failed"] == 1


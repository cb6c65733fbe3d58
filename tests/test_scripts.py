"""scripts/advantage_sweep.py prints the closed-form advantage rows, and it and
scripts/make_mock_corpus.py refuse arguments outside their range with a usage
error, run as the README shows."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": "src"}
    return subprocess.run(
        [sys.executable, f"scripts/{name}", *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )


def sweep(*args: str) -> subprocess.CompletedProcess:
    return script("advantage_sweep.py", *args)


def test_prints_the_closed_form_rows():
    run = sweep("--max-g", "2", "--gammas", "1.0,0.5")
    assert run.returncode == 0 and run.stderr == ""
    rows = [line.split() for line in run.stdout.splitlines()[1:]]
    assert rows == [
        ["2", "0", "-", "0.000000", "-", "-"],
        ["2", "1", "0.707107", "-0.707107", "0.707107", "0.353553"],
        ["2", "2", "0.000000", "-", "0.000000", "0.000000"],
    ]


@pytest.mark.parametrize(
    "args,message",
    [
        (["--gammas", "1.5"], "--gammas values must be in (0, 1], got '1.5'"),
        (["--gammas", "0.5,nan"], "--gammas values must be in (0, 1], got '0.5,nan'"),
        (["--gammas", "x"], "--gammas must be comma-separated numbers, got 'x'"),
        (["--max-g", "1"], "--max-g must be >= 2, got 1"),
    ],
    ids=["gamma_above_one", "gamma_nan", "gamma_not_a_number", "max_g_below_two"],
)
def test_out_of_range_argument_is_usage_error(args, message):
    run = sweep(*args)
    assert run.returncode == 2 and run.stdout == ""
    assert run.stderr.endswith(f"error: {message}\n") and "Traceback" not in run.stderr


@pytest.mark.parametrize(
    "args,message",
    [
        (["--samples", "0"], "--samples must be >= 1, got 0"),
        (["--samples", "-3"], "--samples must be >= 1, got -3"),
        (["--m", "0"], "--m must be >= 1, got 0"),
        (["--m", "-1"], "--m must be >= 1, got -1"),
    ],
    ids=["no_samples", "negative_samples", "no_trials", "negative_trials"],
)
def test_corpus_count_below_one_is_usage_error(tmp_path, args, message):
    out = tmp_path / "corpus"
    run = script("make_mock_corpus.py", "--out", str(out), *args)
    assert run.returncode == 2 and run.stdout == ""
    assert run.stderr.endswith(f"error: {message}\n") and "Traceback" not in run.stderr
    assert not out.exists()

"""The CI workflow runs the tier-1 command that ROADMAP.md names, within a time limit,
after installing the dependencies that pyproject.toml lists and running the installed
`toc` console script, then the benchmark's own command on every workload; every
BENCH_*.json claims a metric and workload that BENCHMARK.json declares."""

from __future__ import annotations

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_workflow_runs_the_tier1_command():
    (command,) = re.findall(r"^\*\*Tier-1 verify:\*\* `(.+)`$", (ROOT / "ROADMAP.md").read_text(
        encoding="utf-8"), re.M)
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    assert f"run: {command}\n" in workflow


def test_tier1_job_has_a_time_limit():
    # without one, a deadlocked test holds the job for the runner's 6-hour default
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    job = re.search(r"^  tier1:\n((?:    .*\n)+)", workflow, re.M).group(1)
    (minutes,) = re.findall(r"^    timeout-minutes: (\d+)$", job, re.M)
    assert 0 < int(minutes) <= 60


def test_install_step_names_no_package_itself():
    # a package list of its own drifts from pyproject.toml's dependencies and test extra
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    (command,) = re.findall(r"^        run: (python -m pip install .*)$", workflow, re.M)
    args = shlex.split(command)[4:]
    assert [arg for arg in args if not arg.startswith("-")] == [".[test]"]


def test_workflow_runs_the_installed_console_script():
    # every other test runs `toc` as `python -m toc.cli`; only this step runs the entry point
    # that pyproject.toml installs, and a status of 2 shows main's return value is the exit code
    assert '\n[project.scripts]\ntoc = "toc.cli:main"\n' in (ROOT / "pyproject.toml").read_text(
        encoding="utf-8")
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    names = re.findall(r"^      - name: (.*)$", workflow, re.M)
    assert names.index("Installed console script") == names.index("Install dependencies") + 1
    (step,) = re.findall(r"^      - name: Installed console script\n        run: \|\n((?:          .*\n)+)",
                         workflow, re.M)
    assert 'test "$(toc tree --n 4 --select 2 | tail -n 1)" = "compilation 2: 2"' in step
    assert 'status=0; toc tree --n 0 --select 0 || status=$?; test "$status" -eq 2' in step
    # what the step expects, through the wrapper a console script is: sys.exit(main())
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    for n, select, status, last in (("4", "2", 0, "compilation 2: 2"), ("0", "0", 2, "")):
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from toc.cli import main; sys.exit(main())",
             "tree", "--n", n, "--select", select],
            env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == status
        assert (done.stdout.splitlines() or [""])[-1] == last


def test_workflow_runs_the_benchmark_command_on_every_workload():
    # bench/test_bench.py calls run.measure in-process; this runs bench/run.py as BENCHMARK.json
    # says, and fails unless its last line is the result object with no failed operation
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    (step,) = re.findall(r"^      - name: Benchmark entry point\n        run: \|\n((?:          .*\n)+)",
                         workflow, re.M)
    (workloads,) = re.findall(r"^          for workload in (.*); do$", step, re.M)
    assert workloads.split() == [entry["name"] for entry in declared["workloads"]]
    command = shlex.join(declared["command"])
    assert f'out=$({command} --workload "$workload" --seed 1 --seconds 1 --trace 0)' in step
    assert "tail -n 1 | python3 -c" in step and 'result["failed"] == 0' in step


def test_bench_files_claim_a_declared_metric_and_workload():
    # a BENCH_*.json that names a metric or workload the benchmark lacks claims nothing it measured
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {entry["name"] for entry in declared["end_to_end"]}
    workloads = {entry["name"] for entry in declared["workloads"]}
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        claim = json.loads(path.read_text(encoding="utf-8"))["claim"]
        assert claim["metric"] in metrics, path.name
        assert claim["workload"] in workloads, path.name

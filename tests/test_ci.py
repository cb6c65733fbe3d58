"""The CI workflow runs the tier-1 command that ROADMAP.md names."""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_workflow_runs_the_tier1_command():
    (command,) = re.findall(r"^\*\*Tier-1 verify:\*\* `(.+)`$", (ROOT / "ROADMAP.md").read_text(
        encoding="utf-8"), re.M)
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    assert f"run: {command}\n" in workflow

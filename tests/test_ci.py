"""The CI workflow loads and runs ROADMAP's tier-1 command on Python 3.11,
whose ``functools.cached_property`` takes a lock, and on 3.12, whose does
not.  Nothing runs beyond parsing."""

import re
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

ROOT = Path(__file__).resolve().parents[1]


def test_the_workflow_runs_tier1_on_3_11_and_3_12():
    workflow = yaml.safe_load(
        (ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    tier1 = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`",
                      (ROOT / "ROADMAP.md").read_text()).group(1)
    [job] = workflow["jobs"].values()
    assert job["strategy"]["matrix"]["python-version"] == ["3.11", "3.12"]
    runs = [step.get("run") for step in job["steps"]]
    assert 'python -m pip install -e ".[test]"' in runs
    assert runs[-1] == tier1

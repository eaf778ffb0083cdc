"""The CI workflow loads and runs ROADMAP's tier-1 command on Python 3.11,
whose ``functools.cached_property`` takes a lock, and on 3.12, whose does
not, with the ``test`` extra installed at the numpy and scipy that the
goldens were recorded with, then replays the goldens of the gated
benchmark workloads and of ``attack_pairs``, the one workload that runs
the attacked path.  Nothing runs beyond parsing."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_the_workflow_runs_tier1_on_3_11_and_3_12():
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load(
        (ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    tier1 = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`",
                      (ROOT / "ROADMAP.md").read_text()).group(1)
    [job] = workflow["jobs"].values()
    assert job["strategy"]["matrix"]["python-version"] == ["3.11", "3.12"]
    runs = [step.get("run") for step in job["steps"]]
    assert ('python -m pip install -c .github/constraints.txt -e ".[test]"'
            in runs)
    replayed = [w["name"] for w in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["workloads"]] + ["attack_pairs"]
    assert runs[-1 - len(replayed):] == [tier1] + [
        f"python3 perfbench/run.py --workload {name} --seconds 0"
        for name in replayed]


def test_ci_installs_the_versions_the_goldens_were_recorded_with():
    pins = (ROOT / ".github" / "constraints.txt").read_text().split()
    assert [p for p in pins if "==" in p] == ["numpy==2.4.6", "scipy==1.17.1"]


def test_the_test_extra_installs_what_the_tests_import():
    # without pyyaml in the extra, CI would skip the workflow check above
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower()
             for spec in project["optional-dependencies"]["test"]}
    assert names == {"pytest", "hypothesis", "pyyaml"}

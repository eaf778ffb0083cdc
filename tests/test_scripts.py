"""Smoke tests: each experiment script runs at a small trial count."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import awgnauth

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args):
    env = dict(os.environ)
    src = str(Path(awgnauth.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          env=env, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("script, outputs", [
    ("adversary_noise_sweep.py",
     ["alpha_vs_rho_adv.csv", "tradeoff_vs_delta.csv"]),
    ("targeted_attack_experiment.py", ["targeted_attack.json"]),
])
def test_script_runs_and_writes_its_outputs(tmp_path, script, outputs):
    proc = run_script(script, "--trials", "100", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    for name in outputs:
        assert (tmp_path / name).stat().st_size > 0

"""The README's experiments run through the CLI at a small trial count,
and at their documented settings give the CSVs recorded in
``readme_sweeps.json``; the sweep timer runs them in fresh processes, the
layer timer times every layer on tiny codes, and the benchmark record
script summarises synthetic results.  To re-record
the CSVs on purpose (and say why in ``CHANGES.md``)::

    PYTHONPATH=src python tests/test_scripts.py --record
"""

import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import awgnauth
from awgnauth import cli

ROOT = Path(__file__).resolve().parents[1]
SWEEP_CSVS = Path(__file__).with_name("readme_sweeps.json")


def readme_experiments():
    """The argv of each command in the README's Experiments block."""
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"\n## Experiments\n.*?```sh\n(.*?)```", readme,
                      re.S).group(1).replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines()]


# Each case names the deleted script whose experiment the README commands
# writing `outputs` now run.
EXPERIMENTS = [
    ("adversary_noise_sweep.py",
     ["alpha_vs_rho_adv.csv", "tradeoff_vs_delta.csv"]),
    ("targeted_attack_experiment.py", ["weight_grid.csv"]),
]


@pytest.mark.parametrize("script, outputs", EXPERIMENTS)
def test_script_runs_and_writes_its_outputs(tmp_path, monkeypatch, capsys,
                                            script, outputs):
    assert not (ROOT / "scripts" / script).exists()
    argvs = readme_experiments()
    assert [argv[2] for argv in argvs] == [
        "channel.rho_adv", "auth.delta", "attack.weight_scale"]
    outs = {argv[argv.index("--out") + 1]: argv for argv in argvs}
    assert sorted(outs) == sorted(o for _, names in EXPERIMENTS for o in names)
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    for out in outputs:
        assert cli.main([*outs[out], "run.trials=100"]) == 0, \
            capsys.readouterr().err
        assert (tmp_path / out).stat().st_size > 0


def sweep_csvs(folder):
    """{axis: CSV text} of the README's sweeps, written in ``folder``."""
    csvs = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(cli.OUTPUT_DIR_ENV, str(folder))
        for argv in readme_experiments():
            assert cli.main(argv) in (0, 1)
            out = Path(folder) / argv[argv.index("--out") + 1]
            csvs[argv[argv.index("--axis") + 1]] = out.read_text()
    return csvs


def test_readme_sweeps_give_the_recorded_csvs(tmp_path):
    assert sweep_csvs(tmp_path) == json.loads(SWEEP_CSVS.read_text())


def test_sweep_timer_runs_every_readme_sweep():
    env = dict(os.environ)
    env.pop(cli.OUTPUT_DIR_ENV, None)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "time_sweeps.py"),
         "--repeat", "1", "run.trials=100"],
        env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    timed = json.loads(proc.stdout)
    assert (timed["repeat"], timed["settings"]) == (1, ["run.trials=100"])
    assert sorted(timed["sweeps"]) == sorted(
        argv[argv.index("--axis") + 1] for argv in readme_experiments())
    for sweep in timed["sweeps"].values():
        assert len(sweep["runs"]) == 1 and sweep["median_s"] > 0
        assert len(sweep["csv_sha256"]) == 64


def test_layer_timer_times_every_layer_of_both_shapes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "time_layers.py"), "--quick",
         "--repeat", "1"], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    timed = json.loads(proc.stdout)
    assert (timed["repeat"], timed["quick"], timed["threads"]) == (1, True, 1)
    assert sorted(timed["shapes"]) == ["genuine_cli", "large_codebook"]
    for shape in timed["shapes"].values():
        assert sorted(shape["ns_per_value"]) == ["ndtri", "uniforms"]
        assert sorted(shape["us_per_row"]) == [
            "auth_encode_batch", "decode_batch", "detect_batch",
            "mmse_targeted_attack_batch"]
        assert sorted(shape["ms"]) == [
            "construct_overlay", "inject_noise", "make_random_gaussian_code",
            "verify_overlay"]
        assert all(v > 0 for group in ("us_per_row", "ms")
                   for v in shape[group].values())
        # the transform is a difference of two timings: of any sign
        assert shape["ns_per_value"]["uniforms"] > 0
        assert math.isfinite(shape["ns_per_value"]["ndtri"])
        assert shape["block_rows"] % shape["chunk_rows"] == 0


def test_bench_record_summarises_a_parent_and_a_change(tmp_path):
    machine = {"cpu_model": "test", "nproc": 2}

    def result(name, rates, rss, trace=False, decode_s=None,
               workload="genuine_cli"):
        path = tmp_path / name
        samples = {"trials_per_s": rates, "peak_rss_mb": rss,
                   "not_declared": [1.0]}
        if decode_s is not None:
            samples["basecode.decode.s"] = decode_s
        path.write_text(json.dumps({
            "workload": workload, "seed": 1, "trace": trace,
            "threads": {"pool": 2, "blas": 1}, "failed": 0,
            "machine": machine, "samples": samples}))
        return str(path)

    parent = result("parent.json", [100.0, 120.0, 110.0], [400.0, 410.0])
    change = result("change.json", [130.0, 150.0, 140.0], [70.0, 80.0])
    # a second workload: a tie in rate, and 11% more memory against a
    # bound of 10%
    tied = [result(f"{side}_large.json", [100.0], [rss],
                   workload="large_codebook")
            for side, rss in (("parent", 100.0), ("change", 111.0))]
    traced = [result(f"traced_{side}.json", [90.0], [400.0], True, [s])
              for side, s in (("parent", 0.4), ("change", 0.3))]
    out = tmp_path / "BENCH_0.json"
    env = dict(os.environ)
    src = str(Path(awgnauth.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_record.py"), "--label",
         "0", "--parent", parent, tied[0], "--change", change, tied[1],
         "--out", str(out),
         "--traced-parent", traced[0], "--traced-change", traced[1]],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rec = json.loads(out.read_text())
    assert rec["record"] == "BENCH_0" and rec["machine"] == machine
    entry = rec["workloads"]["genuine_cli"]
    assert entry["pairs"] == 1 and entry["seeds"] == [[1, 1]]
    assert set(entry["metrics"]) == {"trials_per_s", "peak_rss_mb"}
    rate = entry["metrics"]["trials_per_s"]
    assert rate["parent"]["median"] == 110.0
    assert rate["change"] == {"median": 140.0, "q1": 140.0, "q3": 140.0,
                              "runs": [140.0]}
    assert (rate["change_better_pairs"], rate["change_worse_pairs"],
            rate["within_bound"]) == (1, 0, True)
    rss = entry["metrics"]["peak_rss_mb"]
    assert (rss["better"], rss["change"]["median"]) == ("lower", 75.0)
    assert (rss["change_better_pairs"], rss["change_worse_pairs"],
            rss["within_bound"]) == (1, 0, True)
    large = rec["workloads"]["large_codebook"]["metrics"]
    assert [(m["change_better_pairs"], m["change_worse_pairs"],
             m["within_bound"])
            for m in (large["trials_per_s"], large["peak_rss_mb"])] \
        == [(0, 0, True), (0, 1, False)]
    assert "worse in 1 of 1 pairs; OUTSIDE BOUND" in proc.stdout
    # traced runs apart, their per-layer metrics beside the end-to-end ones
    traced = rec["traced"]["genuine_cli"]
    assert traced["trace"] is True and traced["pairs"] == 1
    decode = traced["metrics"]["basecode.decode.s"]
    assert (decode["parent"]["median"], decode["change"]["median"]) \
        == (0.4, 0.3)
    assert decode["change_better_pairs"] == 1
    assert "within_bound" not in decode   # a per-layer metric has no bound


def test_bench_record_keeps_the_tier1_time_and_slowest_tests(tmp_path):
    result = tmp_path / "result.json"
    result.write_text(json.dumps({
        "workload": "genuine_cli", "seed": 1, "machine": {"nproc": 2},
        "samples": {"wall_s": [2.0]}}))
    times = [0.5, 3.0, 0.25, 7.5, 1.0, 2.0, 0.125]
    cases = "".join(f'<testcase classname="tests.test_x" name="test_{i}" '
                    f'time="{t}" />' for i, t in enumerate(times))
    junit = tmp_path / "junit.xml"
    junit.write_text(
        '<?xml version="1.0" encoding="utf-8"?><testsuites name="pytest '
        'tests"><testsuite name="pytest" errors="0" failures="1" '
        f'skipped="2" tests="7" time="42.5">{cases}</testsuite>'
        '</testsuites>')
    out = tmp_path / "BENCH_0.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_record.py"), "--label",
         "0", "--parent", str(result), "--change", str(result), "--out",
         str(out), "--tier1", str(junit)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["tier1"] == {
        "wall_s": 42.5, "tests": 7, "failures": 1, "errors": 0, "skipped": 2,
        "slowest": [{"test": f"tests.test_x::test_{i}", "s": times[i]}
                    for i in (3, 1, 5, 4, 0)]}



def test_bench_record_keeps_both_sides_sweep_times(tmp_path):
    result = tmp_path / "result.json"
    result.write_text(json.dumps({
        "workload": "genuine_cli", "seed": 1, "machine": {"nproc": 2},
        "samples": {"wall_s": [2.0]}}))
    sides = {}
    for side, s in (("parent", 3.5), ("change", 1.25)):
        sides[side] = {"repeat": 1, "settings": [], "sweeps": {
            "channel.rho_adv": {"runs": [s], "median_s": s}}}
        (tmp_path / f"{side}.json").write_text(json.dumps(sides[side]))
    out = tmp_path / "BENCH_0.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_record.py"), "--label",
         "0", "--parent", str(result), "--change", str(result), "--out",
         str(out), "--sweeps", str(tmp_path / "parent.json"),
         str(tmp_path / "change.json")],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["sweeps"] == sides
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_record.py"), "--label",
         "0", "--parent", str(result), "--change", str(result), "--out",
         str(out), "--sweeps", str(result), str(result)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode != 0
    assert "not a time_sweeps.py output" in proc.stderr


def _rate_record(tmp_path, parent_rates, change_rates):
    """The trials_per_s entry and the printed summary of a record of one
    genuine_cli pair per (parent, change) rate."""
    paths = {}
    for side, rates in (("parent", parent_rates), ("change", change_rates)):
        paths[side] = []
        for i, rate in enumerate(rates):
            path = tmp_path / f"{side}_{i}.json"
            path.write_text(json.dumps({
                "workload": "genuine_cli", "seed": i, "machine": {"nproc": 2},
                "samples": {"trials_per_s": [rate]}}))
            paths[side].append(str(path))
    out = tmp_path / "BENCH_0.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_record.py"), "--label",
         "0", "--parent", *paths["parent"], "--change", *paths["change"],
         "--out", str(out)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(out.read_text())["workloads"]["genuine_cli"]["metrics"]
    return metrics["trials_per_s"], proc.stdout


PARENT_RATES = [100.0 + i for i in range(10)]   # quartiles 102.25, 106.75


@pytest.mark.parametrize("change_rates, met", [
    # better in 9 of 10 pairs, the median 9 above: more than the parent's
    # interquartile range of 4.5
    ([r + 10.0 for r in PARENT_RATES[:9]] + [108.0], True),
    # better in 8 of 10 pairs
    ([r + 10.0 for r in PARENT_RATES[:8]] + [100.0, 100.0], False),
    # better in 10 of 10 pairs, by less than the parent's quartile spread
    ([r + 1.0 for r in PARENT_RATES], False),
    # better in 8 pairs and tied in 2: a tie counts for neither side
    ([r + 10.0 for r in PARENT_RATES[:8]] + [108.0, 109.0], False),
])
def test_bench_record_states_whether_a_gain_is_met(tmp_path, change_rates,
                                                   met):
    rate, stdout = _rate_record(tmp_path, PARENT_RATES, change_rates)
    assert rate["gain_met"] is met
    assert ("; gain met" in stdout) is met


WIDE = [50.0, 150.0, 100.0, 60.0, 140.0]   # quartile spread 80, median 100


@pytest.mark.parametrize("parent_rates, change_rates, unresolved", [
    (WIDE, [100.0] * 5, True),
    ([100.0] * 5, WIDE, True),
    # every change run beats every parent run
    (WIDE, [200.0, 210.0, 205.0, 201.0, 202.0], False),
    # spreads of 20 and 10, within 0.25 of the medians
    ([90.0, 110.0, 100.0, 100.0, 100.0], [95.0, 105.0, 100.0, 100.0, 99.0],
     False),
])
def test_bench_record_states_whether_the_runs_are_unresolved(
        tmp_path, parent_rates, change_rates, unresolved):
    rate, stdout = _rate_record(tmp_path, parent_rates, change_rates)
    assert rate["unresolved"] is unresolved
    assert ("; UNRESOLVED" in stdout) is unresolved


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_scripts.py --record")
    with tempfile.TemporaryDirectory() as tmp:
        SWEEP_CSVS.write_text(json.dumps(sweep_csvs(tmp), indent=1,
                                         sort_keys=True) + "\n")

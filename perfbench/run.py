"""awgnauth benchmark: one workload per call, each execution a fresh process.

    python3 perfbench/run.py --workload genuine_cli --seed 3 --seconds 30 --trace 0

A run first executes the workload at the default seed and checks its
outputs against ``goldens.json``; that execution also warms the file
cache and is not measured.  It then executes the workload at ``--seed``
again and again, each time in a fresh process, until ``--seconds`` have
passed and at least ``MIN_EXECUTIONS`` are done, and reports medians.
Every execution at ``--seed`` must give the same outputs and satisfy the
workload's invariants.  ``--trace 1`` alternates untraced and traced
executions, checks that both give the same outputs, and reports the
per-layer metrics and the tracing overhead.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A full record (machine, thread budget, config, every
execution) is written under ``perfbench/out/``.  The exit code is 0 only
when every execution ran and every check passed.

Only the standard library is used here; numpy and the package are
imported by the child processes alone.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
GOLDENS = HERE / "goldens.json"

# BENCHMARK.json gates genuine_cli and large_codebook.  attack_pairs runs
# the same way but is left out of the gated set: its time is in
# cache-resident arithmetic, whose speed drifts with the host's load by
# up to 1.5x over minutes (README.md, "Run-to-run spread").
WORKLOADS = ("attack_pairs", "genuine_cli", "large_codebook")
# estimate() pool threads per workload (as workload.py configures them).
# Each pool thread runs its BLAS calls on its own thread, so BLAS gets
# nproc // pool threads and pool x BLAS stays within nproc; except that
# attack_pairs multiplies by six-column matrices, where a second BLAS
# thread only spins (it ran a third slower with two on 2 cores).
POOL_THREADS = {"attack_pairs": 1, "genuine_cli": 2, "large_codebook": 1}
ONE_BLAS_THREAD = ("attack_pairs",)
DEFAULT_SEED = 0
MIN_EXECUTIONS = 3
RUN_DEADLINE_S = 170.0

# name -> (unit, better); the order is the print order.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "trials_per_s": ("1/s", "higher"),
    "wall_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
PER_LAYER = {
    "streams.uniforms.s": ("s", "lower"),
    "streams.normals.self_s": ("s", "lower"),
    "streams.values": ("count", "lower"),
    "streams.unique_frac": ("ratio", "higher"),
    "adversary.attack.s": ("s", "lower"),
    "adversary.attack.rows": ("count", "lower"),
    "authcode.encode.s": ("s", "lower"),
    "authcode.encode.rows": ("count", "lower"),
    "authcode.detect.s": ("s", "lower"),
    "authcode.detect.rows": ("count", "lower"),
    "authcode.detect.groups": ("count", "lower"),
    "authcode.inject.s": ("s", "lower"),
    "authcode.inject.attempts": ("count", "lower"),
    "authcode.decimate.s": ("s", "lower"),
    "basecode.decode.s": ("s", "lower"),
    "basecode.decode.rows": ("count", "lower"),
    "basecode.decode.bytes": ("B", "lower"),
    "basecode.build.s": ("s", "lower"),
    "overlay.construct.self_s": ("s", "lower"),
    "overlay.verify.s": ("s", "lower"),
    "overlay.verify.calls": ("count", "lower"),
    "overlay.attempts": ("count", "lower"),
    "overlay.level_matrix.s": ("s", "lower"),
    "simulate.estimate.calls": ("count", "lower"),
    "simulate.estimate.self_s": ("s", "lower"),
    "simulate.blocks": ("count", "lower"),
    "simulate.block_rows.p50": ("count", "lower"),
    "simulate.parallel_frac": ("ratio", "higher"),
    "cli.make_report.self_s": ("s", "lower"),
    "cli.build_pipeline.calls": ("count", "lower"),
    "cli.git_spawns": ("count", "lower"),
    "bounds.report.s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}
# Times of layers that some workloads never enter: they read exactly 0
# there, so they are printed but kept out of the JSON metrics, whose
# times must be real measurements on every workload.
PRINT_ONLY = ("authcode.decimate.s", "cli.make_report.self_s")
NOTES = {"basecode.decode.bytes": "computed as rows x M x 8"}


class BenchError(Exception):
    pass


# -- machine record -----------------------------------------------------------
def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def machine_record() -> dict[str, Any]:
    model = None
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(index / "size")
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "caches": caches, "python": sys.version.split()[0]}


def thread_budget(workload: str, nproc: int) -> dict[str, int]:
    pool = POOL_THREADS[workload]
    blas = 1 if workload in ONE_BLAS_THREAD else max(1, nproc // pool)
    return {"pool": pool, "blas": blas}


# -- executions -----------------------------------------------------------------
def execute(workload: str, seed: int, *, trace: bool, budget: dict[str, int],
            deadline: float, extra: tuple[str, ...] = ()) -> dict[str, Any]:
    """One workload execution in a fresh child process.  Returns its JSON
    result plus ``wall_s``, or ``{"error": ...}``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(budget["blas"])
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--seed", str(seed), *extra]
    if trace:
        cmd += ["--trace", "--spans", str(OUT / f"spans-{workload}-seed{seed}.json")]
    timeout = max(1.0, deadline - time.monotonic())
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout, cwd=ROOT, env=env)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"error": f"exit {proc.returncode}: " + " | ".join(tail)}
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": "no JSON result line"}
    result["wall_s"] = wall
    return result


# -- checks -----------------------------------------------------------------------
def diff(expected: Any, actual: Any, where: str = "") -> list[str]:
    """Paths at which two JSON values differ (at most a few)."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        out = []
        for key in sorted(set(expected) | set(actual)):
            if key not in expected or key not in actual:
                out.append(f"{where}/{key}: present on one side only")
            else:
                out += diff(expected[key], actual[key], f"{where}/{key}")
        return out[:5]
    if isinstance(expected, list) and isinstance(actual, list) \
            and len(expected) == len(actual):
        out = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            out += diff(e, a, f"{where}[{i}]")
        return out[:5]
    if expected != actual or type(expected) is not type(actual):
        return [f"{where or '/'}: expected {expected!r}, got {actual!r}"]
    return []


def invariants(workload: str, outputs: dict[str, Any]) -> list[str]:
    """Identities the outputs satisfy on any seed."""
    bad = []
    if workload == "attack_pairs":
        star, any_msg = outputs["alpha_star"], outputs["alpha"]
        if [p[:2] for p in star["per_pair"]] != [p[:2] for p in any_msg["per_pair"]]:
            bad.append("alpha_star and alpha ran different pairs")
        for metric, out in outputs.items():
            best = max(out["per_pair"], key=lambda p: p[2])
            if out["successes"] != best[2] or out["argmax_pair"] != best[:2]:
                bad.append(f"{metric}: successes/argmax_pair disagree with per_pair")
        # landing on the chosen target is one way of landing on a wrong one
        for s, a in zip(star["per_pair"], any_msg["per_pair"]):
            if s[2] > a[2]:
                bad.append(f"pair {s[:2]}: alpha_star {s[2]} > alpha {a[2]}")
    elif workload == "genuine_cli":
        if outputs["exit_code"] not in (0, 1):
            bad.append(f"cli exit code {outputs['exit_code']}")
        rows = {r["metric"]: r for r in outputs["report"]["estimates"]}
        eps, fa = rows["epsilon"], rows["false_alarm"]
        # every epsilon error is a wrong decode or a rejected correct one
        wrong = eps["trials"] - fa["trials"]
        if eps["successes"] != wrong + fa["successes"]:
            bad.append("epsilon successes != wrong decodes + false alarms")
    else:
        out = outputs["epsilon"]
        if not 0 < out["successes"] < out["trials"]:
            bad.append(f"epsilon successes {out['successes']} out of range")
    return bad


# -- aggregation ----------------------------------------------------------------
def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def end_to_end(runs: list[dict[str, Any]]) -> dict[str, list[float]]:
    return {
        "setup_s": [r["setup_s"] for r in runs],
        "trials_per_s": [r["transmissions"] / r["after_setup_s"] for r in runs],
        "wall_s": [r["wall_s"] for r in runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
    }


def per_layer(traced: list[dict[str, Any]],
              untraced: list[dict[str, Any]]) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {}
    for r in traced:
        for name, value in r["layers"].items():
            samples.setdefault(name, []).append(value)
    walls = statistics.median(r["wall_s"] for r in untraced)
    samples["trace.overhead_frac"] = [
        statistics.median(r["wall_s"] for r in traced) / walls - 1.0]
    return samples


# -- the run --------------------------------------------------------------------
def run(workload: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    deadline = time.monotonic() + RUN_DEADLINE_S
    if not (ROOT / "src" / "awgnauth" / "__init__.py").is_file():
        raise BenchError(f"no package source at {ROOT / 'src' / 'awgnauth'}")
    try:
        goldens = json.loads(GOLDENS.read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise BenchError(f"cannot read {GOLDENS}: {e}") from e
    OUT.mkdir(exist_ok=True)
    machine = machine_record()
    budget = thread_budget(workload, machine["nproc"])
    problems: list[str] = []
    failed = 0

    if workload not in goldens:
        raise BenchError(f"{GOLDENS} has no entry for {workload}")
    golden_run = execute(workload, DEFAULT_SEED, trace=False, budget=budget,
                         deadline=deadline, extra=("--versions",))
    if "error" in golden_run:
        mismatch = [f"execution failed: {golden_run.pop('error')}"]
    else:
        mismatch = diff(goldens[workload], golden_run["outputs"])
    if mismatch:
        failed += 1
        problems += [f"golden check at seed {DEFAULT_SEED}: {m}" for m in mismatch]

    untraced: list[dict[str, Any]] = []
    traced: list[dict[str, Any]] = []
    errors: list[str] = []
    started = time.perf_counter()
    want = 1 if trace else MIN_EXECUTIONS
    while len(untraced) < want or time.perf_counter() - started < seconds:
        if time.monotonic() > deadline - 30:
            break
        for is_traced, bucket in ((False, untraced), (True, traced))[:1 + trace]:
            r = execute(workload, seed, trace=is_traced, budget=budget,
                        deadline=deadline)
            (errors if "error" in r else bucket).append(r.get("error", r))
        if errors:
            break
    failed += len(errors)
    problems += [f"execution failed: {e}" for e in errors]

    executions = untraced + traced
    if executions:
        reference = executions[0]["outputs"]
        if seed == DEFAULT_SEED:
            reference = goldens[workload]
        for r in executions:
            bad = diff(reference, r["outputs"])
            bad += invariants(workload, r["outputs"])
            bad += [f"traced execution saw no call at {p}" for p in r.get("missing", [])]
            if bad:
                failed += 1
                problems += bad
    if not untraced or (trace and not traced):
        problems.append("no complete execution within the time limit")
        failed += 1

    attempted = 1 + len(executions) + len(errors)
    samples = (per_layer(traced, untraced) if trace and traced and untraced
               else end_to_end(untraced) if untraced else {})
    record = {
        "workload": workload, "seed": seed, "trace": trace,
        "machine": dict(machine, **golden_run.get("versions", {})),
        "threads": budget,
        "config": (executions or [golden_run])[0].get("config"),
        "attempted": attempted, "failed": failed, "problems": problems,
        "samples": samples,
        "executions": [{k: v for k, v in r.items() if k != "outputs"}
                       for r in [golden_run] + executions],
    }
    (OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    return record


def report(record: dict[str, Any]) -> dict[str, Any]:
    """Print the human-readable lines; return the final JSON object."""
    trace = record["trace"]
    table = PER_LAYER if trace else END_TO_END
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {int(trace)}")
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    print("threads " + json.dumps(record["threads"], sort_keys=True))
    print("config " + json.dumps(record["config"], sort_keys=True))
    metrics = {}
    for name, (unit, _) in table.items():
        values = record["samples"].get(name)
        if not values:
            continue
        q1, med, q3 = quartiles(values)
        note = f"  ({NOTES[name]})" if name in NOTES else ""
        print(f"  {name:28s} {med:.6g} {unit}   "
              f"[p25 {q1:.6g}, p75 {q3:.6g}, n={len(values)}]{note}")
        if name not in PRINT_ONLY:
            metrics[name] = {"value": med, "unit": unit}
    attempted, failed = record["attempted"], record["failed"]
    print(f"  {'failed_frac':28s} {failed / attempted:.6g}   "
          f"({failed} of {attempted} executions)")
    for problem in record["problems"]:
        print(f"  problem: {problem}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def record_goldens() -> int:
    """Write goldens.json from one default-seed execution per workload.
    Only for a change to a workload's definition, on a commit whose
    outputs are trusted."""
    nproc = len(os.sched_getaffinity(0))
    goldens = {}
    for w in WORKLOADS:
        r = execute(w, DEFAULT_SEED, trace=False, budget=thread_budget(w, nproc),
                    deadline=time.monotonic() + 600)
        if "error" in r:
            print(f"{w}: {r['error']}", file=sys.stderr)
            return 1
        goldens[w] = r["outputs"]
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-goldens", action="store_true",
                    help="rewrite goldens.json at the default seed and exit")
    args = ap.parse_args(argv)
    if args.record_goldens:
        return record_goldens()
    if args.workload is None:
        ap.error("--workload is required")
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    result = report(record)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

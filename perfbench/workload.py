"""One execution of one benchmark workload, in a fresh process.

Usage (``run.py`` starts it with ``src`` on ``PYTHONPATH`` and the thread
variables set)::

    python3 perfbench/workload.py --workload attack_pairs --seed 0 [--trace]

Prints one JSON line: the outputs that are checked against goldens, the
set-up time, the time after set-up, the number of simulated
transmissions, the peak RSS of this process and, with ``--trace``, the
per-layer metrics and any expected call site that recorded no call.

The package is driven only through its public entry points, and always
through a module attribute looked up at call time, so the wrappers that
the tracer installs see every call.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from typing import Any

import numpy as np

from awgnauth import authcode, basecode, bounds, cli, overlay, simulate

from spans import Tracer, layer_metrics

# Library workloads: --seed s gives code seed 7 + s and Monte Carlo seed
# 1 + s, so the default seed 0 is the README quick start exactly.
LIBRARY = {
    # README quick start.  Every (pair, metric) call redraws the same
    # G_delta, G_adv and G_dec streams, so streams, adversary and encode
    # dominate; six codewords keep overlay and decode negligible.
    "attack_pairs": dict(
        n=600, messages=6, omega=1.0, levels=[0.0, 0.5], gamma=0.75,
        counts=[3, 2], rho_delta=1.0, delta=0.1, rho_dec=0.1, rho_adv=0.01,
        metrics=["alpha_star", "alpha"], trials=1000, max_pairs=20,
        threads=1),
    # M = 4096: set-up is the O(M^2) exhaustive overlay verify, the
    # per-message assembly loops and AuthCode.__post_init__; the estimate
    # is the B x M decode score matrix.
    "large_codebook": dict(
        n=600, messages=4096, omega=1.0, levels=[0.0, 0.5], gamma=0.75,
        counts=[64, 64], rho_delta=1.0, delta=0.1, rho_dec=0.1, rho_adv=0.01,
        metrics=["epsilon"], trials=10000, max_pairs=20, threads=1),
}

# The CLI workload: the user's whole path through `awgnauth simulate`,
# with no attack and enough trials for two auto-sized batches at n = 256.
# --seed s sets every seed key to s, so seed 0 is the CLI's defaults.
CLI_ARGS = [
    "simulate", "base.kind=gaussian", "base.n=256", "base.messages=64",
    "overlay.counts=[8,8]", "mod2.enabled=true", "mod2.target_override=32",
    "channel.rho_dec=0.1", 'run.metrics=["epsilon","false_alarm"]',
    "run.threads=2", "run.trials=200000",
]
CLI_SEED_KEYS = ["base.seed", "overlay.seed", "auth.seed", "mod2.seed",
                 "run.seed"]

WORKLOADS = ("attack_pairs", "genuine_cli", "large_codebook")


def cli_argv(seed: int) -> list[str]:
    return CLI_ARGS + [f"{key}={seed}" for key in CLI_SEED_KEYS]


def _rows(a, _r) -> dict[str, int]:
    return {"rows": int(len(a.arguments["ms"]))}


def _attack_rows(a, _r) -> dict[str, int]:
    return {"rows": int(a.arguments["vs"].shape[0])}


def _decode_counts(a, _r) -> dict[str, int]:
    rows = int(np.shape(a.arguments["ys"])[0])
    # the score matrix decode_batch allocates: rows x M float64 (computed)
    return {"rows": rows,
            "score_bytes": rows * a.arguments["self"].message_count * 8}


def _detect_counts(a, _r) -> dict[str, int]:
    decoded = a.arguments["base_decoded"]
    groups = len(np.unique(decoded)) if a.arguments.get("detector", True) else 0
    return {"rows": int(len(decoded)), "groups": int(groups)}


def _draw(a, _r) -> dict[str, int]:
    return {key: int(a.arguments[arg]) for key, arg in (
        ("seed", "master_seed"), ("role", "role"), ("start", "start_trial"),
        ("trials", "trials"), ("width", "width"))}


def _attempts(_a, result) -> dict[str, int]:
    return {"attempts": int(result.attempts)}


# (call site as the calling module binds it, span name, counts)
TARGETS = [
    ("awgnauth.streams.uniforms", "streams.uniforms", _draw),
    ("awgnauth.simulate.normals", "streams.normals", None),
    ("awgnauth.simulate.mmse_targeted_attack_batch", "adversary.attack",
     _attack_rows),
    ("awgnauth.simulate.no_attack", "adversary.attack", None),
    ("awgnauth.simulate.auth_encode_batch", "authcode.encode", _rows),
    ("awgnauth.simulate.detect_batch", "authcode.detect", _detect_counts),
    ("awgnauth.authcode.inject_noise", "authcode.inject", _attempts),
    ("awgnauth.cli.inject_noise", "authcode.inject", _attempts),
    ("awgnauth.cli.decimate", "authcode.decimate", None),
    ("awgnauth.basecode.BaseCode.decode_batch", "basecode.decode",
     _decode_counts),
    ("awgnauth.basecode.make_random_gaussian_code", "basecode.build", None),
    ("awgnauth.overlay.construct_overlay", "overlay.construct", _attempts),
    ("awgnauth.cli.construct_overlay", "overlay.construct", _attempts),
    ("awgnauth.overlay.verify_overlay", "overlay.verify", None),
    ("awgnauth.overlay.OverlayCode.level_matrix", "overlay.level_matrix", None),
    ("awgnauth.simulate.estimate", "simulate.estimate", None),
    ("awgnauth.cli.estimate", "simulate.estimate", None),
    ("awgnauth.cli.make_report", "cli.make_report", None),
    ("awgnauth.cli.build_pipeline", "cli.build_pipeline", None),
    ("awgnauth.cli.subprocess.run", "cli.git", None),
    ("awgnauth.bounds.bounds_report", "bounds.report", None),
]

_SIMULATION = [
    "awgnauth.streams.uniforms", "awgnauth.simulate.normals",
    "awgnauth.simulate.auth_encode_batch", "awgnauth.simulate.detect_batch",
    "awgnauth.basecode.BaseCode.decode_batch",
    "awgnauth.basecode.make_random_gaussian_code",
    "awgnauth.overlay.verify_overlay",
    "awgnauth.overlay.OverlayCode.level_matrix",
    "awgnauth.bounds.bounds_report",
]
_LIBRARY_SETUP = ["awgnauth.overlay.construct_overlay",
                  "awgnauth.authcode.inject_noise", "awgnauth.simulate.estimate"]
# Call sites that must record calls on each workload; one that records
# none is reported as missing instead of reading 0.
EXPECTED = {
    "attack_pairs": _SIMULATION + _LIBRARY_SETUP + [
        "awgnauth.simulate.mmse_targeted_attack_batch"],
    "large_codebook": _SIMULATION + _LIBRARY_SETUP + [
        "awgnauth.simulate.no_attack"],
    "genuine_cli": _SIMULATION + [
        "awgnauth.simulate.no_attack", "awgnauth.cli.inject_noise",
        "awgnauth.cli.decimate", "awgnauth.cli.construct_overlay",
        "awgnauth.cli.estimate", "awgnauth.cli.make_report",
        "awgnauth.cli.build_pipeline", "awgnauth.cli.subprocess.run"],
}


def run_library(name: str, seed: int) -> dict[str, Any]:
    cfg = LIBRARY[name]
    code_seed, run_seed = 7 + seed, 1 + seed
    t0 = time.perf_counter()
    base = basecode.make_random_gaussian_code(cfg["n"], cfg["messages"],
                                              cfg["omega"], code_seed)
    ov = overlay.construct_overlay(cfg["n"], overlay.LevelSet(tuple(cfg["levels"])),
                                   cfg["gamma"], counts_per_level=cfg["counts"],
                                   seed=code_seed)
    code = authcode.inject_noise(base, ov, cfg["rho_delta"], cfg["delta"],
                                 code_seed)
    setup_s = time.perf_counter() - t0
    channel = simulate.ChannelParams(rho_dec=cfg["rho_dec"],
                                     rho_adv=cfg["rho_adv"])
    # pair each estimate with its closed-form bound, as the CLI does
    bounds.bounds_report(cfg["n"], ov.level_set, cfg["gamma"], cfg["delta"],
                         cfg["rho_delta"], cfg["rho_dec"], base.power,
                         base.rate, float("nan"), rho_adv=cfg["rho_adv"],
                         omega_wrapped=code.power)
    outputs: dict[str, Any] = {}
    transmissions = 0
    estimate_s = 0.0
    for metric in cfg["metrics"]:
        t0 = time.perf_counter()
        report = simulate.estimate(code, channel, metric, cfg["trials"],
                                   run_seed, max_pairs=cfg["max_pairs"],
                                   threads=cfg["threads"])
        estimate_s += time.perf_counter() - t0
        out: dict[str, Any] = {"successes": report.successes,
                               "trials": report.trials}
        if "per_pair" in report.detail:
            pairs = report.detail["per_pair"]
            out["argmax_pair"] = list(report.params["argmax_pair"])
            out["per_pair"] = [[p["transmit"], p["target"], p["successes"]]
                               for p in pairs]
            transmissions += report.trials * len(pairs)
        else:
            transmissions += report.trials
        outputs[metric] = out
    config = dict(cfg, code_seed=code_seed, run_seed=run_seed)
    return {"outputs": outputs, "setup_s": setup_s, "after_setup_s": estimate_s,
            "transmissions": transmissions, "config": config}


def run_cli(seed: int, tracer: Tracer) -> dict[str, Any]:
    argv = cli_argv(seed)
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        exit_code = cli.main(argv)
    t1 = time.perf_counter()
    report = json.loads(captured.getvalue())
    report.pop("version", None)   # embeds `git describe`, which changes per commit
    setup = [s for s in tracer.spans if s.name == "cli.build_pipeline"]
    if len(setup) != 1:
        raise RuntimeError(f"expected one build_pipeline call, saw {len(setup)}")
    cfg = report["config"]
    return {"outputs": {"exit_code": exit_code, "report": report},
            "setup_s": setup[0].duration, "after_setup_s": t1 - setup[0].end,
            "transmissions": cfg["run"]["trials"] * len(cfg["run"]["metrics"]),
            "config": {"argv": argv, "canonical": cfg}}


def versions() -> dict[str, Any]:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None,
                    help="write the recorded spans here (traced runs)")
    ap.add_argument("--versions", action="store_true")
    args = ap.parse_args(argv)

    tracer = Tracer()
    missing: list[str] = []
    if args.trace:
        for path, name, count in TARGETS:
            try:
                tracer.wrap(path, name, count)
            except (AttributeError, ModuleNotFoundError):
                missing.append(path)
    elif args.workload == "genuine_cli":
        tracer.wrap("awgnauth.cli.build_pipeline", "cli.build_pipeline")
    try:
        if args.workload == "genuine_cli":
            result = run_cli(args.seed, tracer)
        else:
            result = run_library(args.workload, args.seed)
    finally:
        tracer.uninstall()
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump(tracer.dump(), fh)
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        calls = tracer.calls_by_target()
        missing += [p for p in EXPECTED[args.workload] if calls.get(p, 0) == 0]
        result["layers"] = layer_metrics(tracer.spans)
        result["missing"] = sorted(set(missing))
    if args.versions:
        result["versions"] = versions()
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

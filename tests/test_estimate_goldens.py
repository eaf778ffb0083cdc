"""Recorded estimates: ``estimate``, ``base_error_probability`` and the
``simulate`` report must keep giving, bit for bit, the counts, reports
and trial logs recorded in ``estimate_goldens.json``.

Each case is one code and one call.  The file holds per case the
(metric, successes, trials) of each report, the reports themselves (a
CLI report without its ``version``, which names the commit) and the
sha256 of the trial log, when the case writes one.  The codes are
(n, M) = (60, 6), (61, 42), that code decimated to 20 messages, a code
with a null message and (600, 4096); the calls cover genuine runs, a
fixed message, targeted pairs with ``weight_scale``, enumerated pairs,
impersonation, auto-sized blocks, blocks of 1 and 57 trials, blocks of
one chunk and of several (sizes forced on ``simulate.block_rows``, see
``BLOCK_ROWS``), and the base decode's error.  A change that
alters any count, report byte or log byte fails here.  To re-record on
purpose (and say why in ``CHANGES.md``)::

    PYTHONPATH=src python tests/test_estimate_goldens.py --record
"""

import contextlib
import functools
import hashlib
import json
import sys
import tempfile
from pathlib import Path
from unittest import mock

from awgnauth import cli, simulate
from awgnauth.adversary import AttackSpec
from awgnauth.simulate import ChannelParams, base_error_probability, estimate

GOLDENS = Path(__file__).with_name("estimate_goldens.json")

# name -> the CLI settings that build the code
CODES = {
    "gauss_60_6": ["base.kind=gaussian", "base.n=60", "base.messages=6",
                   "base.seed=11", "overlay.counts=[3,2]"],
    "gauss_61_42": ["base.kind=gaussian", "base.n=61", "base.messages=42",
                    "base.seed=3", "overlay.counts=[6,7]", "overlay.seed=3"],
    "gauss_61_42_decimated": [
        "base.kind=gaussian", "base.n=61", "base.messages=42", "base.seed=3",
        "overlay.counts=[6,7]", "overlay.seed=3", "mod2.enabled=true",
        "mod2.agnostic=true", "mod2.target_override=20"],
    "gauss_60_6_null": ["base.kind=gaussian", "base.n=60", "base.messages=6",
                        "base.seed=5", "base.null=true",
                        "overlay.counts=[7,1]"],
    "gauss_600_4096": ["base.kind=gaussian", "base.n=600",
                       "base.messages=4096", "base.seed=7",
                       "overlay.counts=[64,64]", "auth.delta=0.1"],
}

GENUINE = ChannelParams(rho_dec=2.0)
ATTACKED = ChannelParams(rho_dec=0.5, rho_adv=0.05)

# name -> (code, channel, metrics, trials, seed, estimate's keywords, log)
CASES = {
    "genuine_auto": ("gauss_60_6", GENUINE, ["epsilon", "false_alarm"],
                     3000, 1, {}, True),
    "fixed_message": ("gauss_60_6", GENUINE,
                      ["genuine_acceptance", "epsilon"], 2000, 2,
                      {"message": 2}, True),
    "batch_1": ("gauss_60_6", GENUINE, ["epsilon"], 300, 3, {}, True),
    "batch_57": ("gauss_60_6", GENUINE, ["epsilon", "false_alarm"], 1000, 4,
                 {}, True),
    "one_chunk": ("gauss_60_6", ATTACKED, ["epsilon", "alpha_star"], 1500, 5,
                  {"pairs": [(0, 1), (4, 3)]}, True),
    "several_chunks": ("gauss_60_6", ATTACKED, ["alpha", "epsilon"], 12000,
                       6, {"pairs": [(1, 0), (2, 5)]}, True),
    "targeted_scaled": ("gauss_61_42", ATTACKED, ["alpha_star", "alpha"],
                        2000, 7, {"pairs": [(0, 1), (3, 4), (5, 1)],
                                  "attack": AttackSpec("targeted", 1,
                                                       weight_scale=0.8)},
                        True),
    "enumerated_pairs": ("gauss_61_42", ATTACKED, ["alpha_star"], 500, 8,
                         {"max_pairs": 20}, False),
    "decimated": ("gauss_61_42_decimated", ATTACKED, ["epsilon", "alpha"],
                  2000, 9, {"max_pairs": 5}, True),
    "impersonation": ("gauss_60_6_null", ATTACKED, ["alpha_star", "alpha"],
                      2000, 10, {"attack": AttackSpec("impersonation", 3)},
                      True),
    "null_genuine": ("gauss_60_6_null", GENUINE, ["epsilon"], 1000, 11, {},
                     False),
    "large_genuine": ("gauss_600_4096", ChannelParams(rho_dec=0.1),
                      ["epsilon", "false_alarm"], 900, 12, {}, True),
    "large_pairs": ("gauss_600_4096", ChannelParams(rho_dec=0.1,
                                                    rho_adv=0.01),
                    ["alpha_star"], 300, 13, {"pairs": [(0, 1), (7, 4095)]},
                    False),
}

# case -> the trials per block it forces in place of ``block_rows``' size
BLOCK_ROWS = {"batch_1": 1, "batch_57": 57, "one_chunk": 500,
              "several_chunks": 5000}

# name -> (code, rho_dec, trials, seed) of a base_error_probability call
BASE_CASES = {
    "base_60_6": ("gauss_60_6", 6.0, 5000, 14),
    "base_60_6_null": ("gauss_60_6_null", 6.0, 3000, 15),
    "base_600_4096": ("gauss_600_4096", 12.0, 1000, 16),
}

# name -> the CLI settings of a ``simulate`` report, its trial log in tow
CLI_CASES = {
    "cli_genuine": CODES["gauss_61_42"] + [
        "channel.rho_dec=0.5", 'run.metrics=["epsilon","false_alarm"]',
        "run.trials=2000", "run.seed=17"],
    "cli_attacked": CODES["gauss_61_42_decimated"] + [
        "channel.rho_dec=0.5", "channel.rho_adv=0.05",
        'run.metrics=["epsilon","alpha_star","alpha"]', "attack.spec=none",
        "run.max_pairs=4", "run.trials=1000", "run.seed=18"],
}


@functools.cache
def _code(name):
    return cli.build_pipeline(cli.parse_config(None, CODES[name]))


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _counts(reports):
    return [[r["metric"], r["successes"], r["trials"]] for r in reports]


def results(folder):
    """{case: {"counts", "reports", "log"}}, each trial log written in
    ``folder``."""
    out = {}
    for name, (code, channel, metrics, trials, seed, kwargs,
               logged) in CASES.items():
        log = str(Path(folder) / f"{name}.csv") if logged else None
        rows = BLOCK_ROWS.get(name)
        with (contextlib.nullcontext() if rows is None else mock.patch.object(
                simulate, "block_rows", lambda *args, **kwargs: rows)):
            reports = [r.to_json_dict() for r in estimate(
                _code(code), channel, metrics, trials, seed, trial_log=log,
                **kwargs)]
        out[name] = {"counts": _counts(reports), "reports": reports,
                     "log": _sha256(log) if logged else None}
    for name, (code, rho_dec, trials, seed) in BASE_CASES.items():
        report = base_error_probability(_code(code).base, rho_dec, trials,
                                        seed).to_json_dict()
        out[name] = {"counts": _counts([report]), "reports": [report],
                     "log": None}
    for name, settings in CLI_CASES.items():
        log = Path(folder) / f"{name}.csv"
        cfg = cli.parse_config(None, settings + [f"run.trial_log={log}"])
        report = json.loads(json.dumps(
            cli.make_report(cfg, cli.build_pipeline(cfg)), sort_keys=True))
        del report["version"]
        out[name] = {"counts": _counts(report["estimates"]),
                     "reports": [report], "log": _sha256(log)}
    return out


def test_estimates_equal_the_recorded_goldens(tmp_path):
    want = json.loads(GOLDENS.read_text())
    got = json.loads(json.dumps(results(tmp_path)))   # tuples to lists
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name]["counts"] == want[name]["counts"], name
        assert got[name]["log"] == want[name]["log"], name
        assert (json.dumps(got[name]["reports"], sort_keys=True)
                == json.dumps(want[name]["reports"], sort_keys=True)), name


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_estimate_goldens.py --record")
    with tempfile.TemporaryDirectory() as tmp:
        GOLDENS.write_text(json.dumps(results(tmp), indent=1,
                                      sort_keys=True) + "\n")

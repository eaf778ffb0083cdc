"""Time the README's experiment sweeps, each in fresh processes.

    python3 scripts/time_sweeps.py [--repeat K] [--root DIR] [SETTING ...]

Runs every ``awgnauth sweep`` command of the "## Experiments" block of
``DIR/README.md`` (default: this checkout) K times, each time in a new
``python -m awgnauth.cli`` process on ``DIR/src``, with any further
``key=value`` settings appended (``run.trials=100`` for a quick check).
Each run writes its CSV to a temporary directory.  Prints one JSON
object: per sweep (keyed by its axis) the wall time of every run, their
median, and the sha256 of the CSV, which must be the same in every run.
Wall time is the whole process, import and code builds included.

Only the standard library is used.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[1]


def experiments(readme: str) -> list[list[str]]:
    """The argv, after ``awgnauth``, of each command in the README's
    Experiments block."""
    block = re.search(r"\n## Experiments\n.*?```sh\n(.*?)```", readme,
                      re.S).group(1).replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("awgnauth ")]


def time_sweep(root: Path, argv: list[str], repeat: int) -> dict[str, Any]:
    """The wall times of ``repeat`` fresh-process runs of one sweep, and
    the sha256 of its CSV."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out_name = argv[argv.index("--out") + 1]
    runs, digests = [], set()
    with tempfile.TemporaryDirectory() as tmp:
        env["AWGNAUTH_OUTPUT_DIR"] = tmp
        for _ in range(repeat):
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", "awgnauth.cli",
                                   *argv], env=env, cwd=tmp,
                                  capture_output=True, text=True)
            runs.append(time.perf_counter() - t0)
            if proc.returncode not in (0, 1):   # 1: a bound was exceeded
                raise SystemExit(f"{' '.join(argv)}: exit "
                                 f"{proc.returncode}: {proc.stderr}")
            digests.add(hashlib.sha256(
                (Path(tmp) / out_name).read_bytes()).hexdigest())
    if len(digests) != 1:
        raise SystemExit(f"{out_name}: the runs wrote different CSVs")
    return {"out": out_name, "runs": runs, "median_s": statistics.median(runs),
            "csv_sha256": digests.pop()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=3,
                    help="fresh-process runs per sweep")
    ap.add_argument("--root", default=str(ROOT),
                    help="the checkout whose README and src are timed")
    ap.add_argument("settings", nargs="*",
                    help="key=value settings appended to every sweep")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    root = Path(args.root).resolve()
    sweeps = {}
    for command in experiments((root / "README.md").read_text()):
        command = [*command, *args.settings]
        sweeps[command[command.index("--axis") + 1]] = time_sweep(
            root, command, args.repeat)
    json.dump({"repeat": args.repeat, "settings": args.settings,
               "sweeps": sweeps}, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Summarise parent and change benchmark results into one BENCH record.

    python3 scripts/bench_record.py --label 8 --out BENCH_8.json \\
        --parent p1.json p2.json ... --change c1.json c2.json ... \\
        [--tier1 junit.xml] [--sweeps parent_sweeps.json change_sweeps.json]

Each input is a ``perfbench/out/result-*.json`` file written by
``perfbench/run.py``; the i-th parent file and the i-th change file are
one pair (two runs made one after the other, alternating which side ran
first).  A file's value for a metric is the median over its executions.
For every workload and every metric that ``BENCHMARK.json`` declares,
the record gives each side's per-pair values with their median and
quartiles, and the number of pairs in which the change was better and
in which it was worse (the rest are ties).  Each end-to-end metric also
gets three verdicts:

* ``within_bound``: the change's median is worse than the parent's by no
  more than the metric's ``bound``, a fraction of the parent's median;
* ``gain_met``: the change is better in at least 9 of 10 pairs (ties
  count for neither side) and its median is better than the parent's by
  more than the parent's interquartile range;
* ``unresolved``: the runs spread too widely to tell, that is either
  side's interquartile range is wider than ``bound`` times its median,
  unless every change run is better than every parent run.
Machines, seeds, traces and thread budgets are copied from the inputs.
Traced results (``--trace 1``), given as ``--traced-parent`` and
``--traced-change`` pairs in the same way, are summarised apart under
``traced``, so that their per-layer metrics sit beside the untraced
end-to-end ones without mixing the tracing overhead into them.
``--tier1`` reads a ``pytest --junitxml`` file of the tier-1 suite and
keeps, under ``tier1``, its wall time, its counts of tests, failures,
errors and skips, and its five slowest tests.  ``--sweeps`` reads the
``scripts/time_sweeps.py`` output of each side (parent first) and keeps
both, as they are, under ``sweeps``.

Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[1]


def load(path: str) -> dict[str, Any]:
    with open(path) as fh:
        result = json.load(fh)
    for key in ("workload", "seed", "samples", "machine"):
        if key not in result:
            raise SystemExit(f"{path}: not a perfbench result (no {key!r})")
    return result


def tier1(path: str) -> dict[str, Any]:
    """The wall time, outcome counts and five slowest tests of the suite
    run that the JUnit XML file at ``path`` describes."""
    root = ET.parse(path).getroot()
    suites = [root] if root.tag == "testsuite" else root.findall("testsuite")
    if not suites:
        raise SystemExit(f"{path}: not a JUnit XML file (no testsuite)")
    cases = sorted((-float(case.get("time", 0)),
                    f"{case.get('classname')}::{case.get('name')}")
                   for suite in suites for case in suite.iter("testcase"))
    return {"wall_s": sum(float(suite.get("time", 0)) for suite in suites),
            **{key: sum(int(suite.get(key, 0)) for suite in suites)
               for key in ("tests", "failures", "errors", "skipped")},
            "slowest": [{"test": name, "s": -minus_s}
                        for minus_s, name in cases[:5]]}


def spread(values: list[float]) -> dict[str, Any]:
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "runs": values}


def record(parents: list[dict[str, Any]], changes: list[dict[str, Any]],
           declared: dict[str, dict[str, str]]) -> dict[str, Any]:
    """The summary of the paired results, workload by workload."""
    workloads: dict[str, Any] = {}
    for parent, change in zip(parents, changes):
        if parent["workload"] != change["workload"]:
            raise SystemExit(f"pair of {parent['workload']} and "
                             f"{change['workload']}: workloads differ")
        entry = workloads.setdefault(parent["workload"], {
            "pairs": 0, "seeds": [], "trace": parent.get("trace"),
            "threads": parent.get("threads"), "failed": [], "pair_values": {}})
        entry["pairs"] += 1
        entry["seeds"].append([parent["seed"], change["seed"]])
        entry["failed"].append([parent.get("failed"), change.get("failed")])
        for name in declared:
            if name in parent["samples"] and name in change["samples"]:
                entry["pair_values"].setdefault(name, []).append(
                    (statistics.median(parent["samples"][name]),
                     statistics.median(change["samples"][name])))
    for entry in workloads.values():
        metrics = {}
        for name, pairs in entry.pop("pair_values").items():
            sign = 1 if declared[name]["better"] == "higher" else -1
            metrics[name] = m = {
                "unit": declared[name]["unit"],
                "better": declared[name]["better"],
                "parent": spread([p for p, _ in pairs]),
                "change": spread([c for _, c in pairs]),
                "change_better_pairs": sum(sign * (c - p) > 0
                                           for p, c in pairs),
                "change_worse_pairs": sum(sign * (c - p) < 0
                                          for p, c in pairs)}
            if "bound" in declared[name]:   # an end-to-end metric
                bound = declared[name]["bound"]
                parent, change = m["parent"], m["change"]
                before, after = parent["median"], change["median"]
                m["within_bound"] = sign * (before - after) <= bound * before
                m["gain_met"] = (
                    m["change_better_pairs"] >= 0.9 * len(pairs)
                    and sign * (after - before) > parent["q3"] - parent["q1"])
                m["unresolved"] = any(
                    side["q3"] - side["q1"] > bound * side["median"]
                    for side in (parent, change)) and not all(
                    sign * (c - p) > 0
                    for p in parent["runs"] for c in change["runs"])
        entry["metrics"] = metrics
    machines = [r["machine"] for r in parents + changes]
    return {"machine": machines[0],
            "machines_differ": any(m != machines[0] for m in machines),
            "workloads": workloads}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True,
                    help="names the record: BENCH_<label>")
    ap.add_argument("--parent", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"),
                    help="declares each metric's unit and direction")
    ap.add_argument("--traced-parent", nargs="+", default=[])
    ap.add_argument("--traced-change", nargs="+", default=[])
    ap.add_argument("--note", default="", help="free text kept in the record")
    ap.add_argument("--tier1", metavar="JUNIT_XML",
                    help="a pytest --junitxml file of the tier-1 suite")
    ap.add_argument("--sweeps", nargs=2, metavar=("PARENT", "CHANGE"),
                    help="scripts/time_sweeps.py outputs of the two sides")
    args = ap.parse_args(argv)
    if len(args.parent) != len(args.change) \
            or len(args.traced_parent) != len(args.traced_change):
        ap.error("give one change result per parent result")
    with open(args.benchmark) as fh:
        bench = json.load(fh)
    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    summary = record([load(p) for p in args.parent],
                     [load(c) for c in args.change], declared)
    out = {"record": f"BENCH_{args.label}", "note": args.note, **summary}
    if args.traced_parent:
        out["traced"] = record([load(p) for p in args.traced_parent],
                               [load(c) for c in args.traced_change],
                               declared)["workloads"]
    if args.tier1:
        out["tier1"] = tier1(args.tier1)
    if args.sweeps:
        out["sweeps"] = {}
        for side, path in zip(("parent", "change"), args.sweeps):
            with open(path) as fh:
                out["sweeps"][side] = json.load(fh)
            if "sweeps" not in out["sweeps"][side]:
                raise SystemExit(f"{path}: not a time_sweeps.py output")
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for workload, entry in out["workloads"].items():
        for name, m in entry["metrics"].items():
            verdict = ("" if "within_bound" not in m else
                       ("; within bound" if m["within_bound"] else
                        "; OUTSIDE BOUND")
                       + ("; gain met" if m["gain_met"] else "")
                       + ("; UNRESOLVED" if m["unresolved"] else ""))
            print(f"{workload:15s} {name:28s} parent {m['parent']['median']:.6g}"
                  f" change {m['change']['median']:.6g} (change better in "
                  f"{m['change_better_pairs']}, worse in "
                  f"{m['change_worse_pairs']} of {entry['pairs']} pairs"
                  f"{verdict})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

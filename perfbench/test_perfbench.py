"""Tests of the benchmark itself: span arithmetic, the golden check and
the metric names.  Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import copy
import json
import re
import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import run
import spans
from spans import Span, Tracer

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def two_thread_tree() -> list[Span]:
    """estimate [0, 10] on the main thread with two worker children that
    overlap in time: A [1, 5] on thread 1, B [3, 8] on thread 2; A has a
    child U [2, 3]."""
    return [
        Span(1, "simulate.estimate", None, 0, 0.0, 10.0),
        Span(2, "authcode.encode", 1, 1, 1.0, 5.0, {"rows": 7}),
        Span(3, "basecode.decode", 1, 2, 3.0, 8.0, {"rows": 7, "score_bytes": 56}),
        Span(4, "streams.uniforms", 2, 1, 2.0, 3.0,
             {"seed": 1, "role": 0, "start": 0, "trials": 7, "width": 4}),
    ]


def test_self_time_subtracts_union_of_overlapping_children():
    tree = two_thread_tree()
    kids = spans.children(tree)
    # children cover [1, 8]: 7 of the 10 seconds, not 4 + 5 = 9
    assert spans.self_time(tree[0], kids) == pytest.approx(3.0)
    assert spans.self_time(tree[1], kids) == pytest.approx(3.0)
    assert spans.self_time(tree[2], kids) == pytest.approx(5.0)


def test_layer_metrics_on_two_thread_tree():
    m = spans.layer_metrics(two_thread_tree())
    assert m["simulate.estimate.self_s"] == pytest.approx(3.0)
    assert m["simulate.parallel_frac"] == pytest.approx(0.9)
    assert m["simulate.blocks"] == 1 and m["simulate.block_rows.p50"] == 7
    assert m["basecode.decode.bytes"] == 56
    assert m["streams.values"] == 28 and m["streams.unique_frac"] == 1.0


def test_covered_clips_and_merges():
    assert spans.covered([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert spans.covered([(-5, 1), (9, 20)], 0, 10) == 2
    assert spans.covered([], 0, 10) == 0


def test_distinct_draws_counts_repeated_streams_once():
    draw = [(1, 0, 0, 100, 600), (1, 1, 0, 100, 600), (1, 2, 0, 100, 600)]
    # the attack_pairs pattern: 40 calls redraw the same three streams
    assert spans.distinct_draws(draw * 40) == 3 * 100 * 600
    assert spans.distinct_draws(draw * 40) / (40 * 3 * 100 * 600) == 1 / 40
    # two blocks of one stream, one of them redrawn wider
    assert spans.distinct_draws([(0, 3, 0, 10, 1), (0, 3, 10, 5, 1),
                                 (0, 3, 5, 10, 2)]) == 15 + 10


def test_worker_spans_take_the_pool_owner_as_parent():
    fake = types.ModuleType("perfbench_fake_target")

    def leaf(x):
        return x + 1

    def outer():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(lambda x: fake.leaf(x), range(8)))

    fake.leaf, fake.outer = leaf, outer
    sys.modules[fake.__name__] = fake
    tracer = Tracer()
    try:
        tracer.wrap("perfbench_fake_target.leaf", "leaf",
                    lambda a, r: {"x": a.arguments["x"], "r": r})
        tracer.wrap("perfbench_fake_target.outer", "outer")
        assert fake.outer() == list(range(1, 9))
    finally:
        tracer.uninstall()
        del sys.modules[fake.__name__]
    assert fake.leaf is leaf and fake.outer is outer
    (top,) = [s for s in tracer.spans if s.name == "outer"]
    leaves = [s for s in tracer.spans if s.name == "leaf"]
    assert len(leaves) == 8 and all(s.parent == top.id for s in leaves)
    assert all(s.counts["r"] == s.counts["x"] + 1 for s in leaves)
    assert tracer.calls_by_target() == {"perfbench_fake_target.leaf": 8,
                                        "perfbench_fake_target.outer": 1}


def test_calls_are_counted_per_call_site_not_per_span_name():
    tracer = Tracer()
    try:
        tracer.wrap("json.dumps", "codec")
        tracer.wrap("json.loads", "codec")
        json.dumps([1])
    finally:
        tracer.uninstall()
    assert tracer.calls_by_target() == {"json.dumps": 1, "json.loads": 0}


def test_missing_call_site_raises_at_install():
    tracer = Tracer()
    with pytest.raises(AttributeError):
        tracer.wrap("json.no_such_function", "x")
    with pytest.raises(ModuleNotFoundError):
        tracer.wrap("no_such_module_anywhere.f", "x")


def test_spans_are_recorded_from_many_threads():
    tracer = Tracer()
    barrier = threading.Barrier(4)

    def work():
        barrier.wait(timeout=10)
        for _ in range(200):
            tracer.close(tracer.open("s"))

    threads = [threading.Thread(target=work) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    assert len(tracer.spans) == 800
    assert len({s.id for s in tracer.spans}) == 800


# -- golden check -----------------------------------------------------------------
def goldens() -> dict:
    return json.loads(run.GOLDENS.read_text())


def test_golden_check_trips_on_a_perturbed_count():
    g = goldens()
    for workload in run.WORKLOADS:
        assert run.diff(g[workload], copy.deepcopy(g[workload])) == []
        assert run.invariants(workload, g[workload]) == []
    bad = copy.deepcopy(g["attack_pairs"])
    bad["alpha"]["per_pair"][3][2] += 1
    assert run.diff(g["attack_pairs"], bad) == [
        "/alpha/per_pair[3][2]: expected 634, got 635"]
    bad = copy.deepcopy(g["genuine_cli"])
    bad["report"]["estimates"][0]["successes"] -= 1
    assert run.diff(g["genuine_cli"], bad)
    assert run.invariants("genuine_cli", bad)
    bad = copy.deepcopy(g["large_codebook"])
    bad["epsilon"]["successes"] += 1
    assert run.diff(g["large_codebook"], bad)


def fake_execute(outputs_at_default):
    def execute(workload, seed, *, trace, budget, deadline, extra=()):
        outputs = goldens()[workload]
        if seed == run.DEFAULT_SEED:
            outputs = outputs_at_default(copy.deepcopy(outputs))
        r = {"outputs": outputs, "setup_s": 0.5, "after_setup_s": 2.0,
             "transmissions": 1000, "peak_rss_mb": 100.0, "wall_s": 3.0,
             "config": {}}
        if trace:
            r["layers"] = {name: 1.0 for name in run.PER_LAYER
                           if name != "trace.overhead_frac"}
            r["missing"] = []
        return r
    return execute


@pytest.fixture
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    return tmp_path


def test_run_fails_on_golden_mismatch(out_dir, monkeypatch, capsys):
    def perturb(outputs):
        outputs["epsilon"]["successes"] += 1
        return outputs

    monkeypatch.setattr(run, "execute", fake_execute(perturb))
    assert run.main(["--workload", "large_codebook", "--seed", "5",
                     "--seconds", "0"]) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] == 1
    assert last["attempted"] == 1 + run.MIN_EXECUTIONS


def test_run_passes_and_prints_every_metric(out_dir, monkeypatch, capsys):
    monkeypatch.setattr(run, "execute", fake_execute(lambda o: o))
    for trace, table in ((0, run.END_TO_END), (1, run.PER_LAYER)):
        assert run.main(["--workload", "attack_pairs", "--seed", "2",
                         "--seconds", "0", "--trace", str(trace)]) == 0
        last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
        assert last["correct"] is True and last["failed"] == 0
        assert set(last["metrics"]) == set(table) - set(run.PRINT_ONLY)


def test_run_refuses_without_package_source(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "attack_pairs"]) == 2
    assert capsys.readouterr().out == ""


# -- names ------------------------------------------------------------------------
def test_metric_names_and_units_follow_the_grammar():
    for table in (run.END_TO_END, run.PER_LAYER):
        for name, (unit, better) in table.items():
            assert NAME.fullmatch(name), name
            assert UNIT.fullmatch(unit), unit
            assert better in ("higher", "lower")


def test_benchmark_json_matches_the_metric_tables():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = [w["name"] for w in bench["workloads"]]
    assert gated == ["genuine_cli", "large_codebook"]
    assert set(gated) <= set(run.WORKLOADS)
    e2e = {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]}
    assert e2e == run.END_TO_END
    layers = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    assert layers == {k: v for k, v in run.PER_LAYER.items()
                      if k not in run.PRINT_ONLY}
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)


def test_layer_metrics_cover_the_per_layer_table():
    produced = set(spans.layer_metrics([]))
    assert produced == set(run.PER_LAYER) - {"trace.overhead_frac"}


def test_pool_threads_match_the_workload_configs():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workload
    finally:
        sys.path.remove(str(ROOT / "src"))
    assert workload.WORKLOADS == run.WORKLOADS
    for name, cfg in workload.LIBRARY.items():
        assert run.POOL_THREADS[name] == cfg["threads"]
    assert f"run.threads={run.POOL_THREADS['genuine_cli']}" in workload.CLI_ARGS

"""``estimate`` runs its blocks on min(threads x b, CPUs) workers, b the
BLAS thread count at the call, each worker at one BLAS thread, and
``base_error_probability`` on min(b, CPUs) of them; the calling thread
runs one worker and a pool thread each other one.  b is restored on
return, and the chunk, received-row and tile budgets are split among the
workers.  No count, report or trial log may see the worker count."""

import functools
import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from awgnauth import simulate
from awgnauth.authcode import inject_noise
from awgnauth.basecode import (BaseCode, BaseCodeError,
                               make_random_gaussian_code)
from awgnauth.overlay import LevelSet, OverlayCode, construct_overlay
from awgnauth.simulate import ChannelParams, base_error_probability, estimate
from awgnauth.streams import TILE_VALUES, block_rows, chunk_rows, share

BLAS = simulate._openblas()
needs_blas = pytest.mark.skipif(BLAS is None,
                                reason="needs numpy's bundled OpenBLAS")


class PoolSpy:
    """Stands in for ``ThreadPoolExecutor`` in ``simulate`` and records
    the worker count of each pool made: its ``max_workers``, the calling
    thread's worker and one pool thread per other worker."""

    def __init__(self, monkeypatch):
        self.workers = []
        spy = self

        class Pool(simulate.ThreadPoolExecutor):
            def __init__(self, max_workers):
                spy.workers.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(simulate, "ThreadPoolExecutor", Pool)


@pytest.fixture()
def blas_at_2():
    """BLAS at 2 threads for the test, the count before restored after."""
    get, put = BLAS
    before = get()
    put(2)
    try:
        yield get
    finally:
        put(before)


# One genuine estimate and one over attack pairs on a code with M > 512,
# whose genuine blocks the prefix screen decodes, then the base code's
# error over six blocks; prints the reports, the trial log's sha256, the
# base errors, each pool's worker count (the calling thread's worker
# included) and the rule's counts.
EQUALITY_RUN = """
import hashlib, json, os, sys, tempfile
from awgnauth import basecode, simulate
from awgnauth.authcode import inject_noise
from awgnauth.overlay import LevelSet, construct_overlay

threads = int(sys.argv[1])
pools, splits = [], []


class Pool(simulate.ThreadPoolExecutor):
    def __init__(self, max_workers):
        pools.append(max_workers)
        super().__init__(max_workers=max_workers)


simulate.ThreadPoolExecutor = Pool
screen_at = basecode.BaseCode._screen_at


def spy(self, ys, wide, err, j, tile):
    splits.append(j < len(self._screen.splits) - 1)
    return screen_at(self, ys, wide, err, j, tile)


basecode.BaseCode._screen_at = spy
base = basecode.make_random_gaussian_code(256, 2048, 1.0, 3)
ov = construct_overlay(256, LevelSet((0.0, 0.5)), 0.75,
                       counts_per_level=[64, 32], seed=3)
code = inject_noise(base, ov, 1.0, 0.2, 3)
ch = simulate.ChannelParams(rho_dec=0.1, rho_adv=0.05)
blas = simulate._openblas()
b = 1 if blas is None else blas[0]()
with tempfile.TemporaryDirectory() as tmp:
    log = os.path.join(tmp, "log.csv")
    reports = simulate.estimate(code, ch, ["epsilon", "false_alarm"], 3000,
                                5, threads=threads, trial_log=log)
    reports += simulate.estimate(code, ch, ["alpha_star", "alpha"], 1500, 5,
                                 pairs=[(0, 1), (0, 2), (5, 1)],
                                 threads=threads, trial_log=log)
    with open(log, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
errors = simulate.base_error_probability(base, 6.0, 3000, 5).successes
cpus = len(os.sched_getaffinity(0))
print(json.dumps({
    "reports": [r.to_json_dict() for r in reports], "log": digest,
    "base_errors": errors, "pools": pools, "prefix": any(splits),
    "rule": min(threads * b, cpus), "base_rule": min(b, cpus)}))
"""


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                    reason="needs os.sched_getaffinity")
def test_counts_reports_and_logs_equal_at_any_threads_and_blas_threads():
    env = dict(os.environ)
    src = str(Path(simulate.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    runs = {}
    for threads, blas in ((1, 1), (1, 2), (2, 1), (2, 2)):
        env["OPENBLAS_NUM_THREADS"] = str(blas)
        proc = subprocess.run(
            [sys.executable, "-c", EQUALITY_RUN, str(threads)], env=env,
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        runs[threads, blas] = out = json.loads(proc.stdout)
        assert out["prefix"]
        # one pool per estimate and one for the base errors, each of its
        # rule's workers, one worker included
        rules = [out["rule"]] * 2 + [out["base_rule"]]
        assert out["pools"] == rules, (threads, blas)
    want = runs[1, 1]
    assert len(want["log"]) == 64 and want["base_errors"] == 64
    for key, out in runs.items():
        assert (out["reports"], out["log"], out["base_errors"]) == (
            want["reports"], want["log"], want["base_errors"]), key


def _blas_in_blocks(monkeypatch, seen, fail=False):
    """Record the BLAS thread count in every block; raise in the first
    block when ``fail``."""
    block = simulate._simulate_block

    def spy(*args, **kwargs):
        seen.append(BLAS[0]())
        if fail:
            raise RuntimeError("a block failed")
        return block(*args, **kwargs)

    monkeypatch.setattr(simulate, "_simulate_block", spy)


@needs_blas
class TestBlasThreads:
    CH = ChannelParams(rho_dec=0.1)

    def test_restored_after_a_return(self, small_auth, monkeypatch,
                                     blas_at_2, fixed_blocks):
        seen = []
        _blas_in_blocks(monkeypatch, seen)
        pools = PoolSpy(monkeypatch)
        fixed_blocks(500)
        estimate(small_auth, self.CH, "epsilon", 5000, seed=1)
        assert blas_at_2() == 2
        assert seen and set(seen) == {1}
        assert pools.workers == [min(1 * 2, simulate._cpus())]

    def test_restored_after_an_error(self, small_auth, monkeypatch,
                                     blas_at_2, fixed_blocks):
        seen = []
        _blas_in_blocks(monkeypatch, seen, fail=True)
        fixed_blocks(500)
        with pytest.raises(RuntimeError, match="a block failed"):
            estimate(small_auth, self.CH, "epsilon", 5000, seed=1)
        assert seen and set(seen) == {1}
        assert blas_at_2() == 2

    def test_restored_after_two_calls_at_once(self, small_auth, monkeypatch,
                                              blas_at_2, fixed_blocks):
        # call B enters while call A holds BLAS at 1, and leaves after A
        # has returned: B must still find b = 2, and restore it
        entered = {1: threading.Event(), 2: threading.Event()}
        a_done = threading.Event()
        seen = {1: [], 2: []}
        block = simulate._simulate_block

        def spy(code, seed, *args, **kwargs):
            entered[seed].set()
            assert entered[3 - seed].wait(30)
            if seed == 2:
                assert a_done.wait(30)
            seen[seed].append(BLAS[0]())
            return block(code, seed, *args, **kwargs)

        monkeypatch.setattr(simulate, "_simulate_block", spy)
        pools = PoolSpy(monkeypatch)
        fixed_blocks(500)
        results, errors = {}, []

        def call(seed):
            try:
                results[seed] = estimate(small_auth, self.CH, "epsilon",
                                         2000, seed=seed)
            except Exception as exc:   # reported by the main thread
                errors.append(exc)
            finally:
                if seed == 1:
                    a_done.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            a = threading.Thread(target=call, args=(1,))
            a.start()
            assert entered[1].wait(30)
            b = threading.Thread(target=call, args=(2,))
            b.start()
            a.join(60)
            b.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not a.is_alive() and not b.is_alive()
        assert not errors, errors
        assert set(results) == {1, 2}
        # both calls read b = 2: 2 workers each, within the CPUs
        assert pools.workers == [min(1 * 2, simulate._cpus())] * 2
        assert set(seen[1]) == set(seen[2]) == {1}
        assert blas_at_2() == 2
        fixed_blocks(None)
        for seed in (1, 2):
            assert results[seed].to_json_dict() == estimate(
                small_auth, self.CH, "epsilon", 2000,
                seed=seed).to_json_dict()

    def test_a_failing_block_stops_the_other_worker(self, small_auth,
                                                    monkeypatch, blas_at_2,
                                                    fixed_blocks):
        # threads=2 at b = 2, within 2 CPUs: 2 workers over 20 blocks; the
        # first block fails while the other worker is in its block, which
        # then takes no further block (or one, pulled before it saw the
        # failure)
        monkeypatch.setattr(simulate, "_cpus", lambda: 2)
        pools = PoolSpy(monkeypatch)
        block = simulate._simulate_block
        started, failed = threading.Event(), threading.Event()
        after = []   # per call: whether it started after the failure

        def spy(code, seed, t0, *args, **kwargs):
            after.append(failed.is_set())
            if t0 == 0:
                assert started.wait(10)
                failed.set()
                raise RuntimeError("a block failed")
            started.set()
            assert failed.wait(10)
            return block(code, seed, t0, *args, **kwargs)

        monkeypatch.setattr(simulate, "_simulate_block", spy)
        fixed_blocks(250)
        with pytest.raises(RuntimeError, match="a block failed"):
            estimate(small_auth, self.CH, "epsilon", 5000, seed=1,
                     threads=2)
        assert pools.workers == [2]
        assert 2 <= len(after) <= 3 and sum(after) <= 1, after
        assert blas_at_2() == 2

    def test_without_the_symbols_blas_is_left_alone(self, small_auth,
                                                    monkeypatch, blas_at_2,
                                                    fixed_blocks):
        monkeypatch.setattr(simulate, "_OPENBLAS_THREADS",
                            ("no_such_get_symbol", "no_such_set_symbol"))
        simulate._openblas.cache_clear()
        try:
            assert simulate._openblas() is None
            seen = []
            _blas_in_blocks(monkeypatch, seen)
            pools = PoolSpy(monkeypatch)
            monkeypatch.setattr(simulate, "_cpus", lambda: 4)
            fixed_blocks(500)
            estimate(small_auth, self.CH, "epsilon", 5000, seed=1,
                     threads=3)
        finally:
            monkeypatch.undo()
            simulate._openblas.cache_clear()
        assert pools.workers == [3]   # threads x 1, within the CPUs
        assert seen and set(seen) == {2}
        assert blas_at_2() == 2


def test_the_worker_count_is_capped_by_the_cpus(small_auth, monkeypatch,
                                                 fixed_blocks):
    pools = PoolSpy(monkeypatch)
    monkeypatch.setattr(simulate, "_openblas", lambda: None)
    monkeypatch.setattr(simulate, "_cpus", lambda: 2)
    fixed_blocks(500)
    estimate(small_auth, ChannelParams(rho_dec=0.1), "epsilon", 3000,
             seed=1, threads=5)
    assert pools.workers == [2]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_the_calling_thread_runs_a_worker(small_auth, monkeypatch,
                                          fixed_blocks, workers):
    # each worker's first block waits for every worker's first block, so
    # each of the w workers runs one block at least
    monkeypatch.setattr(simulate, "_openblas", lambda: None)
    monkeypatch.setattr(simulate, "_cpus", lambda: 4)
    block, ran = simulate._simulate_block, []   # each thread that ran a block
    start, started = threading.Thread.start, []   # the threads started
    first = threading.Barrier(workers, timeout=30)

    def spy(*args, **kwargs):
        me = threading.get_ident()
        if me not in ran:
            ran.append(me)
            first.wait()
        return block(*args, **kwargs)

    def start_spy(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(simulate, "_simulate_block", spy)
    monkeypatch.setattr(threading.Thread, "start", start_spy)
    fixed_blocks(100)
    estimate(small_auth, ChannelParams(rho_dec=0.1), "epsilon", 2000,
             seed=1, threads=workers)
    caller = threading.get_ident()
    assert caller in ran and len(ran) == workers
    # the pool started a thread per other worker: none for one worker
    assert len(started) == workers - 1
    assert {thread.ident for thread in started} == set(ran) - {caller}
    assert not any(thread.is_alive() for thread in started)


@pytest.mark.parametrize("fails_on", ["caller", "pool"])
def test_a_failing_block_on_either_thread_reaches_the_caller(
        small_auth, monkeypatch, fixed_blocks, fails_on):
    # 2 workers over 20 blocks: the first block of one of them raises once
    # both are in a block, and the other then takes no further block
    monkeypatch.setattr(simulate, "_openblas", lambda: None)
    monkeypatch.setattr(simulate, "_cpus", lambda: 2)
    caller, block = threading.get_ident(), simulate._simulate_block
    both = threading.Barrier(2, timeout=30)
    failed = threading.Event()
    ran = []   # per block: whether the calling thread ran it

    def spy(*args, **kwargs):
        on_caller = threading.get_ident() == caller
        ran.append(on_caller)
        if len(ran) <= 2:
            both.wait()
            if on_caller == (fails_on == "caller"):
                failed.set()
                raise RuntimeError("a block failed")
            assert failed.wait(30)
        return block(*args, **kwargs)

    monkeypatch.setattr(simulate, "_simulate_block", spy)
    fixed_blocks(100)
    with pytest.raises(RuntimeError, match="a block failed"):
        estimate(small_auth, ChannelParams(rho_dec=0.1), "epsilon", 2000,
                 seed=1, threads=2)
    # one block each, and at most one more, pulled before the failure
    assert sorted(ran[:2]) == [False, True] and len(ran) <= 3, ran


@pytest.mark.parametrize("workers", [2, 4])
def test_blocks_finishing_out_of_order_log_as_in_order(small_auth,
                                                      monkeypatch, tmp_path,
                                                      workers, fixed_blocks):
    # even-numbered blocks sleep, so odd blocks finish first; at a short
    # switch interval, on as many workers as cores and on more, a block
    # pulled twice or lost changes the blocks run, the counts or the log
    block, finished = simulate._simulate_block, []   # per call, in order

    def slow_evens(code, seed, t0, *args, **kwargs):
        if t0 // 100 % 2 == 0:
            time.sleep(0.01)
        results = block(code, seed, t0, *args, **kwargs)
        finished[-1].append(t0)
        return results

    def logged(threads):
        log, reports = tmp_path / f"log-{threads}.csv", []
        for metrics, pairs in ((["epsilon", "genuine_acceptance"], None),
                               (["alpha_star", "alpha"], [(0, 1), (2, 4)])):
            finished.append([])
            reports += estimate(small_auth, ChannelParams(0.1, rho_adv=0.1),
                                metrics, 2000, seed=4, threads=threads,
                                pairs=pairs, message=3, trial_log=str(log))
        return [r.to_json_dict() for r in reports], log.read_bytes()

    fixed_blocks(100)

    want = logged(1)
    finished.clear()
    monkeypatch.setattr(simulate, "_openblas", lambda: None)
    monkeypatch.setattr(simulate, "_cpus", lambda: workers)
    monkeypatch.setattr(simulate, "_simulate_block", slow_evens)
    pools = PoolSpy(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        got = logged(workers)
    finally:
        sys.setswitchinterval(interval)
    assert pools.workers == [workers] * 2
    for call in finished:
        assert sorted(call) == list(range(0, 2000, 100)) != call
    assert got == want


def test_each_lazy_table_is_built_once_by_the_calling_thread(monkeypatch,
                                                            fixed_blocks):
    # a fresh code, whose decode and detect tables are not built yet
    ov = construct_overlay(60, LevelSet((0.0, 0.5)), 0.75,
                           counts_per_level=[3, 2], seed=2)
    code = inject_noise(make_random_gaussian_code(60, 6, 1.0, seed=2), ov,
                        rho_delta=1.0, delta=0.2, seed=2)
    builds = {}
    for cls, name in ((BaseCode, "_squares"), (BaseCode, "_half_norms"),
                      (BaseCode, "_screen"), (OverlayCode, "tested")):
        def spy(self, build=getattr(cls, name).func, name=name):
            builds.setdefault(name, []).append(threading.get_ident())
            time.sleep(0.02)   # room for a second worker to build it too
            return build(self)

        table = functools.cached_property(spy)
        table.__set_name__(cls, name)
        monkeypatch.setattr(cls, name, table)
    monkeypatch.setattr(simulate, "_openblas", lambda: None)
    monkeypatch.setattr(simulate, "_cpus", lambda: 2)
    pools = PoolSpy(monkeypatch)
    fixed_blocks(100)
    estimate(code, ChannelParams(rho_dec=0.1), "epsilon", 2000, seed=1,
             threads=2)
    assert pools.workers == [2]
    caller = [threading.get_ident()]
    # inject_noise read the base code's power: its sums were built before
    assert builds == {"_half_norms": caller, "_screen": caller,
                      "tested": caller}
    # a fresh base code's tables, for its decode error on 2 workers
    builds.clear()
    fixed_blocks(None)
    monkeypatch.setattr(simulate, "_openblas",
                        lambda: (lambda: 2, lambda threads: None))
    base_error_probability(BaseCode(code.base.codewords), 1.0, 20_000, 1)
    assert pools.workers == [2, 2]
    assert builds == {"_squares": caller, "_half_norms": caller,
                      "_screen": caller}


def test_shares_split_the_budgets_down_to_a_floor():
    # one worker: the whole budgets; 2: halves; many: a quarter each
    assert (chunk_rows(600), block_rows(600, 4096), share(TILE_VALUES, 1)) \
        == (218, 872, 2 ** 20)
    assert (chunk_rows(600, 2), block_rows(600, 4096, workers=2),
            share(TILE_VALUES, 2)) == (109, 436, 2 ** 19)
    for workers in (4, 64):
        assert (chunk_rows(600, workers), block_rows(600, 4096,
                                                     workers=workers),
                share(TILE_VALUES, workers)) == (54, 216, 2 ** 18)
    # a block keeps a whole chunk's rows where the received share allows:
    # two half chunks at n = 256, M = 64; one with 20 runs, which share one
    # received buffer
    assert (chunk_rows(256, 2), block_rows(256, 64, workers=2)) == (256, 512)
    assert (chunk_rows(600, 2), block_rows(600, 6, runs=20, workers=2)) \
        == (109, 109)


def test_two_workers_peak_no_higher_than_one(monkeypatch):
    # n = 600, M = 4096: a few blocks each way; the two workers' shares
    # hold what the one worker's budgets held
    ov = construct_overlay(600, LevelSet((0.0, 0.5)), 0.75,
                           counts_per_level=[64, 64], seed=7)
    code = inject_noise(make_random_gaussian_code(600, 4096, 1.0, seed=7),
                        ov, rho_delta=1.0, delta=0.1, seed=7)
    ch = ChannelParams(rho_dec=0.1)
    estimate(code, ch, "epsilon", 100, seed=1)   # builds the decode table
    monkeypatch.setattr(simulate, "_openblas", lambda: None)
    monkeypatch.setattr(simulate, "_cpus", lambda: 2)
    pools = PoolSpy(monkeypatch)

    def peak(threads):
        tracemalloc.start()
        try:
            report = estimate(code, ch, "epsilon", 3000, seed=1,
                              threads=threads)
            return tracemalloc.get_traced_memory()[1], report
        finally:
            tracemalloc.stop()

    (one, alone), (two, shared) = peak(1), peak(2)
    assert pools.workers == [1, 2]
    assert alone == shared
    assert two <= one + 2 ** 20, (one, two)


def test_a_decode_tile_is_a_positive_integer_and_changes_no_id(rng):
    code = make_random_gaussian_code(64, 40, 1.0, seed=3)
    ys = code.codewords[rng.integers(0, 40, 50)]
    ys += rng.standard_normal(ys.shape)
    want = code.decode_batch(ys)
    for tile in (1, 49, 50 * 7, 2 ** 20):
        assert np.array_equal(code.decode_batch(ys, tile=tile), want)
    for bad in (0, -5, 1.5, True):
        with pytest.raises(BaseCodeError, match="tile must be a positive"):
            code.decode_batch(ys, tile=bad)

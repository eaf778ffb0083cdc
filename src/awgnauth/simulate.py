"""Monte Carlo estimation of the operational measures.

Metrics
-------
``epsilon``             decode error under genuine transmission (rejection
                        counts as an error), messages uniform over the
                        valid set.
``false_alarm``         detector-only rejection rate among trials whose
                        base decode was correct (isolates the residual
                        tests from base-code errors).
``genuine_acceptance``  probability a fixed genuine message is decoded
                        and accepted (used for paired comparisons).
``alpha_star``          targeted false authentication: per ordered pair
                        (a, b) the adversary runs its optimal attack and
                        success means decoding exactly b; the report is
                        the enumerated pair of most successes, with its
                        own count and interval.  After the maximum that
                        interval covers less than stated (ROADMAP.md,
                        item 2), whatever ``max_is_lower_confidence_bound``
                        says.
``alpha``               any-message false authentication: same runs,
                        success means accepting anything other than a.

Trial ``t`` always reads slice ``t`` of the per-role counter streams,
so estimates are reproducible bit-for-bit regardless of block size or
thread count, and runs at different noise powers share randomness.

``estimate`` takes one metric name or a sequence of them at one point, a
(channel, attack) pair, and ``estimate_points`` at several.  A *run*
(``Run``) is an attack, its fixed transmit message (or messages drawn
per trial) and the channel it reads (an unattacked run reads no
``rho_adv``): the first three metrics share one run under no attack,
and ``alpha_star`` and ``alpha`` have one run per attack pair, the pairs
by ``estimate``'s rule.  ``check_request`` lists every rule that needs no
code, for the CLI too, and ``_check_run`` those of one run, for
``run_trial`` and every pair alike.

One call is one pass over blocks of trials that runs each distinct run
once: every run of every metric of every point reads the block's unit
streams, drawn once, and scales the draws it reads into its own rows, and
the runs that transmit one message share its encoding.  A block
(``streams.block_rows`` trials) goes in chunks of ``streams.chunk_rows(n)``
rows, whose n-wide arrays (draws, codewords, the encoder's scratch) stay
in cache: each chunk is drawn, encoded once per transmit message,
attacked and summed into the block's received rows, and each run is
decoded and detected as soon as its last chunk is summed.  A block of one
chunk keeps one buffer of received rows, which its runs take in turn, so
20 attack pairs hold one buffer, not 20.

``_run_blocks`` runs the blocks of ``estimate`` and of
``base_error_probability`` (a base code's decode error under AWGN) on
min(``threads`` x b, CPUs) workers, b being the BLAS thread count at the
call (``_BlasThreads``) and CPUs those the process may run on, each at
one BLAS thread (so the draws, encode and detect keep every core busy).
The calling thread builds the code's lazy tables (``_build_tables``),
then runs one worker, and a pool thread runs each other one.  Each pulls
its blocks from one shared iterator, so they finish in any order, into
one ``_Workspace`` of the arrays above, allocated once per call, with its
share of the budgets of ``streams``, so that memory does not grow with
the worker count (up to 4 workers).

Each trial falls in one of five cells (``_cells``): correct & accepted,
correct & rejected, target & accepted, other & accepted, wrong &
rejected.  Every metric is a sum of cells and every class a name per
cell.  Each block is reduced to its per-run cell counts as soon as it is
done, summed per worker and then over the workers, so a call holds no
per-trial array beyond each worker's block in hand, whatever the trial
count.  Per-trial rows exist only while a trial log is written: each
block's rows of each run are spooled once to a temporary file beside the
log and copied into it metric by metric, run by run and in trial order,
so the log reads as if each run had been written whole.

Every interval a report carries, per-pair ones included, is a Wilson
interval at ``reporting.CONFIDENCE`` (0.95); another level is
``reporting.wilson_interval(successes, trials, confidence)`` on a
report's counts.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import functools
import io
import itertools
import math
import os
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .adversary import (AttackSpec, mmse_attack_terms,
                        mmse_targeted_attack_batch, no_attack)
from .authcode import REJECT, AuthCode, auth_encode_batch, detect_batch
from .basecode import BaseCode, BaseCodeError
from .overlay import OverlayCode
from .reporting import EstimateReport, wilson_interval
from .streams import (TILE_VALUES, Role, block_rows, check_ids, check_int,
                      check_reals, choices, chunk_rows, draw_buffer, normals,
                      one_shot_rng, share)

METRICS = ("epsilon", "false_alarm", "genuine_acceptance", "alpha_star", "alpha")
FALSE_AUTH_METRICS = ("alpha_star", "alpha")
MIN_TRIALS = 100   # the fewest trials an estimate runs
MAX_PAIRS = 20   # the attack pairs an estimate enumerates at most, by default
NO_ATTACK = AttackSpec("none")   # ``estimate``'s attack unless one is given

CLASS_CORRECT = "correct"
CLASS_MISS = "miss"
CLASS_WRONG_MESSAGE = "wrong-message"
CLASS_CORRECT_REJECT = "correct-reject"
CLASS_FALSE_AUTH_TARGET = "false-auth-target"
CLASS_FALSE_AUTH_OTHER = "false-auth-other"


class SimulateError(ValueError):
    pass


@dataclass(frozen=True)
class ChannelParams:
    """Decoder- and adversary-side noise powers, optional power budget; the
    decoder always sees noise (``rho_dec`` > 0)."""

    rho_dec: float
    rho_adv: float = 0.0
    power_budget: float | None = None

    def __post_init__(self) -> None:
        check_reals(SimulateError, domain="positive", rho_dec=self.rho_dec)
        check_reals(SimulateError, rho_adv=self.rho_adv)
        if self.power_budget is not None:
            check_reals(SimulateError, domain="positive",
                         power_budget=self.power_budget)


@dataclass(frozen=True)
class TrialOutcome:
    trial: int
    transmitted: int
    decoded: int | str
    classification: str


# A trial's cell, by its decode (the transmit message, the run's target or
# another) and the verdict: 0 correct & accepted, 1 correct & rejected,
# 2 target & accepted, 3 other & accepted, 4 wrong & rejected.
_CELLS = 5
# each metric's success cells; false_alarm's trials are the correct cells
_SUCCESSES = {"epsilon": [1, 2, 3, 4], "false_alarm": [1],
              "genuine_acceptance": [0], "alpha_star": [2], "alpha": [2, 3]}
_CORRECT = [0, 1]
# each cell's class under no attack (row 0) and under an attack (row 1)
_CLASSES = np.array([
    [CLASS_CORRECT, CLASS_MISS, CLASS_WRONG_MESSAGE, CLASS_WRONG_MESSAGE,
     CLASS_MISS],
    [CLASS_CORRECT, CLASS_CORRECT_REJECT, CLASS_FALSE_AUTH_TARGET,
     CLASS_FALSE_AUTH_OTHER, CLASS_CORRECT_REJECT]], dtype=object)


def _cells(spec: AttackSpec, ms: np.ndarray, dec: np.ndarray,
           rej: np.ndarray) -> np.ndarray:
    """Each trial's cell from its transmit message, decode and rejection."""
    wrong = dec != ms
    cells = 3 * wrong + rej
    if spec.target is not None:   # other & accepted to target & accepted
        cells -= wrong & ~rej & (dec == spec.target)
    return cells


def classify(attack: AttackSpec, transmitted: int,
             decoded: int | str) -> str:
    rejected = decoded == REJECT
    [cell] = _cells(attack, np.array([transmitted]), np.array(
        [transmitted if rejected else decoded]), np.array([rejected]))
    return _CLASSES[int(attack.kind != "none"), cell]


def _transmit_pool(code: AuthCode) -> np.ndarray:
    if code.decimated is not None:
        return np.fromiter(sorted(code.decimated), dtype=np.int64)
    return code.base.non_null_ids


class Run(NamedTuple):
    """An attack, its fixed transmit message (None: drawn per trial) and
    the channel it reads: an unattacked run reads no ``rho_adv`` (it
    holds 0), and no run reads the power budget, which its call checks."""

    spec: AttackSpec
    message: int | None
    channel: ChannelParams


Result = tuple[np.ndarray, np.ndarray, np.ndarray]
AttackTerms = tuple[np.ndarray, np.ndarray, np.ndarray]


def _attack_terms(code: AuthCode,
                  runs: Sequence[Run]) -> list[AttackTerms | None]:
    """The MMSE attack constants of each attacked run, once per run; the
    runs of one (transmit, target) pair share its shift and mean."""
    out: list[AttackTerms | None] = []
    pairs: dict[tuple[Any, Any], list[np.ndarray]] = {}   # shift, mean
    for spec, m, channel in runs:
        if spec.kind in ("targeted", "impersonation"):
            *means, w = mmse_attack_terms(code, m, spec.target,
                                          channel.rho_adv, spec.weight_scale)
            out.append((*pairs.setdefault((m, spec.target), means), w))
        else:
            out.append(None)
    return out


class _Workspace:
    """The arrays that one worker's blocks of ``runs`` read (a base code's
    trials, with no runs, read only the DECODER draws and the received
    rows), allocated once per call and reused by every block the worker
    runs: a chunk's n-wide arrays (the DELTA, ADVERSARY (attacked runs
    only) and DECODER draws, the codewords and the encoder's scratch; a
    chunk of k rows uses their first k) and a block's received rows, one
    buffer per run or, in a block of one chunk, one that the runs take in
    turn.  Chunks and the decode's tiles take a worker's share of their
    budgets, of ``workers`` workers."""

    def __init__(self, n: int, block: int, runs: Sequence[Run],
                 workers: int = 1):
        self.rows = rows = min(chunk_rows(n, workers), block)
        self.tile = share(TILE_VALUES, workers)
        attacked = any(run.spec.kind != "none" for run in runs)
        self.draws = {role: draw_buffer(rows, n) for role, read in (
            (Role.DELTA, runs), (Role.ADVERSARY, attacked),
            (Role.DECODER, True)) if read}
        self.codewords, self.scratch = (np.empty((rows if runs else 0, n))
                                        for _ in range(2))
        self.received = np.empty((1 if block <= rows else max(1, len(runs)),
                                  block, n))


def _simulate_block(code: AuthCode, seed: int, t0: int, b: int,
                    runs: Sequence[Run], terms: Sequence[AttackTerms | None],
                    ws: _Workspace, *, detector: bool,
                    pool: np.ndarray | None = None) -> list[Result]:
    """(transmitted, base_decoded, rejected) of trials [t0, t0+b) for each
    run.  The block goes in chunks of the workspace's rows: each chunk's
    unit streams are drawn once and each transmit message is encoded
    once, for the runs that transmit it in turn.  Each run sums its
    received rows (run i in the workspace's received buffer i, modulo
    their count) and scales the unit draws it reads into arrays it owns
    for the chunk: the ADVERSARY draws into its received rows, where the
    attack observes and writes z, and the DECODER draws into the
    encoder's scratch.  Each run is decoded and detected as soon as its
    last chunk is summed.  ``terms`` are the runs' ``_attack_terms`` and
    ``pool`` is the transmit pool of the runs without a fixed message.
    Every array is a row prefix of ``ws``; the results are new arrays,
    which outlive the block."""
    n, chunk = code.n, ws.rows
    by_message: dict[int | None, list[int]] = {}   # run indices
    for i, run in enumerate(runs):
        by_message.setdefault(run.message, []).append(i)
    drawn_ms = (None if pool is None
                else pool[choices(seed, Role.MESSAGE, t0, b, pool.size)])
    block_ms = {m: drawn_ms if m is None else np.full(b, m, np.int64)
                for m in by_message}
    out: list[Any] = [None] * len(runs)   # each run's Result, in run order
    for c0 in range(0, b, chunk):
        k = min(chunk, b - c0)
        draws = {role: normals(seed, role, t0 + c0, k, n, out=buf[:k])
                 for role, buf in ws.draws.items()}
        xs, scratch = ws.codewords[:k], ws.scratch[:k]
        for fixed_m, indices in by_message.items():
            ms = block_ms[fixed_m][c0:c0 + k]
            for i in indices:
                (spec, _, channel), run_terms = runs[i], terms[i]
                received = ws.received[i % len(ws.received), :b]
                ys = received[c0:c0 + k]
                if i == indices[0]:   # its rows take the encoder's gathered f
                    auth_encode_batch(code, ms, draws[Role.DELTA],
                                      out=(xs, scratch, ys))
                if spec.kind == "none":
                    zs = no_attack(n)
                else:
                    # the attack observes, and writes z, in the received rows
                    vs = np.multiply(draws[Role.ADVERSARY],
                                     math.sqrt(channel.rho_adv), out=ys)
                    vs += xs
                    zs = mmse_targeted_attack_batch(vs, run_terms, out=ys)
                np.add(xs, zs, out=ys)
                ys += np.multiply(draws[Role.DECODER],
                                  math.sqrt(channel.rho_dec), out=scratch)
                if c0 + k == b:   # the run's rows are complete
                    base_decoded = code.base.decode_batch(received,
                                                          tile=ws.tile)
                    out[i] = (block_ms[fixed_m], base_decoded, detect_batch(
                        code, received, base_decoded, channel.rho_dec,
                        detector=detector))
    return out


def run_trial(code: AuthCode, channel: ChannelParams, attack: AttackSpec,
              m: int, seed: int, trial_index: int = 0) -> TrialOutcome:
    """A single trial of the run of ``attack`` from ``m``, any run that
    ``estimate`` runs, identical to row ``trial_index`` of a batched run."""
    check_int("seed", seed, SimulateError, 0)
    check_int("trial_index", trial_index, SimulateError, 0)
    _check_budget(code, channel)
    _check_messages(code, "m", [m])
    runs = [_check_run(code, attack, m, channel)]
    [(_, base_decoded, rejected)] = _simulate_block(
        code, seed, trial_index, 1, runs, _attack_terms(code, runs),
        _Workspace(code.n, 1, runs), detector=True)
    decoded: int | str = REJECT if rejected[0] else int(base_decoded[0])
    return TrialOutcome(trial_index, int(m), decoded,
                        classify(attack, int(m), decoded))


def _check_messages(code: AuthCode, name: str, ids: Iterable[Any]) -> None:
    for m in ids:
        check_ids(name, m, code.message_count, SimulateError)
        if not code.is_valid_message(m):
            raise SimulateError(f"{m!r} is not a valid message of this code")


def _check_run(code: AuthCode, spec: AttackSpec, m: int,
               channel: ChannelParams) -> Run:
    """The run of ``spec`` from ``m`` on what it reads of ``channel``, if
    the target is a valid message other than ``m`` and impersonation
    transmits the null message."""
    if not isinstance(spec, AttackSpec):
        raise SimulateError(f"attack must be an AttackSpec, not {spec!r}")
    _check_messages(code, "attack target",
                    [] if spec.target is None else [spec.target])
    if spec.target == m:
        raise SimulateError(f"run ({m}, {spec.target}): the target must "
                            "differ from the transmitted message")
    if spec.kind == "impersonation" and m != code.base.null_id:
        raise SimulateError("impersonation transmits the null message; " + (
            "this code has no null message" if code.base.null_id is None
            else f"{m} is not the null message of this code"))
    return Run(spec, m, ChannelParams(
        channel.rho_dec, 0.0 if spec.kind == "none" else channel.rho_adv))


def _pinned(attack: AttackSpec, message: int | None) -> bool:
    return attack.target is not None and (
        message is not None or attack.kind == "impersonation")


def check_request(error: type[Exception], metrics: Sequence[str],
                  points: Sequence[tuple[ChannelParams, AttackSpec]], *,
                  message: int | None = None,
                  pairs: Sequence[tuple[int, int]] | None = None,
                  max_pairs: int = MAX_PAIRS,
                  trial_log: str | None = None) -> None:
    """Raise ``error`` unless the request keeps each rule that needs no
    code (a false-auth metric is ``alpha_star`` or ``alpha``):

    - the metrics are known, one at least;
    - ``genuine_acceptance`` has a ``message``;
    - each point is a (``ChannelParams``, ``AttackSpec``) pair, one at least;
    - an attack (not none) or a ``weight_scale`` needs a false-auth metric;
    - ``rho_adv`` > 0 under a false-auth metric;
    - ``pairs`` only under a false-auth metric;
    - ``max_pairs`` is a positive integer, other than ``MAX_PAIRS`` only
      where pairs are enumerated: under a false-auth metric, without
      ``pairs``, at a target that neither ``message`` nor impersonation pins;
    - a ``trial_log`` names a file in an existing directory, for one point."""
    if not metrics:
        raise error("no metric requested")
    for name in metrics:
        if name not in METRICS:
            raise error(f"unknown metric {name!r}; choose from {METRICS}")
    if "genuine_acceptance" in metrics and message is None:
        raise error("genuine_acceptance needs a fixed message")
    false_auth = bool(set(metrics) & set(FALSE_AUTH_METRICS))
    if not points:
        raise error("no point to estimate")
    for point in points:
        if not (isinstance(point, tuple) and len(point) == 2
                and isinstance(point[0], ChannelParams)):
            raise error("each point must be a (ChannelParams, AttackSpec) "
                        f"pair, not {point!r}")
        channel, attack = point
        if not isinstance(attack, AttackSpec):
            raise error(f"attack must be an AttackSpec, not {attack!r}")
        if attack != NO_ATTACK and not false_auth:
            raise error(f"{metrics[0]} is defined under no attack; an attack "
                        "or a weight_scale needs alpha_star or alpha")
        if false_auth and channel.rho_adv <= 0.0:
            raise error("false-authentication metrics need rho_adv > 0")
    if pairs is not None and not false_auth:
        raise error("pairs are read only where alpha_star or alpha runs the "
                    "attack pairs")
    check_int("max_pairs", max_pairs, error)
    if max_pairs != MAX_PAIRS and (not false_auth or pairs is not None or all(
            _pinned(attack, message) for _, attack in points)):
        raise error("max_pairs is read only where alpha_star or alpha "
                    "enumerates the attack pairs")
    if trial_log and len(points) > 1:
        raise error("a trial_log has no point column; give one point")
    if trial_log and (os.path.isdir(trial_log) or not os.path.isdir(
            os.path.dirname(os.path.abspath(trial_log)))):
        raise error(f"trial_log {str(trial_log)!r} must name a file in an "
                    "existing directory")


def _check_budget(code: AuthCode, channel: ChannelParams) -> None:
    if channel.power_budget is not None and code.power > channel.power_budget:
        raise SimulateError(
            f"code power {code.power:.6g} exceeds the budget "
            f"{channel.power_budget:.6g}")


def _count(runs: Sequence[Run], results: Sequence[Result]) -> np.ndarray:
    """The cell counts, a row per run, of one block's results."""
    return np.array([np.bincount(_cells(run.spec, *result), minlength=_CELLS)
                     for run, result in zip(runs, results)],
                    np.int64).reshape(-1, _CELLS)


# the getter and setter of the thread count of numpy's bundled OpenBLAS
_OPENBLAS_THREADS = ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_set_num_threads64_")


@functools.cache
def _openblas() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The BLAS thread count's getter and setter, found once through
    ``ctypes`` in the OpenBLAS that numpy's wheel bundles (``numpy.libs``,
    or ``numpy/.dylibs``); None where no such library exports both."""
    root = Path(np.__file__).parent
    for path in sorted([*root.parent.glob("numpy.libs/*openblas*"),
                        *root.glob(".dylibs/*openblas*")]):
        try:
            lib = ctypes.CDLL(str(path))   # numpy's copy, already loaded
            get, put = (getattr(lib, name) for name in _OPENBLAS_THREADS)
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


class _BlasThreads:
    """The process's BLAS thread count b, set to 1 while any call runs its
    blocks: the first call to enter reads b and sets 1, the last
    to leave restores b, also when it leaves by an exception, and every
    call in between reads that same b, not the 1 set for the others.
    Without the OpenBLAS symbols b is 1 and BLAS is left alone."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.calls = 0   # calls inside
        self.outside = 1   # b, as the first call inside found it

    @contextlib.contextmanager
    def one_each(self) -> Iterator[int]:
        """Yield b, with BLAS at one thread until the block exits."""
        blas = _openblas()
        if blas is None:
            yield 1
            return
        get, put = blas
        with self.lock:
            if not self.calls:
                self.outside = get()
                put(1)
            self.calls += 1
            outside = self.outside
        try:
            yield outside
        finally:
            with self.lock:
                self.calls -= 1
                if not self.calls:
                    put(self.outside)


_BLAS = _BlasThreads()


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # not on every platform
        return os.cpu_count() or 1


def _build_tables(base: BaseCode, overlay: OverlayCode | None = None) -> None:
    """Build on the calling thread the lazy tables that workers read, as
    ``cached_property`` takes no lock on Python 3.12."""
    for name in ("_squares", "_half_norms", "_screen"):   # the decode's
        getattr(base, name)
    if overlay is not None:   # the detector's
        getattr(overlay, "tested")


def _run_blocks(code: BaseCode, trials: int, shape: tuple[int, ...],
                step: Callable[[_Workspace, int, int], np.ndarray | int], *,
                overlay: OverlayCode | None = None, threads: int = 1,
                runs: Sequence[Run] = ()) -> np.ndarray:
    """The sum of ``step(ws, t0, b)``, int64 counters of ``shape``, over
    the blocks [t0, t0+b) of ``block_rows`` trials, run by workers with a
    ``_Workspace`` of ``runs`` each, once the lazy tables of ``code`` and
    ``overlay`` are built (see the module docstring); a block that raises
    stops the other workers at their next block, and its error reaches
    the caller."""
    _build_tables(code, overlay)
    with _BLAS.one_each() as blas:
        workers = min(threads * blas, _cpus())
        block = block_rows(code.n, code.message_count, runs=max(1, len(runs)),
                           workers=workers)
        blocks = range(0, trials, block)   # each block's first trial
        starts, lock, stop = iter(blocks), threading.Lock(), threading.Event()

        def work(ws: _Workspace) -> np.ndarray:
            """Count blocks pulled from ``starts`` into new counters."""
            counts = np.zeros(shape, np.int64)
            try:
                while not stop.is_set():
                    with lock:
                        t0 = next(starts, None)
                    if t0 is None:
                        break
                    counts += step(ws, t0, min(block, trials - t0))
            finally:   # no blocks are left, or this one failed
                stop.set()
            return counts

        # every workspace is allocated here and the first worker runs here,
        # so they reuse memory the caller freed, where a pool thread's own
        # malloc arena takes fresh pages; the pool starts w - 1 threads
        spaces = [_Workspace(code.n, min(block, trials), runs, workers)
                  for _ in range(min(workers, len(blocks)))]
        with ThreadPoolExecutor(max_workers=len(spaces)) as executor:
            try:   # map submits the others before this thread runs one
                return sum(executor.map(work, spaces[1:]), work(spaces[0]))
            finally:
                stop.set()   # also when the caller leaves early


def _run_counting(code: AuthCode, seed: int, trials: int,
                  runs: Sequence[Run], *, detector: bool, threads: int,
                  log: _TrialLog | None = None) -> np.ndarray:
    """The cell counts, a row per run, of every run, all runs in one pass
    of ``_run_blocks``; ``log``, when given, spools each block's results."""
    pool = _transmit_pool(code) if any(
        run.message is None for run in runs) else None
    terms = _attack_terms(code, runs)

    def step(ws: _Workspace, t0: int, b: int) -> np.ndarray:
        results = _simulate_block(code, seed, t0, b, runs, terms, ws,
                                  detector=detector, pool=pool)
        if log is not None:
            log.add(t0, results)
        return _count(runs, results)

    return _run_blocks(code.base, trials, (len(runs), _CELLS), step,
                       overlay=code.overlay if detector else None,
                       threads=threads, runs=runs)


def _base_errors(code: BaseCode, pool: np.ndarray, scale: float, seed: int,
                 ws: _Workspace, t0: int, b: int) -> int:
    """The decode errors of base-code trials [t0, t0+b): codewords of
    messages drawn from ``pool`` plus DECODER draws times ``scale``, summed
    chunk by chunk into the received rows of ``ws``, then decoded."""
    ms = pool[choices(seed, Role.MESSAGE, t0, b, pool.size)]
    ys, chunk = ws.received[0, :b], ws.rows
    for c0 in range(0, b, chunk):
        k = min(chunk, b - c0)
        noise = normals(seed, Role.DECODER, t0 + c0, k, code.n,
                        out=ws.draws[Role.DECODER][:k])
        noise *= scale
        # mode="clip" gathers in place (the default copies); ids are valid
        np.take(code.codewords, ms[c0:c0 + k], axis=0, out=ys[c0:c0 + k],
                mode="clip")
        ys[c0:c0 + k] += noise
    return np.count_nonzero(code.decode_batch(ys, tile=ws.tile) != ms)


def base_error_probability(code: BaseCode, rho_dec: float, trials: int,
                           seed: int = 0) -> EstimateReport:
    """Monte Carlo block-error rate of a base code under AWGN of variance
    rho_dec with messages drawn uniformly from the non-null messages (the
    arithmetic-mean error criterion).

    Channel noise is the DECODER role's unit normals scaled by
    sqrt(rho_dec), so estimates at different rho_dec values share
    randomness and are pointwise monotone.  The blocks run on
    ``estimate``'s workers at its default ``threads``."""
    check_int("trials", trials, BaseCodeError, MIN_TRIALS)
    check_int("seed", seed, BaseCodeError, 0)
    check_reals(BaseCodeError, domain="positive", rho_dec=rho_dec)
    pool = code.non_null_ids
    if not pool.size:
        raise BaseCodeError("the code has no message to transmit but the "
                            "null message")
    errors = _run_blocks(code, trials, (), functools.partial(
        _base_errors, code, pool, math.sqrt(rho_dec), seed))
    return EstimateReport(
        metric="base_error", successes=int(errors), trials=trials, seed=seed,
        params={"rho_dec": rho_dec, "n": code.n,
                "message_count": code.message_count})


TRIAL_LOG_HEADER = ["metric", "trial", "transmitted", "target", "decoded",
                    "classification"]


def _csv_bytes(rows: Iterable[Sequence[Any]]) -> bytes:
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    return text.getvalue().encode()


class _TrialLog:
    """The trial log of one ``estimate`` call: one CSV row per trial of
    each (metric, run), all of a metric's rows after those of the metrics
    before it and each run's rows after those of the runs before it, in
    trial order.  Blocks arrive in any order, so each run's rows of each
    block are spooled once, without the metric, into one temporary file
    beside the log, and ``write`` copies a metric's rows out sorted by
    trial, each headed by the metric; only one block's rows per worker
    are ever held in memory.  ``target`` is empty for runs without an
    attack target, and a new or empty log gets the header."""

    def __init__(self, path: str, runs: Sequence[Run]):
        self.path = path
        self.runs = runs
        # per run: its spooled (first trial, offset, size)s
        self.spooled: list[list[tuple[int, int, int]]] = [[] for _ in runs]
        self.spool = tempfile.TemporaryFile(
            dir=os.path.dirname(os.path.abspath(path)))
        self.close = self.spool.close
        self.lock = threading.Lock()   # workers add their blocks in turn

    def add(self, t0: int, results: Sequence[Result]) -> None:
        for (spec, *_), (ms, dec, rej), segments in zip(self.runs, results,
                                                         self.spooled):
            decoded = dec.astype(object)
            decoded[rej] = REJECT
            data = _csv_bytes(zip(
                range(t0, t0 + ms.size), ms.tolist(),
                itertools.repeat("" if spec.target is None else spec.target),
                decoded.tolist(), _CLASSES[int(spec.kind != "none"), _cells(
                    spec, ms, dec, rej)].tolist()))
            with self.lock:
                segments.append((t0, self.spool.tell(), len(data)))
                self.spool.write(data)

    def write(self, name: str, indices: Sequence[int]) -> None:
        """Append the rows of metric ``name``, of the runs at ``indices``."""
        head = f"{name},".encode()
        with open(self.path, "ab") as fh:
            if fh.tell() == 0:
                fh.write(_csv_bytes([TRIAL_LOG_HEADER]))
            for i in indices:
                for _, offset, size in sorted(self.spooled[i]):
                    self.spool.seek(offset)
                    fh.writelines(head + row for row in self.spool.read(
                        size).splitlines(keepends=True))


def _attack_runs(code: AuthCode, channel: ChannelParams, attack: AttackSpec,
                 message: int | None, pairs: Sequence[tuple[int, int]] | None,
                 max_pairs: int, seed: int) -> list[Run]:
    """One run per (transmit, target) pair on ``channel``, ``attack`` aimed
    at the target (targeted when none), the pairs by ``estimate``'s rule."""
    if message is None and attack.kind == "impersonation":
        message = code.base.null_id   # None on a code without one
    if pairs is None and message is not None and _pinned(attack, message):
        pairs = [(message, attack.target)]
    if pairs is None:
        pool = [int(m) for m in _transmit_pool(code)]
        sources = pool if message is None else [message]
        targets = pool if attack.target is None else [attack.target]
        pairs = [(a, b) for a in sources for b in targets if a != b]
        if len(pairs) > max_pairs:
            rng = one_shot_rng(seed, Role.MESSAGE, 1)
            keep = rng.choice(len(pairs), size=max_pairs, replace=False)
            pairs = [pairs[int(i)] for i in sorted(keep)]
    if not pairs:
        raise SimulateError("no attack pairs to run")
    kind = "targeted" if attack.kind == "none" else attack.kind
    return [_check_run(code, replace(attack, kind=kind, target=b), a, channel)
            for a, b in pairs]


def _report(metric: str, runs: Sequence[Run], counts: np.ndarray, *,
            trials: int, seed: int, message: int | None,
            params: dict[str, Any]) -> EstimateReport:
    """One metric's report from the cell counts, a row per run, of its
    runs; ``params`` holds the entries that every metric reports."""
    params = dict(params)
    detail: dict[str, Any] = {}
    per_run = counts[:, _SUCCESSES[metric]].sum(axis=1).tolist()
    successes, eff_trials = per_run[0], trials
    if metric == "false_alarm":   # rejected among the correctly decoded
        eff_trials = int(counts[0, _CORRECT].sum())
        params["raw_trials"] = trials
        if eff_trials == 0:
            raise SimulateError("no correctly decoded trials to condition on")
    elif metric == "genuine_acceptance":   # the run transmits ``message``
        params["message"] = message
    elif metric in FALSE_AUTH_METRICS:
        per_pair = []
        for (spec, a, _), succ in zip(runs, per_run):
            lo, hi = wilson_interval(succ, trials)
            per_pair.append({"transmit": a, "target": spec.target,
                             "successes": succ, "trials": trials,
                             "estimate": succ / trials,
                             "ci_lo": lo, "ci_hi": hi})
        best = max(per_pair, key=lambda p: p["successes"])
        successes = best["successes"]
        params.update({"pairs": len(per_pair),
                       "argmax_pair": [best["transmit"], best["target"]],
                       "max_is_lower_confidence_bound": True})
        detail = {"per_pair": per_pair}
    return EstimateReport(metric=metric, successes=successes,
                          trials=eff_trials, seed=seed, params=params,
                          detail=detail)


def estimate(code: AuthCode, channel: ChannelParams,
             metric: str | Sequence[str], trials: int, seed: int = 0, *,
             attack: AttackSpec = NO_ATTACK, message: int | None = None,
             pairs: Sequence[tuple[int, int]] | None = None,
             max_pairs: int = MAX_PAIRS, detector: bool = True,
             threads: int = 1, trial_log: str | None = None
             ) -> EstimateReport | list[EstimateReport]:
    """Estimate one operational measure, or a sequence of them: one name
    gives one report, a sequence one report per name, in order, from one
    pass over the blocks (see the module docstring).  ``message``
    transmits in every run that ``pairs`` does not pin.  ``pairs`` (a
    sequence or an integer array) pins the (transmit, target) pairs of
    ``alpha_star`` and ``alpha``; otherwise every ordered pair (from
    ``message``, or else from the null message under impersonation, to
    the attack's target) is enumerated and subsampled to ``max_pairs``.
    Each pair runs ``attack`` aimed at its target, so its ``weight_scale``
    reaches every pair (``NO_ATTACK``: the targeted MMSE attack).  The
    request passes ``check_request``, every id is a valid message of
    ``code`` and every pair passes ``_check_run``.  ``trial_log`` appends
    one CSV row per simulated trial to that file, metric by metric.
    ``threads`` times the BLAS thread count, at most the CPUs, is the
    number of block workers; no count depends on it."""
    return estimate_points(
        code, [(channel, attack)], metric, trials, seed, message=message,
        pairs=pairs, max_pairs=max_pairs, detector=detector, threads=threads,
        trial_log=trial_log)[0]


def estimate_points(code: AuthCode,
                    points: Sequence[tuple[ChannelParams, AttackSpec]],
                    metric: str | Sequence[str], trials: int, seed: int = 0,
                    *, message: int | None = None,
                    pairs: Sequence[tuple[int, int]] | None = None,
                    max_pairs: int = MAX_PAIRS, detector: bool = True,
                    threads: int = 1, trial_log: str | None = None
                    ) -> list[EstimateReport | list[EstimateReport]]:
    """What ``estimate`` returns at each point's (channel, attack), from one
    pass that runs each distinct run of every point once, on the same draws:
    the genuine run of points that differ only in ``rho_adv`` runs once."""
    metrics = [metric] if isinstance(metric, str) else list(metric)
    check_request(SimulateError, metrics, points, message=message,
                  pairs=pairs, max_pairs=max_pairs, trial_log=trial_log)
    check_int("trials", trials, SimulateError, MIN_TRIALS)
    check_int("seed", seed, SimulateError, 0)
    check_int("threads", threads, SimulateError)
    _check_messages(code, "message", [] if message is None else [message])
    if pairs is not None:
        checked = []
        for pair in pairs:
            try:
                a, b = pair
            except (TypeError, ValueError):
                raise SimulateError("each entry of pairs must be a (transmit,"
                                    f" target) pair, not {pair!r}") from None
            _check_messages(code, "pairs", [a, b])
            checked.append((int(a), int(b)))
        pairs = checked

    # one pass over the distinct runs of every metric of every point
    index: dict[Run, int] = {}
    runs_of: list[list[tuple[str, list[int]]]] = []   # per point and metric
    false_auth = bool(set(metrics) & set(FALSE_AUTH_METRICS))
    for channel, attack in points:
        _check_budget(code, channel)
        genuine = [Run(NO_ATTACK, message, ChannelParams(channel.rho_dec))]
        pair_runs = _attack_runs(code, channel, attack, message, pairs,
                                 max_pairs, seed) if false_auth else []
        runs_of.append([(name, [
            index.setdefault(run, len(index)) for run in (
                pair_runs if name in FALSE_AUTH_METRICS else genuine)])
            for name in metrics])
    if message is None and not set(metrics) <= set(FALSE_AUTH_METRICS) \
            and not _transmit_pool(code).size:
        raise SimulateError("the code has no message to transmit but the "
                            "null message")
    runs = list(index)

    out = []
    with (contextlib.closing(_TrialLog(trial_log, runs))
          if trial_log else contextlib.nullcontext()) as log:
        counts = _run_counting(code, seed, trials, runs, detector=detector,
                               threads=threads, log=log)
        for (channel, _), point in zip(points, runs_of):
            params: dict[str, Any] = {
                "rho_dec": channel.rho_dec, "rho_adv": channel.rho_adv,
                "n": code.n, "ell": code.ell, "delta": code.delta,
                "rho_delta": code.rho_delta, "detector": detector}
            reports = []
            for name, indices in point:
                if log is not None:
                    log.write(name, indices)
                reports.append(_report(
                    name, [runs[i] for i in indices], counts[indices],
                    trials=trials, seed=seed, message=message,
                    params=params))
            out.append(reports[0] if isinstance(metric, str) else reports)
    return out

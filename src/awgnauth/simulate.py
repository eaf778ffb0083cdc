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
                        success means decoding exactly b; the reported
                        point is the max over enumerated pairs (a lower
                        confidence bound on the true maximum).
``alpha``               any-message false authentication: same runs,
                        success means accepting anything other than a.

Trial ``t`` always reads slice ``t`` of the per-role counter streams,
so estimates are reproducible bit-for-bit regardless of batch size or
thread count, and runs at different noise powers share randomness.

``estimate`` takes one metric name or a sequence of them.  A *run* is an
attack with its fixed transmit message (or messages drawn per trial):
the first three metrics share one run under no attack, at ``message``
if given; ``alpha_star`` and ``alpha`` share one run per attack pair,
set by ``attack``, ``pairs`` and ``max_pairs``.  Each pair's spec is
``attack`` aimed at the pair's target, so its ``weight_scale`` reaches
every pair, and the default ``NO_ATTACK`` gives the targeted MMSE
attack.  ``_check_run`` is the one check of a run, for ``run_trial``
and for every pair alike, and raises ``SimulateError``: the target is a
valid message other than the transmit message, impersonation transmits
the null message, and a custom attack runs only through ``run_trial``.

One call is one pass over blocks of trials that runs each distinct run
once: every block's streams are drawn once and every run of every metric
reads those draws, and runs that transmit the same fixed message share
its encoding.
Unless ``batch`` is given, a block has as many rows as keep its n-wide
arrays (draws, codewords, received rows) at 2**17 float64s, 1 MiB, so
that they stay in cache, and its decode scores (one per message) at
2**22 (``streams.block_rows``).  Each worker thread allocates those
n-wide arrays once per call, in a ``_Workspace``, and every block it runs
draws, encodes, attacks and sums into them; the workspace is dropped
when the call returns.

Each block is reduced to four counters per run as soon as it is done:
trials decoded correctly and accepted, decoded correctly, decoded wrongly
and accepted, and decoded to the run's target and accepted.  Every
metric follows from these counts, so a call holds no per-trial array
beyond the block in hand, whatever the trial count; on several threads
at most ``2 * threads`` blocks are in flight.  Per-trial rows exist only
while a trial log is written: each block's rows are spooled to a
temporary file beside the log and copied into it metric by metric and
run by run, so the log reads as if each run had been written whole.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import math
import os
import tempfile
import threading
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from .adversary import (AttackSpec, mmse_attack_terms,
                        mmse_targeted_attack_batch, no_attack)
from .authcode import REJECT, AuthCode, auth_encode_batch, detect_batch
from .reporting import EstimateReport, binomial_se, wilson_interval  # noqa: F401
from .streams import (Role, block_rows, check_ids, check_int, check_reals,
                      choices, draw_buffer, normals, one_shot_rng)

METRICS = ("epsilon", "false_alarm", "genuine_acceptance", "alpha_star", "alpha")
FALSE_AUTH_METRICS = ("alpha_star", "alpha")
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
    """Decoder- and adversary-side noise powers, optional power budget."""

    rho_dec: float
    rho_adv: float = 0.0
    power_budget: float | None = None

    def __post_init__(self) -> None:
        # rho_dec = 0 is allowed as a noiseless-pipe diagnostic for single
        # trials; the estimators require a positive value.
        check_reals(SimulateError, rho_dec=self.rho_dec, rho_adv=self.rho_adv)
        if self.power_budget is not None:
            check_reals(SimulateError, positive=True,
                         power_budget=self.power_budget)


@dataclass(frozen=True)
class TrialOutcome:
    trial: int
    transmitted: int
    decoded: int | str
    classification: str


def classify(attack: AttackSpec, transmitted: int,
             decoded: int | str) -> str:
    attacked = attack.kind != "none"
    if decoded == REJECT:
        return CLASS_CORRECT_REJECT if attacked else CLASS_MISS
    if decoded == transmitted:
        return CLASS_CORRECT
    if not attacked:
        return CLASS_WRONG_MESSAGE
    if attack.target is not None and decoded == attack.target:
        return CLASS_FALSE_AUTH_TARGET
    return CLASS_FALSE_AUTH_OTHER


def _transmit_pool(code: AuthCode) -> np.ndarray:
    if code.decimated is not None:
        return np.fromiter(sorted(code.decimated), dtype=np.int64)
    return code.base.non_null_ids


# A run is an attack and its fixed transmit message (None: drawn per trial).
Run = tuple[AttackSpec, int | None]
Result = tuple[np.ndarray, np.ndarray, np.ndarray]
AttackTerms = tuple[np.ndarray, np.ndarray, np.ndarray]

# A run's counters: column i of a (runs, 4) count array.
CORRECT_ACCEPTED, CORRECT, WRONG_ACCEPTED, TARGET_ACCEPTED = range(4)


def _attack_terms(code: AuthCode, channel: ChannelParams,
                  runs: Sequence[Run]) -> list[AttackTerms | None]:
    """The MMSE attack constants of each attacked run, once per run."""
    return [mmse_attack_terms(code, m, spec.target, channel.rho_adv,
                              spec.weight_scale)
            if spec.kind in ("targeted", "impersonation") else None
            for spec, m in runs]


class _Workspace:
    """The n-wide arrays of one worker's blocks, allocated once per
    ``estimate`` call and reused by every block the worker runs: the
    DELTA, ADVERSARY (attacked runs only) and DECODER draws, the
    codewords, the encoder's scratch and the received rows.  A block of
    ``b`` rows uses the first ``b`` rows of each."""

    def __init__(self, n: int, rows: int, attacked: bool):
        self.delta = draw_buffer(rows, n)
        self.adversary = draw_buffer(rows, n) if attacked else None
        self.decoder = draw_buffer(rows, n)
        self.codewords, self.scratch, self.received = (
            np.empty((rows, n)) for _ in range(3))


def _simulate_block(code: AuthCode, channel: ChannelParams, seed: int,
                    t0: int, b: int, runs: Sequence[Run],
                    terms: Sequence[AttackTerms | None], ws: _Workspace, *,
                    detector: bool,
                    pool: np.ndarray | None = None) -> list[Result]:
    """(transmitted, base_decoded, rejected) of trials [t0, t0+b) for each
    run.  The block's streams are drawn, and its channel noises scaled,
    once, and every run reads them; ``terms`` are the runs'
    ``_attack_terms`` and ``pool`` is the transmit pool of the runs
    without a fixed message.  Every n-wide array is a row prefix of
    ``ws``; the results are new arrays, which outlive the block."""
    n = code.n
    drawn_ms = (None if pool is None
                else pool[choices(seed, Role.MESSAGE, t0, b, pool.size)])
    g_delta = normals(seed, Role.DELTA, t0, b, n, out=ws.delta[:b])
    adv_noise = None
    if ws.adversary is not None:
        adv_noise = normals(seed, Role.ADVERSARY, t0, b, n,
                            out=ws.adversary[:b])
        adv_noise *= math.sqrt(channel.rho_adv)
    dec_noise = normals(seed, Role.DECODER, t0, b, n, out=ws.decoder[:b])
    dec_noise *= math.sqrt(channel.rho_dec)
    xs, ys = ws.codewords[:b], ws.received[:b]
    out = []
    encoded = None   # (transmit message,) of the codewords in ``xs``
    for (spec, fixed_m), run_terms in zip(runs, terms):
        ms = drawn_ms if fixed_m is None else np.full(b, fixed_m, np.int64)
        if encoded != (fixed_m,):
            # runs that share a transmit message share its codewords; the
            # received rows are free to take the encoder's gathered f
            auth_encode_batch(code, ms, g_delta,
                              out=(xs, ws.scratch[:b], ys))
            encoded = (fixed_m,)
        if spec.kind == "none":
            zs = no_attack(n)
        else:
            # the attack observes, and writes z, in the received rows
            vs = np.add(xs, adv_noise, out=ys)
            if spec.kind == "custom":
                zs = np.stack([spec.custom(v, int(m), code)
                               for v, m in zip(vs, ms)])
            else:
                zs = mmse_targeted_attack_batch(vs, run_terms, out=ys)
        np.add(xs, zs, out=ys)
        ys += dec_noise
        base_decoded = code.base.decode_batch(ys)
        out.append((ms, base_decoded, detect_batch(
            code, ys, base_decoded, channel.rho_dec, detector=detector)))
    return out


def run_trial(code: AuthCode, channel: ChannelParams, attack: AttackSpec,
              m: int, seed: int, trial_index: int = 0) -> TrialOutcome:
    """A single trial, identical to row ``trial_index`` of a batched run."""
    check_int("seed", seed, SimulateError, 0)
    check_int("trial_index", trial_index, SimulateError, 0)
    _check_budget(code, channel)
    _check_messages(code, "m", [m])
    runs = [_check_run(code, attack, m, custom=True)]
    [(_, base_decoded, rejected)] = _simulate_block(
        code, channel, seed, trial_index, 1, runs,
        _attack_terms(code, channel, runs),
        _Workspace(code.n, 1, attack.kind != "none"), detector=True)
    decoded: int | str = REJECT if rejected[0] else int(base_decoded[0])
    return TrialOutcome(trial_index, int(m), decoded,
                        classify(attack, int(m), decoded))


def _check_messages(code: AuthCode, name: str, ids: Iterable[Any]) -> None:
    for m in ids:
        check_ids(name, m, code.message_count, SimulateError)
        if not code.is_valid_message(m):
            raise SimulateError(f"{m!r} is not a valid message of this code")


def _check_run(code: AuthCode, spec: AttackSpec, m: int, custom: bool) -> Run:
    """The checked run (``spec``, ``m``); ``custom`` admits a custom attack."""
    if spec.kind == "custom" and not custom:
        raise SimulateError("alpha_star and alpha run the MMSE attack; a "
                            "custom attack runs only through run_trial")
    _check_messages(code, "attack target",
                    [] if spec.target is None else [spec.target])
    if spec.target == m:
        raise SimulateError(f"run ({m}, {spec.target}): the target must "
                            "differ from the transmitted message")
    if spec.kind == "impersonation" and m != code.base.null_id:
        raise SimulateError(f"impersonation transmits the null message; "
                            f"{m} is not the null message of this code")
    return spec, m


def _check_budget(code: AuthCode, channel: ChannelParams) -> None:
    if channel.power_budget is not None and code.power > channel.power_budget:
        raise SimulateError(
            f"code power {code.power:.6g} exceeds the budget "
            f"{channel.power_budget:.6g}")


def _count(runs: Sequence[Run], results: Sequence[Result]) -> np.ndarray:
    """The (runs, 4) counters of one block's results."""
    counts = np.zeros((len(runs), 4), np.int64)
    for row, ((spec, _), (ms, dec, rej)) in zip(counts, zip(runs, results)):
        accepted = ~rej
        correct = dec == ms
        row[CORRECT_ACCEPTED] = np.count_nonzero(correct & accepted)
        row[CORRECT] = np.count_nonzero(correct)
        row[WRONG_ACCEPTED] = np.count_nonzero(~correct & accepted)
        if spec.target is not None:
            row[TARGET_ACCEPTED] = np.count_nonzero(
                (dec == spec.target) & accepted)
    return counts


def _in_block_order(work: Callable[[tuple[int, int]], Any],
                    blocks: Sequence[tuple[int, int]],
                    threads: int) -> Iterator[Any]:
    """``work(block)`` for each block, yielded in block order.  With
    several threads a pool runs the blocks, at most ``2 * threads`` of
    them submitted ahead of the one being consumed."""
    if threads == 1 or len(blocks) == 1:
        yield from map(work, blocks)
        return
    with ThreadPoolExecutor(max_workers=threads) as executor:
        pending: deque[Future] = deque()
        for block in blocks:
            if len(pending) == 2 * threads:
                yield pending.popleft().result()
            pending.append(executor.submit(work, block))
        while pending:
            yield pending.popleft().result()


def _run_counting(code: AuthCode, channel: ChannelParams, seed: int,
                  trials: int, runs: Sequence[Run], *, detector: bool,
                  threads: int, batch: int,
                  log: _TrialLog | None = None) -> np.ndarray:
    """The (runs, 4) counters of every run, all runs in one pass over the
    blocks.  A block's per-trial results are dropped once counted, unless
    ``log`` is given: it then receives them, block by block in order."""
    pool = _transmit_pool(code) if any(m is None for _, m in runs) else None
    terms = _attack_terms(code, channel, runs)
    attacked = any(spec.kind != "none" for spec, _ in runs)
    local = threading.local()   # one workspace per worker, dropped on return

    def work(block: tuple[int, int]):
        ws = getattr(local, "ws", None)
        if ws is None:
            ws = local.ws = _Workspace(code.n, min(batch, trials), attacked)
        results = _simulate_block(code, channel, seed, *block, runs, terms,
                                  ws, detector=detector, pool=pool)
        return (block[0], _count(runs, results),
                results if log is not None else None)

    blocks = [(t0, min(batch, trials - t0)) for t0 in range(0, trials, batch)]
    counts = np.zeros((len(runs), 4), np.int64)
    for t0, block_counts, results in _in_block_order(work, blocks, threads):
        counts += block_counts
        if log is not None:
            log.add(t0, results)
    return counts


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
    trial order.  Blocks arrive in trial order, so each block's rows are
    spooled per (metric, run) into one temporary file beside the log, and
    ``write`` copies a metric's spooled rows out in that order; only one
    block's rows are ever held in memory.  ``target`` is empty for runs
    without an attack target, and a new or empty log gets the header."""

    def __init__(self, path: str, runs: Sequence[Run],
                 runs_of: Sequence[tuple[str, Sequence[int]]]):
        self.path = path
        self.runs = runs
        # per metric, per run: (metric, run index, spooled (offset, size)s)
        self.spooled: list[list[tuple[str, int, list[tuple[int, int]]]]] = [
            [(name, i, []) for i in indices] for name, indices in runs_of]
        self.size = 0
        self.spool = tempfile.TemporaryFile(
            dir=os.path.dirname(os.path.abspath(path)))

    def __enter__(self) -> "_TrialLog":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.spool.close()

    def add(self, t0: int, results: Sequence[Result]) -> None:
        for name, i, segments in itertools.chain.from_iterable(self.spooled):
            spec = self.runs[i][0]
            target = "" if spec.target is None else spec.target
            ms, dec, rej = results[i]
            rows = []
            for t, (m, d, r) in enumerate(zip(ms.tolist(), dec.tolist(),
                                              rej.tolist()), t0):
                decoded = REJECT if r else d
                rows.append([name, t, m, target, decoded,
                             classify(spec, m, decoded)])
            data = _csv_bytes(rows)
            self.spool.write(data)
            segments.append((self.size, len(data)))
            self.size += len(data)

    def write(self, pos: int) -> None:
        """Append the rows of the metric at position ``pos``."""
        with open(self.path, "ab") as fh:
            if fh.tell() == 0:
                fh.write(_csv_bytes([TRIAL_LOG_HEADER]))
            for _, _, segments in self.spooled[pos]:
                for offset, size in segments:
                    self.spool.seek(offset)
                    fh.write(self.spool.read(size))


def _attack_runs(code: AuthCode, attack: AttackSpec,
                 pairs: Sequence[tuple[int, int]] | None, max_pairs: int,
                 seed: int) -> list[Run]:
    """One run per (transmit, target) pair, ``attack`` aimed at the target
    (targeted when none): the given ``pairs``, or every ordered pair
    (aimed at the attack's target, from the null message under
    impersonation if the code has one) subsampled to ``max_pairs``."""
    null = code.base.null_id
    if pairs is None:
        pool = [int(m) for m in _transmit_pool(code)]
        sources = ([null] if attack.kind == "impersonation"
                   and null is not None else pool)
        targets = pool if attack.target is None else [attack.target]
        pairs = [(a, b) for a in sources for b in targets if a != b]
        if len(pairs) > max_pairs:
            rng = one_shot_rng(seed, Role.MESSAGE, 1)
            keep = rng.choice(len(pairs), size=max_pairs, replace=False)
            pairs = [pairs[int(i)] for i in sorted(keep)]
    kind = "targeted" if attack.kind == "none" else attack.kind
    return [_check_run(code, replace(attack, kind=kind, target=b), a,
                       custom=False) for a, b in pairs]


def _report(metric: str, runs: Sequence[Run], counts: np.ndarray, *,
            trials: int, seed: int, message: int | None, confidence: float,
            params: dict[str, Any]) -> EstimateReport:
    """One metric's report from the (runs, 4) counters of its runs;
    ``params`` holds the entries that every metric reports."""
    params = dict(params)
    detail: dict[str, Any] = {}
    first = [int(c) for c in counts[0]]
    eff_trials = trials
    if metric == "epsilon":   # rejected or wrongly decoded
        successes = trials - first[CORRECT_ACCEPTED]
    elif metric == "false_alarm":   # rejected among the correctly decoded
        successes = first[CORRECT] - first[CORRECT_ACCEPTED]
        eff_trials = first[CORRECT]
        params["raw_trials"] = trials
        if eff_trials == 0:
            raise SimulateError("no correctly decoded trials to condition on")
    elif metric == "genuine_acceptance":   # the run transmits ``message``
        successes = first[CORRECT_ACCEPTED]
        params["message"] = message
    else:  # alpha_star / alpha
        per_pair = []
        column = TARGET_ACCEPTED if metric == "alpha_star" else WRONG_ACCEPTED
        for (spec, a), run_counts in zip(runs, counts):
            b_t = spec.target
            succ = int(run_counts[column])
            lo, hi = wilson_interval(succ, trials, confidence)
            per_pair.append({"transmit": a, "target": b_t, "successes": succ,
                             "trials": trials, "estimate": succ / trials,
                             "ci_lo": lo, "ci_hi": hi})
        best = max(per_pair, key=lambda p: p["successes"])
        successes = best["successes"]
        params.update({"pairs": len(per_pair),
                       "argmax_pair": [best["transmit"], best["target"]],
                       "max_is_lower_confidence_bound": True})
        detail = {"per_pair": per_pair}
    return EstimateReport(metric=metric, successes=successes,
                          trials=eff_trials, confidence=confidence,
                          seed=seed, params=params, detail=detail)


def estimate(code: AuthCode, channel: ChannelParams,
             metric: str | Sequence[str], trials: int, seed: int = 0, *,
             attack: AttackSpec = NO_ATTACK,
             message: int | None = None,
             pairs: Sequence[tuple[int, int]] | None = None,
             max_pairs: int = 20,
             detector: bool = True,
             threads: int = 1,
             batch: int | None = None,
             trial_log: str | None = None,
             confidence: float = 0.95
             ) -> EstimateReport | list[EstimateReport]:
    """Estimate one operational measure, or a sequence of them (see the
    module docstring): one name gives one report, a sequence gives one
    report per name, in order, from one pass over the blocks.
    ``message`` fixes the transmit message of ``epsilon``, ``false_alarm``
    and ``genuine_acceptance``.  ``attack``, ``pairs`` and ``max_pairs``
    define the runs of ``alpha_star`` and ``alpha``: ``pairs`` pins the
    ordered (transmit, target) pairs, otherwise every ordered pair (aimed
    at the attack's target, from the null message under impersonation) is
    enumerated and subsampled to ``max_pairs``; each pair runs ``attack``
    aimed at its target, the targeted MMSE attack under the default
    ``NO_ATTACK``.  ``message`` and every id in ``pairs`` must be valid
    messages of ``code``, and every pair passes ``_check_run``.
    ``trial_log`` appends one CSV row per simulated trial to that file,
    metric by metric."""
    metrics = [metric] if isinstance(metric, str) else list(metric)
    if not metrics:
        raise SimulateError("no metric requested")
    for name in metrics:
        if name not in METRICS:
            raise SimulateError(f"unknown metric {name!r}; "
                                f"choose from {METRICS}")
    check_int("trials", trials, SimulateError, 100)
    check_int("seed", seed, SimulateError, 0)
    check_int("max_pairs", max_pairs, SimulateError)
    check_int("threads", threads, SimulateError)
    if batch is not None:
        check_int("batch", batch, SimulateError)
    if not isinstance(confidence, (int, float)) or not 0.0 < confidence < 1.0:
        raise SimulateError(f"confidence must lie in (0, 1), not "
                            f"{confidence!r}")
    if not isinstance(attack, AttackSpec):
        raise SimulateError(f"attack must be an AttackSpec, not {attack!r}")
    if channel.rho_dec == 0.0:
        raise SimulateError("estimation needs rho_dec > 0 "
                            "(the zero sentinel is for single trials)")
    _check_budget(code, channel)
    _check_messages(code, "message", [] if message is None else [message])
    _check_messages(code, "pairs", [m for pair in pairs or () for m in pair])
    pair_runs: list[Run] = []
    if any(name in FALSE_AUTH_METRICS for name in metrics):
        if channel.rho_adv <= 0.0:
            raise SimulateError("false-authentication metrics need rho_adv > 0")
        pair_runs = _attack_runs(code, attack, pairs, max_pairs, seed)
        if not pair_runs:
            raise SimulateError("no attack pairs to run")
    elif attack.kind != "none":
        raise SimulateError(f"{metrics[0]} is defined under no attack")
    if "genuine_acceptance" in metrics and message is None:
        raise SimulateError("genuine_acceptance needs a fixed message")

    # one pass over the distinct runs of every metric
    genuine_run: list[Run] = [(NO_ATTACK, message)]
    index: dict[Run, int] = {}
    runs_of: list[tuple[str, list[int]]] = []
    for name in metrics:
        own = pair_runs if name in FALSE_AUTH_METRICS else genuine_run
        runs_of.append((name, [index.setdefault(run, len(index))
                               for run in own]))
    runs = list(index)

    params: dict[str, Any] = {
        "rho_dec": channel.rho_dec, "rho_adv": channel.rho_adv, "n": code.n,
        "ell": code.ell, "delta": code.delta, "rho_delta": code.rho_delta,
        "detector": detector}
    reports = []
    with (_TrialLog(trial_log, runs, runs_of) if trial_log
          else contextlib.nullcontext()) as log:
        counts = _run_counting(code, channel, seed, trials, runs,
                               detector=detector, threads=threads,
                               batch=block_rows(code.n, code.message_count,
                                                batch), log=log)
        for pos, (name, indices) in enumerate(runs_of):
            if log is not None:
                log.write(pos)
            reports.append(_report(name, [runs[i] for i in indices],
                                   counts[indices], trials=trials, seed=seed,
                                   message=message, confidence=confidence,
                                   params=params))
    return reports[0] if isinstance(metric, str) else reports

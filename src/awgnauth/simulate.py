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
set by ``attack``, ``pairs`` and ``max_pairs``.  One call is one pass
over blocks of trials that runs each distinct run once: every block's
streams are drawn once and every run of every metric reads those draws,
and runs that transmit the same fixed message share its encoding.
Unless ``batch`` is given, a block has as many rows as keep its widest
array (n-wide draws or decode scores, one per message) at 2**22 float64s.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .adversary import AttackSpec, mmse_targeted_attack_batch, no_attack
from .authcode import REJECT, AuthCode, auth_encode_batch, detect_batch
from .reporting import EstimateReport, binomial_se, wilson_interval  # noqa: F401
from .streams import (Role, block_rows, check_int, choices, normals,
                      one_shot_rng)

METRICS = ("epsilon", "false_alarm", "genuine_acceptance", "alpha_star", "alpha")
FALSE_AUTH_METRICS = ("alpha_star", "alpha")

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
        # trials; the estimators require a positive value.  The checks are
        # written so that NaN fails them.
        if not 0.0 <= self.rho_dec < math.inf:
            raise SimulateError("rho_dec must be nonnegative and finite")
        if not 0.0 <= self.rho_adv < math.inf:
            raise SimulateError("rho_adv must be nonnegative and finite")
        if self.power_budget is not None \
                and not 0.0 < self.power_budget < math.inf:
            raise SimulateError("power_budget must be positive and finite "
                                "when given")


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
    return np.array([m for m in range(code.message_count)
                     if m != code.base.null_id], dtype=np.int64)


# A run is an attack and its fixed transmit message (None: drawn per trial).
Run = tuple[AttackSpec, int | None]
Result = tuple[np.ndarray, np.ndarray, np.ndarray]


def _simulate_block(code: AuthCode, channel: ChannelParams, seed: int,
                    t0: int, b: int, runs: Sequence[Run], *, detector: bool,
                    pool: np.ndarray | None = None) -> list[Result]:
    """(transmitted, base_decoded, rejected) of trials [t0, t0+b) for each
    run.  The block's streams are drawn once and every run reads them;
    ``pool`` is the transmit pool of the runs without a fixed message."""
    n = code.n
    drawn_ms = (None if pool is None
                else pool[choices(seed, Role.MESSAGE, t0, b, pool.size)])
    g_delta = normals(seed, Role.DELTA, t0, b, n)
    g_adv = (normals(seed, Role.ADVERSARY, t0, b, n)
             if any(spec.kind != "none" for spec, _ in runs) else None)
    g_dec = normals(seed, Role.DECODER, t0, b, n)
    out = []
    encoded = None   # (transmit message, codewords) of the previous run
    for spec, fixed_m in runs:
        ms = drawn_ms if fixed_m is None else np.full(b, fixed_m, np.int64)
        if encoded is None or encoded[0] != fixed_m:
            # runs that share a transmit message share its codewords
            encoded = (fixed_m, auth_encode_batch(code, ms, g_delta))
        xs = encoded[1]
        if spec.kind == "none":
            zs = no_attack(n)
        elif spec.kind == "custom":
            zs = np.stack([spec.custom(v, int(m), code) for v, m in
                           zip(xs + math.sqrt(channel.rho_adv) * g_adv, ms)])
        else:
            zs = mmse_targeted_attack_batch(
                code, xs + math.sqrt(channel.rho_adv) * g_adv, fixed_m,
                spec.target, channel.rho_adv, spec.weight_scale)
        ys = xs + zs + math.sqrt(channel.rho_dec) * g_dec
        base_decoded = code.base.decode_batch(ys)
        out.append((ms, base_decoded, detect_batch(
            code, ys, base_decoded, channel.rho_dec, detector=detector)))
    return out


def run_trial(code: AuthCode, channel: ChannelParams, attack: AttackSpec,
              m: int, seed: int, trial_index: int = 0) -> TrialOutcome:
    """A single trial, identical to row ``trial_index`` of a batched run."""
    check_int("seed", seed, SimulateError, 0)
    check_int("trial_index", trial_index, SimulateError, 0)
    _check_power(code, channel)
    _check_messages(code, [m])
    if attack.kind == "impersonation" and m != code.base.null_id:
        raise SimulateError(f"impersonation transmits the null message; "
                            f"{m} is not the null message of this code")
    [(_, base_decoded, rejected)] = _simulate_block(
        code, channel, seed, trial_index, 1, [(attack, m)], detector=True)
    decoded: int | str = REJECT if rejected[0] else int(base_decoded[0])
    return TrialOutcome(trial_index, int(m), decoded,
                        classify(attack, int(m), decoded))


def _check_messages(code: AuthCode, ids: Sequence[Any]) -> None:
    for m in ids:
        if isinstance(m, bool) or not isinstance(m, (int, np.integer)) \
                or not code.is_valid_message(m):
            raise SimulateError(f"{m!r} is not a valid message of this code")


def _check_power(code: AuthCode, channel: ChannelParams) -> None:
    if channel.power_budget is not None and code.power > channel.power_budget:
        raise SimulateError(
            f"code power {code.power:.6g} exceeds the budget "
            f"{channel.power_budget:.6g}")


def _run_counting(code: AuthCode, channel: ChannelParams, seed: int,
                  trials: int, runs: Sequence[Run], *, detector: bool,
                  threads: int, batch: int) -> list[Result]:
    """Each run's per-trial results, all runs in one pass over the blocks."""
    pool = _transmit_pool(code) if any(m is None for _, m in runs) else None

    def work(block: tuple[int, int]):
        return _simulate_block(code, channel, seed, *block, runs,
                               detector=detector, pool=pool)

    blocks = [(t0, min(batch, trials - t0)) for t0 in range(0, trials, batch)]
    if threads > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as executor:
            parts = list(executor.map(work, blocks))
    else:
        parts = [work(bl) for bl in blocks]
    # parts[block][run] -> per run, each of the three arrays over blocks
    return [tuple(np.concatenate(arrays) for arrays in zip(*run_parts))
            for run_parts in zip(*parts)]


TRIAL_LOG_HEADER = ["metric", "trial", "transmitted", "target", "decoded",
                    "classification"]


def _append_trial_log(path: str, metric: str, attack: AttackSpec,
                      ms: np.ndarray, dec: np.ndarray, rej: np.ndarray) -> None:
    """Append one CSV row per trial; a new or empty file gets the header.
    ``target`` is empty for metrics run without an attack."""
    target = "" if attack.target is None else attack.target
    with open(path, "a", newline="") as fh:
        writer = csv.writer(fh)
        if fh.tell() == 0:
            writer.writerow(TRIAL_LOG_HEADER)
        for t, (m, d, r) in enumerate(zip(ms.tolist(), dec.tolist(),
                                          rej.tolist())):
            decoded = REJECT if r else d
            writer.writerow([metric, t, m, target, decoded,
                             classify(attack, m, decoded)])


def _attack_runs(code: AuthCode, attack: AttackSpec | None,
                 pairs: Sequence[tuple[int, int]] | None, max_pairs: int,
                 seed: int) -> list[Run]:
    """One run per (transmit, target) pair: the given ``pairs``, or every
    ordered pair (aimed at the attack's target, from the null message
    under impersonation) subsampled to ``max_pairs``."""
    if attack is not None and attack.kind == "custom":
        raise SimulateError("alpha_star and alpha run the MMSE attack; a "
                            "custom attack runs only through run_trial")
    impersonation = attack is not None and attack.kind == "impersonation"
    null = code.base.null_id
    if impersonation and null is None:
        raise SimulateError("impersonation needs a code with a null message")
    if pairs is None:
        pool = [int(m) for m in _transmit_pool(code)]
        targets = pool
        if attack is not None and attack.target is not None:
            _check_messages(code, [attack.target])
            targets = [attack.target]
        pairs = [(a, b) for a in ([null] if impersonation else pool)
                 for b in targets if a != b]
        if len(pairs) > max_pairs:
            rng = one_shot_rng(seed, Role.MESSAGE, 1)
            keep = rng.choice(len(pairs), size=max_pairs, replace=False)
            pairs = [pairs[int(i)] for i in sorted(keep)]
    for a, b in pairs:
        if a == b:
            raise SimulateError(f"pair ({a}, {b}): the target must differ "
                                "from the transmitted message")
        if impersonation and a != null:
            raise SimulateError(f"pair ({a}, {b}): impersonation transmits "
                                f"the null message {null}")
    kind = "impersonation" if impersonation else "targeted"
    scale = None if attack is None else attack.weight_scale
    return [(AttackSpec(kind, b, weight_scale=scale), a) for a, b in pairs]


def _report(metric: str, runs: Sequence[Run], results: Sequence[Result], *,
            trials: int, seed: int, message: int | None, confidence: float,
            params: dict[str, Any]) -> EstimateReport:
    """One metric's report from the results of its runs; ``params`` holds
    the entries that every metric reports."""
    params = dict(params)
    detail: dict[str, Any] = {}
    ms, dec, rej = results[0]
    eff_trials = trials
    if metric == "epsilon":
        successes = int(np.sum(rej | (dec != ms)))
    elif metric == "false_alarm":
        base_correct = dec == ms
        successes = int(np.sum(rej & base_correct))
        eff_trials = int(np.sum(base_correct))
        params["raw_trials"] = trials
        if eff_trials == 0:
            raise SimulateError("no correctly decoded trials to condition on")
    elif metric == "genuine_acceptance":
        successes = int(np.sum(~rej & (dec == message)))
        params["message"] = message
    else:  # alpha_star / alpha
        per_pair = []
        for (spec, a), (_, dec, rej) in zip(runs, results):
            b_t = spec.target
            hit = dec == b_t if metric == "alpha_star" else dec != a
            succ = int(np.sum(~rej & hit))
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
             attack: AttackSpec | None = None,
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
    enumerated and subsampled to ``max_pairs``.  ``message`` and every
    id in ``pairs`` must be valid messages of ``code``.  ``trial_log``
    appends one CSV row per simulated trial to that file, metric by
    metric."""
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
    if channel.rho_dec == 0.0:
        raise SimulateError("estimation needs rho_dec > 0 "
                            "(the zero sentinel is for single trials)")
    _check_power(code, channel)
    _check_messages(code, ([] if message is None else [message])
                    + [m for pair in pairs or () for m in pair])
    pair_runs: list[Run] = []
    if any(name in FALSE_AUTH_METRICS for name in metrics):
        if channel.rho_adv <= 0.0:
            raise SimulateError("false-authentication metrics need rho_adv > 0")
        pair_runs = _attack_runs(code, attack, pairs, max_pairs, seed)
        if not pair_runs:
            raise SimulateError("no attack pairs to run")
    elif attack is not None and attack.kind != "none":
        raise SimulateError(f"{metrics[0]} is defined under no attack")
    if "genuine_acceptance" in metrics and message is None:
        raise SimulateError("genuine_acceptance needs a fixed message")

    # one pass over the distinct runs of every metric
    genuine_run: list[Run] = [(AttackSpec(kind="none"), message)]
    runs_of = [pair_runs if name in FALSE_AUTH_METRICS else genuine_run
               for name in metrics]
    index: dict[Run, int] = {}
    for runs in runs_of:
        for run in runs:
            index.setdefault(run, len(index))
    results = _run_counting(code, channel, seed, trials, list(index),
                            detector=detector, threads=threads,
                            batch=block_rows(code.n, code.message_count,
                                             batch))

    params: dict[str, Any] = {
        "rho_dec": channel.rho_dec, "rho_adv": channel.rho_adv, "n": code.n,
        "ell": code.ell, "delta": code.delta, "rho_delta": code.rho_delta,
        "detector": detector}
    reports = []
    for name, runs in zip(metrics, runs_of):
        own = [results[index[run]] for run in runs]
        if trial_log:
            for (spec, _), result in zip(runs, own):
                _append_trial_log(trial_log, name, spec, *result)
        reports.append(_report(name, runs, own, trials=trials, seed=seed,
                               message=message, confidence=confidence,
                               params=params))
    return reports[0] if isinstance(metric, str) else reports

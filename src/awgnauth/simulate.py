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
from .streams import Role, choices, normals, one_shot_rng

METRICS = ("epsilon", "false_alarm", "genuine_acceptance", "alpha_star", "alpha")

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
    if code.base.null_id is not None:
        return np.fromiter((m for m in range(code.message_count)
                            if m != code.base.null_id), dtype=np.int64)
    return np.arange(code.message_count, dtype=np.int64)


def _simulate_block(code: AuthCode, channel: ChannelParams, seed: int,
                    t0: int, b: int, *, attack: AttackSpec,
                    fixed_m: int | None, detector: bool
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (transmitted, base_decoded, rejected) for trials [t0, t0+b)."""
    n = code.n
    if fixed_m is not None:
        ms = np.full(b, fixed_m, dtype=np.int64)
    else:
        pool = _transmit_pool(code)
        ms = pool[choices(seed, Role.MESSAGE, t0, b, pool.size)]
    xs = auth_encode_batch(code, ms, normals(seed, Role.DELTA, t0, b, n))

    if attack.kind == "none":
        zs = no_attack(n)
    else:
        vs = xs + math.sqrt(channel.rho_adv) * normals(
            seed, Role.ADVERSARY, t0, b, n)
        if attack.kind in ("targeted", "impersonation"):
            if fixed_m is None:
                raise SimulateError("targeted attacks need a fixed transmit message")
            zs = mmse_targeted_attack_batch(
                code, vs, fixed_m, attack.target, channel.rho_adv,
                attack.weight_scale)
        else:
            zs = np.stack([attack.custom(vs[i], int(ms[i]), code)
                           for i in range(b)])
    ys = xs + zs + math.sqrt(channel.rho_dec) * normals(
        seed, Role.DECODER, t0, b, n)
    base_decoded = code.base.decode_batch(ys)
    rejected = detect_batch(code, ys, base_decoded, channel.rho_dec,
                            detector=detector)
    return ms, base_decoded, rejected


def run_trial(code: AuthCode, channel: ChannelParams, attack: AttackSpec,
              m: int, seed: int, trial_index: int = 0) -> TrialOutcome:
    """A single trial, identical to row ``trial_index`` of a batched run."""
    _check_power(code, channel)
    _check_messages(code, [m])
    ms, base_decoded, rejected = _simulate_block(
        code, channel, seed, trial_index, 1, attack=attack, fixed_m=m,
        detector=True)
    decoded: int | str = REJECT if rejected[0] else int(base_decoded[0])
    return TrialOutcome(trial=trial_index, transmitted=int(ms[0]),
                        decoded=decoded,
                        classification=classify(attack, int(ms[0]), decoded))


def _check_messages(code: AuthCode, ids: Sequence[Any]) -> None:
    for m in ids:
        if not isinstance(m, (int, np.integer)) or not code.is_valid_message(m):
            raise SimulateError(f"{m!r} is not a valid message of this code")


def _check_power(code: AuthCode, channel: ChannelParams) -> None:
    if channel.power_budget is not None and code.power > channel.power_budget:
        raise SimulateError(
            f"code power {code.power:.6g} exceeds the budget "
            f"{channel.power_budget:.6g}")


def _auto_batch(n: int, batch: int | None) -> int:
    if batch is not None:
        return max(1, batch)
    return max(512, int(3.2e7) // max(1, n))


def _blocks(trials: int, batch: int) -> list[tuple[int, int]]:
    return [(t0, min(batch, trials - t0)) for t0 in range(0, trials, batch)]


def _run_counting(code: AuthCode, channel: ChannelParams, seed: int,
                  trials: int, *, attack: AttackSpec, fixed_m: int | None,
                  detector: bool, threads: int, batch: int
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Runs all trials, returning concatenated per-trial results."""
    def work(block: tuple[int, int]):
        t0, b = block
        return _simulate_block(code, channel, seed, t0, b, attack=attack,
                               fixed_m=fixed_m, detector=detector)

    blocks = _blocks(trials, batch)
    if threads > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(work, blocks))
    else:
        parts = [work(bl) for bl in blocks]
    ms = np.concatenate([p[0] for p in parts])
    dec = np.concatenate([p[1] for p in parts])
    rej = np.concatenate([p[2] for p in parts])
    return ms, dec, rej


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


def _default_pairs(code: AuthCode, impersonation: bool, max_pairs: int,
                   seed: int) -> list[tuple[int, int]]:
    targets = [int(m) for m in _transmit_pool(code)]
    if impersonation:
        if code.base.null_id is None:
            raise SimulateError("impersonation needs a code with a null message")
        pairs = [(code.base.null_id, b) for b in targets]
    else:
        pairs = [(a, b) for a in targets for b in targets if a != b]
    if len(pairs) > max_pairs:
        rng = one_shot_rng(seed, Role.MESSAGE, 1)
        keep = rng.choice(len(pairs), size=max_pairs, replace=False)
        pairs = [pairs[int(i)] for i in sorted(keep)]
    return pairs


def estimate(code: AuthCode, channel: ChannelParams, metric: str,
             trials: int, seed: int = 0, *,
             attack: AttackSpec | None = None,
             message: int | None = None,
             pairs: Sequence[tuple[int, int]] | None = None,
             max_pairs: int = 20,
             detector: bool = True,
             threads: int = 1,
             batch: int | None = None,
             trial_log: str | None = None,
             confidence: float = 0.95) -> EstimateReport:
    """Estimate one operational measure; see the module docstring for
    metric semantics.  ``pairs`` pins the ordered (transmit, target)
    pairs for the false-authentication metrics (otherwise all ordered
    pairs are enumerated, subsampled to ``max_pairs``).  ``message`` and
    every id in ``pairs`` must be valid messages of ``code``.  With
    ``trial_log``, one CSV row per simulated trial is appended to that
    file (``TRIAL_LOG_HEADER`` first when the file is empty)."""
    if metric not in METRICS:
        raise SimulateError(f"unknown metric {metric!r}; choose from {METRICS}")
    if trials < 100:
        raise SimulateError("trials must be at least 100")
    if channel.rho_dec == 0.0:
        raise SimulateError("estimation needs rho_dec > 0 "
                            "(the zero sentinel is for single trials)")
    _check_power(code, channel)
    _check_messages(code, ([] if message is None else [message])
                    + [m for pair in pairs or () for m in pair])
    batch_n = _auto_batch(code.n, batch)

    def run(spec: AttackSpec, fixed_m: int | None):
        ms, dec, rej = _run_counting(code, channel, seed, trials,
                                     attack=spec, fixed_m=fixed_m,
                                     detector=detector, threads=threads,
                                     batch=batch_n)
        if trial_log:
            _append_trial_log(trial_log, metric, spec, ms, dec, rej)
        return ms, dec, rej

    params: dict[str, Any] = {
        "rho_dec": channel.rho_dec, "rho_adv": channel.rho_adv,
        "n": code.n, "ell": code.ell, "delta": code.delta,
        "rho_delta": code.rho_delta, "detector": detector,
    }

    if metric in ("epsilon", "false_alarm"):
        attack = attack or AttackSpec(kind="none")
        if attack.kind != "none":
            raise SimulateError(f"{metric} is defined under no attack")
        ms, dec, rej = run(attack, message)
        if metric == "epsilon":
            successes = int(np.sum(rej | (dec != ms)))
            eff_trials = trials
        else:
            base_correct = dec == ms
            successes = int(np.sum(rej & base_correct))
            eff_trials = int(np.sum(base_correct))
            params["raw_trials"] = trials
            if eff_trials == 0:
                raise SimulateError("no correctly decoded trials to condition on")
        report = EstimateReport(metric=metric, successes=successes,
                                trials=eff_trials, confidence=confidence,
                                seed=seed, params=params)

    elif metric == "genuine_acceptance":
        if message is None:
            raise SimulateError("genuine_acceptance needs a fixed message")
        _, dec, rej = run(AttackSpec(kind="none"), message)
        successes = int(np.sum(~rej & (dec == message)))
        params["message"] = message
        report = EstimateReport(metric=metric, successes=successes,
                                trials=trials, confidence=confidence,
                                seed=seed, params=params)

    else:  # alpha_star / alpha
        if channel.rho_adv <= 0.0:
            raise SimulateError("false-authentication metrics need rho_adv > 0")
        impersonation = attack is not None and attack.kind == "impersonation"
        if pairs is None:
            pairs = _default_pairs(code, impersonation, max_pairs, seed)
        if not pairs:
            raise SimulateError("no attack pairs to run")
        weight_scale = attack.weight_scale if attack is not None else None
        per_pair = []
        best = None
        for a, b_t in pairs:
            spec = AttackSpec(kind="impersonation" if impersonation else "targeted",
                              target=b_t, weight_scale=weight_scale)
            _, dec, rej = run(spec, a)
            if metric == "alpha_star":
                succ = int(np.sum(~rej & (dec == b_t)))
            else:
                succ = int(np.sum(~rej & (dec != a)))
            lo, hi = wilson_interval(succ, trials, confidence)
            per_pair.append({"transmit": a, "target": b_t,
                             "successes": succ, "trials": trials,
                             "estimate": succ / trials,
                             "ci_lo": lo, "ci_hi": hi})
            if best is None or succ > best[0]:
                best = (succ, a, b_t)
        assert best is not None
        successes, a_best, b_best = best
        params.update({"pairs": len(per_pair),
                       "argmax_pair": [a_best, b_best],
                       "max_is_lower_confidence_bound": True})
        report = EstimateReport(metric=metric, successes=successes,
                                trials=trials, confidence=confidence,
                                seed=seed, params=params,
                                detail={"per_pair": per_pair})
    return report

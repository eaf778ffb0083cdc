"""Closed-form performance bounds and design helpers.

Everything here is scalar arithmetic: the MMSE cancellation weight
(``mmse_weight``, which the adversary applies elementwise) and the
residual variances it leaves, the detection margin that drives the
false-authentication exponents, power/error/rate bounds for the two
code modifications, capacity and rate-gap references, and the
combinatorial tail bounds the analysis rests on.

Every entry checks each argument on its own with ``streams.check_int``
(sizes ``n``, ``ell``, ``count`` and the lemmas' integers) or
``streams.check_reals`` (powers, rates, margins, the radius ``theta``,
``gamma``, ``delta`` and the lemmas' reals), raising ``BoundsError``;
only rules that relate two arguments are written out here.
``epsilon_h`` may be NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from . import numerics
from .overlay import LevelSet
from .streams import check_int, check_reals


class BoundsError(ValueError):
    pass


def mmse_weight(level: float | np.ndarray, rho_delta: float,
                rho_adv: float) -> float | np.ndarray:
    """Cancellation weight f^2 rho_delta / (f^2 rho_delta + rho_adv),
    elementwise over an array of levels; zero where the coordinate
    carries no injected noise and the observation is noiseless."""
    check_reals(BoundsError, rho_delta=rho_delta, rho_adv=rho_adv)
    level = np.asarray(level, dtype=np.float64)
    injected = level * level * rho_delta
    total = injected + rho_adv
    with np.errstate(invalid="ignore"):   # [()]: a scalar for a scalar level
        return np.where(total > 0.0, injected / total, 0.0)[()]


def residual_variance(level: float, rho_delta: float, rho_adv: float,
                      rho_dec: float) -> float:
    """Decoder-side variance left on a level-``a`` coordinate after the
    adversary's best cancellation: w rho_A + rho_dec with w the
    ``mmse_weight`` of ``a``, that is a^2 rho_D rho_A / (a^2 rho_D +
    rho_A) + rho_dec.  Degenerates to rho_dec when the coordinate carries
    no injected noise or the adversary observes noiselessly."""
    check_reals(BoundsError, positive=True, rho_dec=rho_dec)
    return float(mmse_weight(level, rho_delta, rho_adv) * rho_adv + rho_dec)


def detection_margin(level_set: LevelSet, gamma: float, delta: float,
                     rho_delta: float, rho_adv: float,
                     rho_dec: float) -> tuple[float, float]:
    """The margin lambda = |min_k 1 - (1+delta)(k^2 rho_D + rho_dec) /
    (gamma tau(k) + (1-gamma) tau(d_k))|+ together with the minimising
    level; d_k is the next extended level above k."""
    check_reals(BoundsError, gamma=gamma, delta=delta)
    best = math.inf
    best_level = level_set.levels[0]
    for k in level_set.levels:
        d_k = level_set.next_above(k)
        denom = (gamma * residual_variance(k, rho_delta, rho_adv, rho_dec)
                 + (1.0 - gamma) * residual_variance(d_k, rho_delta, rho_adv, rho_dec))
        val = 1.0 - (1.0 + delta) * (k * k * rho_delta + rho_dec) / denom
        if val < best:
            best, best_level = val, k
    return max(0.0, best), best_level


def injection_power_bound(omega_h: float, rate_h: float, rho_delta: float,
                          n: int, ktilde_size: int, k_size: int,
                          variant: bool = False) -> float:
    """Power bound for the noise-injected code: omega_h +
    2 sqrt(2 omega_h rho_D (r+1)) + rho_D (1 + C [r + 1 + ln|K|/n]) with
    C = 8|K~| (default) or C = 8|K|+1 (variant)."""
    check_reals(BoundsError, omega_h=omega_h, rho_delta=rho_delta,
                rate_h=rate_h)
    check_int("n", n, BoundsError)
    check_int("ktilde_size", ktilde_size, BoundsError, 2)
    check_int("k_size", k_size, BoundsError)
    coeff = (8 * k_size + 1) if variant else 8 * ktilde_size
    extra = rate_h + 1.0 + math.log(k_size) / n
    return (omega_h + 2.0 * math.sqrt(2.0 * omega_h * rho_delta * (rate_h + 1.0))
            + rho_delta * (1.0 + coeff * extra))


def targeted_false_auth_bound(ell: int, gamma: float, lam: float) -> float:
    """exp(-ell (1-gamma) lam^2 / 8) + exp(-ell gamma lam^2 / 8)."""
    check_int("ell", ell, BoundsError)
    check_reals(BoundsError, gamma=gamma, lam=lam)
    return (math.exp(-ell * (1.0 - gamma) * lam * lam / 8.0)
            + math.exp(-ell * gamma * lam * lam / 8.0))


@dataclass(frozen=True)
class InjectionBounds:
    """Guarantees for the noise-injection modification."""

    lam: float
    lam_argmin_level: float
    residual_by_level: dict[float, float]
    next_level: dict[float, float]
    rate: float                       # unchanged by the modification
    power_bound: float
    power_bound_variant: float
    epsilon_bound: float
    epsilon_bound_variant: float
    epsilon_terms: dict[str, float]
    alpha_star_bound: float
    alpha_star_vacuous: bool


def injection_bounds(n: int, level_set: LevelSet, gamma: float, delta: float,
                     rho_delta: float, rho_adv: float, rho_dec: float,
                     omega_h: float, rate_h: float, epsilon_h: float,
                     t_zero: bool = False) -> InjectionBounds:
    """Evaluate the rate/power/error/false-authentication guarantees of
    the noise-injection modification.  ``epsilon_h`` must be the base
    code's error probability at combined noise rho_dec + rho_delta."""
    check_int("n", n, BoundsError)   # with t_zero, no power bound checks n
    check_reals(BoundsError, omega_h=omega_h, gamma=gamma, delta=delta,
                rate_h=rate_h)
    ell = n // len(level_set.extended)
    lam, argmin = detection_margin(level_set, gamma, delta, rho_delta,
                                   rho_adv, rho_dec)
    residual = {k: residual_variance(k, rho_delta, rho_adv, rho_dec)
                for k in level_set.extended}
    nxt = {k: level_set.next_above(k) for k in level_set.levels}
    k_size = len(level_set)
    concentration = math.sqrt(n / 2.0 * math.exp(-n * rate_h))
    concentration_var = math.sqrt(2.0 * n * math.exp(-n * rate_h))
    detector = k_size * math.exp(-ell * delta * delta / 8.0)
    alpha_star = targeted_false_auth_bound(ell, gamma, lam)
    if t_zero:
        power = power_var = omega_h + rho_delta
    else:
        power = injection_power_bound(omega_h, rate_h, rho_delta, n,
                                      len(level_set.extended), k_size)
        power_var = injection_power_bound(omega_h, rate_h, rho_delta, n,
                                          len(level_set.extended), k_size,
                                          variant=True)
    return InjectionBounds(
        lam=lam, lam_argmin_level=argmin, residual_by_level=residual,
        next_level=nxt, rate=rate_h,
        power_bound=power, power_bound_variant=power_var,
        epsilon_bound=epsilon_h + concentration + detector,
        epsilon_bound_variant=epsilon_h + concentration_var + detector,
        epsilon_terms={"base": epsilon_h, "concentration": concentration,
                       "concentration_variant": concentration_var,
                       "detector": detector},
        alpha_star_bound=alpha_star, alpha_star_vacuous=alpha_star >= 1.0)


def quantization_radius(n: int, omega: float, rho_delta: float,
                        rho_dec: float, delta: float, lam: float,
                        rate: float) -> float:
    """theta = max(1, sqrt(3n [omega + (rho_D + rho_dec)(1 + delta +
    2 lam^2 + 2 r)])) — the radius of attack means the decimation
    argument must cover with a quantization net."""
    check_int("n", n, BoundsError)
    check_reals(BoundsError, omega=omega, rho_delta=rho_delta, rho_dec=rho_dec,
                delta=delta, lam=lam, rate=rate)
    inner = omega + (rho_delta + rho_dec) * (1.0 + delta + 2.0 * lam * lam
                                             + 2.0 * rate)
    return max(1.0, math.sqrt(3.0 * n * inner))


def decimation_rate(n: int, rate_h: float, gamma: float, ell: int,
                    lam: float, theta: float) -> float:
    """Surviving rate after decimation:
    (1 - 1/n) r - ((1-gamma) ell / (4n)) lam^2 - (2 + ln(2 theta)) / n."""
    check_int("n", n, BoundsError)
    check_int("ell", ell, BoundsError)
    check_reals(BoundsError, rate_h=rate_h, gamma=gamma, lam=lam)
    check_reals(BoundsError, positive=True, theta=theta)
    return ((1.0 - 1.0 / n) * rate_h
            - (1.0 - gamma) * ell / (4.0 * n) * lam * lam
            - (2.0 + math.log(2.0 * theta)) / n)


@dataclass(frozen=True)
class DecimationBounds:
    """Guarantees (and feasibility diagnostics) for the decimation
    modification."""

    lam: float
    theta: float
    r_decimated: float
    target_size: int
    rate_bound: float
    alpha_bound: float
    alpha_vacuous: bool
    epsilon_bound: float
    feasible: bool                  # the analysed-rate precondition
    precondition_lhs: float
    precondition_rhs: float
    terms: dict[str, float] = field(default_factory=dict)


def decimation_bounds(n: int, level_set: LevelSet, gamma: float, delta: float,
                      rho_delta: float, rho_dec: float,
                      omega_wrapped: float, rate_h: float,
                      epsilon_h: float = math.nan,
                      rho_adv: float | None = None,
                      adversary_agnostic: bool = False) -> DecimationBounds:
    """Evaluate the decimated code's guarantees.  ``omega_wrapped`` is
    the (exactly computable) power of the noise-injected code; in
    adversary-agnostic mode lambda is pinned to 0 and no rho_adv is
    needed."""
    check_int("n", n, BoundsError)
    check_reals(BoundsError, positive=True, rho_dec=rho_dec)
    check_reals(BoundsError, gamma=gamma, delta=delta, rate_h=rate_h)
    if adversary_agnostic:
        lam = 0.0
    else:
        if rho_adv is None:
            raise BoundsError("rho_adv required unless adversary_agnostic")
        lam, _ = detection_margin(level_set, gamma, delta, rho_delta,
                                  rho_adv, rho_dec)
    ell = n // len(level_set.extended)
    theta = quantization_radius(n, omega_wrapped, rho_delta, rho_dec, delta,
                                lam, rate_h)
    r_dd = decimation_rate(n, rate_h, gamma, ell, lam, theta)
    target = math.floor(math.exp(n * r_dd)) if r_dd > 0 else 0
    rate_bound = (rate_h - (1.0 - gamma) * ell / (4.0 * n) * lam * lam
                  - (rate_h + 2.0 + math.log(4.0 * n * theta)) / n)
    alpha = ((2.0 * n + 1.0 / (2.0 * math.sqrt(n * rho_dec)))
             * math.exp(-(1.0 - gamma) * ell * lam * lam / 8.0))
    k_size = len(level_set)
    eps = (epsilon_h + math.sqrt(2.0 * n * math.exp(-n * rate_h))
           + k_size * math.exp(-ell * delta * delta / 8.0))
    lhs = (n - 1.0) * rate_h
    rhs = (1.0 - gamma) * ell * lam * lam / 4.0 + 2.0 + math.log(4.0 * n * theta)
    return DecimationBounds(
        lam=lam, theta=theta, r_decimated=r_dd, target_size=target,
        rate_bound=rate_bound, alpha_bound=alpha, alpha_vacuous=alpha >= 1.0,
        epsilon_bound=eps, feasible=lhs >= rhs,
        precondition_lhs=lhs, precondition_rhs=rhs,
        terms={
            "rate_term": (1.0 - 1.0 / n) * rate_h,
            "margin_term": (1.0 - gamma) * ell / (4.0 * n) * lam * lam,
            "quantization_term": (2.0 + math.log(2.0 * theta)) / n,
        })


def capacity(rho: float, rho_dec: float, rho_adv: float) -> float:
    """Authenticated-channel capacity: (1/2) ln(1 + rho/rho_dec) when the
    adversary's observation is noisy (rho_adv > 0), else 0."""
    check_reals(BoundsError, rho=rho, rho_adv=rho_adv)
    check_reals(BoundsError, positive=True, rho_dec=rho_dec)
    if rho_adv == 0.0:
        return 0.0
    return 0.5 * math.log1p(rho / rho_dec)


@dataclass(frozen=True)
class OptimalLevels:
    """Asymptotically optimal level-set candidate plus the predicted
    false-authentication factor (reported verbatim, which omits the
    per-level coordinate count, and rescaled by a supplied ell)."""

    levels: tuple[float, ...]
    valid: bool
    invalid_levels: tuple[float, ...]
    c: float
    false_auth_factor: float
    false_auth_factor_scaled: float | None


def optimal_levels(count: int, gamma: float, rho_delta: float,
                   rho_dec: float, delta: float = 0.0,
                   ell: int | None = None) -> OptimalLevels:
    """Candidate K = {0, k_(1), ..., k_(count-1)} with
    k_(a) = ((1 - c gamma)/(c (1-gamma)))^(a-1) rho_dec/rho_delta and
    c = rho_dec^(1/count) / (gamma rho_dec^(1/count)
        + (1-gamma) (rho_delta+rho_dec)^(1/count)).

    Levels landing outside [0,1) are flagged invalid, never clamped.
    """
    check_int("count", count, BoundsError)
    if ell is not None:
        check_int("ell", ell, BoundsError)
    check_reals(BoundsError, positive=True, gamma=gamma, delta=delta,
                rho_delta=rho_delta, rho_dec=rho_dec)
    root = 1.0 / count
    c = rho_dec**root / (gamma * rho_dec**root
                         + (1.0 - gamma) * (rho_delta + rho_dec)**root)
    ratio = (1.0 - c * gamma) / (c * (1.0 - gamma))
    ks = [0.0] + [ratio**(a - 1) * rho_dec / rho_delta
                  for a in range(1, count)]
    invalid = tuple(k for k in ks if not 0.0 <= k < 1.0)
    increasing = all(a < b for a, b in zip(ks, ks[1:]))
    factor = math.exp(-(1.0 - gamma) * (1.0 - (1.0 + delta) * c)**2 / 8.0)
    scaled = (math.exp(-ell * (1.0 - gamma) * (1.0 - (1.0 + delta) * c)**2 / 8.0)
              if ell is not None else None)
    return OptimalLevels(levels=tuple(ks),
                         valid=not invalid and increasing,
                         invalid_levels=invalid, c=c,
                         false_auth_factor=factor,
                         false_auth_factor_scaled=scaled)


@dataclass(frozen=True)
class RateGap:
    exact: float      # capacity difference, identically (1/2) ln(1 + rho_delta/rho_dec)
    series: float     # -ln(1 - c rho_delta), the series sum_i (c rho_delta)^i / i
    c: float


def rate_gap(rho: float, rho_dec: float, rho_delta: float) -> RateGap:
    """Rate cost of reserving rho_delta of the power budget for
    authentication noise.  The exact gap
    (1/2)ln(1 + rho/rho_dec) - (1/2)ln(1 + (rho - rho_delta)/(rho_dec + rho_delta))
    telescopes to (1/2)ln(1 + rho_delta/rho_dec) — independent of rho.
    The series form uses c = (rho+rho_dec)/(rho+rho_dec+rho_delta(1+rho/rho_dec)).
    """
    check_reals(BoundsError, rho=rho)
    check_reals(BoundsError, positive=True, rho_dec=rho_dec, rho_delta=rho_delta)
    if rho_delta >= rho:
        raise BoundsError("rho_delta must be smaller than the power budget rho")
    exact = (0.5 * math.log1p(rho / rho_dec)
             - 0.5 * math.log1p((rho - rho_delta) / (rho_dec + rho_delta)))
    c = (rho + rho_dec) / (rho + rho_dec + rho_delta * (1.0 + rho / rho_dec))
    x = c * rho_delta
    series = -math.log1p(-x) if x < 1.0 else math.inf
    return RateGap(exact=exact, series=series, c=c)


def hypergeom_log_bound(a: int, b: int, c: int) -> float:
    """Lower bound on -ln Pr(overlap of two uniform b-subsets of [a] is
    exactly c): a*i2(c/b || b/a) - 1/3 - 2 ln a.  Requires
    a > b > c >= max(b - (a - b), 1)."""
    for name, value in (("a", a), ("b", b), ("c", c)):
        check_int(name, value, BoundsError)
    if not (a > b > c >= max(b - (a - b), 1)):
        raise BoundsError(
            f"need a > b > c >= max(2b - a, 1), got a={a}, b={b}, c={c}")
    return a * numerics.i2(c / b, b / a) - 1.0 / 3.0 - 2.0 * math.log(a)


@dataclass(frozen=True)
class HoeffdingBounds:
    lemma: float
    corollary: float


def hoeffding_wo_replacement_bound(set_size: int, beta: int, mu: float,
                                   eta: float, c: float) -> HoeffdingBounds:
    """Tail of a without-replacement sample sum: for beta draws from a
    population with mean mu and per-element ceiling eta,
    Pr(mean >= c mu) <= exp(-beta D2(c mu || mu)) and, sharpened by the
    ceiling, <= exp(-beta D2(c mu / eta || mu / eta))."""
    check_int("set_size", set_size, BoundsError)
    check_int("beta", beta, BoundsError)
    check_reals(BoundsError, positive=True, mu=mu, eta=eta, c=c)
    if beta > set_size:
        raise BoundsError("need beta <= set_size")
    if not mu <= eta <= 1.0:
        raise BoundsError("need mu <= eta <= 1")
    if not 1.0 < c <= eta / mu:
        raise BoundsError("need 1 < c <= eta/mu")
    lemma = math.exp(-beta * numerics.d2(c * mu, mu))
    corollary = math.exp(-beta * numerics.d2(c * mu / eta, mu / eta))
    return HoeffdingBounds(lemma=lemma, corollary=corollary)


@dataclass(frozen=True)
class MixedVarianceTail:
    lam: float
    bound: float


def mixed_variance_lower_tail_bound(tau: Sequence[float], alpha: float,
                                    beta: float, gamma_frac: float,
                                    b: float, c: float) -> MixedVarianceTail:
    """Bound on Pr(sum_i G^2_{tau_i} <= n(1+c)b) when every variance is
    at least alpha and at least a (1-gamma_frac) fraction reach beta:
    with lam = |1 - (1+c)b/(gamma_frac alpha + (1-gamma_frac) beta)|+,
    the tail is at most e^{-n gamma_frac lam^2/8} + e^{-n(1-gamma_frac) lam^2/8}.
    """
    n = len(tau)
    if n == 0:
        raise BoundsError("tau must be nonempty")
    check_reals(BoundsError, positive=True, alpha=alpha, beta=beta,
                gamma_frac=gamma_frac, b=b,
                **{f"tau[{i}]": t for i, t in enumerate(tau)})
    check_reals(BoundsError, c=c)
    if beta < alpha:
        raise BoundsError("need alpha <= beta")
    if any(t < alpha for t in tau):
        raise BoundsError("every variance must be at least alpha")
    below = sum(1 for t in tau if t < beta) / n
    if not below <= gamma_frac < 1.0:
        raise BoundsError(
            f"gamma_frac={gamma_frac} must lie below 1 and not below the "
            f"fraction {below} of variances under beta")
    lam = max(0.0, 1.0 - (1.0 + c) * b
              / (gamma_frac * alpha + (1.0 - gamma_frac) * beta))
    bound = (math.exp(-n * gamma_frac * lam * lam / 8.0)
             + math.exp(-n * (1.0 - gamma_frac) * lam * lam / 8.0))
    return MixedVarianceTail(lam=lam, bound=bound)


def bounds_report(n: int, level_set: LevelSet, gamma: float, delta: float,
                  rho_delta: float, rho_dec: float,
                  omega_h: float, rate_h: float, epsilon_h: float,
                  rho_adv: float | None = None,
                  omega_wrapped: float | None = None,
                  t_zero: bool = False,
                  adversary_agnostic: bool = False) -> dict[str, Any]:
    """Flat, labelled report of every closed-form quantity for a
    parameter point; the injection block needs rho_adv, the decimation
    block runs with lambda = 0 when adversary-agnostic."""
    check_int("n", n, BoundsError)
    # a NaN omega_h would skip the rate gap
    check_reals(BoundsError, omega_h=omega_h, gamma=gamma, delta=delta,
                rate_h=rate_h)
    out: dict[str, Any] = {
        "ell": n // len(level_set.extended),
        "levels": list(level_set.levels),
        "gamma": gamma, "delta": delta,
        "rho_delta": rho_delta, "rho_dec": rho_dec, "rho_adv": rho_adv,
    }
    if rho_adv is not None:
        inj = injection_bounds(n, level_set, gamma, delta, rho_delta,
                               rho_adv, rho_dec, omega_h, rate_h, epsilon_h,
                               t_zero=t_zero)
        out["capacity"] = capacity(omega_h + rho_delta, rho_dec, rho_adv)
        out["detection_margin"] = inj.lam
        out["detection_margin_argmin_level"] = inj.lam_argmin_level
        out["residual_variance_by_level"] = {
            repr(k): v for k, v in inj.residual_by_level.items()}
        out["injected_rate"] = inj.rate
        out["injected_power_bound"] = inj.power_bound
        out["injected_power_bound_variant"] = inj.power_bound_variant
        out["injected_error_bound"] = inj.epsilon_bound
        out["injected_error_bound_variant"] = inj.epsilon_bound_variant
        out["injected_error_terms"] = inj.epsilon_terms
        out["targeted_false_auth_bound"] = inj.alpha_star_bound
        out["targeted_false_auth_bound_vacuous"] = inj.alpha_star_vacuous
    dec = decimation_bounds(n, level_set, gamma, delta, rho_delta, rho_dec,
                            omega_wrapped if omega_wrapped is not None else omega_h,
                            rate_h, epsilon_h, rho_adv=rho_adv,
                            adversary_agnostic=adversary_agnostic or rho_adv is None)
    out["decimation_margin"] = dec.lam
    out["decimation_quantization_radius"] = dec.theta
    out["decimated_rate"] = dec.r_decimated
    out["decimated_target_size"] = dec.target_size
    out["decimated_rate_bound"] = dec.rate_bound
    out["decimated_false_auth_bound"] = dec.alpha_bound
    out["decimated_false_auth_bound_vacuous"] = dec.alpha_vacuous
    out["decimated_error_bound"] = dec.epsilon_bound
    out["decimation_analysed_rate_feasible"] = dec.feasible
    out["decimation_terms"] = dec.terms
    out["rate_gap_exact"] = (rate_gap(omega_h + rho_delta, rho_dec, rho_delta).exact
                             if omega_h + rho_delta > rho_delta else None)
    return out

"""Estimate records and binomial confidence intervals."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any

from scipy.special import ndtri

from .streams import check_int, check_reals

CONFIDENCE = 0.95   # the level of every interval an estimate reports


def _check_counts(successes: int, trials: int) -> None:
    check_int("trials", trials, ValueError)
    check_int("successes", successes, ValueError, 0)
    if successes > trials:
        raise ValueError(f"successes must lie in [0, {trials}], got {successes}")


def _z_value(confidence: float) -> float:
    check_reals(ValueError, confidence=confidence)
    return float(ndtri(0.5 + confidence / 2.0))


def wilson_interval(successes: int, trials: int,
                    confidence: float = CONFIDENCE) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    _check_counts(successes, trials)
    z = _z_value(confidence)
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials)) / denom
    # At the boundaries the exact interval touches 0/1; clamp the roundoff.
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


def binomial_se(successes: int, trials: int) -> float:
    _check_counts(successes, trials)
    p = successes / trials
    return math.sqrt(p * (1.0 - p) / trials)


@dataclass(frozen=True)
class EstimateReport:
    """A Monte Carlo estimate with its interval and optional bound pairing;
    its counts are checked as ``wilson_interval`` checks them."""

    metric: str
    successes: int
    trials: int
    confidence: float = CONFIDENCE
    seed: int | None = None
    params: dict[str, Any] = field(default_factory=dict)
    bound: float | None = None
    bound_label: str | None = None
    detail: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_counts(self.successes, self.trials)

    @property
    def estimate(self) -> float:
        return self.successes / self.trials

    @property
    def interval(self) -> tuple[float, float]:
        return wilson_interval(self.successes, self.trials, self.confidence)

    @property
    def se(self) -> float:
        return binomial_se(self.successes, self.trials)

    @property
    def dominated(self) -> bool | None:
        """estimate <= bound + 3 SE, or None when no bound is attached."""
        if self.bound is None:
            return None
        return self.estimate <= self.bound + 3.0 * self.se

    def with_bound(self, bound: float, label: str) -> "EstimateReport":
        return replace(self, bound=bound, bound_label=label)

    def to_json_dict(self) -> dict[str, Any]:
        lo, hi = self.interval
        out: dict[str, Any] = {
            "metric": self.metric,
            "estimate": self.estimate,
            "successes": self.successes,
            "trials": self.trials,
            "ci_lo": lo,
            "ci_hi": hi,
            "confidence": self.confidence,
            "seed": self.seed,
            "params": self.params,
        }
        if self.bound is not None:
            out["bound"] = self.bound
            out["bound_label"] = self.bound_label
            out["dominated"] = self.dominated
        if self.detail:
            out["detail"] = self.detail
        return out

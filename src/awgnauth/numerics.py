"""Scalar numeric primitives: binary entropy/divergence, chi-square tail
bounds, Gaussian posterior moments, and quantization slack.

All information quantities are in nats.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .streams import check_int, check_reals

_EPS = math.ulp(1.0)


def _xlogx(a: float) -> float:
    return 0.0 if a == 0.0 else a * math.log(a)


def h2(a: float) -> float:
    """Binary entropy -a ln a - (1-a) ln(1-a); endpoints give 0."""
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"h2 argument must lie in [0,1], got {a}")
    return -_xlogx(a) - _xlogx(1.0 - a)


def d2(a: float, b: float) -> float:
    """Binary divergence a ln(a/b) + (1-a) ln((1-a)/(1-b))."""
    check_reals(ValueError, b=b)
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"d2 first argument must lie in [0,1], got {a}")
    if b <= 0.0 or b >= 1.0:
        if a == b:
            return 0.0
        raise ValueError(f"d2 second argument must lie in (0,1), got {b}")
    term = 0.0
    if a > 0.0:
        term += a * math.log(a / b)
    if a < 1.0:
        term += (1.0 - a) * math.log((1.0 - a) / (1.0 - b))
    return term


def _i2_mixture(a: float, b: float) -> float:
    if not (0.0 < a < 1.0 and 0.0 < b < 1.0):
        raise ValueError(f"i2 arguments must lie in (0,1), got a={a}, b={b}")
    m = b * (1.0 - a) / (1.0 - b)
    if m > 1.0:
        # (1-a) amplifies a half-ulp of a into ~a/(1-a) ulps of m, so the
        # degenerate boundary case m == 1 needs a few-ulp closure window
        if m < 1.0 + 16 * _EPS:
            return 1.0
        raise ValueError(
            f"i2 undefined: b(1-a)/(1-b) = {m} exceeds 1 for a={a}, b={b}")
    return m


def i2(a: float, b: float) -> float:
    """Overlap information term, entropy form:
    H2(b) - b*H2(a) - (1-b)*H2(b(1-a)/(1-b)).
    """
    m = _i2_mixture(a, b)
    return h2(b) - b * h2(a) - (1.0 - b) * h2(m)


def i2_divergence_form(a: float, b: float) -> float:
    """Equivalent divergence form b*D2(a||b) + (1-b)*D2(b(1-a)/(1-b)||b).

    Agrees with :func:`i2` to ~1e-12 relative; kept as a cross-check.
    """
    m = _i2_mixture(a, b)
    return b * d2(a, b) + (1.0 - b) * d2(m, b)


def chi_square_tail_bound(n: int, c: float) -> float:
    """Upper bound on Pr(sum of n squared N(0,rho) deviates by factor 1+-c):
    exp(-c^2 n / 8) for c <= 1, exp(-c n / 8) for c > 1.  Independent of rho.
    """
    check_int("n", n, ValueError)
    check_reals(ValueError, c=c)
    expo = c * c * n / 8.0 if c <= 1.0 else c * n / 8.0
    return math.exp(-expo)


def gaussian_posterior(rho: float, a: float, z: float) -> tuple[float, float]:
    """Moments of X | {X + G_a = z} for X ~ N(0, rho), G_a ~ N(0, a):
    mean (rho/(rho+a)) z, variance rho*a/(rho+a).
    """
    check_reals(ValueError, rho=rho, a=a)
    if rho + a <= 0.0:
        raise ValueError("variances must not both be zero")
    return (rho / (rho + a)) * z, rho * a / (rho + a)


def quantization_slack(n: int, rho_vec: Sequence[float], c: float) -> float:
    """Mean-grid slack c^{-1} sqrt(sum_i 1/(2 rho_i))."""
    check_int("n", n, ValueError)
    if len(rho_vec) != n:
        raise ValueError(f"rho_vec must have length n={n}, got {len(rho_vec)}")
    check_reals(ValueError, positive=True, c=c,
                **{f"rho_vec[{i}]": r for i, r in enumerate(rho_vec)})
    return math.sqrt(sum(1.0 / (2.0 * r) for r in rho_vec)) / c


def gaussian_cdf(x: float) -> float:
    """Standard normal CDF via erf; absolute error below 1e-12."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))

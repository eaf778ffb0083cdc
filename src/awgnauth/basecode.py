"""Deterministic channel codes used as the substrate for authentication."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any

import numpy as np

from .reporting import EstimateReport
from .streams import Role, block_rows, check_int, choices, normals, one_shot_rng


class BaseCodeError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class BaseCode:
    """A codeword table with minimum-distance decoding (ties resolve to
    the smallest message id, which on an antipodal pair reproduces the
    sign rule exactly).  ``null_id`` marks an optional 'not transmitting'
    message whose codeword is the zero vector."""

    codewords: np.ndarray  # (message_count, n) float64
    null_id: int | None = None

    def __post_init__(self) -> None:
        cw = np.asarray(self.codewords, dtype=np.float64)
        if cw.ndim != 2 or cw.shape[0] < 1 or cw.shape[1] < 1:
            raise BaseCodeError("codewords must be a (messages, n) matrix")
        object.__setattr__(self, "codewords", cw)
        if self.null_id is not None:
            if not 0 <= self.null_id < cw.shape[0]:
                raise BaseCodeError("null_id out of range")
            if np.any(cw[self.null_id]):
                raise BaseCodeError("the null message must map to the zero codeword")
        seen = {cw[m].tobytes() for m in range(cw.shape[0])}
        if len(seen) != cw.shape[0]:
            raise BaseCodeError("codewords must be pairwise distinct")

    @property
    def n(self) -> int:
        return self.codewords.shape[1]

    @property
    def message_count(self) -> int:
        return self.codewords.shape[0]

    @property
    def power(self) -> float:
        """Max-message average power: max_m (1/n) sum_i x_i(m)^2."""
        return float(np.max(np.mean(self.codewords**2, axis=1)))

    @property
    def rate(self) -> float:
        """(1/n) ln(message count), nats per symbol."""
        return math.log(self.message_count) / self.n

    @property
    def non_null_ids(self) -> np.ndarray:
        """The id of every message but the null message, ascending."""
        ids = np.arange(self.message_count, dtype=np.int64)
        return ids if self.null_id is None else np.delete(ids, self.null_id)

    @cached_property
    def _half_norms(self) -> np.ndarray:
        """||x||^2 / 2 per message, computed on the first decode."""
        return 0.5 * np.sum(self.codewords**2, axis=1)

    def decode_batch(self, ys: np.ndarray) -> np.ndarray:
        """Minimum Euclidean distance decode of a (batch, n) matrix."""
        ys = np.asarray(ys, dtype=np.float64)
        # ||y - x||^2 = ||y||^2 - 2 y.x + ||x||^2; the ||y||^2 column is
        # constant per row and can be dropped from the argmin.
        scores = ys @ self.codewords.T
        scores -= self._half_norms
        return np.argmax(scores, axis=1).astype(np.int64)


def make_antipodal_code(n: int, omega: float) -> BaseCode:
    """Two messages at +-sqrt(omega) on every coordinate; decoding reduces
    to the sign of sum(y) with ties going to message 0."""
    if n < 1 or omega <= 0.0:
        raise BaseCodeError("n >= 1 and omega > 0 required")
    amp = math.sqrt(omega)
    return BaseCode(np.vstack([np.full(n, amp), np.full(n, -amp)]))


def make_random_gaussian_code(n: int, message_count: int, omega: float,
                              seed: int = 0, *, null_message: bool = False) -> BaseCode:
    """I.i.d. Gaussian codewords rescaled so the max-message power equals
    omega exactly; optionally appends the zero codeword as a null message."""
    if n < 1 or message_count < 1 or omega <= 0.0:
        raise BaseCodeError("n >= 1, message_count >= 1, omega > 0 required")
    cw = one_shot_rng(seed, Role.CODEBOOK).standard_normal((message_count, n))
    cw *= math.sqrt(omega / np.max(np.mean(cw**2, axis=1)))
    null_id = None
    if null_message:
        cw = np.vstack([cw, np.zeros(n)])
        null_id = message_count
    return BaseCode(cw, null_id=null_id)


def antipodal_error_probability(n: int, omega: float, rho_dec: float) -> float:
    """Closed-form block error of the antipodal pair: Phi(-sqrt(n*omega/rho_dec))."""
    from .numerics import gaussian_cdf
    return gaussian_cdf(-math.sqrt(n * omega / rho_dec))


def base_error_probability(code: BaseCode, rho_dec: float, trials: int,
                           seed: int = 0) -> EstimateReport:
    """Monte Carlo block-error rate under AWGN of variance rho_dec with
    messages drawn uniformly from the non-null messages (the
    arithmetic-mean error criterion).

    Channel noise is the DECODER role's unit normals scaled by
    sqrt(rho_dec), so estimates at different rho_dec values share
    randomness and are pointwise monotone.  Blocks of trials are sized
    by ``streams.block_rows``.
    """
    check_int("trials", trials, BaseCodeError, 100)
    check_int("seed", seed, BaseCodeError, 0)
    if not 0.0 < rho_dec < math.inf:
        raise BaseCodeError("rho_dec must be positive and finite")
    pool = code.non_null_ids
    scale = math.sqrt(rho_dec)
    batch = block_rows(code.n, code.message_count)
    errors = 0
    for t0 in range(0, trials, batch):
        b = min(batch, trials - t0)
        ms = pool[choices(seed, Role.MESSAGE, t0, b, pool.size)]
        noise = normals(seed, Role.DECODER, t0, b, code.n)
        decoded = code.decode_batch(code.codewords[ms] + scale * noise)
        errors += int(np.sum(decoded != ms))
    return EstimateReport(
        metric="base_error", successes=errors, trials=trials, seed=seed,
        params={"rho_dec": rho_dec, "n": code.n,
                "message_count": code.message_count})


def to_json_dict(code: BaseCode) -> dict[str, Any]:
    out: dict[str, Any] = {
        "n": code.n,
        "omega": code.power,
        "codewords": code.codewords.tolist(),
    }
    if code.null_id is not None:
        out["null_id"] = code.null_id
    return out


def from_json_dict(data: dict[str, Any]) -> BaseCode:
    return BaseCode(np.asarray(data["codewords"], dtype=np.float64),
                    null_id=data.get("null_id"))

"""Deterministic channel codes used as the substrate for authentication."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any

import numpy as np

from .reporting import EstimateReport
from .streams import (ROW_VALUES, Role, block_rows, check_ids, check_int,
                      check_powers, choices, draw_buffer, normals,
                      one_shot_rng, row_chunks)

_U32, _U64 = 2.0 ** -24, 2.0 ** -53   # unit roundoffs of float32 and float64
# the absolute error a float32 operation may add when its result underflows,
# doubled: covers gradual underflow and flush-to-zero alike
_FLUSH32 = 2.0 ** -125
# magnitudes that the float32 screen's operands, sums and scores may reach
_RANGE32 = 2.0 ** 120
# 2**64 / golden ratio, odd: ``_distinct`` multiplies column i of a row's
# words by (2i + 1) times it, an odd multiplier per column
_GOLDEN64 = np.uint64(0x9E3779B97F4A7C15)


class BaseCodeError(ValueError):
    pass


def _mean_squares(cw: np.ndarray) -> np.ndarray:
    """(1/n) sum_i x_i^2 of each row, computed in chunks of rows, each row
    by that one expression."""
    out = np.empty(cw.shape[0])
    for c in row_chunks(cw.shape[0], cw.shape[1], ROW_VALUES):
        out[c] = np.mean(cw[c] ** 2, axis=1)
    return out


def _distinct(cw: np.ndarray) -> bool:
    """Whether the rows of ``cw`` differ pairwise bit for bit (0.0 and -0.0
    differ, as their bytes do).  Each row's 64-bit words are folded and
    hashed with wrapping integer arithmetic, in chunks of rows; only rows
    whose hashes collide are compared, so no row is copied otherwise."""
    count, n = cw.shape
    bits = cw.view(np.uint64)
    mult = np.arange(1, 2 * n, 2, dtype=np.uint64) * _GOLDEN64
    hashes = np.empty(count, dtype=np.uint64)
    for c in row_chunks(count, n, ROW_VALUES):
        # the fold carries the sign bit into bit 31, where the
        # multipliers spread it: sign flips alone seldom cancel
        words = bits[c] >> np.uint64(32)
        words ^= bits[c]
        hashes[c] = words @ mult
        del words   # before the next chunk's words exist
    order = np.argsort(hashes, kind="stable")
    ordered = hashes[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    sizes = np.diff(np.r_[starts, count])
    for start, size in zip(starts[sizes > 1], sizes[sizes > 1]):
        if len({bits[m].tobytes() for m in order[start:start + size]}) < size:
            return False
    return True


def _gamma(k: int, u: float) -> float:
    """Higham's gamma_k = k u / (1 - k u): a k-term dot product computed
    with unit roundoff u, in any summation order and with or without
    fused multiply-adds, is within gamma_k sum |x_i y_i| of exact."""
    return k * u / (1.0 - k * u) if k * u < 1.0 else math.inf


@dataclass(frozen=True, eq=False)
class BaseCode:
    """A codeword table with minimum-distance decoding (ties resolve to
    the smallest message id, which on an antipodal pair reproduces the
    sign rule exactly).  ``null_id`` marks an optional 'not transmitting'
    message whose codeword is the zero vector.

    Precision contract: ``decode_batch`` returns, bit for bit, the float64
    argmax of ``ys @ codewords.T - ||x||^2 / 2`` (ties to the smallest
    id).  It scores a block in float32 first, against a float32 copy of
    the codewords built on the first decode, and keeps a row's float32
    argmax only when its lead over every other message exceeds a
    rigorous bound on the float32 and float64 scoring errors, so that the
    float64 argmax is provably the same unique message.  If any row of a
    block is not certified (exact or near ties, values outside float32's
    range or near its underflow), the whole block is scored in float64."""

    codewords: np.ndarray  # (message_count, n) float64
    null_id: int | None = None

    def __post_init__(self) -> None:
        cw = np.asarray(self.codewords, dtype=np.float64)
        if cw.ndim != 2 or cw.shape[0] < 1 or cw.shape[1] < 1:
            raise BaseCodeError("codewords must be a (messages, n) matrix")
        object.__setattr__(self, "codewords", cw)
        if self.null_id is not None:
            check_ids("null_id", self.null_id, cw.shape[0], BaseCodeError)
            if np.any(cw[self.null_id]):
                raise BaseCodeError("the null message must map to the zero codeword")
        if not _distinct(cw):
            raise BaseCodeError("codewords must be pairwise distinct")

    @property
    def n(self) -> int:
        return self.codewords.shape[1]

    @property
    def message_count(self) -> int:
        return self.codewords.shape[0]

    @cached_property
    def power(self) -> float:
        """Max-message average power: max_m (1/n) sum_i x_i(m)^2, computed
        on first use in chunks of rows."""
        return float(np.max(_mean_squares(self.codewords)))

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

    @cached_property
    def _screen(self) -> tuple[np.ndarray, np.ndarray, float, float, float]:
        """The float32 codewords and half-norms, the largest codeword norm
        X, the largest half-norm H and the relative error bound g of the
        two scorings; computed on the first decode."""
        half = self._half_norms
        hmax = float(np.max(half))
        # a code beyond float32's range never passes the range check
        with np.errstate(over="ignore"):
            words = self.codewords.astype(np.float32)
            half32 = half.astype(np.float32)
        return (words, half32, math.sqrt(2.0 * hmax), hmax,
                _gamma(self.n + 3, _U32) + _gamma(self.n + 3, _U64))

    def decode_batch(self, ys: np.ndarray) -> np.ndarray:
        """Minimum Euclidean distance decode of a (rows, n) matrix; see the
        class docstring for the precision contract."""
        ys = np.asarray(ys, dtype=np.float64)
        if ys.ndim != 2 or ys.shape[1] != self.n:
            raise BaseCodeError("ys must be a (rows, n) matrix")
        # ||y - x||^2 = ||y||^2 - 2 y.x + ||x||^2; the ||y||^2 column is
        # constant per row and can be dropped from the argmin.
        words, half, xmax, hmax, g = self._screen
        norms = np.sqrt(np.einsum("ij,ij->i", ys, ys))
        # |y_i| <= ||y||, every partial dot sum is at most ||y|| X and every
        # score at most ||y|| X + H: in range, nothing overflows in float32
        # (NaN or infinite rows fail here too)
        if np.all(norms * (xmax + 1.0) + hmax < _RANGE32):
            scores = ys.astype(np.float32) @ words.T
            scores -= half
            best = np.argmax(scores, axis=1)
            top = np.take(scores.reshape(-1),
                          best + np.arange(len(ys)) * self.message_count)
            # Each float32 score is within err of its float64 twin (Higham
            # 3.1: the rounding of y, x and H to float32, the n-term dot
            # products and the subtraction of H, in both precisions, plus
            # an absolute term for float32 underflow).  A lead above 2 err
            # makes the float64 argmax the same unique message.  The floor
            # sits 4 err below the top so that its own rounding to float32
            # (at most u (||y|| X + H) <= err / 4) keeps the lead above
            # 2 err; each row's top is at or above its floor, so the count
            # equals the row count only if no other score reaches a floor.
            err = (g * (norms * xmax + hmax) + _FLUSH32
                   * (math.sqrt(self.n) * (norms + xmax) + self.n + 2))
            floor = (top - 4.0 * err).astype(np.float32)
            if np.count_nonzero(scores >= floor[:, None]) == len(ys):
                return best.astype(np.int64)
            del scores
        scores = ys @ self.codewords.T
        scores -= self._half_norms
        return np.argmax(scores, axis=1).astype(np.int64)


def make_antipodal_code(n: int, omega: float) -> BaseCode:
    """Two messages at +-sqrt(omega) on every coordinate; decoding reduces
    to the sign of sum(y) with ties going to message 0."""
    check_int("n", n, BaseCodeError)
    check_powers(BaseCodeError, positive=True, omega=omega)
    amp = math.sqrt(omega)
    return BaseCode(np.vstack([np.full(n, amp), np.full(n, -amp)]))


def make_random_gaussian_code(n: int, message_count: int, omega: float,
                              seed: int = 0, *, null_message: bool = False) -> BaseCode:
    """I.i.d. Gaussian codewords rescaled so the max-message power equals
    omega exactly; optionally appends the zero codeword as a null message."""
    check_int("n", n, BaseCodeError)
    check_int("message_count", message_count, BaseCodeError)
    check_powers(BaseCodeError, positive=True, omega=omega)
    cw = one_shot_rng(seed, Role.CODEBOOK).standard_normal((message_count, n))
    cw *= math.sqrt(omega / np.max(_mean_squares(cw)))
    null_id = None
    if null_message:
        cw = np.vstack([cw, np.zeros(n)])
        null_id = message_count
    return BaseCode(cw, null_id=null_id)


def antipodal_error_probability(n: int, omega: float, rho_dec: float) -> float:
    """Closed-form block error of the antipodal pair: Phi(-sqrt(n*omega/rho_dec))."""
    from .numerics import gaussian_cdf
    check_powers(BaseCodeError, positive=True, omega=omega, rho_dec=rho_dec)
    return gaussian_cdf(-math.sqrt(n * omega / rho_dec))


def base_error_probability(code: BaseCode, rho_dec: float, trials: int,
                           seed: int = 0) -> EstimateReport:
    """Monte Carlo block-error rate under AWGN of variance rho_dec with
    messages drawn uniformly from the non-null messages (the
    arithmetic-mean error criterion).

    Channel noise is the DECODER role's unit normals scaled by
    sqrt(rho_dec), so estimates at different rho_dec values share
    randomness and are pointwise monotone.  Blocks of trials are sized
    by ``streams.block_rows`` and drawn, gathered and summed into arrays
    allocated once per call.
    """
    check_int("trials", trials, BaseCodeError, 100)
    check_int("seed", seed, BaseCodeError, 0)
    check_powers(BaseCodeError, positive=True, rho_dec=rho_dec)
    pool = code.non_null_ids
    scale = math.sqrt(rho_dec)
    batch = block_rows(code.n, code.message_count)
    # one block's draws and received rows, reused by every block
    rows = min(batch, trials)
    noise_buf, ys_buf = draw_buffer(rows, code.n), np.empty((rows, code.n))
    errors = 0
    for t0 in range(0, trials, batch):
        b = min(batch, trials - t0)
        ms = pool[choices(seed, Role.MESSAGE, t0, b, pool.size)]
        noise = normals(seed, Role.DECODER, t0, b, code.n, out=noise_buf[:b])
        noise *= scale
        # mode="clip" gathers straight into ``ys_buf`` (the default
        # copies); the ids come from ``pool`` and are in range
        ys = np.take(code.codewords, ms, axis=0, out=ys_buf[:b], mode="clip")
        ys += noise
        decoded = code.decode_batch(ys)
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

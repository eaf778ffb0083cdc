"""Deterministic channel codes used as the substrate for authentication:
codeword tables, their minimum-distance decode and the code builders
(``simulate.base_error_probability`` estimates a code's decode error)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any, NamedTuple

import numpy as np

from .streams import (CHUNK_VALUES, ROW_VALUES, TILE_VALUES, Role,
                      check_finite_rows, check_ids, check_int, check_reals,
                      check_rows, one_shot_rng, row_chunks)

_U32, _U64 = 2.0 ** -24, 2.0 ** -53   # unit roundoffs of float32 and float64
# the absolute error a float32 operation may add when its result underflows,
# doubled: covers gradual underflow and flush-to-zero alike
_FLUSH32 = 2.0 ** -125
# magnitudes that the float32 screen's operands, sums and scores may reach
_RANGE32 = 2.0 ** 120
# the screen's splits are j n / _SPLITS, 0 < j <= _SPLITS: the last is the
# full width
_SPLITS = 16
# a prefix screen's per-row work, in sgemm multiply-adds: with 2 BLAS
# threads on a 2-core x86-64 host it broke even with the full width when
# it saved M (n - d) of them per row, between 300 n and 500 n at n = 128
# to 600
_PREFIX_COST = 512
# 2**64 / golden ratio, odd: ``_distinct`` multiplies column i of a row's
# words by (2i + 1) times it, an odd multiplier per column
_GOLDEN64 = np.uint64(0x9E3779B97F4A7C15)


class BaseCodeError(ValueError):
    pass


class _Screen(NamedTuple):
    """The float32 decode table and the constants of its screen (see
    ``BaseCode._screen``)."""

    words: np.ndarray          # (M, k + 1 + n) float32
    xmax: float                # the largest codeword norm X
    hmax: float                # the largest half-norm H
    g: float                   # relative error bound of both scorings
    splits: tuple[int, ...]    # d_0 < .. < d_k = n
    omega: float               # the mean power


def _sum_squares(cw: np.ndarray) -> np.ndarray:
    """sum_i x_i^2 of each row, computed in chunks of rows, each row by
    that one expression (``np.mean`` divides this very sum by n)."""
    out = np.empty(cw.shape[0])
    for c in row_chunks(cw.shape[0], cw.shape[1], ROW_VALUES):
        out[c] = np.sum(cw[c] ** 2, axis=1)
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


def _tiled_top(ys: np.ndarray, words: np.ndarray, values: int
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row of ``ys``, the id and value of its largest score
    ``ys @ words[m]`` (the first on ties) and the largest of its other
    scores.  The messages go in tiles of at most ``values`` scores (one
    message a tile at least), computed in one buffer allocated per
    call."""
    rows, count = len(ys), len(words)
    step = max(1, values // max(rows, 1))
    buf = np.empty(rows * min(step, count), ys.dtype)
    for m0 in range(0, count, step):
        tile = slice(m0, min(m0 + step, count))
        width = tile.stop - m0
        flat = buf[:rows * width]   # the tile's scores, row by row
        scores = flat.reshape(rows, width)
        np.matmul(ys, words[tile].T, out=scores)
        ids = np.argmax(scores, axis=1)
        starts = np.arange(0, rows * width, width)
        vals = flat[starts + ids]   # flat gathers outrun (row, id) pairs
        flat[starts + ids] = -np.inf
        # an argmax and a gather outrun a max over short rows
        others = flat[starts + np.argmax(scores, axis=1)]
        if m0 == 0:
            best, top, runner = ids, vals, others
            continue
        np.maximum(runner, np.minimum(top, vals), out=runner)
        np.maximum(runner, others, out=runner)
        wins = vals > top
        best[wins] = ids[wins] + m0
        np.maximum(top, vals, out=top)
    return best, top, runner


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
    argmax of ``codewords @ y - ||x||^2 / 2`` for each row y on its own
    (ties to the smallest id), whatever the block size, the tiling and the
    BLAS thread count.  It screens a block in float32, against a float32
    table of the codewords built on the first decode, in message tiles of
    at most ``TILE_VALUES`` scores (or the ``tile`` given, a worker's share
    of it) with a running best and second best per row, so a block of any
    size holds one tile of scores.  A screen keeps a row's float32 argmax
    only when its lead over every other message exceeds a rigorous bound
    on the float32 and float64 scoring errors, so that the float64 argmax
    is provably the same unique message.

    A screen at split d scores the d leading coordinates, plus the
    Cauchy-Schwarz bound ||y_R|| ||x_R|| on the rest R: an upper bound on
    every score, so a winner whose float64 score beats every other
    message's bound is the float64 argmax (partial distance search, Bei
    and Gray 1985).  The full width d = n is the last split.  ``_split``
    picks d per block from the rows' norms, the mean power and M, as the
    split with the fewest expected multiply-adds per row; no prefix
    saves any at M <= ``_PREFIX_COST``.  Rows that a prefix cannot
    certify are screened again at the full width.  Each row that no
    screen certifies (an exact or near tie, finite values beyond float32's
    range or near its underflow) is decided by the float64 expression
    alone, one matrix-vector product of the same shape whatever its block.

    The codewords are checked by ``streams.check_rows``, and must be
    finite with a finite power; a batch to decode is checked likewise,
    and a row holding a NaN or an infinity is refused, not decided."""

    codewords: np.ndarray  # (message_count, n) float64
    null_id: int | None = None

    def __post_init__(self) -> None:
        cw = check_rows("codewords", self.codewords, None, BaseCodeError)
        if not cw.size:
            raise BaseCodeError("codewords must hold at least one message "
                                f"and one coordinate, not shape {cw.shape}")
        object.__setattr__(self, "codewords", cw)
        with np.errstate(over="ignore"):   # a power that overflows is inf
            power = self.power
        if not math.isfinite(power):
            raise BaseCodeError("codewords must be finite with a finite "
                                f"power, not a table of power {power}")
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
    def _squares(self) -> np.ndarray:
        """sum_i x_i(m)^2 per message, behind ``power`` and ``_half_norms``."""
        return _sum_squares(self.codewords)

    @cached_property
    def power(self) -> float:
        """Max-message average power: max_m (1/n) sum_i x_i(m)^2."""
        return float(np.max(self._squares / self.n))

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
        return 0.5 * self._squares

    @cached_property
    def _screen(self) -> _Screen:
        """The float32 table and the screen's constants, computed on the
        first decode.  Row m of the table is [||x_(d_0:)||, ..,
        ||x_(d_(k-1):)||, ||x||^2 / 2, x]: the norm of x past each prefix
        split, the half-norm and the codeword."""
        n, count = self.n, self.message_count
        half = self._half_norms
        hmax = float(np.max(half))
        splits = tuple(sorted({j * n // _SPLITS
                               for j in range(1, _SPLITS + 1)} - {0}))
        k = len(splits) - 1
        words = np.empty((count, k + 1 + n), np.float32)
        # a code beyond float32's range never passes the range check
        with np.errstate(over="ignore"):
            for c in row_chunks(count, n, ROW_VALUES):
                # the sums of squares between splits, summed from the end
                parts = np.add.reduceat(self.codewords[c] ** 2,
                                        (0,) + splits[:-1], axis=1)
                tails = np.cumsum(parts[:, :0:-1], axis=1)
                words[c, :k] = np.sqrt(tails[:, ::-1])
            words[:, k] = half
            words[:, k + 1:] = self.codewords
        return _Screen(words, math.sqrt(2.0 * hmax), hmax,
                       _gamma(n + 3, _U32) + _gamma(n + 3, _U64), splits,
                       2.0 * float(np.mean(half)) / n)

    def _split(self, norms: np.ndarray) -> int:
        """The index j of the split d_j that a block is screened at first:
        whichever costs the fewest expected multiply-adds per row.  The
        full width, j = k, costs M (n + 1).  A prefix d costs M times its
        columns, ``_PREFIX_COST`` n for its per-row work (the float64
        score of the winner, the rest norm) and M (n + 1) again for each
        row it leaves to the full width, so none pays where
        ``_PREFIX_COST`` n >= M (n + 1).  With mean power omega and noise
        power s2 estimated from the rows' norms, the true codeword's
        score leads a wrong one's bound by about d omega - (n - d)(sqrt(
        omega (omega + s2)) - omega), with a spread of about sqrt(2 d
        omega (omega + s2)); the share of rows left is estimated by the
        union bound M Q(lead / spread) over the wrong codewords."""
        n, count = self.n, self.message_count
        splits, omega = self._screen.splits, self._screen.omega
        k, full = len(splits) - 1, count * (n + 1)
        if _PREFIX_COST * n >= full or not norms.size or not omega > 0:
            return k
        noise = max(float(np.mean(norms ** 2)) / n - omega, 0.0)
        reach = math.sqrt(omega * (omega + noise))
        cheapest, pick = full, k
        for j, d in enumerate(splits[:-1]):
            lead = d * omega - (n - d) * (reach - omega)
            left = min(1.0, 0.5 * count * math.erfc(
                lead / (2.0 * reach * math.sqrt(d))))
            cost = count * (k - j + 1 + d) + _PREFIX_COST * n + left * full
            if cost < cheapest:
                cheapest, pick = cost, j
        return pick

    def _screen_at(self, ys: np.ndarray, wide: np.ndarray, err: np.ndarray,
                   j: int, tile: int) -> tuple[np.ndarray, np.ndarray]:
        """The float32 screen of ``ys`` at split j: each row's argmax of
        the bound UB(x) = y_S.x_S + ||y_R|| ||x_R|| - ||x||^2 / 2 >= y.x -
        ||x||^2 / 2 (Cauchy-Schwarz on the rest R, past the prefix S of d
        coordinates; UB is the score itself at the full width), and
        whether that argmax is certified as the float64 decode's unique
        message.  The scores go in tiles of at most ``tile``."""
        words, splits = self._screen.words, self._screen.splits
        k, d = len(splits) - 1, splits[j]
        # (||y_R||, 0, .., 0, -1, y_S) against split j's rest norm, the
        # later splits' rest norms, the half-norm and x_S; at the full
        # width the -1 takes column 0: (-1, y) against (||x||^2 / 2, x)
        ys32 = np.empty((len(ys), k - j + 1 + d), np.float32)
        ys32[:, 0] = np.sqrt(np.einsum("ij,ij->i", ys[:, d:], ys[:, d:]))
        ys32[:, 1:k - j] = 0.0
        ys32[:, k - j] = -1.0
        ys32[:, k - j + 1:] = ys[:, :d]
        ys32[wide] = 0.0
        best, score, runner = _tiled_top(ys32, words[:, j:k + 1 + d], tile)
        if d < self.n:
            # the winner's score in float64, a row at a time, in chunks
            score = np.empty(len(ys))
            # rows of at most CHUNK_VALUES values, as ``row_chunks`` cuts them
            chunk = np.empty((min(max(1, CHUNK_VALUES // self.n), len(ys)),
                              self.n))
            for c in row_chunks(len(ys), self.n, CHUNK_VALUES):
                win = np.take(self.codewords, best[c], axis=0,
                              out=chunk[:c.stop - c.start], mode="clip")
                score[c] = np.einsum("ij,ij->i", ys[c], win)
            score -= self._half_norms[best]
        # The one rule: a row is certified when runner < score - 4 err,
        # where score is the winner's float32 top at the full width and
        # its float64 score at a prefix (the subtraction, in float64,
        # rounds by far less than err).  Either case needs 2 err of it.
        # Full width: each float32 score is within err of its float64
        # twin, so the winner's float64 score is at least top - err and
        # every other one at most runner + err.  Prefix: with v =
        # gamma_(n+3) of u64 and S = ||y|| X + H, err is more than 5 v S.
        # Each other message's float64 score is at most its exact score
        # plus v S, at most its exact bound plus v S.  The float32 bound
        # is within err of the bound with the rest norms as computed in
        # float64, which are within v each of exact, so each other score
        # is at most runner + err + 3 v S; the winner's float64 score is
        # at least ``score`` - 2 v S.  Either way the winner leads every
        # other float64 score by 2 err: it is the unique float64 argmax.
        return best, ~wide & (runner < score - 4.0 * err)

    def decode_batch(self, ys: np.ndarray, *,
                     tile: int | None = None) -> np.ndarray:
        """Minimum Euclidean distance decode of a (rows, n) matrix; see the
        class docstring for the precision contract.  ``tile``, a positive
        integer, bounds the scores of a tile in place of ``TILE_VALUES``;
        it changes no id."""
        if tile is None:
            tile = TILE_VALUES
        check_int("tile", tile, BaseCodeError)
        ys = check_rows("ys", ys, self.n, BaseCodeError)
        # ||y - x||^2 = ||y||^2 - 2 y.x + ||x||^2; the ||y||^2 column is
        # constant per row and can be dropped from the argmin.
        screen = self._screen
        # a code beyond float32's range scores inf or NaN, which no row
        # certifies against
        with np.errstate(invalid="ignore", over="ignore"):
            norms = np.sqrt(np.einsum("ij,ij->i", ys, ys))
            # no decode may rule on a NaN or an infinity; finite values
            # whose squares overflow are decided in float64
            check_finite_rows("ys", ys, norms, BaseCodeError)
            # |y_i| <= ||y||, every partial dot sum is at most ||y|| X + H
            # and every score at most ||y|| X + H: a row in range overflows
            # nothing in float32; a row out of range is scored as zeros
            # and decided in float64
            wide = ~(norms * (screen.xmax + 1.0) + screen.hmax < _RANGE32)
            # Each float32 score is within err of its float64 twin (Higham
            # 3.1: the rounding of y, x and H to float32 and the (n+1)-term
            # dot product of (-1, y) with (H, x); the n-term dot product
            # and the subtraction of H in float64; plus an absolute term
            # for float32 underflow, both within gamma_(n+3) of each
            # precision times ||y|| X + H).
            err = (screen.g * (norms * screen.xmax + screen.hmax) + _FLUSH32
                   * (math.sqrt(self.n) * (norms + screen.xmax) + self.n + 2))
            j, k = self._split(norms[~wide]), len(screen.splits) - 1
            best, sure = self._screen_at(ys, wide, err, j, tile)
            doubt = np.flatnonzero(~sure)
            if j < k:
                best[doubt], sure = self._screen_at(ys[doubt], wide[doubt],
                                                    err[doubt], k, tile)
                doubt = doubt[~sure]
        for r in doubt:
            best[r] = np.argmax(self.codewords @ ys[r] - self._half_norms)
        return best


def make_antipodal_code(n: int, omega: float) -> BaseCode:
    """Two messages at +-sqrt(omega) on every coordinate; decoding reduces
    to the sign of sum(y) with ties going to message 0."""
    check_int("n", n, BaseCodeError)
    check_reals(BaseCodeError, domain="positive", omega=omega)
    amp = math.sqrt(omega)
    return BaseCode(np.vstack([np.full(n, amp), np.full(n, -amp)]))


def make_random_gaussian_code(n: int, message_count: int, omega: float,
                              seed: int = 0, *, null_message: bool = False) -> BaseCode:
    """I.i.d. Gaussian codewords rescaled so the max-message power equals
    omega exactly; optionally appends the zero codeword as a null message."""
    check_int("n", n, BaseCodeError)
    check_int("message_count", message_count, BaseCodeError)
    check_int("seed", seed, BaseCodeError, 0)
    check_reals(BaseCodeError, domain="positive", omega=omega)
    cw = one_shot_rng(seed, Role.CODEBOOK).standard_normal((message_count, n))
    cw *= math.sqrt(omega / np.max(_sum_squares(cw) / n))
    null_id = None
    if null_message:
        cw = np.vstack([cw, np.zeros(n)])
        null_id = message_count
    return BaseCode(cw, null_id=null_id)


def antipodal_error_probability(n: int, omega: float, rho_dec: float) -> float:
    """Closed-form block error of the antipodal pair: Phi(-sqrt(n*omega/rho_dec))."""
    from .numerics import gaussian_cdf
    check_int("n", n, BaseCodeError)
    check_reals(BaseCodeError, domain="positive", omega=omega,
                rho_dec=rho_dec)
    return gaussian_cdf(-math.sqrt(n * omega / rho_dec))


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
    """Inverse of ``to_json_dict``; malformed input (a missing key, a
    value of the wrong type or shape, an ``n`` other than the codewords'
    width or an ``omega`` other than their power) raises
    ``BaseCodeError``."""
    try:
        code = BaseCode(np.asarray(data["codewords"]),
                        null_id=data.get("null_id"))
        n, omega = data["n"], data["omega"]
        if n != code.n or omega != code.power:   # to_json_dict writes these
            raise BaseCodeError(
                f"n {n!r} and omega {omega!r} disagree with the codewords' "
                f"width {code.n} and power {code.power!r}")
        return code
    except BaseCodeError:
        raise
    except KeyError as e:
        raise BaseCodeError(f"base code JSON lacks the key {e}") from None
    except (TypeError, AttributeError, ValueError) as e:
        raise BaseCodeError(f"malformed base code JSON: {e}") from None

"""Counter-based random streams for reproducible, mergeable trials.

Every random quantity in a run is drawn from a stream addressed by
(master seed, role, trial index).  Streams are built on Philox, whose
counter can be advanced in O(1), and normals are produced by applying
the Gaussian quantile function to uniforms so that every value consumes
exactly one 64-bit word.  Consequences:

* trial ``t`` of a batch equals trial ``t`` generated on its own,
  bit for bit, so runs can be chunked or parallelised freely;
* the same (seed, role) pair always yields the same *unit-variance*
  draws, which are scaled by ``sqrt(rho)`` at the point of use — runs
  at different noise powers share randomness (common random numbers).

``block_rows`` sizes the blocks of trials that the estimators draw at
once: as many rows as keep a block's n-wide arrays (draws, codewords,
received rows) at 2**17 float64s, 1 MiB, so that they stay in cache,
and its decode score matrix (one score per message) at 2**22.
``row_chunks`` splits a table's rows into chunks of at most a given
number of values, so that a pass over a whole code table holds no
temporary of the table's size.
``uniforms`` and ``normals`` draw into an ``out=`` array from
``draw_buffer`` when given one, so that the estimators allocate a
block's draws once per worker per call and reuse them in every block.
Each single-value rule on a numeric argument is stated once, here:
``check_int`` tests integers (sizes, counts, seeds, trial indices),
``check_ids`` message ids, and ``check_reals`` real numbers (powers,
rates, margins, ``gamma``, ``delta`` and levels), the domain of each
real read from its name.  Rules that relate two arguments stay with
the entry that states them.
"""

from __future__ import annotations

import numbers
from enum import IntEnum
from functools import lru_cache
from math import inf
from typing import Any, Iterator

import numpy as np
from scipy.special import ndtri

_U_MIN = 2.0**-53  # smallest uniform we feed the quantile function
ROW_VALUES = 2 ** 17     # float64 values in a block's n-wide arrays
# scores in a block's decode score matrix: float32 in the decode's screen,
# float64 in a block that falls back to the exact float64 scoring
SCORE_VALUES = 2 ** 22
# values in a chunk of a block's gathers: a chunk's arrays and a block's
# received rows (ROW_VALUES) fit in a 2 MiB L2 cache together
CHUNK_VALUES = 2 ** 15
RETRY_LIMIT = 64   # draws of a set-up table before its construction fails


class Role(IntEnum):
    """Independent randomness consumers within a single experiment."""

    DELTA = 0        # injected authentication noise at the encoder
    ADVERSARY = 1    # adversary's observation noise
    DECODER = 2      # decoder-side channel noise
    MESSAGE = 3      # per-trial message selection
    T_TABLE = 4      # per-code injected-mean table
    DECIMATION = 5   # surviving-message subset
    OVERLAY = 6      # overlay subset sampling
    CODEBOOK = 7     # random base-code construction


@lru_cache(maxsize=64)
def _philox_key(master_seed: int, role: int) -> np.ndarray:
    """The Philox key of a (seed, role) stream, derived once; read-only."""
    ss = np.random.SeedSequence((master_seed, role))
    key = ss.generate_state(2, np.uint64)
    key.flags.writeable = False
    return key


def _stride(width: int) -> int:
    # Philox.advance ticks in blocks of 4 uint64 outputs; pad the
    # per-trial footprint so every trial starts on a block boundary.
    return ((int(width) + 3) // 4) * 4


def draw_buffer(trials: int, width: int) -> np.ndarray:
    """An ``out=`` array for the draws of up to ``trials`` trials of
    ``width`` values; its first ``b`` rows hold a draw of ``b`` trials."""
    return np.empty((trials, _stride(width)))


def uniforms(master_seed: int, role: int, start_trial: int, trials: int,
             width: int, out: np.ndarray | None = None) -> np.ndarray:
    """(trials, width) uniforms on [0,1); trial t is counter slice t.
    ``out``, the first ``trials`` rows of a ``draw_buffer(_, width)``,
    receives them in place of a new array; the result is a view of it."""
    if trials < 0 or width <= 0 or start_trial < 0:
        raise ValueError("start_trial >= 0, trials >= 0, width >= 1 required")
    stride = _stride(width)
    bg = np.random.Philox(key=_philox_key(int(master_seed), int(role)))
    if start_trial:
        bg.advance(start_trial * stride // 4)
    u = np.random.Generator(bg).random((trials, stride), out=out)
    return u[:, :width]


def normals(master_seed: int, role: int, start_trial: int, trials: int,
            width: int, out: np.ndarray | None = None) -> np.ndarray:
    """(trials, width) unit normals, counter-aligned like :func:`uniforms`;
    computed in the uniforms' own buffer, ``out`` when given."""
    u = uniforms(master_seed, role, start_trial, trials, width, out)
    np.maximum(u, _U_MIN, out=u)
    return ndtri(u, out=u)


def choices(master_seed: int, role: int, start_trial: int, trials: int,
            count: int) -> np.ndarray:
    """(trials,) uniform draws from {0, ..., count-1}, one per trial."""
    if count <= 0:
        raise ValueError("count must be positive")
    u = uniforms(master_seed, role, start_trial, trials, 1)[:, 0]
    return np.minimum((u * count).astype(np.int64), count - 1)


def one_shot_rng(master_seed: int, role: int, *extra: int) -> np.random.Generator:
    """Generator for non-trial-indexed sampling (tables, codebooks, retries)."""
    return np.random.default_rng(
        np.random.SeedSequence((int(master_seed), int(role), *map(int, extra))))


def block_rows(n: int, message_count: int, batch: int | None = None) -> int:
    """Trials per block: ``batch`` when given, else as many as keep the
    n-wide arrays of a block at ``ROW_VALUES`` float64s and its decode
    scores, one per message, at ``SCORE_VALUES``; at least one."""
    if batch is not None:
        return batch
    return max(1, min(ROW_VALUES // n, SCORE_VALUES // message_count))


def row_chunks(rows: int, n: int, values: int) -> Iterator[slice]:
    """Slices that cover ``range(rows)`` in order, each of at most
    ``values // n`` rows of ``n`` values (one row at least)."""
    step = max(1, values // n)
    return (slice(r0, min(r0 + step, rows)) for r0 in range(0, rows, step))


def check_int(name: str, value: Any, error: type[Exception],
              minimum: int = 1) -> None:
    """Raise ``error`` unless ``value`` is an integer (not a bool) of at
    least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
            or value < minimum:
        what = {0: "a nonnegative integer", 1: "a positive integer"}.get(
            minimum, f"an integer of at least {minimum}")
        raise error(f"{name} must be {what}, not {value!r}")


def check_ids(name: str, ids: Any, count: int,
              error: type[Exception]) -> np.ndarray:
    """``ids``, one message id or an array of them, as an array; raise
    ``error`` unless its dtype is integer (bools and floats fail) and every
    id is in [0, count).  Check scalars one at a time: [True, 0] is ints."""
    arr = np.asarray(ids)
    if arr.dtype.kind not in "iu" or arr.size and not (
            0 <= int(arr) < count if arr.ndim == 0   # a scalar: no reduction
            else 0 <= arr.min() and arr.max() < count):
        raise error(f"{name} must hold message ids, integers in [0, {count}):"
                    f" {ids!r} is not a valid message id")
    return arr


# the domain of a real number of one of these names, and its test; any
# other name is finite and at least 0, or above 0 when ``positive``
_UNIT = ("lie in [0,1)", lambda v: 0 <= v < 1)
# (exact for a Fraction gamma: a float compares with it exactly)
_DOMAINS = {"gamma": ("lie in (1/2,1)", lambda v: 0.5 < v < 1),
            "delta": _UNIT, "levels": _UNIT}
_FINITE = {False: ("be a nonnegative finite number", lambda v: 0 <= v < inf),
           True: ("be a positive finite number", lambda v: 0 < v < inf)}
# the concrete types first: an instance check against the ABC is slow
_REALS = (float, int, np.floating, np.integer, numbers.Real)


def check_reals(error: type[Exception], *, positive: bool = False,
                **values: Any) -> None:
    """Raise ``error`` unless every named value is a real number (not a
    bool) in the domain of its name: ``gamma`` in (1/2, 1), compared
    exactly, ``delta`` and ``levels`` in [0, 1), any other name (a power,
    a rate, a margin) finite and at least 0, or above 0 when
    ``positive``.  NaN lies in no domain."""
    for name, value in values.items():
        domain, holds = _DOMAINS.get(name) or _FINITE[positive]
        if isinstance(value, bool) or not isinstance(value, _REALS) \
                or not holds(value):
            raise error(f"{name} must {domain}, not {value!r}")

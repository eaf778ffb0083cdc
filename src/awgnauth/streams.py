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

The estimators split their trials two ways.  A *chunk* (``chunk_rows``)
is the rows drawn, encoded, attacked and summed together: as many as
keep its n-wide arrays (draws, codewords, the encoder's scratch) at
2**17 float64s, 1 MiB, so that they stay in cache.  A *block*
(``block_rows``) is the rows decoded and detected together, in whole
chunks: about a quarter of the message count, so that each pass of the
decode over the codebook serves enough rows, but no fewer rows than one
chunk of the whole 2**17 values where memory allows, with the received
rows of all runs at most 2**19 values.  The decode's float32 screen, at a
prefix split or the full width alike, scores a block in message tiles
of at most 2**20 scores (``TILE_VALUES``), whatever its rows.  These
three budgets (``ROW_VALUES``, ``RECEIVED_VALUES``, ``TILE_VALUES``)
are per call: each of a call's w workers gets 1/w of each budget, but
at least a quarter, which is the whole floor rule (``share``), so that
memory does not grow with w up to 4 workers and many workers do not
shrink chunks to a few rows.
``row_chunks`` splits a table's rows into chunks of at most a given
number of values, so that a pass over a whole code table holds no
temporary of the table's size.
``uniforms`` and ``normals`` draw into an ``out=`` array from
``draw_buffer`` when given one, so that the estimators allocate a
block's draws once per worker per call and reuse them in every block.
Each single-value rule on a numeric argument is stated once, here:
``check_int`` tests integers (sizes, counts, seeds, trial indices),
``check_ids`` message ids, and ``check_reals`` real numbers (powers,
rates, margins, ``gamma``, ``delta``, levels, probabilities and
confidences), the domain of each real read from its name or stated as
one of a few named intervals.  Rules that relate two arguments stay with
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
# per-call budgets, shared by the workers of a call
ROW_VALUES = 2 ** 17     # float64 values in a chunk's n-wide arrays
RECEIVED_VALUES = 2 ** 19   # received rows of a block, all runs together
TILE_VALUES = 2 ** 20   # float32 scores in a tile of the decode's screen
SCORE_VALUES = 2 ** 22   # verdicts in a tile of the overlay's pair scan
# values in a chunk of the detector's gathers or the decode's rescored rows:
# such a chunk's arrays and ROW_VALUES of received rows fit a 2 MiB L2 cache
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
    receives them in place of a new array; the result is a view of it.
    The seed, role, start and trial count are integers of at least 0 and
    the width one of at least 1 (bools and floats are refused)."""
    for name, value in (("master_seed", master_seed), ("role", role),
                        ("start_trial", start_trial), ("trials", trials)):
        check_int(name, value, ValueError, 0)
    check_int("width", width, ValueError)
    stride = _stride(width)
    bg = np.random.Philox(key=_philox_key(int(master_seed), int(role)))
    if start_trial:
        # a Python int: a numpy integer's product can wrap
        bg.advance(int(start_trial) * stride // 4)
    u = np.random.Generator(bg).random((trials, stride), out=out)
    return u[:, :width]


def normals(master_seed: int, role: int, start_trial: int, trials: int,
            width: int, out: np.ndarray | None = None) -> np.ndarray:
    """(trials, width) unit normals, counter-aligned like :func:`uniforms`
    and checked like it; computed in the uniforms' own buffer, ``out``
    when given."""
    u = uniforms(master_seed, role, start_trial, trials, width, out)
    np.maximum(u, _U_MIN, out=u)
    return ndtri(u, out=u)


def choices(master_seed: int, role: int, start_trial: int, trials: int,
            count: int) -> np.ndarray:
    """(trials,) uniform draws from {0, ..., count-1}, one per trial;
    ``count`` is an integer of at least 1, the rest as in
    :func:`uniforms`."""
    check_int("count", count, ValueError)
    u = uniforms(master_seed, role, start_trial, trials, 1)[:, 0]
    return np.minimum((u * count).astype(np.int64), count - 1)


def one_shot_rng(master_seed: int, role: int, *extra: int) -> np.random.Generator:
    """Generator for non-trial-indexed sampling (tables, codebooks, retries)."""
    return np.random.default_rng(
        np.random.SeedSequence((int(master_seed), int(role), *map(int, extra))))


def share(budget: int, workers: int) -> int:
    """One of ``workers`` workers' share of a per-call ``budget``: an
    equal share, but at least a quarter.  One worker of ``estimate`` at 1
    BLAS thread on a 2-vCPU x86-64 host kept 80-90% of its trials per
    second at a quarter of every budget and 60-70% at a sixteenth, at
    n = 600, M = 4096 and n = 256, M = 64."""
    return max(budget // 4, budget // workers)


def chunk_rows(n: int, workers: int = 1) -> int:
    """Rows of a chunk: as many as keep its n-wide arrays at a worker's
    share of ``ROW_VALUES`` float64s; at least one."""
    return max(1, share(ROW_VALUES, workers) // n)


def block_rows(n: int, message_count: int, *, runs: int = 1,
               workers: int = 1) -> int:
    """Trials per block: whole chunks of a worker's share, as many as fit
    in a quarter of ``message_count`` rows or in the rows of one chunk of
    the whole ``ROW_VALUES``, whichever is more, and keep the received
    rows of ``runs`` runs at a worker's share of ``RECEIVED_VALUES``; one
    chunk at least.  A decode's sgemm time per row stops falling at about
    M/4 rows; below a whole chunk's rows, the fixed costs of a block (its
    decode, detect and hand-off between workers) grow: at n = 256, M = 64
    on 2 workers, blocks of one half-budget chunk ran 7% fewer trials per
    second than blocks of two."""
    chunk = chunk_rows(n, workers)
    received = share(RECEIVED_VALUES, workers)
    return chunk * max(1, min(max(message_count // 4, chunk_rows(n)) // chunk,
                              received // (runs * n * chunk)))


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


# the domains of a real number: each one's wording in a message and its test
_DOMAINS = {
    # exact for a Fraction gamma: a float compares with it exactly
    "(1/2,1)": ("lie in (1/2,1)", lambda v: 0.5 < v < 1),
    "[0,1)": ("lie in [0,1)", lambda v: 0 <= v < 1),
    "[0,1]": ("lie in [0, 1]", lambda v: 0 <= v <= 1),
    "(0,1)": ("lie in (0, 1)", lambda v: 0 < v < 1),
    "finite": ("be finite and real", lambda v: -inf < v < inf),
    "nonnegative": ("be a nonnegative finite number", lambda v: 0 <= v < inf),
    "positive": ("be a positive finite number", lambda v: 0 < v < inf),
}
# the domain of a real of one of these names
_NAMED = {"gamma": "(1/2,1)", "delta": "[0,1)", "levels": "[0,1)",
          "confidence": "(0,1)", "weight_scale": "finite", "rates": "finite"}
# the concrete types first: an instance check against the ABC is slow
_REALS = (float, int, np.floating, np.integer, numbers.Real)


def check_reals(error: type[Exception], *, domain: str | None = None,
                **values: Any) -> None:
    """Raise ``error`` unless every named value is a real number (not a
    bool) in its domain: ``domain`` when given, else the domain of its
    name (``gamma`` in (1/2, 1), compared exactly, ``delta`` and
    ``levels`` in [0, 1), ``confidence`` in (0, 1), ``weight_scale`` and
    ``rates`` finite), else finite and at least 0 (a power, a rate, a
    margin).  The domains are the keys of ``_DOMAINS``; ``"positive"`` is
    finite and above 0.  NaN lies in no domain."""
    for name, value in values.items():
        wording, holds = _DOMAINS[domain or _NAMED.get(name, "nonnegative")]
        if isinstance(value, bool) or not isinstance(value, _REALS) \
                or not holds(value):
            raise error(f"{name} must {wording}, not {value!r}")

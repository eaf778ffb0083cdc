"""Overlay codes: per-message noise-level vectors with guaranteed
pairwise separation.

An overlay over n coordinates picks a strictly increasing set of levels
K inside [0,1) (level 1 is implicit) and gives every message exactly
ell = floor(n / (|K|+1)) coordinates at each level of K, the remainder
at level 1.  The code is its level-index array, ``OverlayCode.level_index``
(per message and coordinate, the index of the level carried there, one
byte per entry for up to 255 levels); level values, per-level coordinates
and the JSON form are computed from it, and no float64 copy of the level
values is stored.
The defining pairwise property: for any two distinct messages there is a
level k whose shared-k coordinate count is at most gamma*ell while the
first message's k-coordinates avoid every lower level of the second
entirely.

Construction: levels are filled in ascending order; at each level a
uniformly random ell-subset of the *surviving* coordinate slots is
drawn per level-message, then mapped order-preservingly into the actual
unassigned coordinates.  A message is a digit string, one digit per
level, so messages that share a digit prefix share their lower-level
sets: the code is assembled, and verified, once per prefix group, with
an exhaustive pairwise scan kept for codes the group check cannot
prove.  Built codes are resampled until the pairwise property holds.

Arguments: gamma and the levels go through ``streams.check_reals``,
sizes, counts and seeds through ``streams.check_int``, and ``_ell``
states the rule n >= |K~| once.  ``OverlayCode.ell_violations`` lists
the messages whose level set is not ell coordinates; ``verify_overlay``
and ``AuthCode`` read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Any, Iterable, Sequence

import numpy as np

from . import numerics
from .streams import (CHUNK_VALUES, RETRY_LIMIT, ROW_VALUES, SCORE_VALUES,
                      Role, check_ids, check_int, check_reals, one_shot_rng,
                      row_chunks)

MAX_TOTAL_MESSAGES = 1 << 20  # materialization guard
DEFECT_COEFF = {"construction": 1.0 / 3.0, "theorem": 4.0 / 3.0}


class OverlayError(ValueError):
    pass


@dataclass(frozen=True)
class LevelSet:
    """Strictly increasing levels in [0,1); level 1.0 joins implicitly."""

    levels: tuple[float, ...]

    def __post_init__(self) -> None:
        for k in self.levels:
            check_reals(OverlayError, levels=k)
        ks = tuple(float(k) for k in self.levels)
        if not ks:
            raise OverlayError("at least one level below 1 is required")
        if any(a >= b for a, b in zip(ks, ks[1:])):
            raise OverlayError(f"levels must be strictly increasing, got {ks}")
        object.__setattr__(self, "levels", ks)

    @classmethod
    def uniform(cls, ktilde_size: int) -> "LevelSet":
        """{0, 1/s, ..., (s-1)/s} for extended size s."""
        check_int("ktilde_size", ktilde_size, OverlayError, 2)
        return cls(tuple(i / ktilde_size for i in range(ktilde_size)))

    @property
    def extended(self) -> tuple[float, ...]:
        return self.levels + (1.0,)

    def __len__(self) -> int:
        return len(self.levels)

    def next_above(self, k: float) -> float:
        """Smallest extended level strictly above k."""
        for d in self.extended:
            if d > k:
                return d
        raise OverlayError(f"no level above {k}")


def _ell(n: int, level_set: LevelSet) -> int:
    """ell = floor(n / |K~|) of an n of at least |K~|, the extended level
    count, so that every level in K gets a coordinate."""
    check_int("n", n, OverlayError, len(level_set.extended))
    return n // len(level_set.extended)


def _index_dtype(levels: int) -> np.dtype:
    return np.min_scalar_type(levels)


def _index_from_rows(n: int, levels: int,
                     rows: Sequence[Sequence[Iterable[int]]]) -> np.ndarray:
    """Level-index array of per-message coordinate sets (1-based)."""
    index = np.full((len(rows), n), levels, dtype=_index_dtype(levels))
    for m, row in enumerate(rows):
        if len(row) != levels:
            raise OverlayError(f"message {m} needs one coordinate list "
                               f"per level, got {len(row)}")
        for j, coords in enumerate(row):
            cols = np.array(list(coords))
            if cols.size and cols.dtype.kind not in "iu":
                raise OverlayError(f"message {m}: coordinates must be "
                                   f"integers, got {cols.dtype} values")
            cols = cols.astype(np.int64) - 1
            if np.any((cols < 0) | (cols >= n)):
                raise OverlayError("coordinate index out of range")
            if np.any(index[m, cols] != levels):
                raise OverlayError("levels assign overlapping coordinates")
            index[m, cols] = j
    return index


class OverlayCode:
    """A concrete overlay, held as its level-index array.

    ``level_index`` is a small-int ``(message_count, n)`` array (one
    byte per entry for up to 255 levels), made read-only: entry
    ``[m, i]`` is the index into ``level_set.levels`` of the level that
    message ``m`` carries at coordinate ``i + 1``, or ``len(level_set)``
    for level 1; ``level_matrix`` gathers the level values from it and
    ``level_counts`` counts them.  ``radices`` gives the per-level digit
    counts of a product code (message ids are mixed-radix digit strings,
    as ``np.unravel_index(m, radices)`` reads them).
    ``gamma_exact`` is the threshold, a rational in (1/2, 1), so that
    boundary overlap comparisons are exact; ``gamma`` is its float.
    """

    def __init__(self, n: int, level_set: LevelSet, gamma_exact: Fraction,
                 level_index: np.ndarray,
                 radices: Sequence[int] | None = None,
                 attempts: int = 1) -> None:
        _ell(n, level_set)   # n >= |K~|
        check_reals(OverlayError, gamma=gamma_exact)
        if not isinstance(gamma_exact, Fraction):
            raise OverlayError("gamma_exact must be a Fraction, got "
                               f"{gamma_exact!r}")
        levels = len(level_set)
        if (level_index.ndim != 2 or level_index.shape[1] != n
                or level_index.dtype != _index_dtype(levels)
                or np.any(level_index > levels)):
            raise OverlayError(
                f"level_index must be a 2-d {_index_dtype(levels)} array "
                f"with {n} columns and entries <= {levels}")
        for radix in radices or ():
            check_int("radix", radix, OverlayError)
        level_index.setflags(write=False)
        self.n = n
        self.level_set = level_set
        self.gamma_exact = gamma_exact
        self.level_index = level_index
        self.radices = None if radices is None else tuple(radices)
        self.attempts = attempts

    @property
    def gamma(self) -> float:
        return float(self.gamma_exact)

    @property
    def ell(self) -> int:
        return self.n // len(self.level_set.extended)

    @property
    def message_count(self) -> int:
        return self.level_index.shape[0]

    @property
    def max_overlap(self) -> int:
        """Largest integer overlap count not exceeding gamma*ell."""
        return math.floor(self.gamma_exact * self.ell)

    @cached_property
    def level_counts(self) -> np.ndarray:
        """Read-only ``(message_count, |K|)`` counts of each message's
        coordinates at each level in K (``ell`` in a valid overlay), made
        on first use in chunks of rows: no (message_count, n) temporary."""
        counts = np.empty((self.message_count, len(self.level_set)),
                          dtype=np.intp)
        for c in row_chunks(self.message_count, self.n, ROW_VALUES):
            for j in range(counts.shape[1]):
                counts[c, j] = np.count_nonzero(self.level_index[c] == j,
                                                axis=1)
        counts.setflags(write=False)
        return counts

    def ell_violations(self) -> np.ndarray:
        """The (level index, message) pairs, level by level and in message
        order within a level, at which a message has other than ``ell``
        coordinates at a level in K: none in a valid overlay."""
        return np.argwhere(self.level_counts.T != self.ell)

    def test_indices(self, m: int) -> tuple[np.ndarray, ...]:
        """Ascending 0-based coordinates of message m, one array per level
        in K: the detector's stable sort of the row's level indices, split
        at each level's own count."""
        check_ids("m", m, self.message_count, OverlayError)
        order = np.argsort(self.level_index[m], kind="stable")
        return tuple(np.split(order, np.cumsum(self.level_counts[m]))[:-1])

    def level_matrix(self, rows: Any = None, *,
                     out: np.ndarray | None = None) -> np.ndarray:
        """Level values f(m): the float64 rows of the message ids ``rows``
        (an integer or a 1-d integer array; every message when None), of
        shape ``np.shape(rows) + (n,)``, gathered from ``level_index`` on
        each call.  Nothing is cached: the code stores one byte per
        (message, coordinate) entry, where the values would take eight.
        ``out``, a float64 array of the result's shape, receives the
        values in place of a new array.  The gather goes in chunks of
        ``CHUNK_VALUES`` values, so that the index temporaries are a
        chunk's, not the result's."""
        ids = np.arange(self.message_count) if rows is None \
            else check_ids("rows", rows, self.message_count, OverlayError)
        if ids.ndim > 1:
            raise OverlayError("rows must be a message id or a 1-d array "
                               "of them")
        shape = ids.shape + (self.n,)
        if out is None:
            out = np.empty(shape)
        elif out.shape != shape or out.dtype != np.float64:
            raise OverlayError(f"out must be a float64 array of shape {shape}")
        flat, by_row = ids.reshape(-1), out if ids.ndim else out[None]
        values = np.asarray(self.level_set.extended)
        # mode="clip" gathers straight into ``out`` (the default copies):
        # the ids are checked above and every level index is in range
        for c in row_chunks(len(flat), self.n, CHUNK_VALUES):
            np.take(values, np.take(self.level_index, flat[c], axis=0,
                                    mode="clip"),
                    out=by_row[c], mode="clip")
        return out


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of ``verify_overlay``; ``witness`` examines one ordered
    pair of ``code`` on demand."""

    passed: bool
    ell: int
    max_overlap_allowed: int
    violations: tuple[str, ...]
    code: OverlayCode = field(repr=False, compare=False)

    def witness(self, m: int, m_prime: int) -> tuple[int, int] | None:
        """Lowest witness of the ordered pair: (index into K, overlap count
        there), or None when m == m_prime or the pair has no witness."""
        for name, v in (("m", m), ("m_prime", m_prime)):
            check_ids(name, v, self.code.message_count, OverlayError)
        if m == m_prime:
            return None
        mine, other = self.code.level_index[m], self.code.level_index[m_prime]
        for kidx in range(len(self.code.level_set)):
            at_k = mine == kidx
            overlap = int(np.count_nonzero(at_k & (other == kidx)))
            if overlap <= self.max_overlap_allowed \
                    and not np.any(at_k & (other < kidx)):
                return kidx, overlap
        return None


def _level_exponents(n: int, level_set: LevelSet, gamma: float | Fraction,
                     defect: str) -> list[float]:
    """Per level in K, with n_k = n - ell*j the slots left after the
    lower levels: n_k |i2(gamma || ell/n_k) - coef/n_k - (2/n_k) ln(n_k sqrt(ell))|+,
    the log message count of the displayed per-level rate."""
    coef = DEFECT_COEFF[defect]
    g = float(gamma)
    ell = _ell(n, level_set)
    exponents = []
    for j in range(len(level_set)):
        n_k = n - ell * j
        bracket = (numerics.i2(g, ell / n_k)
                   - coef / n_k
                   - (2.0 / n_k) * math.log(n_k * math.sqrt(ell)))
        exponents.append(n_k * max(0.0, bracket))
    return exponents


def default_level_message_counts(n: int, level_set: LevelSet,
                                 gamma: float | Fraction,
                                 defect: str = "construction") -> list[int]:
    """Per-level message counts floor(exp(n_k * r_k)) of the displayed
    per-level rate r_k (see ``_level_exponents``)."""
    counts = []
    for exponent in _level_exponents(n, level_set, gamma, defect):
        if exponent > math.log(MAX_TOTAL_MESSAGES) + 1:
            counts.append(MAX_TOTAL_MESSAGES + 1)  # triggers the guard upstream
        else:
            counts.append(max(1, math.floor(math.exp(exponent))))
    return counts


def overlay_rate_finite(n: int, level_set: LevelSet, gamma: float,
                        defect: str = "theorem") -> float:
    """Guaranteed finite-blocklength overlay rate (nats/symbol):
    (1/n) sum_k n_k |i2(gamma||ell/n_k) - coef/n_k - (2/n_k) ln(n_k sqrt(ell))|+.

    ``defect`` selects the additive-defect coefficient: the conservative
    4/3 (default) or the construction's 1/3.
    """
    check_reals(OverlayError, gamma=gamma)
    return sum(_level_exponents(n, level_set, gamma, defect)) / n


def overlay_rate_asymptotic(ktilde_size: int, gamma: float) -> float:
    """Large-n overlay rate limit |gamma ln|K~| - gamma - h2(gamma)|+."""
    check_int("ktilde_size", ktilde_size, OverlayError, 2)
    check_reals(OverlayError, gamma=gamma)
    return max(0.0, gamma * math.log(ktilde_size) - gamma - numerics.h2(gamma))


def _resolve_counts(n: int, level_set: LevelSet, gamma: float | Fraction,
                    rates_per_level: Sequence[float] | None,
                    counts_per_level: Sequence[int] | None,
                    max_messages_per_level: int | None) -> list[int]:
    ell = _ell(n, level_set)
    if rates_per_level is not None and counts_per_level is not None:
        raise OverlayError("give rates_per_level or counts_per_level, not both")
    if counts_per_level is not None:
        for c in counts_per_level:
            check_int("counts_per_level", c, OverlayError)
        counts = [int(c) for c in counts_per_level]
    elif rates_per_level is not None:
        if len(rates_per_level) != len(level_set):
            raise OverlayError("one rate per level in K is required")
        if not all(math.isfinite(r) for r in rates_per_level):
            raise OverlayError(f"rates must be finite, got "
                               f"{list(rates_per_level)}")
        try:
            counts = [max(1, math.floor(math.exp((n - ell * j) * max(0.0, r))))
                      for j, r in enumerate(rates_per_level)]
        except OverflowError:
            raise OverlayError(f"rates {list(rates_per_level)} overflow the "
                               f"message counts at n={n}") from None
    else:
        counts = default_level_message_counts(n, level_set, gamma)
    if len(counts) != len(level_set):
        raise OverlayError("one message count per level in K is required")
    if max_messages_per_level is not None:
        check_int("max_messages_per_level", max_messages_per_level,
                  OverlayError)
        counts = [min(c, max_messages_per_level) for c in counts]
    for j, c in enumerate(counts):
        n_k = n - ell * j
        if c > math.comb(n_k, ell):
            raise OverlayError(
                f"level {level_set.levels[j]}: {c} messages exceed "
                f"C({n_k},{ell}) available subsets")
    total = math.prod(counts)
    if total > MAX_TOTAL_MESSAGES:
        raise OverlayError(
            f"requested {total} messages exceeds the materialization guard "
            f"({MAX_TOTAL_MESSAGES}); pass counts_per_level, rates_per_level "
            f"or max_messages_per_level")
    return counts


def _assemble(n: int, tables: Sequence[np.ndarray]) -> np.ndarray:
    """Level-index array of the product code.  Table ``j`` is a ``(c_j,
    ell)`` array of 0-based slots; message ``m``, whose digits are
    ``d_0 .. d_{L-1}`` (mixed radix, ``d_0`` most significant), carries
    at level ``j`` the coordinates that slots ``tables[j][d_j]`` pick, in
    increasing order, among those its lower levels left free.  Messages
    that share a digit prefix share those free coordinates, so the work
    is done once per prefix."""
    levels = len(tables)
    index = np.full((1, n), levels, dtype=_index_dtype(levels))
    free = np.arange(n)[None, :]    # (prefixes, free coordinates), ascending
    for j, table in enumerate(tables):
        c = table.shape[0]
        index = np.repeat(index, c, axis=0)
        by_digit = index.reshape(free.shape[0], c, n)
        prefixes = np.arange(free.shape[0])[:, None]
        for d, slots in enumerate(table):
            by_digit[prefixes, d, free[:, slots]] = j
        if j + 1 < levels:
            keep = np.ones((c, free.shape[1]), dtype=bool)
            keep[np.arange(c)[:, None], table] = False
            slots = np.nonzero(keep)[1].reshape(c, -1)
            free = free[:, slots].reshape(index.shape[0], -1)
    return index


def construct_overlay(n: int, level_set: LevelSet, gamma: float | Fraction,
                      rates_per_level: Sequence[float] | None = None,
                      seed: int = 0, *,
                      counts_per_level: Sequence[int] | None = None,
                      subset_tables: Sequence[Sequence[Iterable[int]]] | None = None,
                      max_messages_per_level: int | None = None
                      ) -> OverlayCode:
    """Construct an overlay code by iterated random subsets.

    Per level k (ascending), each level-message draws a uniform
    ell-subset of {1..n_k} where n_k counts the slots not consumed by
    lower levels; the subset is mapped order-preservingly into the
    remaining coordinates.  The full product code is verified and the
    subsets resampled until verification passes (``RETRY_LIMIT`` caps the
    attempts).  Explicit ``subset_tables`` (one table per level, each a
    list of 1-based slot subsets) bypass sampling.
    """
    check_reals(OverlayError, gamma=gamma)
    check_int("seed", seed, OverlayError, 0)
    gamma_exact = gamma if isinstance(gamma, Fraction) \
        else Fraction(float(gamma))
    ell = _ell(n, level_set)

    if subset_tables is not None:
        sets = [[frozenset(map(int, s)) for s in per_level]
                for per_level in subset_tables]
        if len(sets) != len(level_set):
            raise OverlayError("one subset table per level in K is required")
        if not all(sets):
            raise OverlayError("every subset table needs at least one subset")
        for j, table in enumerate(sets):
            n_k = n - ell * j
            for s in table:
                if len(s) != ell or any(not 1 <= v <= n_k for v in s):
                    raise OverlayError(
                        f"level {level_set.levels[j]}: subsets must be "
                        f"ell={ell} slots within 1..{n_k}")
        tables = [np.array([sorted(s) for s in table],
                           dtype=np.intp).reshape(len(table), ell) - 1
                  for table in sets]
        code = OverlayCode(n, level_set, gamma_exact,
                           _assemble(n, tables), [len(t) for t in tables])
        report = verify_overlay(code)
        if not report.passed:
            raise OverlayError(
                "explicit subset tables fail verification: "
                + "; ".join(report.violations[:3]))
        return code

    counts = _resolve_counts(n, level_set, gamma_exact, rates_per_level,
                             counts_per_level, max_messages_per_level)
    for attempt in range(RETRY_LIMIT):
        rng = one_shot_rng(seed, Role.OVERLAY, attempt)
        tables = [np.array([rng.choice(n - ell * j, size=ell, replace=False)
                            for _ in range(c)])
                  for j, c in enumerate(counts)]
        code = OverlayCode(n, level_set, gamma_exact,
                           _assemble(n, tables), counts, attempt + 1)
        if verify_overlay(code).passed:
            return code
    raise OverlayError(f"verification failed for {RETRY_LIMIT} attempts; "
                       f"rates are likely too aggressive for n={n}")


def _prefix_groups_separated(code: OverlayCode) -> bool:
    """Sufficient condition for every ordered pair to have a witness, for
    a code with radices: for each level j, within each group of messages
    that share digits < j, (a) messages that also share digit j share
    their level-j set, and (b) the level-j sets of different digits
    overlap by at most ``max_overlap``.  By (a) at the levels below j, a
    pair that first differs at digit j shares every lower-level set, so
    its level-j set avoids the other message's lower levels and (b) makes
    level j a witness.  O(M n) memory; O(M n sum_j c_j) time."""
    radices = code.radices
    count = code.message_count
    if radices is None or len(radices) != len(code.level_set) \
            or math.prod(radices) != count:
        return False
    rows = max(1, (1 << 20) // code.n)    # message rows per chunk of work
    groups = 1
    for j, c in enumerate(radices):
        sub = count // (groups * c)       # messages per (prefix, digit j)
        at_j = code.level_index == j
        if sub > 1:
            for r0 in range(0, count, rows):                 # (a)
                first = np.arange(r0, min(r0 + rows, count)) // sub * sub
                if not np.array_equal(at_j[r0:r0 + rows], at_j[first]):
                    return False
        sets = at_j[::sub].reshape(groups, c, code.n)
        step = max(1, rows // c)
        for g0 in range(0, groups, step):                    # (b)
            chunk = sets[g0:g0 + step].astype(np.float32)
            overlap = chunk @ chunk.transpose(0, 2, 1)    # exact: counts <= n
            overlap[:, np.arange(c), np.arange(c)] = 0
            if np.any(overlap > code.max_overlap):
                return False
        groups *= c
    return True


def _pair_failures(code: OverlayCode) -> list[str]:
    """Exhaustive scan of all ordered pairs, in square tiles of at most
    ``ROW_VALUES // n`` messages a side (and ``SCORE_VALUES`` verdicts a
    row of tiles): one line per pair with no witness level (the first
    eight, then a count).  A tile's masks come from its ``level_index``
    rows, so no whole ``(M, n)`` mask is held."""
    count, levels = code.message_count, len(code.level_set)
    allowed = code.max_overlap
    step = max(1, min(SCORE_VALUES // count, ROW_VALUES // code.n))
    tiles = [slice(s, min(s + step, count)) for s in range(0, count, step)]

    def masks(tile: slice) -> list[np.ndarray]:
        return [(code.level_index[tile] == j).astype(np.float32)
                for j in range(levels)]

    lines: list[str] = []
    total = 0
    for c in tiles:
        mine = masks(c)
        found = np.zeros((c.stop - c.start, count), dtype=bool)
        for d in tiles:
            other = masks(d)
            for kidx in range(levels):
                ok = mine[kidx] @ other[kidx].T <= allowed
                for lower in other[:kidx]:
                    ok &= mine[kidx] @ lower.T == 0
                found[:, d] |= ok
        found[:, c] |= np.eye(c.stop - c.start, dtype=bool)
        bad = np.argwhere(~found)
        total += len(bad)
        lines += [f"no witness level for ordered pair ({c.start + m}, {mp})"
                  for m, mp in bad[:8 - len(lines)]]
    if total > 8:
        lines.append(f"... and {total - 8} more failing pairs")
    return lines


def verify_overlay(code: OverlayCode) -> VerifyReport:
    """Check the overlay property: every message carries ell coordinates
    at each level in K, and every ordered pair of distinct messages has a
    witness level.

    A code with radices is first checked by prefix group (see
    ``_prefix_groups_separated``), in O(M n) memory.  When that check
    cannot prove the property (it fails, or the code has no radices),
    every ordered pair is scanned exhaustively (see ``_pair_failures``),
    so the verdict and the violations are those of the exhaustive scan
    either way.  The sizes are read from ``ell_violations``.
    ``VerifyReport.witness`` finds one pair's lowest witness on demand."""
    ell, counts = code.ell, code.level_counts
    violations = [f"message {m} has {counts[m, j]} coordinates at level "
                  f"{code.level_set.levels[j]}, expected {ell}"
                  for j, m in code.ell_violations()]
    if not _prefix_groups_separated(code):
        violations += _pair_failures(code)
    return VerifyReport(passed=not violations, ell=ell,
                        max_overlap_allowed=code.max_overlap,
                        violations=tuple(violations), code=code)


def to_json_dict(code: OverlayCode) -> dict[str, Any]:
    """JSON form: levels listed ascending, coordinates 1-based."""
    keys = [repr(k) for k in code.level_set.levels]
    out: dict[str, Any] = {
        "n": code.n,
        "gamma": code.gamma,
        "levels": list(code.level_set.levels),
        "messages": [
            {"level_coords": {key: (idx + 1).tolist() for key, idx
                              in zip(keys, code.test_indices(m))}}
            for m in range(code.message_count)
        ],
        "gamma_exact": f"{code.gamma_exact.numerator}/{code.gamma_exact.denominator}",
    }
    if code.radices is not None:
        out["radices"] = list(code.radices)
    return out


def from_json_dict(data: dict[str, Any]) -> OverlayCode:
    """Inverse of ``to_json_dict``; malformed input (a missing key, a
    value of the wrong type) raises ``OverlayError``."""
    try:
        level_set = LevelSet(tuple(data["levels"]))
        gamma = float(data["gamma"])
        if "gamma_exact" in data:
            num, den = data["gamma_exact"].split("/")
            gamma_exact = Fraction(int(num), int(den))
            if float(gamma_exact) != gamma:
                raise OverlayError(f"gamma {gamma} disagrees with gamma_exact "
                                   f"{data['gamma_exact']}")
        else:
            gamma_exact = Fraction(gamma)
        n = data["n"]
        check_int("n", n, OverlayError)
        keys = [repr(k) for k in level_set.levels]
        rows = [[msg["level_coords"][key] for key in keys]
                for msg in data["messages"]]
        radices = tuple(data["radices"]) if "radices" in data else None
        return OverlayCode(n, level_set, gamma_exact,
                           _index_from_rows(n, len(level_set), rows), radices)
    except OverlayError:
        raise
    except KeyError as e:
        raise OverlayError(f"overlay JSON lacks the key {e}") from None
    except (TypeError, AttributeError, ValueError) as e:
        raise OverlayError(f"malformed overlay JSON: {e}") from None

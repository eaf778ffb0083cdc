"""Retrofitting authentication onto a deterministic base code.

Noise injection: each message m gets a fixed mean-shift table row t(m)
with t_i ~ N(0, (1 - f_i^2(m)) rho_delta) and the encoder transmits
x(m) + t(m) + f(m) . G_delta, where f(m) is the overlay's level vector.
The decoder re-runs the base decoder and then, per overlay level k
below 1, checks that the squared residuals on the decoded message's
level-k coordinates are no larger than a chi-square-calibrated
threshold ell (1 + delta); any failure yields the rejection symbol.
There is one detector path, for a batch of received rows:
``level_statistics`` gives each row's statistic per level and
``detect_batch`` turns them, with the decimation filter, into a
rejection mask.  A code whose overlay gives some message a level set
of other than ell coordinates is rejected on construction, since its
statistics would not be chi-square with ell degrees of freedom.

Memory: per (message, coordinate) entry a code holds the float64
codeword and mean shift (8 bytes each), the overlay's one-byte level
index, after the first decode the base code's float32 screen (4 bytes,
plus per message a half-norm and up to fifteen rest norms), and after
the first detect the overlay's column table ``tested``, 1 or 2 bytes on
the |K| ell tested coordinates of every n; level values are gathered
from the level index when read.  At n = 600 with two levels below 1
that is about 22.3 bytes per entry.  Set-up works in chunks of rows and
holds no whole-table temporary beyond the mean-shift table it draws.

Decimation: a uniformly chosen subset of messages survives; decoding to
a non-survivor is rejected.  This trades a small rate loss for a
false-authentication guarantee that holds for *any* wrong message, not
just a targeted one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Any

import numpy as np

from . import bounds as bounds_mod
from .basecode import BaseCode
from .overlay import OverlayCode
from .streams import (CHUNK_VALUES, RETRY_LIMIT, ROW_VALUES, Role,
                      check_ids, check_int, check_reals, one_shot_rng,
                      row_chunks)

REJECT = "!"


class AuthCodeError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class AuthCode:
    """A base code wrapped with overlay noise (and optionally decimated:
    ``decimation_info`` is then the ``bounds.decimation_bounds`` dict,
    ``decimated_target_size``, ``decimated_rate``, ``decimation_terms``,
    ``decimation_analysed_rate_feasible`` and the bounds)."""

    base: BaseCode
    overlay: OverlayCode
    rho_delta: float
    delta: float
    t_table: np.ndarray             # (message_count, n)
    t_zero: bool = False
    decimated: frozenset[int] | None = None
    decimation_info: dict[str, Any] | None = None
    attempts: int = 1
    # a decode to m passes the decimation filter iff valid_mask[m]
    valid_mask: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # delta = 0 is allowed: the threshold is ell itself
        check_reals(AuthCodeError, domain="positive", rho_delta=self.rho_delta)
        check_reals(AuthCodeError, delta=self.delta)
        if self.base.message_count != self.overlay.message_count:
            raise AuthCodeError("base and overlay must agree on message count")
        if self.base.n != self.overlay.n:
            raise AuthCodeError("base and overlay must agree on n")
        t = np.asarray(self.t_table, dtype=np.float64)
        if t.shape != self.base.codewords.shape:
            raise AuthCodeError("t_table must match the codeword table shape")
        object.__setattr__(self, "t_table", t)
        bad = self.overlay.ell_violations()
        if bad:
            raise AuthCodeError(f"{bad[0]}: the detector needs exactly ell")
        valid = np.full(self.message_count, self.decimated is None)
        if self.decimated is not None:
            for m in self.decimated:   # one at a time: no bool passes
                valid[check_ids("decimated", m, self.message_count,
                                AuthCodeError)] = True
            if self.base.null_id is not None:
                valid[self.base.null_id] = True
        object.__setattr__(self, "valid_mask", valid)

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def message_count(self) -> int:
        return self.base.message_count

    @property
    def ell(self) -> int:
        return self.overlay.ell

    @property
    def threshold(self) -> float:
        return self.overlay.ell * (1.0 + self.delta)

    def _means(self, ms: Any, out: np.ndarray | None = None,
               scratch: np.ndarray | None = None) -> np.ndarray:
        """The mean signal x(m) + t(m) of each checked id in ``ms``, into
        ``out``, with the shifts gathered into ``scratch``: x, then t added,
        one grouping for every caller, so that a clean received row minus
        its mean is exactly zero (the rho_dec = 0 sentinel relies on it)."""
        # mode="clip" gathers into ``out`` (the default copies); ids checked
        out = np.take(self.base.codewords, ms, axis=0, out=out, mode="clip")
        out += np.take(self.t_table, ms, axis=0, out=scratch, mode="clip")
        return out

    @property
    def rate(self) -> float:
        """Noise injection keeps the base rate; decimation shrinks it to
        (1/n) ln |surviving messages|."""
        if self.decimated is None:
            return self.base.rate
        return math.log(len(self.decimated)) / self.n

    @cached_property
    def power(self) -> float:
        """Exact max-message average transmit power:
        max_m (1/n)(sum (x+t)^2 + rho_delta sum f^2), computed on first
        use in chunks of rows, each row by that one expression."""
        per_row = np.empty(self.message_count)
        for c in row_chunks(self.message_count, self.n, ROW_VALUES):
            ids = np.arange(c.start, c.stop)
            # the means, then the levels: two chunk arrays at a time
            per_row[c] = np.sum(self._means(ids) ** 2, axis=1)
            per_row[c] += self.rho_delta * np.sum(
                self.overlay.level_matrix(ids) ** 2, axis=1)
        return float(np.max(per_row)) / self.n

    def is_valid_message(self, m: int) -> bool:
        """Whether ``m`` is a message id that the decoder may accept: in
        [0, M) and surviving decimation.  False for an integer outside
        [0, M); a bool or any other non-integer raises ``AuthCodeError``."""
        if np.asarray(m).dtype.kind in "iu" and not 0 <= m < self.message_count:
            return False
        return bool(self.valid_mask[
            check_ids("m", m, self.message_count, AuthCodeError)])


def inject_noise(base: BaseCode, overlay: OverlayCode, rho_delta: float,
                 delta: float, seed: int = 0, *, t_zero: bool = False,
                 enforce_bounds: bool = True) -> AuthCode:
    """Wrap ``base`` with overlay noise (the first code modification).

    The mean-shift table is resampled until both construction checks
    hold: the spurious codeword/shift correlation
    sum_i 2 t_i x_i <= 2n sqrt(2 omega (r+1) rho_delta) for every
    message, and the exact wrapped power staying under the analysed
    power bound.  ``t_zero`` pins the table to zero (the derandomised
    variant, power bound omega + rho_delta).  Every attempt draws into
    the one table, scaled in place by sqrt((1 - k^2) rho_delta) per
    level; the checks go in row chunks; at most ``RETRY_LIMIT`` attempts.
    """
    check_int("seed", seed, AuthCodeError, 0)
    if delta == 0:   # a code may carry delta = 0; a build may not
        raise AuthCodeError("delta must lie in (0,1) for a build, not 0")
    code = AuthCode(base, overlay, rho_delta, delta,   # checks the rest
                    np.zeros(base.codewords.shape), t_zero=True)
    if t_zero:
        return code

    omega_h, rate_h = base.power, base.rate
    corr_cap = 2.0 * base.n * math.sqrt(2.0 * omega_h * (rate_h + 1.0) * rho_delta)
    power_cap = bounds_mod.injection_power_bound(
        omega_h, rate_h, rho_delta, base.n, len(overlay.level_set.extended),
        len(overlay.level_set))
    # the standard deviation of t at each level index
    scale = np.sqrt((1.0 - np.asarray(overlay.level_set.extended) ** 2)
                    * rho_delta)
    chunks = list(row_chunks(base.message_count, base.n, ROW_VALUES))
    t = code.t_table   # the zero code's table is the draws' one table
    for attempt in range(RETRY_LIMIT):
        # a failed attempt's table, and its code, are drawn over
        one_shot_rng(seed, Role.T_TABLE, attempt).standard_normal(out=t)
        for c in chunks:
            t[c] *= np.take(scale, overlay.level_index[c])
        code = AuthCode(base, overlay, rho_delta, delta, t,
                        attempts=attempt + 1)
        if not enforce_bounds:
            return code
        corr_ok = all(np.all(np.sum(2.0 * t[c] * base.codewords[c], axis=1)
                             <= corr_cap) for c in chunks)
        if corr_ok and code.power <= power_cap:
            return code
    raise AuthCodeError(
        f"mean-shift table failed the construction checks {RETRY_LIMIT} times")


def auth_encode_batch(code: AuthCode, ms: np.ndarray, unit_delta: np.ndarray,
                      out: tuple[np.ndarray, np.ndarray, np.ndarray] | None
                      = None) -> np.ndarray:
    """Vectorised encoder x(m) + t(m) + f(m) . G_delta; ``unit_delta``
    holds unit normals (B, n).  The sum is formed in place, in the order
    (x + t) + (sqrt(rho_delta) G_delta) f.  ``out`` holds three (B, n)
    arrays used in place of new ones: the codewords are written to the
    first and returned, the other two are scratch."""
    ms = check_ids("ms", ms, code.message_count, AuthCodeError)
    if ms.ndim != 1 or np.shape(unit_delta) != (len(ms), code.n):
        raise AuthCodeError("ms must be 1-d, one id per row of unit_delta")
    xs, noise, levels = (None, None, None) if out is None else out
    xs = code._means(ms, out=xs, scratch=noise)
    noise = np.multiply(unit_delta, math.sqrt(code.rho_delta), out=noise)
    noise *= code.overlay.level_matrix(ms, out=levels)
    xs += noise
    return xs


def level_statistics(code: AuthCode, ys: np.ndarray, base_decoded: np.ndarray,
                     rho_dec: float) -> np.ndarray:
    """(B, |K|) residual statistics: entry [b, j] is the sum of squares of
    ys[b] - (x(m) + t(m)) over the level-j coordinates of m =
    base_decoded[b], divided by k_j^2 rho_delta + rho_dec.

    Each row's mean signal is subtracted from the whole row, and the
    tested coordinates of that residual (the row of ``overlay.tested``)
    are gathered, so no code loops over messages, and each row's sums do
    not depend on the other rows.  Rows go in chunks of ``CHUNK_VALUES``
    // n, so that the chunk's arrays (at most 2**15 values each) and the
    received rows they read fit in a 2 MiB L2 cache together, whatever
    the block's rows (``streams.block_rows``)."""
    check_reals(AuthCodeError, rho_dec=rho_dec)
    base_decoded = check_ids("base_decoded", base_decoded,
                             code.message_count, AuthCodeError)
    n, ell = code.n, code.ell
    if base_decoded.ndim != 1 or np.shape(ys) != (len(base_decoded), n):
        # the gather below clips its indices instead of checking them
        raise AuthCodeError("ys must be a (rows, n) matrix, one row per "
                            "decoded id")
    levels, tested = code.overlay.level_set.levels, code.overlay.tested
    stats = np.empty((len(base_decoded), len(levels)))
    rows = min(max(1, CHUNK_VALUES // n), len(base_decoded))
    # the chunk's arrays, reused by every chunk; the tested values take the
    # shifts' memory, which the means no longer need
    resid, shifts = np.empty((rows, n)), np.empty((rows, n))
    cols = np.empty((rows, len(levels) * ell), tested.dtype)
    at = np.empty(cols.shape, np.intp)
    values = shifts.reshape(-1)[:cols.size].reshape(cols.shape)
    starts = (np.arange(rows) * n)[:, None]   # each row's first flat index
    for c in row_chunks(len(base_decoded), n, CHUNK_VALUES):
        dec = base_decoded[c]
        r = len(dec)
        # y - (x + t) on every coordinate, then the tested ones; mode="clip"
        # gathers straight into the chunk's arrays (the default copies):
        # the ids are checked above and ``tested`` holds columns below n
        diff = np.subtract(ys[c], code._means(dec, resid[:r], shifts[:r]),
                           out=resid[:r])
        np.take(tested, dec, axis=0, out=cols[:r], mode="clip")
        at[:r] = cols[:r]   # a cast; an add with a cast would need buffers
        at[:r] += starts[:r]
        sq = np.take(diff, at[:r], out=values[:r], mode="clip")
        np.square(sq, out=sq)
        # a sum over the contiguous last axis takes numpy's pairwise
        # order for every (row, level), whatever the chunk holds
        stats[c] = np.sum(sq.reshape(r, len(levels), ell), axis=2)
    for j, k in enumerate(levels):
        denom = k * k * code.rho_delta + rho_dec
        # rho_dec = 0 diagnostic: a zero-variance level accepts only
        # exactly-zero residuals.
        stats[:, j] = (np.where(stats[:, j] == 0.0, 0.0, np.inf)
                       if denom == 0.0 else stats[:, j] / denom)
    return stats


def detect_batch(code: AuthCode, ys: np.ndarray, base_decoded: np.ndarray,
                 rho_dec: float, *, detector: bool = True) -> np.ndarray:
    """Rejection mask for a batch: the decimation filter, or'd with any
    level statistic above the threshold ell (1 + delta).  Level 1 is never
    tested; ``detector=False`` (the delta -> infinity sentinel) leaves only
    the decimation filter."""
    base_decoded = check_ids("base_decoded", base_decoded,
                             code.message_count, AuthCodeError)
    rejected = ~code.valid_mask[base_decoded]
    if detector:
        stats = level_statistics(code, ys, base_decoded, rho_dec)
        rejected |= np.any(stats > code.threshold, axis=1)
    return rejected


def sample_decimation_subset(message_count: int, size: int,
                             rng: np.random.Generator,
                             exclude: int | None = None) -> frozenset[int]:
    """Uniformly random size-``size`` subset of message ids (optionally
    excluding the null id)."""
    pool = np.array([m for m in range(message_count) if m != exclude])
    if size > pool.size:
        raise AuthCodeError(f"target size {size} exceeds available messages "
                            f"{pool.size}")
    return frozenset(int(v) for v in rng.choice(pool, size=size, replace=False))


def decimate(code: AuthCode, rho_dec: float, seed: int = 0, *,
             rho_adv: float | None = None,
             adversary_agnostic: bool = False,
             target_size_override: int | None = None) -> AuthCode:
    """Apply the decimation modification: keep a uniformly random subset
    of floor(exp(n r')) messages where r' is the decimated rate, and
    reject any decode outside it (the null message always survives).

    The size and r' are the ``decimated_target_size`` and
    ``decimated_rate`` of ``bounds.decimation_bounds``' dict, the result's
    ``decimation_info``.  Raises with its ``decimation_terms`` when r' <= 0
    or fewer than two messages would survive.  Its
    ``decimation_analysed_rate_feasible`` is recorded, not enforced: the
    analysed-rate precondition needs message counts far beyond anything
    materialisable.  ``target_size_override`` substitutes an explicit
    survivor count for diagnostic experiments.
    """
    if code.decimated is not None:
        raise AuthCodeError("code is already decimated")
    check_reals(AuthCodeError, domain="positive", rho_dec=rho_dec)
    check_reals(AuthCodeError, rho_adv=0.0 if rho_adv is None else rho_adv)
    check_int("seed", seed, AuthCodeError, 0)
    if rho_adv is None and not adversary_agnostic:
        raise AuthCodeError("rho_adv required unless adversary_agnostic")
    if target_size_override is not None:
        check_int("target_size_override", target_size_override,
                  AuthCodeError, 2)
    info = bounds_mod.decimation_bounds(
        code.n, code.overlay.level_set, code.overlay.gamma, code.delta,
        code.rho_delta, rho_dec, code.power, code.base.rate,
        rho_adv=rho_adv, adversary_agnostic=adversary_agnostic)
    rate, terms = info["decimated_rate"], info["decimation_terms"]
    size = target_size_override or info["decimated_target_size"]
    if target_size_override is None and (size < 2 or rate <= 0):
        raise AuthCodeError(
            f"decimation infeasible: surviving rate {rate:.6g} (rate term "
            f"{terms['rate_term']:.6g} - margin term {terms['margin_term']:.6g}"
            f" - quantization term {terms['quantization_term']:.6g}) "
            f"gives target size {size}")
    rng = one_shot_rng(seed, Role.DECIMATION)
    surviving = sample_decimation_subset(code.message_count, size, rng,
                                         exclude=code.base.null_id)
    return replace(code, decimated=surviving, decimation_info=info)


def to_json_dict(code: AuthCode, base_ref: str, overlay_ref: str) -> dict[str, Any]:
    out: dict[str, Any] = {
        "base_ref": base_ref,
        "overlay_ref": overlay_ref,
        "rho_delta": code.rho_delta,
        "delta": code.delta,
        "t_table": code.t_table.tolist(),
        "decimated_ids": sorted(code.decimated) if code.decimated is not None else None,
    }
    if code.t_zero:
        out["t_zero"] = True
    return out


def from_json_dict(data: dict[str, Any], base: BaseCode,
                   overlay: OverlayCode) -> AuthCode:
    """Inverse of ``to_json_dict`` on the given base code and overlay;
    malformed input (a missing key, a value of the wrong type or shape)
    raises ``AuthCodeError``."""
    try:
        decim = data.get("decimated_ids")
        return AuthCode(base, overlay, float(data["rho_delta"]),
                        float(data["delta"]),
                        np.asarray(data["t_table"], dtype=np.float64),
                        t_zero=bool(data.get("t_zero", False)),
                        decimated=None if decim is None else frozenset(decim))
    except AuthCodeError:
        raise
    except KeyError as e:
        raise AuthCodeError(f"auth code JSON lacks the key {e}") from None
    except (TypeError, AttributeError, ValueError) as e:
        raise AuthCodeError(f"malformed auth code JSON: {e}") from None

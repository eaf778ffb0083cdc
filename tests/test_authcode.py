import hashlib
import json
import math
import re
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import chi2

from awgnauth import authcode
from awgnauth import overlay as overlay_mod
from awgnauth.authcode import (
    AuthCode,
    AuthCodeError,
    auth_encode_batch,
    decimate,
    detect_batch,
    from_json_dict,
    inject_noise,
    level_statistics,
    sample_decimation_subset,
    to_json_dict,
)
from awgnauth.basecode import make_random_gaussian_code
from awgnauth.bounds import injection_power_bound
from awgnauth.overlay import LevelSet, OverlayCode, construct_overlay
from awgnauth.simulate import ChannelParams, estimate
from awgnauth.streams import Role, normals, one_shot_rng


def non_dyadic_auth(levels, counts, n=61):
    """A code whose levels are not dyadic, so that the order of the
    encoder's products shows in the last bits."""
    ov = construct_overlay(n, LevelSet(levels), 0.75, counts_per_level=counts,
                           seed=3)
    return inject_noise(make_random_gaussian_code(n, ov.message_count, 1.0,
                                                  seed=3),
                        ov, rho_delta=0.7, delta=0.2, seed=3)


@pytest.fixture(scope="module")
def big_auth():
    """48 messages at n=600: enough pooled coordinates for tight
    variance checks (9600 samples per level)."""
    base = make_random_gaussian_code(600, 48, omega=1.0, seed=21)
    overlay = construct_overlay(600, LevelSet((0.0, 0.5)), 0.75,
                                counts_per_level=[24, 2], seed=21)
    return inject_noise(base, overlay, rho_delta=1.0, delta=0.2, seed=21)


class TestMeanShiftTable:
    def test_zero_on_top_level_coordinates(self, big_auth):
        F = big_auth.overlay.level_matrix()
        assert np.all(big_auth.t_table[F == 1.0] == 0.0)

    def test_pooled_variance_per_level(self, big_auth):
        # t_i ~ N(0, (1 - f_i^2) rho_delta): rho at level 0, 3/4 rho at 1/2.
        F = big_auth.overlay.level_matrix()
        for level, expect in ((0.0, 1.0), (0.5, 0.75)):
            samples = big_auth.t_table[F == level]
            assert samples.size == 9600
            assert np.var(samples) == pytest.approx(expect, rel=0.05)

    def test_seed_determinism(self, small_base, small_overlay):
        a = inject_noise(small_base, small_overlay, 1.0, 0.2, seed=11)
        b = inject_noise(small_base, small_overlay, 1.0, 0.2, seed=11)
        c = inject_noise(small_base, small_overlay, 1.0, 0.2, seed=12)
        assert np.array_equal(a.t_table, b.t_table)
        assert not np.array_equal(a.t_table, c.t_table)

    def test_construction_checks_enforced(self, small_auth):
        code = small_auth
        x = code.base.codewords
        omega, rate = code.base.power, code.base.rate
        cap = 2.0 * code.n * math.sqrt(2.0 * omega * (rate + 1.0)
                                       * code.rho_delta)
        assert np.all(np.sum(2.0 * code.t_table * x, axis=1) <= cap)
        assert code.power <= injection_power_bound(
            omega, rate, code.rho_delta, code.n, 3, 2)


class TestTableMemory:
    M, N = 1024, 300

    @pytest.fixture(scope="class")
    def parts(self):
        ov = construct_overlay(self.N, LevelSet((0.0, 0.5)), 0.75,
                               counts_per_level=[32, 32], seed=2)
        return make_random_gaussian_code(self.N, self.M, 1.0, seed=2), ov

    def test_no_float64_table_but_codewords_and_shifts(self, parts):
        base, ov = parts
        code = inject_noise(base, ov, rho_delta=1.0, delta=0.2, seed=2)
        estimate(code, ChannelParams(rho_dec=0.1), "epsilon", 300, seed=1)
        assert code.power > 0.0 and base.power > 0.0
        held = []
        for obj in (code, base, ov):
            for value in vars(obj).values():
                held += value if isinstance(value, tuple) else [value]
        tables = [a for a in held if isinstance(a, np.ndarray)
                  and a.shape == (self.M, self.N) and a.dtype == np.float64]
        assert len(tables) == 2
        assert any(a is base.codewords for a in tables)
        assert any(a is code.t_table for a in tables)
        assert ov.tested.dtype == np.uint16

    def test_inject_noise_holds_one_table_beside_its_own(self, parts):
        base, ov = parts
        table = self.M * self.N * 8
        tracemalloc.start()
        try:
            code = inject_noise(base, ov, rho_delta=1.0, delta=0.2, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code.t_table.nbytes == table
        assert peak < 2 * table

    def test_no_level_recount_over_a_counted_overlay(self, parts):
        # the overlay counts its levels once: a new code over it, and a
        # decimated one, allocate less than one (M, n) boolean table
        base, ov = parts
        code = inject_noise(base, ov, rho_delta=1.0, delta=0.2, seed=2)
        for build in (
                lambda: AuthCode(base, ov, 1.0, 0.2, code.t_table),
                lambda: decimate(code, 0.1, seed=2, rho_adv=None,
                                 target_size_override=64)):
            tracemalloc.start()
            try:
                build()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < self.M * self.N, peak


class TestInjectNoiseValidation:
    def test_delta_open_interval(self, small_base, small_overlay):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(AuthCodeError, match="delta"):
                inject_noise(small_base, small_overlay, 1.0, bad)

    def test_rho_delta_positive(self, small_base, small_overlay):
        with pytest.raises(AuthCodeError, match="rho_delta"):
            inject_noise(small_base, small_overlay, 0.0, 0.2)

    def test_message_count_mismatch(self, small_overlay):
        base = make_random_gaussian_code(60, 5, 1.0, seed=1)
        with pytest.raises(AuthCodeError, match="message count"):
            inject_noise(base, small_overlay, 1.0, 0.2)

    def test_n_mismatch(self, small_overlay):
        base = make_random_gaussian_code(50, 6, 1.0, seed=1)
        with pytest.raises(AuthCodeError, match="agree on n"):
            inject_noise(base, small_overlay, 1.0, 0.2)


class TestEncoder:
    def test_mean_is_codeword_plus_shift(self, small_auth, rng):
        m, B = 2, 20000
        unit = rng.standard_normal((B, small_auth.n))
        enc = auth_encode_batch(small_auth, np.full(B, m), unit)
        center = small_auth.base.codewords[m] + small_auth.t_table[m]
        f = small_auth.overlay.level_matrix()[m]
        emp = enc.mean(axis=0)
        live = f > 0
        z = (emp[live] - center[live]) * math.sqrt(B) / (f[live] * 1.0)
        assert np.max(np.abs(z)) < 4.5
        # level-0 coordinates carry no fresh noise at all: every encoded
        # row equals the centre there bitwise
        assert np.array_equal(enc[:, ~live],
                              np.broadcast_to(center[~live], (B, int((~live).sum()))))

    def test_residual_variance_by_level(self, small_auth, rng):
        m, B = 1, 20000
        unit = rng.standard_normal((B, small_auth.n))
        enc = auth_encode_batch(small_auth, np.full(B, m), unit)
        resid = enc - (small_auth.base.codewords[m] + small_auth.t_table[m])
        f = small_auth.overlay.level_matrix()[m]
        assert np.all(resid[:, f == 0.0] == 0.0)
        assert np.var(resid[:, f == 0.5]) == pytest.approx(0.25, rel=0.05)
        assert np.var(resid[:, f == 1.0]) == pytest.approx(1.0, rel=0.05)

    def test_two_transmissions_agree_only_at_level_zero(self, small_auth, rng):
        m = 4
        a = auth_encode_batch(small_auth, np.array([m]),
                              rng.standard_normal((1, 60)))[0]
        b = auth_encode_batch(small_auth, np.array([m]),
                              rng.standard_normal((1, 60)))[0]
        f = small_auth.overlay.level_matrix()[m]
        assert np.array_equal(a[f == 0.0], b[f == 0.0])
        assert np.all(a[f > 0] != b[f > 0])

    def test_single_encode_reproducible(self, small_auth):
        # a one-row encode of trial t equals row t of a batch encode
        ms = np.array([3, 0, 5, 3])
        batch = auth_encode_batch(small_auth, ms,
                                  normals(77, Role.DELTA, 0, 4, 60))
        for t, m in enumerate(ms):
            row = auth_encode_batch(small_auth, ms[t:t + 1],
                                    normals(77, Role.DELTA, t, 1, 60))
            assert row.shape == (1, 60)
            assert np.array_equal(row[0], batch[t])

    def test_encoding_into_arrays_equals_a_new_encode(self, small_auth):
        ms = np.array([3, 0, 5, 3, 1])
        unit = normals(77, Role.DELTA, 0, 5, 60)
        out = tuple(np.full((5, 60), np.nan) for _ in range(3))
        got = auth_encode_batch(small_auth, ms, unit, out=out)
        assert got is out[0]
        assert got.tobytes() == auth_encode_batch(small_auth, ms,
                                                  unit).tobytes()

    @pytest.mark.parametrize("levels, counts", [((0.0, 0.3), [4, 3]),
                                                ((0.1, 0.45, 0.8), [3, 2, 2])])
    def test_equals_the_level_gather_expression(self, levels, counts):
        code = non_dyadic_auth(levels, counts)
        ov = code.overlay
        # more rows than one chunk of the level gather (2**15 // 61 = 537)
        ms = np.random.default_rng(8).integers(0, code.message_count, 1300)
        unit = normals(9, Role.DELTA, 0, len(ms), code.n)
        values = np.asarray(ov.level_set.extended)
        want = ((code.base.codewords[ms] + code.t_table[ms])
                + (math.sqrt(code.rho_delta) * unit)
                * values[ov.level_index[ms]])
        out = tuple(np.empty((len(ms), code.n)) for _ in range(3))
        for got in (auth_encode_batch(code, ms, unit),
                    auth_encode_batch(code, ms, unit, out=out)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [-1, 6])
    def test_ids_outside_the_code_are_refused(self, small_auth, bad):
        with pytest.raises(AuthCodeError, match="ms must hold message ids"):
            auth_encode_batch(small_auth, np.array([0, bad]),
                              np.zeros((2, 60)))


class TestDetector:
    def test_clean_center_accepted_with_zero_stats(self, small_auth):
        centers = small_auth.base.codewords + small_auth.t_table
        dec = small_auth.base.decode_batch(centers)
        assert dec.tolist() == list(range(small_auth.message_count))
        stats = level_statistics(small_auth, centers, dec, rho_dec=0.1)
        assert stats.shape == (small_auth.message_count, 2)
        assert not np.any(stats)
        assert not np.any(detect_batch(small_auth, centers, dec, 0.1))
        assert small_auth.threshold == small_auth.ell * 1.2

    def test_statistics_are_chi_square_calibrated(self, small_auth, rng):
        # Genuine traffic: the level-k statistic is chi^2 with ell degrees
        # of freedom — mean ell, variance 2 ell.
        code, rho_dec, B = small_auth, 0.1, 20000
        ms = rng.integers(0, code.message_count, size=B)
        enc = auth_encode_batch(code, ms, rng.standard_normal((B, code.n)))
        ys = enc + math.sqrt(rho_dec) * rng.standard_normal((B, code.n))
        dec = code.base.decode_batch(ys)
        good = dec == ms
        assert np.mean(good) > 0.999
        stats = level_statistics(code, ys[good], dec[good], rho_dec)
        for pooled in stats.T:
            assert pooled.mean() == pytest.approx(code.ell, rel=0.05)
            assert pooled.var() == pytest.approx(2.0 * code.ell, rel=0.05)

    def test_statistics_match_single_shot_api(self, small_auth, rng):
        # each row's statistics and verdict are those of a one-row call,
        # and equal the residual energy over its level sets
        code, rho_dec = small_auth, 0.1
        ms = rng.integers(0, code.message_count, size=50)
        enc = auth_encode_batch(code, ms, rng.standard_normal((50, code.n)))
        ys = enc + math.sqrt(rho_dec) * rng.standard_normal((50, code.n))
        dec = code.base.decode_batch(ys)
        stats = level_statistics(code, ys, dec, rho_dec)
        mask = detect_batch(code, ys, dec, rho_dec)
        assert np.array_equal(mask, np.any(stats > code.threshold, axis=1))
        for i in range(50):
            one = level_statistics(code, ys[i:i + 1], dec[i:i + 1], rho_dec)
            assert np.array_equal(one[0], stats[i])
            assert detect_batch(code, ys[i:i + 1], dec[i:i + 1],
                                rho_dec)[0] == mask[i]
            m = int(dec[i])
            resid = ys[i] - code.base.codewords[m] - code.t_table[m]
            for j, k in enumerate(code.overlay.level_set.levels):
                idx = code.overlay.test_indices(m)[j]
                denom = k * k * code.rho_delta + rho_dec
                assert stats[i, j] == pytest.approx(
                    float(np.sum(resid[idx] ** 2) / denom), rel=1e-12)

    def test_inflated_residuals_rejected_at_chi_square_rate(self, small_auth,
                                                            rng):
        # Scaling residual variance to (1+3delta)x the calibrated value
        # drives acceptance down to P(chi2_ell <= ell(1+delta)/(1+3delta))^|K|.
        code, rho_dec, B = small_auth, 0.1, 4000
        ms = rng.integers(0, code.message_count, size=B)
        enc = auth_encode_batch(code, ms, rng.standard_normal((B, code.n)))
        ys = enc + math.sqrt(rho_dec) * rng.standard_normal((B, code.n))
        centers = code.base.codewords[ms] + code.t_table[ms]
        inflated = centers + math.sqrt(1.0 + 3.0 * code.delta) * (ys - centers)
        rej = detect_batch(code, inflated, ms, rho_dec)
        ratio = code.ell * (1.0 + code.delta) / (1.0 + 3.0 * code.delta)
        p_accept = chi2.cdf(ratio, code.ell) ** 2
        se = math.sqrt(p_accept * (1 - p_accept) / B)
        assert np.mean(~rej) == pytest.approx(p_accept, abs=3 * se)

    def test_rejection_monotone_under_residual_scaling(self, small_auth, rng):
        code, rho_dec, B = small_auth, 0.1, 2000
        ms = rng.integers(0, code.message_count, size=B)
        enc = auth_encode_batch(code, ms, rng.standard_normal((B, code.n)))
        ys = enc + math.sqrt(rho_dec) * rng.standard_normal((B, code.n))
        centers = code.base.codewords[ms] + code.t_table[ms]
        rej1 = detect_batch(code, ys, ms, rho_dec)
        rej2 = detect_batch(code, centers + 2.0 * (ys - centers), ms, rho_dec)
        assert not np.any(rej1 & ~rej2)
        assert np.sum(rej2) > np.sum(rej1)

    def test_detector_disabled_leaves_only_decimation(self, small_auth, rng):
        code = small_auth
        ys = rng.normal(size=(20, code.n)) * 50.0  # garbage inputs
        dec = code.base.decode_batch(ys)
        assert not np.any(detect_batch(code, ys, dec, 0.1, detector=False))
        assert np.all(detect_batch(code, ys, dec, 0.1))

    def test_zero_decoder_noise_sentinel(self, small_auth):
        # the row x(m) + t(m) minus its own mean is exactly zero at any
        # rho_dec > 0, and rho_dec = 0 is no detector input: every level
        # statistic divides by k^2 rho_delta + rho_dec, zero at level 0
        code = small_auth
        m = np.array([1])
        y = code.base.codewords[m] + code.t_table[m]
        for rho_dec in (1e-300, 0.1, 10.0):
            assert level_statistics(code, y, m, rho_dec)[0].tolist() \
                == [0.0, 0.0]
            assert not detect_batch(code, y, m, rho_dec)[0]
        # a little energy on level 0 is a small finite statistic, no longer
        # conclusive evidence
        bad = y.copy()
        bad[0, code.overlay.test_indices(1)[0][0]] += 1e-9
        assert code.base.decode_batch(bad)[0] == 1
        assert level_statistics(code, bad, m, 0.1)[0, 0] \
            == pytest.approx(1e-17)
        assert not detect_batch(code, bad, m, 0.1)[0]
        for rho_dec in (0.0, -0.1):
            with pytest.raises(AuthCodeError, match="rho_dec must be a "
                                                    "positive finite number"):
                level_statistics(code, y, m, rho_dec)
            with pytest.raises(AuthCodeError, match="rho_dec must be a "
                                                    "positive finite number"):
                detect_batch(code, y, m, rho_dec)

    @pytest.mark.parametrize("shape", [(3, 59), (3, 61), (2, 60), (180,)])
    def test_rows_must_match_the_decoded_ids(self, small_auth, shape):
        dec = np.array([0, 1, 2])
        with pytest.raises(AuthCodeError, match=re.escape(
                "ys must be a (3, 60) array of real numbers, not an array "
                f"of shape {shape} and dtype float64")):
            level_statistics(small_auth, np.zeros(shape), dec, 0.1)

    def test_gathers_into_its_own_arrays(self):
        # n=256, ell=85, |K|=2: each 128-row chunk gathers into two
        # (128, 256) float64 arrays of 262 KB (the residual rows and the
        # gathered shifts, whose memory then takes the tested values), a
        # (128, 170) array of 174 KB (the tested columns' flat indices)
        # and one (128, 170) uint8 column chunk of 22 KB; a gather through
        # a temporary, or a chunk's arrays allocated while the last
        # chunk's live, adds a float64 array.  Beside them: the stats, the
        # row starts and numpy's ufunc buffer (one getbufsize() of values).
        ov = construct_overlay(256, LevelSet((0.0, 0.5)), 0.75,
                               counts_per_level=[8, 8], seed=0)
        code = inject_noise(make_random_gaussian_code(256, 64, 1.0, seed=0),
                            ov, rho_delta=1.0, delta=0.2, seed=0)
        rng = np.random.default_rng(0)
        ms = rng.integers(0, 64, size=512)
        ys = auth_encode_batch(code, ms, rng.standard_normal((512, 256)))
        level_statistics(code, ys, ms, 0.1)   # builds the tested table
        tracemalloc.start()
        try:
            level_statistics(code, ys, ms, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows, chunk, columns = 128 * 256 * 8, 128 * 2 * 85 * 8, 128 * 2 * 85
        assert code.ell == 85 and 2 ** 15 // 256 == 128
        assert code.overlay.tested.dtype == np.uint8
        held = 2 * rows + chunk + columns
        assert held <= peak < held + 8 * np.getbufsize() + 24_000

    def test_tested_table_is_built_in_row_chunks(self, wide_auth,
                                                 monkeypatch):
        order = np.argsort(wide_auth.overlay.level_index, axis=1,
                           kind="stable")
        whole = order[:, :2 * wide_auth.ell]
        ov = wide_auth.overlay
        for rows in (1, 37, 512, 2000):
            monkeypatch.setattr(overlay_mod, "ROW_VALUES", rows * wide_auth.n)
            tested = OverlayCode(ov.n, ov.level_set, ov.gamma_exact,
                                 ov.level_index).tested   # a fresh cache
            assert tested.dtype == np.uint8 and wide_auth.n == 120
            assert np.array_equal(tested, whole)
            assert not tested.flags.writeable

    @pytest.mark.parametrize("n, dtype", [(256, np.uint8), (257, np.uint16),
                                          (600, np.uint16)])
    def test_tested_columns_are_the_narrowest_dtype(self, n, dtype):
        ov = construct_overlay(n, LevelSet((0.0, 0.5)), 0.75,
                               counts_per_level=[4, 3], seed=1)
        code = inject_noise(make_random_gaussian_code(n, 12, 1.0, seed=1),
                            ov, rho_delta=1.0, delta=0.2, seed=1)
        assert ov.tested.dtype == dtype == np.min_scalar_type(n - 1)
        order = np.argsort(ov.level_index, axis=1, kind="stable")
        assert np.array_equal(ov.tested, order[:, :2 * code.ell])

    @pytest.mark.parametrize("bad", [-1, 6])
    def test_decoded_ids_must_be_message_ids(self, small_auth, bad):
        ys = np.zeros((3, small_auth.n))
        dec = np.array([0, bad, 2])
        with pytest.raises(AuthCodeError, match="message ids"):
            level_statistics(small_auth, ys, dec, 0.1)
        for detector in (True, False):
            with pytest.raises(AuthCodeError, match="message ids"):
                detect_batch(small_auth, ys, dec, 0.1, detector=detector)


def reference_statistics(code, ys, base_decoded, rho_dec):
    """The detector as a loop over the distinct decoded messages: the
    implementation that ``level_statistics`` replaced, kept as the
    reference it must match bitwise."""
    levels = code.overlay.level_set.levels
    stats = np.empty((len(base_decoded), len(levels)))
    for m in np.unique(base_decoded):
        sel = np.flatnonzero(base_decoded == m)
        resid = ys[sel] - (code.base.codewords[m] + code.t_table[m])
        for j, (k, idx) in enumerate(zip(levels,
                                         code.overlay.test_indices(int(m)))):
            ssq = np.sum(resid[:, idx] ** 2, axis=1)
            stats[sel, j] = ssq / (k * k * code.rho_delta + rho_dec)
    return stats


def reference_detect(code, ys, base_decoded, rho_dec, detector=True):
    rejected = ~code.valid_mask[base_decoded]
    if detector:
        for m in np.unique(base_decoded):
            sel = np.flatnonzero(base_decoded == m)
            fail = rejected[sel]
            stats = reference_statistics(code, ys[sel], base_decoded[sel],
                                         rho_dec)
            for stat in stats.T:
                fail |= stat > code.threshold
            rejected[sel] = fail
    return rejected


@pytest.fixture(scope="module")
def wide_auth():
    """512 messages at n=120."""
    base = make_random_gaussian_code(120, 512, omega=1.0, seed=3)
    overlay = construct_overlay(120, LevelSet((0.0, 0.5)), 0.75,
                                counts_per_level=[16, 32], seed=3)
    return inject_noise(base, overlay, rho_delta=1.0, delta=0.2, seed=3)


class TestAgainstReferenceLoop:
    """``level_statistics`` and ``detect_batch`` against the per-message
    loop, on batches that cross the 2**18 // n row chunks.

    The loop's sum of squares took numpy's pairwise order on a message
    with one row in the batch (a contiguous (1, ell) slice) and plain
    left-to-right order on a message with several (the fancy-indexed
    slice is column-major).  ``level_statistics`` sums every row in the
    pairwise order, whatever else is in the batch, so it equals the loop
    bitwise on the one-row messages and within the float64 rounding of
    an ell-term sum of nonnegative terms elsewhere."""

    @staticmethod
    def traffic(code, rows, rho_dec, seed):
        rng = np.random.default_rng(seed)
        ms = rng.integers(0, code.message_count, size=rows)
        ys = auth_encode_batch(code, ms, rng.standard_normal((rows, code.n)))
        ys += math.sqrt(max(rho_dec, 0.05)) * rng.standard_normal(ys.shape)
        # exact centres, whose statistics are exactly 0 at any rho_dec
        ys[::7] = code.base.codewords[ms[::7]] + code.t_table[ms[::7]]
        dec = code.base.decode_batch(ys)
        dec[::5] = ms[::5]    # some rows tested against the wrong message
        return ys, dec

    @pytest.mark.parametrize("name, rows, rho_dec", [
        ("small_auth", 10000, 0.1),
        ("small_auth", 5000, 0.001),
        ("decimated_null_auth", 9000, 0.1),
        ("wide_auth", 5000, 0.1),
        ("wide_auth", 300, 0.001),
        ("wide_auth", 300, 0.1),
    ])
    def test_equal_to_the_loop(self, request, name, rows, rho_dec):
        if name == "decimated_null_auth":
            code = decimate(request.getfixturevalue("null_auth"), 0.1,
                            seed=5, rho_adv=None,
                            target_size_override=3)
        else:
            code = request.getfixturevalue(name)
        ys, dec = self.traffic(code, rows, rho_dec, seed=rows)
        stats = level_statistics(code, ys, dec, rho_dec)
        ref = reference_statistics(code, ys, dec, rho_dec)
        alone = np.bincount(dec)[dec] == 1
        assert np.array_equal(stats[alone], ref[alone])
        np.testing.assert_allclose(stats, ref, atol=0,
                                   rtol=2 * code.ell * np.finfo(float).eps)
        for detector in (True, False):
            assert np.array_equal(
                detect_batch(code, ys, dec, rho_dec, detector=detector),
                reference_detect(code, ys, dec, rho_dec, detector))

    def test_batches_cross_row_chunks(self, small_auth, wide_auth):
        assert 10000 > 2 ** 18 // small_auth.n
        assert 5000 > 2 ** 18 // wide_auth.n
        # one-row messages occur only in the short wide_auth batches
        _, dec = self.traffic(wide_auth, 300, 0.1, seed=300)
        assert np.sum(np.bincount(dec)[dec] == 1) > 100


class TestRateAndPower:
    def test_rate_unchanged_by_injection(self, small_auth, small_base):
        assert small_auth.rate == small_base.rate

    def test_power_formula(self, small_auth):
        code = small_auth
        by_hand = max(
            (np.sum((code.base.codewords[m] + code.t_table[m]) ** 2)
             + code.rho_delta
             * np.sum(code.overlay.level_matrix()[m] ** 2)) / code.n
            for m in range(code.message_count))
        assert code.power == pytest.approx(by_hand, rel=1e-12)

    @pytest.mark.parametrize("name", ["small_auth", "null_auth", "big_auth",
                                      "n=61, M=42"])
    def test_power_equals_the_whole_table_expression(self, name, request,
                                                     monkeypatch):
        code = (non_dyadic_auth((0.1, 0.45, 0.8), [7, 3, 2])
                if name == "n=61, M=42" else request.getfixturevalue(name))
        levels = np.asarray(code.overlay.level_set.extended)[
            code.overlay.level_index]
        mean_sq = np.sum((code.base.codewords + code.t_table) ** 2, axis=1)
        noise = code.rho_delta * np.sum(levels**2, axis=1)
        want = float(np.max(mean_sq + noise)) / code.n
        assert code.power == want
        for rows in (1, 5):
            monkeypatch.setattr(authcode, "ROW_VALUES", rows * code.n)
            assert replace(code).power == want   # a fresh cache

    def test_t_zero_variant(self, small_base, small_overlay):
        code = inject_noise(small_base, small_overlay, 1.0, 0.2, t_zero=True)
        assert code.t_zero
        assert not np.any(code.t_table)
        assert code.power <= small_base.power + code.rho_delta

    def test_t_zero_is_read_from_the_table(self, small_auth):
        # no flag can disagree with the table: t_zero is not a field
        assert not small_auth.t_zero
        assert replace(small_auth,
                       t_table=np.zeros_like(small_auth.t_table)).t_zero
        with pytest.raises(TypeError, match="t_zero"):
            replace(small_auth, t_zero=True)


class TestDecimation:
    def test_override_survivors(self, small_auth):
        code = decimate(small_auth, rho_dec=0.1, seed=3,
                        rho_adv=None, target_size_override=3)
        assert code.decimated is not None and len(code.decimated) == 3
        assert code.rate == pytest.approx(math.log(3) / 60)
        assert code.decimation_info is not None
        assert code.decimation_info["decimation_margin"] == 0.0
        for m in range(code.message_count):
            assert code.is_valid_message(m) == (m in code.decimated)

    def test_decimation_rejects_non_survivors(self, small_auth):
        code = decimate(small_auth, rho_dec=0.1, seed=3,
                        rho_adv=None, target_size_override=3)
        assert code.decimated is not None
        dead = next(m for m in range(code.message_count)
                    if m not in code.decimated)
        ms = np.array([dead])
        y = code.base.codewords[ms] + code.t_table[ms]
        assert code.base.decode_batch(y)[0] == dead
        assert detect_batch(code, y, ms, 0.1)[0]
        assert detect_batch(code, y, ms, 0.1, detector=False)[0]
        # the detector itself was happy
        assert not np.any(level_statistics(code, y, ms, 0.1))

    def test_batch_filter_matches_surviving_set(self, null_auth):
        code = decimate(null_auth, rho_dec=0.1, seed=5,
                        rho_adv=None, target_size_override=3)
        dec = np.repeat(np.arange(code.message_count), 2)
        ys = np.zeros((dec.size, code.n))
        rejected = detect_batch(code, ys, dec, 0.1, detector=False)
        expected = [not (m in code.decimated or m == code.base.null_id)
                    for m in dec.tolist()]
        assert rejected.tolist() == expected

    def test_decimated_ids_must_be_message_ids(self, small_auth):
        with pytest.raises(AuthCodeError, match="message ids"):
            replace(small_auth, decimated=frozenset({0, 6}))

    def test_null_always_survives_decoding(self, null_auth):
        code = decimate(null_auth, rho_dec=0.1, seed=5,
                        rho_adv=None, target_size_override=3)
        null = code.base.null_id
        assert null is not None
        assert null not in code.decimated  # never drawn...
        assert code.is_valid_message(null)  # ...but always valid
        ms = np.array([null])
        y = code.base.codewords[ms] + code.t_table[ms]
        assert code.base.decode_batch(y)[0] == null
        assert not detect_batch(code, y, ms, 0.1)[0]

    def test_seed_determinism(self, small_auth):
        a = decimate(small_auth, 0.1, seed=9, rho_adv=None,
                     target_size_override=3)
        b = decimate(small_auth, 0.1, seed=9, rho_adv=None,
                     target_size_override=3)
        c = decimate(small_auth, 0.1, seed=10, rho_adv=None,
                     target_size_override=4)
        assert a.decimated == b.decimated
        assert len(c.decimated) == 4

    def test_infeasible_without_override(self, small_auth):
        # At n=60 the decimated rate is deeply negative; the error spells
        # out the three competing terms.
        with pytest.raises(AuthCodeError, match="decimation infeasible") as e:
            decimate(small_auth, rho_dec=0.1, rho_adv=None)
        assert "rate term" in str(e.value)
        assert "quantization term" in str(e.value)

    def test_rho_adv_required_unless_adversary_agnostic(self, small_auth):
        # rho_adv has no default: the agnostic design is rho_adv=None
        with pytest.raises(TypeError, match="missing 1 required "
                           "keyword-only argument: 'rho_adv'"):
            decimate(small_auth, 0.1, 0)

    def test_no_second_spelling_of_the_agnostic_design(self, small_auth):
        # adversary_agnostic=True took a rho_adv and never read it
        with pytest.raises(TypeError, match="adversary_agnostic"):
            decimate(small_auth, 0.1, rho_adv=0.5, adversary_agnostic=True,
                     target_size_override=3)

    # (fixture, seed, survivor count) -> the survivors and the sha256
    # prefix of the sorted-key JSON of ``decimation_info`` that the former
    # ``adversary_agnostic=True`` call gave, with or without a rho_adv
    AGNOSTIC = {("small_auth", 0, 3): ([1, 2, 4], "8a3c0de22c00ce09"),
                ("small_auth", 9, 4): ([0, 2, 3, 5], "8a3c0de22c00ce09"),
                ("null_auth", 3, 3): ([0, 4, 5], "d92249ded2f75866"),
                ("null_auth", 10, 2): ([3, 5], "d92249ded2f75866")}

    @pytest.mark.parametrize("key", AGNOSTIC, ids=str)
    def test_rho_adv_none_is_the_former_agnostic_call(self, request, key):
        name, seed, size = key
        code = decimate(request.getfixturevalue(name), 0.1, seed=seed,
                        rho_adv=None, target_size_override=size)
        info = json.dumps(code.decimation_info, sort_keys=True).encode()
        assert (sorted(code.decimated),
                hashlib.sha256(info).hexdigest()[:16]) == self.AGNOSTIC[key]
        assert code.decimation_info["decimation_margin"] == 0.0

    def test_override_cannot_exceed_candidates(self, small_auth):
        with pytest.raises(AuthCodeError, match="exceeds available"):
            decimate(small_auth, 0.1, rho_adv=None,
                     target_size_override=7)

    def test_double_decimation_rejected(self, small_auth):
        once = decimate(small_auth, 0.1, rho_adv=None,
                        target_size_override=3)
        with pytest.raises(AuthCodeError, match="already decimated"):
            decimate(once, 0.1, rho_adv=None,
                     target_size_override=2)

    def test_subset_sampler_covers_all_subsets(self):
        rng = one_shot_rng(0, 5)
        seen = {sample_decimation_subset(np.arange(6), 3, rng)
                for _ in range(2000)}
        assert len(seen) == math.comb(6, 3)

    def test_subset_sampler_exclusion(self, null_auth):
        # the sampler draws from the pool it is given: decimate's is the
        # base code's non-null ids
        rng = one_shot_rng(1, 5)
        pool = np.delete(np.arange(6), 2)
        for _ in range(50):
            assert 2 not in sample_decimation_subset(pool, 3, rng)
        with pytest.raises(AuthCodeError, match="exceeds"):
            sample_decimation_subset(np.delete(np.arange(4), 1), 4, rng)
        code = decimate(null_auth, 0.1, rho_adv=None, target_size_override=6)
        assert code.decimated == frozenset(null_auth.base.non_null_ids)


class TestJsonRoundTrip:
    def test_round_trip(self, small_auth, small_base, small_overlay):
        code = decimate(small_auth, 0.1, seed=2, rho_adv=None,
                        target_size_override=3)
        blob = json.loads(json.dumps(to_json_dict(code)))
        assert blob["base_ref"] == blob["overlay_ref"] == "inline"
        back = from_json_dict(blob, small_base, small_overlay)
        assert np.array_equal(back.t_table, code.t_table)
        assert back.decimated == code.decimated
        assert back.delta == code.delta and back.rho_delta == code.rho_delta

    def test_round_trip_t_zero(self, small_base, small_overlay):
        code = inject_noise(small_base, small_overlay, 1.0, 0.2, t_zero=True)
        blob = json.loads(json.dumps(to_json_dict(code)))
        back = from_json_dict(blob, small_base, small_overlay)
        assert back.t_zero
        assert not np.any(back.t_table)


class TestAuthCodeValidation:
    def test_t_table_shape(self, small_base, small_overlay):
        with pytest.raises(AuthCodeError, match="shape"):
            AuthCode(small_base, small_overlay, 1.0, 0.2, np.zeros((6, 59)))

    @pytest.mark.parametrize("value", [math.nan, -math.inf, 1e200])
    def test_t_table_must_be_finite(self, small_base, small_overlay, value):
        # a table holding a NaN built a code of power nan
        t = np.zeros((6, 60))
        t[4, 7] = value
        with pytest.raises(AuthCodeError, match="t_table must be finite "
                           "with a finite sum of squares"):
            AuthCode(small_base, small_overlay, 1.0, 0.2, t)

    def test_level_sets_of_other_than_ell_coordinates(self, small_base,
                                                      small_overlay):
        # the planted short set of test_overlay's TestVerifyFailures
        index = small_overlay.level_index.copy()
        index[0, small_overlay.test_indices(0)[0][-1]] = 2   # to level 1
        broken = OverlayCode(60, small_overlay.level_set, Fraction(3, 4),
                             index)
        with pytest.raises(AuthCodeError, match="message 0 has 19 "
                           "coordinates at level 0.0, expected 20"):
            AuthCode(small_base, broken, 1.0, 0.2,
                     np.zeros_like(small_base.codewords))
        with pytest.raises(AuthCodeError, match="expected 20"):
            inject_noise(small_base, broken, 1.0, 0.2)

    def test_threshold_property(self, small_auth):
        assert small_auth.threshold == pytest.approx(20 * 1.2)
        assert small_auth.ell == 20
        assert small_auth.n == 60
        assert small_auth.message_count == 6

    @pytest.mark.parametrize("m", [True, 1.0])
    def test_message_ids_must_be_integers(self, small_auth, m):
        with pytest.raises(AuthCodeError, match="m must hold message ids"):
            small_auth.is_valid_message(m)

    def test_out_of_range_ids_are_invalid(self, small_auth):
        assert not small_auth.is_valid_message(-1)
        assert not small_auth.is_valid_message(small_auth.message_count)
        assert small_auth.is_valid_message(np.int64(1))

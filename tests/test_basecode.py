import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from awgnauth import basecode
from awgnauth.basecode import (
    BaseCode,
    BaseCodeError,
    antipodal_error_probability,
    from_json_dict,
    make_antipodal_code,
    make_random_gaussian_code,
    to_json_dict,
)
from awgnauth.simulate import base_error_probability
from awgnauth.streams import Role, block_rows, choices, normals, one_shot_rng

try:
    import resource
except ImportError:   # not on every platform
    resource = None


def float64_decode(codewords, ys):
    """The float64 minimum-distance decode that ``decode_batch`` must
    reproduce bit for bit."""
    scores = ys @ codewords.T - 0.5 * np.sum(codewords**2, axis=1)
    return np.argmax(scores, axis=1)


# prints the sha256 of the ids that decode the midpoints of 300 pairs of
# an n = 600, M = 4096 Gaussian code
MIDPOINT_DIGEST = """
import hashlib
import numpy as np
from awgnauth.basecode import make_random_gaussian_code
code = make_random_gaussian_code(600, 4096, 1.0, seed=3)
rng = np.random.default_rng(4)
a = rng.integers(0, 4096, 300)
b = (a + rng.integers(1, 4096, 300)) % 4096
ys = 0.5 * (code.codewords[a] + code.codewords[b])
print(hashlib.sha256(code.decode_batch(ys).tobytes()).hexdigest())
"""


def midpoints(n, message_count):
    """The exact midpoints of 300 random pairs of distinct codewords of
    ``make_random_gaussian_code(n, message_count, 1.0, seed=3)``."""
    words = make_random_gaussian_code(n, message_count, 1.0, seed=3).codewords
    rng = np.random.default_rng(4)
    a = rng.integers(0, message_count, 300)
    b = (a + rng.integers(1, message_count, 300)) % message_count
    return 0.5 * (words[a] + words[b])


def plus_minus_one_code(n, message_count, seed):
    """Distinct +-1 codewords: every score of a row of halves is exact."""
    rng = np.random.default_rng(seed)
    words = np.unique(rng.choice([-1.0, 1.0], size=(4 * message_count, n)),
                      axis=0)
    return BaseCode(words[rng.permutation(len(words))[:message_count]])


class TestAntipodal:
    def test_construction(self):
        code = make_antipodal_code(8, 4.0)
        assert code.message_count == 2
        assert np.array_equal(code.codewords[0], np.full(8, 2.0))
        assert np.array_equal(code.codewords[1], np.full(8, -2.0))
        assert code.power == 4.0
        assert code.rate == pytest.approx(math.log(2) / 8)

    def test_noiseless_round_trip(self):
        code = make_antipodal_code(16, 1.0)
        assert np.array_equal(code.decode_batch(code.codewords), [0, 1])

    def test_equals_sign_rule(self, rng):
        code = make_antipodal_code(12, 0.7)
        ys = rng.normal(size=(500, 12)) * 3.0
        got = code.decode_batch(ys)
        sign_rule = (ys.sum(axis=1) < 0).astype(int)
        assert np.array_equal(got, sign_rule)

    def test_tie_goes_to_message_zero(self):
        code = make_antipodal_code(6, 1.0)
        assert code.decode_batch(np.zeros(6)[None])[0] == 0

    def test_domain(self):
        with pytest.raises(BaseCodeError):
            make_antipodal_code(0, 1.0)
        with pytest.raises(BaseCodeError):
            make_antipodal_code(8, 0.0)


class TestGaussianCode:
    def test_power_rescaled_exactly(self):
        code = make_random_gaussian_code(64, 16, omega=0.05, seed=7)
        assert code.power == pytest.approx(0.05, rel=1e-14)
        # every other message sits at or below the max
        assert np.all(np.mean(code.codewords**2, axis=1) <= 0.05 * (1 + 1e-12))

    def test_distinct_and_deterministic(self):
        a = make_random_gaussian_code(32, 8, 1.0, seed=3)
        b = make_random_gaussian_code(32, 8, 1.0, seed=3)
        c = make_random_gaussian_code(32, 8, 1.0, seed=4)
        assert np.array_equal(a.codewords, b.codewords)
        assert not np.array_equal(a.codewords, c.codewords)
        assert len({a.codewords[m].tobytes() for m in range(8)}) == 8

    @pytest.mark.parametrize("n, count, omega", [(64, 16, 0.05), (61, 42, 1.0),
                                                 (600, 300, 3.0)])
    def test_rescaled_by_the_whole_table_expression(self, n, count, omega,
                                                    monkeypatch):
        # the table as the old whole-table rescale built it, bit for bit,
        # also when the rows go in chunks of one or seven
        cw = one_shot_rng(5, Role.CODEBOOK).standard_normal((count, n))
        cw *= math.sqrt(omega / np.max(np.mean(cw**2, axis=1)))
        for rows in (None, 1, 7):
            if rows is not None:
                monkeypatch.setattr(basecode, "ROW_VALUES", rows * n)
            code = make_random_gaussian_code(n, count, omega, seed=5)
            assert code.codewords.tobytes() == cw.tobytes()
            assert code.power == float(np.max(np.mean(cw**2, axis=1)))

    def test_null_message_row(self):
        code = make_random_gaussian_code(32, 8, 1.0, seed=3, null_message=True)
        assert code.message_count == 9
        assert code.null_id == 8
        assert not np.any(code.codewords[8])
        # null does not change the power (zero row is never the max)
        assert code.power == pytest.approx(1.0, rel=1e-14)

    def test_noiseless_round_trip(self):
        code = make_random_gaussian_code(24, 10, 1.0, seed=1)
        assert np.array_equal(code.decode_batch(code.codewords), np.arange(10))


class TestBaseCodeValidation:
    def test_rejects_duplicate_codewords(self):
        with pytest.raises(BaseCodeError, match="distinct"):
            BaseCode(np.ones((2, 4)))

    @pytest.mark.parametrize("rows", [1, 3, 64])
    def test_rejects_duplicates_in_different_chunks(self, rows, monkeypatch):
        monkeypatch.setattr(basecode, "ROW_VALUES", rows * 5)
        cw = np.random.default_rng(2).standard_normal((40, 5))
        BaseCode(cw.copy())
        for a, b in ((0, 39), (3, 4), (38, 1)):
            dup = cw.copy()
            dup[b] = dup[a]
            with pytest.raises(BaseCodeError, match="distinct"):
                BaseCode(dup)

    def test_signed_zeros_stay_distinct(self):
        # rows that differ only in the sign of a zero have different bytes
        rows = np.array([[0.0, 1.0, 0.0], [-0.0, 1.0, 0.0],
                         [0.0, 1.0, -0.0], [-0.0, 1.0, -0.0]])
        assert BaseCode(rows).message_count == 4
        with pytest.raises(BaseCodeError, match="distinct"):
            BaseCode(np.vstack([rows, rows[3]]))
        # antipodal rows differ in every sign bit
        assert make_antipodal_code(64, 1.0).message_count == 2

    def test_colliding_hashes_are_compared_bit_for_bit(self, monkeypatch):
        # with zero multipliers every row hashes alike: the verdict then
        # rests on the bitwise comparison alone
        monkeypatch.setattr(basecode, "_GOLDEN64", np.uint64(0))
        cw = np.random.default_rng(4).standard_normal((30, 8))
        BaseCode(cw)
        BaseCode(np.vstack([cw, -cw]))
        with pytest.raises(BaseCodeError, match="distinct"):
            BaseCode(np.vstack([cw, cw[17]]))

    def test_codewords_are_not_copied_by_the_check(self):
        cw = np.random.default_rng(1).standard_normal((2048, 256))
        tracemalloc.start()
        try:
            BaseCode(cw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one 2**17-value chunk of hashed words (1 MiB), against 4 MiB of
        # rows that a copy of each row would take
        assert peak < cw.nbytes // 2

    def test_rejects_nonzero_null(self):
        with pytest.raises(BaseCodeError, match="zero codeword"):
            BaseCode(np.vstack([np.zeros(4), np.ones(4)]), null_id=1)

    def test_rejects_bad_shape(self):
        with pytest.raises(BaseCodeError):
            BaseCode(np.zeros(4))
        with pytest.raises(BaseCodeError):
            BaseCode(np.zeros((0, 4)))

    @pytest.mark.parametrize("value", [math.nan, math.inf, 1e200])
    def test_rejects_a_table_of_no_finite_power(self, value):
        # a NaN or infinite table built, of power nan or inf
        cw = np.eye(3)
        cw[1, 2] = value
        with pytest.raises(BaseCodeError, match="codewords must be finite "
                           "with a finite power, not a table of power"):
            BaseCode(cw)

    def test_null_id_range(self):
        with pytest.raises(BaseCodeError,
                           match="null_id must hold message ids"):
            BaseCode(np.ones((1, 3)), null_id=5)


def old_power(codewords):
    """``BaseCode.power`` as the whole-table expression."""
    return float(np.max(np.mean(codewords**2, axis=1)))


class TestPower:
    @pytest.mark.parametrize("build", [
        lambda: make_random_gaussian_code(60, 6, 1.0, seed=11),
        lambda: make_random_gaussian_code(61, 42, 0.7, seed=3),
        lambda: make_random_gaussian_code(60, 6, 1.0, seed=5,
                                          null_message=True),
        lambda: BaseCode(plus_minus_one_code(300, 700, 2).codewords * 0.3),
    ])
    def test_equals_the_whole_table_expression(self, build, monkeypatch):
        code = build()
        want = old_power(code.codewords)
        assert code.power == want
        for rows in (1, 5):
            monkeypatch.setattr(basecode, "ROW_VALUES", rows * code.n)
            assert BaseCode(code.codewords, code.null_id).power == want


class TestDecoding:
    def test_matches_naive_min_distance(self, rng):
        code = make_random_gaussian_code(20, 12, 1.0, seed=9)
        ys = code.codewords[rng.integers(0, 12, size=300)] \
            + rng.normal(size=(300, 20)) * 0.8
        got = code.decode_batch(ys)
        dists = ((ys[:, None, :] - code.codewords[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(got, np.argmin(dists, axis=1))

    def test_decode_batch_dtype_and_shape(self):
        code = make_antipodal_code(4, 1.0)
        out = code.decode_batch(np.zeros((7, 4)))
        assert out.shape == (7,)
        assert out.dtype == np.int64

    @pytest.mark.parametrize("ys", [np.zeros(4), np.zeros((3, 5)),
                                    np.zeros((2, 3)), np.zeros((1, 2, 4))])
    def test_rows_must_be_n_wide(self, ys):
        code = make_antipodal_code(4, 1.0)
        with pytest.raises(BaseCodeError, match="ys must be a"):
            code.decode_batch(ys)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_a_row_holding_nan_or_inf_is_refused(self, value):
        # it decoded, with a RuntimeWarning, to the smallest id
        code = make_random_gaussian_code(8, 5, 1.0, seed=3)
        ys = code.codewords.copy()
        ys[3, 2] = value
        with pytest.raises(BaseCodeError,
                           match="ys must be finite: row 3 holds a NaN"):
            code.decode_batch(ys)

    def test_finite_rows_whose_squares_overflow_decode_in_float64(self):
        # their norms are infinite: each is tested elementwise, found
        # finite and decided by the float64 expression
        code = make_antipodal_code(4, 1.0)
        ys = np.array([[1e200] * 4, [-1e200] * 4, [1.0] * 4])
        with np.errstate(over="ignore"):
            assert code.decode_batch(ys).tolist() == [0, 1, 0]

    @pytest.mark.parametrize("dtype", [bool, complex, object])
    def test_rows_must_be_real(self, dtype):
        code = make_antipodal_code(4, 1.0)
        with pytest.raises(BaseCodeError, match=re.escape(
                f"ys must be a (rows, 4) array of real numbers, not an array "
                f"of shape (2, 4) and dtype {np.dtype(dtype)}")):
            code.decode_batch(np.ones((2, 4), dtype))


class TestFloat32Screen:
    """``decode_batch`` scores in float32 and keeps only certified rows;
    the decoded ids must equal the float64 decode's everywhere."""

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 40), message_count=st.integers(1, 512),
           rows=st.integers(0, 60), noise=st.floats(0.0, 10.0),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_the_float64_decode(self, n, message_count, rows, noise,
                                       seed):
        rng = np.random.default_rng(seed)
        code = BaseCode(rng.standard_normal((message_count, n)))
        ys = code.codewords[rng.integers(0, message_count, rows)]
        ys += math.sqrt(noise * code.power) * rng.standard_normal(ys.shape)
        assert np.array_equal(code.decode_batch(ys),
                              float64_decode(code.codewords, ys))

    def test_exact_ties_go_to_the_smallest_id(self):
        code = plus_minus_one_code(24, 40, seed=2)
        a, b = np.triu_indices(code.message_count, 1)
        ys = 0.5 * (code.codewords[a] + code.codewords[b])   # exact midpoints
        exact = ys @ code.codewords.T   # halves and integers: no rounding
        assert np.all(np.sum(exact == exact.max(axis=1)[:, None], axis=1) >= 2)
        got = code.decode_batch(ys)
        assert np.array_equal(got, np.argmax(exact, axis=1))
        assert np.all(got <= a)
        # the antipodal zero row: message 0
        assert make_antipodal_code(5, 2.0).decode_batch(np.zeros((3, 5))) \
            .tolist() == [0, 0, 0]

    @pytest.mark.parametrize("spread", [1e-5, 1e-6, 1e-7])
    def test_near_ties_where_float32_errs(self, spread):
        code = make_random_gaussian_code(64, 16, 1.0, seed=3)
        words = code.codewords
        rng = np.random.default_rng(3)
        a = rng.integers(0, 16, 400)
        b = (a + rng.integers(1, 16, 400)) % 16
        ys = 0.5 * (words[a] + words[b]) + spread * rng.standard_normal(
            (400, 64))
        want = float64_decode(words, ys)
        plain32 = float64_decode(words.astype(np.float32),
                                 ys.astype(np.float32))
        assert np.any(plain32 != want)   # float32 alone gets rows wrong
        assert np.array_equal(code.decode_batch(ys), want)
        assert [code.decode_batch(y[None])[0] for y in ys[:100]] \
            == want[:100].tolist()

    @pytest.mark.parametrize("omega", [1e30, 1e-30, 1e40, 1e-40, 1e80,
                                       1e-80])
    def test_extreme_scales_decode_like_float64(self, omega, rng):
        # omega = 1e40 and 1e80 put the scores beyond float32's range,
        # 1e-40 and 1e-80 among or below its subnormals: such blocks
        # take the float64 path; 1e30 and 1e-30 stay in the screen
        code = make_random_gaussian_code(32, 64, omega, seed=5)
        ys = code.codewords[rng.integers(0, 64, 400)]
        ys += math.sqrt(2.0 * omega) * rng.standard_normal(ys.shape)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = code.decode_batch(ys)
        assert np.array_equal(got, float64_decode(code.codewords, ys))
        assert np.array_equal(code.decode_batch(code.codewords),
                              np.arange(64))

    def test_one_uncertified_row_is_decided_in_float64(self, monkeypatch):
        code = plus_minus_one_code(24, 40, seed=2)
        words = code._screen.words
        # a screen that scores message j with codeword j + 1 (each row of
        # ``words`` carries its half-norm): every row it certifies comes
        # back shifted by one
        shift = np.roll(np.arange(40), -1)
        monkeypatch.setitem(code.__dict__, "_screen",
                            code._screen._replace(words=words[shift]))
        clean = code.codewords[5:15]
        assert np.array_equal(code.decode_batch(clean), np.arange(4, 14))
        tie = 0.5 * (code.codewords[[20]] + code.codewords[[30]])
        got = code.decode_batch(np.vstack([clean, tie]))
        # the certified rows stay as the screen scored them; the tied row
        # alone is decided in float64
        assert got[:10].tolist() == list(range(4, 14))
        assert got[10] == float64_decode(code.codewords, tie)[0] == 20


class TestDecodeTiles:
    """``decode_batch`` scores in message tiles of at most ``TILE_VALUES``
    scores, keeping a running best per row (and, in float32, a running
    second best); the ids must equal the float64 decode's at any tiling."""

    @staticmethod
    def tiles_of(monkeypatch, rows, messages):
        monkeypatch.setattr(basecode, "TILE_VALUES", rows * messages)

    def test_a_tile_boundary_at_every_offset(self, monkeypatch, rng):
        code = make_random_gaussian_code(16, 24, 1.0, seed=2)
        ys = np.vstack([code.codewords, code.codewords[rng.integers(0, 24, 16)]])
        ys += 0.7 * rng.standard_normal(ys.shape)
        # scores beyond float32's range: the float64 scoring, tiled too
        huge = BaseCode(code.codewords * 1e25)
        want = float64_decode(code.codewords, ys)
        want_huge = float64_decode(huge.codewords, ys * 1e25)
        assert np.array_equal(want_huge, want)
        for step in range(1, 26):   # each message at each tile offset
            self.tiles_of(monkeypatch, len(ys), step)
            assert np.array_equal(code.decode_batch(ys), want), step
            assert np.array_equal(huge.decode_batch(ys * 1e25), want), step

    def test_an_exact_tie_across_two_tiles_goes_to_the_smallest_id(
            self, monkeypatch):
        code = plus_minus_one_code(24, 40, seed=2)
        a, b = np.meshgrid(np.arange(16), np.arange(16, 40), indexing="ij")
        a, b = a.ravel(), b.ravel()
        ys = 0.5 * (code.codewords[a] + code.codewords[b])   # midpoints
        exact = ys @ code.codewords.T   # halves and integers: no rounding
        top = exact.max(axis=1)
        assert np.all(exact[np.arange(len(ys)), a] == top)
        assert np.all(exact[np.arange(len(ys)), b] == top)
        self.tiles_of(monkeypatch, len(ys), 16)   # tiles [0,16), [16,32), ..
        got = code.decode_batch(ys)
        assert np.array_equal(got, np.argmax(exact, axis=1))
        assert np.all(got <= a)

    def test_one_uncertified_row_of_a_tiled_block_is_decided_in_float64(
            self, monkeypatch):
        # a block of three 50-row chunks in tiles of 7 messages, scored by a
        # screen that scores message j with codeword j + 1; its one tied
        # row, in the middle chunk, is decided in float64 and every other
        # row stays as the screen scored it
        code = plus_minus_one_code(24, 40, seed=2)
        words = code._screen.words
        shift = np.roll(np.arange(40), -1)
        monkeypatch.setitem(code.__dict__, "_screen",
                            code._screen._replace(words=words[shift]))
        clean = code.codewords[np.arange(150) % 40]
        self.tiles_of(monkeypatch, 150, 7)
        shifted = (np.arange(150) - 1) % 40
        assert np.array_equal(code.decode_batch(clean), shifted)
        block = clean.copy()
        block[75] = 0.5 * (code.codewords[20] + code.codewords[30])
        got = code.decode_batch(block)
        assert np.array_equal(np.delete(got, 75), np.delete(shifted, 75))
        assert got[75] == float64_decode(code.codewords, block[75:76])[0]

    @pytest.mark.parametrize("n, message_count", [(64, 16), (600, 4096),
                                                  (256, 64)])
    def test_midpoints_decode_alike_in_any_block(self, n, message_count):
        # a Gaussian midpoint's two scores differ by float64 rounding alone:
        # each row is decided on its own, so a block, each row alone and
        # each 4-row window give the same ids
        ys = midpoints(n, message_count)
        code = make_random_gaussian_code(n, message_count, 1.0, seed=3)
        block = code.decode_batch(ys)
        assert [code.decode_batch(y[None])[0] for y in ys] == block.tolist()
        assert np.array_equal(np.concatenate(
            [code.decode_batch(ys[i:i + 4]) for i in range(0, len(ys), 4)]),
            block)

    def test_midpoint_decode_is_the_same_at_1_and_2_blas_threads(self):
        env = dict(os.environ)
        src = str(Path(basecode.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        digests = []
        for threads in ("1", "2"):
            env["OPENBLAS_NUM_THREADS"] = threads
            proc = subprocess.run(
                [sys.executable, "-c", MIDPOINT_DIGEST], env=env,
                capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout.strip())
        assert len(digests[0]) == 64 and digests[0] == digests[1]

    @pytest.mark.parametrize("spread", [0.0, 1e-6, 1e-3, 0.5])
    def test_one_message_tiles(self, monkeypatch, spread):
        # (at spread 0 a Gaussian midpoint's two scores differ by float64
        # rounding alone: the row is decided as a one-row block decodes it)
        code = make_random_gaussian_code(64, 16, 1.0, seed=3)
        rng = np.random.default_rng(4)
        a = rng.integers(0, 16, 300)
        b = (a + rng.integers(1, 16, 300)) % 16
        ys = 0.5 * (code.codewords[a] + code.codewords[b]) \
            + spread * rng.standard_normal((300, 64))
        alone = [code.decode_batch(y[None])[0] for y in ys]
        if spread:
            assert alone == float64_decode(code.codewords, ys).tolist()
        self.tiles_of(monkeypatch, len(ys), 1)
        assert code.decode_batch(ys).tolist() == alone

    def test_one_message_tiles_keep_the_first_of_exact_ties(self,
                                                             monkeypatch):
        code = plus_minus_one_code(24, 40, seed=2)
        a, b = np.triu_indices(code.message_count, 1)
        ys = 0.5 * (code.codewords[a] + code.codewords[b])
        self.tiles_of(monkeypatch, len(ys), 1)
        assert np.array_equal(code.decode_batch(ys),
                              float64_decode(code.codewords, ys))

    @pytest.mark.parametrize("scale, limit", [(1.0, 5), (1e25, 9)])
    def test_scores_take_one_tile_of_at_most_2_pow_20(self, scale, limit):
        # 600 rows against 4096 messages: the whole score matrix would take
        # 9.4 MiB in float32 and 18.8 MiB in float64; a tile takes at most
        # 4 and 8 MiB
        code = BaseCode(make_random_gaussian_code(64, 4096, 1.0, seed=1)
                        .codewords * scale)
        ys = code.codewords[:600] + 0.1 * scale
        want = float64_decode(code.codewords, ys)
        code.decode_batch(ys[:1])   # the float32 table and half-norms
        tracemalloc.start()
        try:
            got = code.decode_batch(ys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, want)
        assert peak < limit * 2 ** 20


class TestPrefixScreen:
    """A large code's first screen scores a prefix of the coordinates plus
    the Cauchy-Schwarz bound ||y_R|| ||x_R|| on the rest; the rows it
    certifies, and every id, must equal the float64 decode's."""

    @staticmethod
    def force(monkeypatch, j):
        """Screen every block first at split j: j = 15 is the full width,
        any other j the last prefix split where a code has fewer."""
        def split(self, norms):
            k = len(self._screen.splits) - 1
            return k if j == 15 else min(j, k - 1)

        monkeypatch.setattr(BaseCode, "_split", split)

    @staticmethod
    def record(monkeypatch):
        """The (winners, certified) of every screen at a prefix split, as
        returned."""
        seen = []
        screen = BaseCode._screen_at

        def recording(self, ys, wide, err, j, tile):
            best, sure = screen(self, ys, wide, err, j, tile)
            if self._screen.splits[j] < self.n:
                seen.append((best.copy(), sure.copy()))
            return best, sure

        monkeypatch.setattr(BaseCode, "_screen_at", recording)
        return seen

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(8, 40), message_count=st.integers(1, 300),
           rows=st.integers(0, 60), noise=st.floats(0.0, 10.0),
           j=st.integers(0, 14), seed=st.integers(0, 2**32 - 1))
    def test_a_short_prefix_equals_the_float64_decode(
            self, n, message_count, rows, noise, j, seed):
        with pytest.MonkeyPatch.context() as mp:
            self.force(mp, j)
            seen = self.record(mp)
            rng = np.random.default_rng(seed)
            code = BaseCode(rng.standard_normal((message_count, n)))
            ys = code.codewords[rng.integers(0, message_count, rows)]
            ys += math.sqrt(noise * code.power) * rng.standard_normal(
                ys.shape)
            assert np.array_equal(code.decode_batch(ys),
                                  float64_decode(code.codewords, ys))
            assert len(seen) == 1

    @pytest.mark.parametrize("j", range(16))   # j = 15: the full width
    def test_midpoints_and_far_rows_at_every_split(self, monkeypatch, j):
        self.force(monkeypatch, j)
        seen = self.record(monkeypatch)
        code = make_random_gaussian_code(64, 16, 1.0, seed=3)
        ys = np.vstack([midpoints(64, 16), code.codewords * 1e-3,
                        code.codewords[:4] * 2.0 ** 130])
        # a midpoint's two scores differ by float64 rounding alone: the
        # row is decided as one row's matrix-vector product decides it
        half = 0.5 * np.sum(code.codewords ** 2, axis=1)
        assert code.decode_batch(ys).tolist() \
            == [np.argmax(code.codewords @ y - half) for y in ys]
        assert len(seen) == (j < 15)

    @pytest.mark.parametrize("j", [7, 9, 11])   # d = 32, 40, 48 of 64
    def test_a_wrong_prefix_winner_is_never_certified(self, monkeypatch, j):
        self.force(monkeypatch, j)
        seen = self.record(monkeypatch)
        code = make_random_gaussian_code(64, 300, 1.0, seed=4)
        rng = np.random.default_rng(5)
        ys = code.codewords[rng.integers(0, 300, 2000)] \
            + rng.standard_normal((2000, 64))
        want = float64_decode(code.codewords, ys)
        assert np.array_equal(code.decode_batch(ys), want)
        [(best, sure)] = seen
        # the prefix picks the wrong winner in some rows and certifies
        # others, never one of the former
        assert np.any(best != want) and np.any(sure)
        assert np.array_equal(best[sure], want[sure])

    def test_exact_ties_split_across_prefix_and_rest_go_to_the_smallest_id(
            self, monkeypatch):
        self.force(monkeypatch, 7)   # d = 12 of n = 24
        seen = self.record(monkeypatch)
        code = plus_minus_one_code(24, 40, seed=2)
        assert code._screen.splits[7] == 12
        words = code.codewords
        ys = []
        for a, b in zip(*np.triu_indices(40, 1)):
            differ = np.flatnonzero(words[a] != words[b])
            p, q = differ[differ < 12], differ[differ >= 12]
            if p.size and q.size:
                # the midpoint, moved towards a on the prefix and towards b
                # by as much on the rest: a and b tie, exactly
                y = 0.5 * (words[a] + words[b])
                y[p[0]] = 0.5 * words[a, p[0]]
                y[q[0]] = 0.5 * words[b, q[0]]
                ys.append(y)
        ys = np.array(ys)
        exact = ys @ words.T   # quarters and integers: no rounding
        top = exact == exact.max(axis=1)[:, None]
        assert np.sum(np.sum(top, axis=1) >= 2) > 100
        got = code.decode_batch(ys)
        assert np.array_equal(got, np.argmax(exact, axis=1))
        [(_, sure)] = seen
        assert not np.any(sure[np.sum(top, axis=1) >= 2])

    @pytest.mark.parametrize("n, message_count", [(600, 6), (256, 64),
                                                  (40, 512), (600, 512)])
    def test_small_codes_keep_the_full_width(self, n, message_count):
        code = make_random_gaussian_code(n, message_count, 1.0, seed=1)
        rng = np.random.default_rng(2)
        k = len(code._screen.splits) - 1
        assert code._screen.splits[k] == n
        for noise in (0.0, 0.01, 0.1, 1.0, 10.0):
            ys = code.codewords[rng.integers(0, message_count, 500)]
            ys += math.sqrt(noise) * rng.standard_normal(ys.shape)
            assert code._split(np.linalg.norm(ys, axis=1)) == k

    def test_a_large_code_screens_a_prefix_of_its_rest_norms(self):
        code = make_random_gaussian_code(600, 4096, 1.0, seed=7)
        words, splits = code._screen.words, code._screen.splits
        assert splits == tuple(600 * j // 16 for j in range(1, 17))
        rest = np.array([np.linalg.norm(code.codewords[:, d:], axis=1)
                         for d in splits[:-1]]).T
        assert np.allclose(words[:, :15], rest, rtol=1e-6)
        assert np.array_equal(words[:, 15], code._half_norms.astype(
            np.float32))
        assert np.array_equal(words[:, 16:],
                              code.codewords.astype(np.float32))
        rng = np.random.default_rng(3)
        ys = code.codewords[rng.integers(0, 4096, 872)]
        ys += rng.standard_normal(ys.shape)
        norms = np.linalg.norm(ys, axis=1)
        assert 0 <= code._split(norms) < 15
        # noise that leaves no split a lead: the full width
        assert code._split(3.0 * norms) == 15

    @pytest.mark.parametrize("noise, d", [(0.1, 112), (1.0, 337),
                                          (2.0, 412), (9.0, 600)])
    def test_the_split_picked_at_each_noise(self, noise, d):
        # the large_codebook shape: n = 600, M = 4096, 872-row blocks
        code = make_random_gaussian_code(600, 4096, 1.0, seed=7)
        rng = np.random.default_rng(3)
        ys = code.codewords[rng.integers(0, 4096, 872)]
        ys += math.sqrt(noise) * rng.standard_normal(ys.shape)
        j = code._split(np.linalg.norm(ys, axis=1))
        assert code._screen.splits[j] == d


class TestErrorProbability:
    def test_closed_form_value(self):
        # n=16, omega=1, rho=1: Phi(-4)
        p = antipodal_error_probability(16, 1.0, 1.0)
        assert p == pytest.approx(float(norm.cdf(-4.0)), rel=1e-10)

    def test_monte_carlo_matches_closed_form(self):
        # Phi(-1) ~ 0.1587: strong signal at 10^6 trials.
        code = make_antipodal_code(16, 1.0)
        rep = base_error_probability(code, rho_dec=16.0, trials=10 ** 6, seed=2)
        p = antipodal_error_probability(16, 1.0, 16.0)
        assert abs(rep.estimate - p) <= 3.0 * rep.se

    def test_monte_carlo_rare_event_tail(self):
        # Phi(-4) ~ 3.17e-5 resolved at 10^7 trials (~317 expected errors).
        code = make_antipodal_code(16, 1.0)
        rep = base_error_probability(code, rho_dec=1.0, trials=10 ** 7, seed=2)
        p = antipodal_error_probability(16, 1.0, 1.0)
        assert abs(rep.estimate - p) <= 3.0 * math.sqrt(p * (1 - p) / rep.trials)

    def test_vanishing_noise(self):
        code = make_random_gaussian_code(24, 6, 1.0, seed=0)
        rep = base_error_probability(code, rho_dec=1e-9, trials=1000, seed=0)
        assert rep.successes == 0

    def test_monotone_in_noise_under_common_randomness(self):
        # The DECODER stream is shared across rho values, so antipodal error
        # events are nested and counts must be nondecreasing.
        code = make_antipodal_code(8, 1.0)
        errs = [base_error_probability(code, rho_dec=r, trials=20000,
                                       seed=6).successes
                for r in (0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(a <= b for a, b in zip(errs, errs[1:]))

    def test_replays_message_and_noise_streams(self):
        # The estimator is exactly reproducible from its two named streams,
        # in one block and in three 8192-row blocks, the last partial, on
        # one worker or two.
        code = make_random_gaussian_code(16, 5, 1.0, seed=4)
        rho, seed = 2.0, 13
        assert block_rows(16, 5) == block_rows(16, 5, workers=2) == 8192
        for trials in (1000, 20_000):
            rep = base_error_probability(code, rho, trials, seed)
            ms = choices(seed, Role.MESSAGE, 0, trials, 5)
            noise = normals(seed, Role.DECODER, 0, trials, 16)
            decoded = code.decode_batch(code.codewords[ms]
                                        + math.sqrt(rho) * noise)
            assert rep.successes == int(np.sum(decoded != ms))

    def test_null_excluded_from_transmit_pool_by_default(self):
        code = make_random_gaussian_code(16, 5, 1.0, seed=4, null_message=True)
        trials, rho, seed = 500, 0.5, 13
        rep = base_error_probability(code, rho, trials, seed)
        ms = choices(seed, Role.MESSAGE, 0, trials, 5)  # pool of 5, not 6
        noise = normals(seed, Role.DECODER, 0, trials, 16)
        decoded = code.decode_batch(code.codewords[ms] + math.sqrt(rho) * noise)
        assert rep.successes == int(np.sum(decoded != ms))

    def test_null_message_first_is_never_transmitted(self, monkeypatch):
        # with null_id = 0 the pool is ids 1..4, not 0..3; nearly noiseless
        # decoding recovers every transmitted id
        words = make_random_gaussian_code(16, 4, 1.0, seed=4).codewords
        code = BaseCode(np.vstack([np.zeros(16), words]), null_id=0)
        seen = set()
        decode = BaseCode.decode_batch

        def recording(self, ys, **kwargs):
            decoded = decode(self, ys, **kwargs)
            seen.update(decoded.tolist())
            return decoded

        monkeypatch.setattr(BaseCode, "decode_batch", recording)
        rep = base_error_probability(code, 1e-12, 2000, seed=3)
        assert rep.successes == 0
        assert seen == {1, 2, 3, 4}

    @pytest.mark.skipif(resource is None, reason="needs resource.getrusage")
    def test_blocks_do_not_fault_their_arrays_in_again(self):
        # n=256, M=64: 512-row blocks.  Arrays allocated per block cost
        # about 480 minor faults per block; reused, next to none.
        code = make_random_gaussian_code(256, 64, 1.0, seed=0)

        def faults(trials):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            base_error_probability(code, 0.1, trials, seed=1)
            return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

        faults(20_000)   # warm up
        few, many = faults(20_000), faults(200_000)
        extra_blocks = -(-200_000 // 512) - -(-20_000 // 512)
        assert block_rows(256, 64) == 512
        assert many - few < 64 * extra_blocks

    def test_domain(self):
        code = make_antipodal_code(4, 1.0)
        with pytest.raises(BaseCodeError, match="at least 100"):
            base_error_probability(code, 1.0, 99)
        with pytest.raises(BaseCodeError, match="positive"):
            base_error_probability(code, 0.0, 100)


class TestJsonRoundTrip:
    def test_round_trip(self):
        code = make_random_gaussian_code(12, 4, 0.3, seed=8, null_message=True)
        back = from_json_dict(json.loads(json.dumps(to_json_dict(code))))
        assert np.array_equal(back.codewords, code.codewords)
        assert back.null_id == code.null_id
        assert back.power == code.power

    def test_round_trip_without_null(self):
        code = make_antipodal_code(6, 2.0)
        back = from_json_dict(json.loads(json.dumps(to_json_dict(code))))
        assert np.array_equal(back.codewords, code.codewords)
        assert back.null_id is None

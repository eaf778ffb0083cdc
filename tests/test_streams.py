import re

import numpy as np
import pytest

from awgnauth import streams
from awgnauth.streams import Role, draw_buffer, normals, uniforms


class TestOutArgument:
    @pytest.mark.parametrize("width", [1, 3, 4, 5, 256])
    @pytest.mark.parametrize("start", [0, 13])
    def test_drawing_into_a_buffer_equals_a_new_draw(self, width, start):
        # a full buffer, then a short last block carved from the same one
        buf = draw_buffer(9, width)
        for trials in (9, 4):
            want = normals(3, Role.DELTA, start, trials, width)
            got = normals(3, Role.DELTA, start, trials, width,
                          out=buf[:trials])
            assert got.shape == (trials, width)
            assert np.shares_memory(got, buf)
            assert got.tobytes() == want.tobytes()
        u = uniforms(3, Role.DECODER, start, 4, width, out=buf[:4])
        assert u.tobytes() == uniforms(3, Role.DECODER, start, 4,
                                       width).tobytes()

    def test_a_buffer_of_the_wrong_rows_is_refused(self):
        with pytest.raises(ValueError):
            normals(3, Role.DELTA, 0, 5, 3, out=draw_buffer(9, 3)[:4])


# (function, argument) -> the least value it takes; each row is called with
# a float, a bool and a value below that least one
DRAW_ARGS = ("master_seed", "role", "start_trial", "trials", "width")
INT_ROWS = {(fn, arg): 1 if arg == "width" else 0
            for fn in ("uniforms", "normals") for arg in DRAW_ARGS}
INT_ROWS.update({("choices", arg): 0 for arg in DRAW_ARGS[:4]})
INT_ROWS[("choices", "count")] = 1
GOOD = dict(master_seed=3, role=Role.DELTA, start_trial=2, trials=4, width=5,
            count=5)


class TestIntegerArguments:
    @pytest.mark.parametrize("row", sorted(INT_ROWS),
                             ids=lambda row: "-".join(row))
    def test_bad_integers_are_refused(self, row):
        # choices(0, 0, 0, 2, 2.5) gave float ids [0., 1.5], start_trial
        # True read as trial 1, 0.5 raised a raw TypeError and a negative
        # seed numpy's own ValueError
        fn, arg = row
        draw = getattr(streams, fn)
        names = DRAW_ARGS[:4] + (("count",) if fn == "choices"
                                 else ("width",))
        minimum = INT_ROWS[row]
        what = {0: "a nonnegative integer", 1: "a positive integer"}[minimum]
        for bad in (1.5, 0.5, True, minimum - 1):
            kwargs = dict(GOOD, **{arg: bad})
            with pytest.raises(ValueError, match=re.escape(
                    f"{arg} must be {what}, not {bad!r}")):
                draw(*(kwargs[name] for name in names))
        draw(*(dict(GOOD, **{arg: minimum})[name] for name in names))

    def test_numpy_integers_and_roles_are_integers(self):
        # a uint8 start of 200 times the stride wrapped, or overflowed
        want = streams.choices(3, Role.MESSAGE, 200, 4, 5)
        got = streams.choices(np.int64(3), int(Role.MESSAGE), np.uint8(200),
                              np.int32(4), np.int64(5))
        assert got.dtype == np.int64 and got.tolist() == want.tolist()
        assert uniforms(3, Role.DELTA, np.uint8(200), 2, 5).tobytes() \
            == uniforms(3, Role.DELTA, 200, 2, 5).tobytes()


class TestRowArrays:
    def test_float64_rows_are_returned_as_they_are(self):
        # no copy: the simulation attacks in place over its observations
        rows = np.zeros((4, 6))[:, :3]
        assert streams.check_rows("ys", rows, 3, ValueError) is rows
        got = streams.check_rows("ys", np.arange(6, dtype=np.int8)
                                 .reshape(2, 3), 3, ValueError, 2)
        assert got.dtype == np.float64 and got.tolist() == [[0, 1, 2],
                                                            [3, 4, 5]]

    @pytest.mark.parametrize("rows, got", [
        ([[1.0, 2.0], [3.0]], "a ragged sequence"),
        ("ab", "an array of shape () and dtype <U2"),
        (np.zeros((2, 3), np.float16) > 0,
         "an array of shape (2, 3) and dtype bool"),
        (np.zeros((1, 2, 3)), "an array of shape (1, 2, 3) and dtype float64"),
    ], ids=["ragged", "str", "bool", "3-d"])
    def test_what_is_not_rows_of_reals(self, rows, got):
        with pytest.raises(KeyError, match=re.escape(
                f"ys must be a (rows, n) array of real numbers, not {got}")):
            streams.check_rows("ys", rows, None, KeyError)

    def test_a_row_is_read_only_where_its_sums_are_not_finite(self):
        rows = np.array([[1e200, 1e200], [1.0, np.nan], [np.inf, 0.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            sums = np.einsum("ij,ij->i", rows, rows)
        with pytest.raises(ValueError, match="ys must be finite: row 1 "):
            streams.check_finite_rows("ys", rows, sums, ValueError)
        # the overflowing row is finite; a NaN that no sum reads passes
        streams.check_finite_rows("ys", rows[:1], sums[:1], ValueError)
        streams.check_finite_rows("ys", rows[1:], np.zeros((2, 2)),
                                  ValueError)
        streams.check_finite_rows("ys", rows[:0], sums[:0], ValueError)

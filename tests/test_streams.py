import numpy as np
import pytest

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

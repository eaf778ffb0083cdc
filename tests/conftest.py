import numpy as np
import pytest

from awgnauth import simulate, streams
from awgnauth.authcode import inject_noise
from awgnauth.basecode import make_random_gaussian_code
from awgnauth.overlay import LevelSet, construct_overlay


@pytest.fixture(scope="session")
def small_overlay():
    """n=60, K={0, 1/2}, 6 messages — the workhorse for unit tests."""
    return construct_overlay(60, LevelSet((0.0, 0.5)), 0.75,
                             counts_per_level=[3, 2], seed=11)


@pytest.fixture(scope="session")
def small_base():
    return make_random_gaussian_code(60, 6, omega=1.0, seed=11)


@pytest.fixture(scope="session")
def small_auth(small_base, small_overlay):
    return inject_noise(small_base, small_overlay, rho_delta=1.0, delta=0.2,
                        seed=11)


@pytest.fixture(scope="session")
def null_auth():
    """Seven messages, the last the null ('not transmitting') state."""
    base = make_random_gaussian_code(60, 6, omega=1.0, seed=5,
                                     null_message=True)
    overlay = construct_overlay(60, LevelSet((0.0, 0.5)), 0.75,
                                counts_per_level=[7, 1], seed=5)
    return inject_noise(base, overlay, rho_delta=1.0, delta=0.2, seed=5)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture()
def fixed_blocks(monkeypatch):
    """``fixed_blocks(rows)`` makes ``simulate`` run blocks of ``rows``
    trials (the last one shorter) in place of ``block_rows``' size, until
    the test ends or ``fixed_blocks(None)`` brings the rule back."""
    def fix(rows):
        monkeypatch.setattr(simulate, "block_rows", streams.block_rows
                            if rows is None else lambda *args, **kwargs: rows)
    return fix

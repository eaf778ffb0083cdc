"""Every public entry that takes a message id refuses a bad one with its
own module's error.

A message id is an integer (not a bool) in [0, M); ``streams.check_ids``
is the one test of it.  The table below holds one row per (entry,
parameter); each row is called with ids that wrap, overflow, pass as a
bool or are floats, and must raise its module's ``ValueError`` subclass,
never an ``IndexError``, a ``TypeError`` or a result.  The guard test
scans the package for id-named parameters, so that a new entry point
cannot skip the table.
"""

import inspect
import math
from dataclasses import replace

import numpy as np
import pytest

import awgnauth
from awgnauth import (AttackError, AttackSpec, AuthCode, AuthCodeError,
                      BaseCode, BaseCodeError, ChannelParams, OverlayCode,
                      OverlayError, SimulateError, VerifyReport,
                      auth_encode_batch, detect_batch, estimate, inject_noise,
                      level_statistics, mmse_attack_terms,
                      residual_variance_vector, run_trial, verify_overlay)

M = 6   # messages of the ``small_auth`` fixture
BAD_IDS = [-1, M, True, 1.0, np.array([1.5]), np.array([True])]
ID_PARAMS = {"m", "m_prime", "m_target", "ms", "rows", "base_decoded",
             "message", "pairs", "null_id", "decimated"}
CHANNEL = ChannelParams(rho_dec=0.1, rho_adv=0.1)


def _as_set(ids):
    return frozenset(ids) if isinstance(ids, np.ndarray) else frozenset({ids})


# (entry, parameter) -> (error, call of (code, bad id))
TABLE = {
    ("auth_encode_batch", "ms"): (
        AuthCodeError, lambda code, bad:
        auth_encode_batch(code, bad, np.zeros((1, code.n)))),
    ("level_statistics", "base_decoded"): (
        AuthCodeError, lambda code, bad:
        level_statistics(code, np.zeros((1, code.n)), bad, 0.1)),
    ("detect_batch", "base_decoded"): (
        AuthCodeError, lambda code, bad:
        detect_batch(code, np.zeros((1, code.n)), bad, 0.1)),
    ("mmse_attack_terms", "m"): (
        AttackError, lambda code, bad:
        mmse_attack_terms(code, bad, 1, 0.1)),
    ("mmse_attack_terms", "m_target"): (
        AttackError, lambda code, bad:
        mmse_attack_terms(code, 0, bad, 0.1)),
    ("residual_variance_vector", "m"): (
        AttackError, lambda code, bad:
        residual_variance_vector(code, bad, 0.1, 0.1)),
    ("run_trial", "m"): (
        SimulateError, lambda code, bad:
        run_trial(code, CHANNEL, AttackSpec("none"), bad, seed=0)),
    ("run_trial", "attack target"): (
        SimulateError, lambda code, bad:
        run_trial(code, CHANNEL, AttackSpec("targeted", bad), 0, seed=0)),
    ("estimate", "message"): (
        SimulateError, lambda code, bad:
        estimate(code, CHANNEL, "epsilon", 100, message=bad)),
    ("estimate", "pairs"): (
        SimulateError, lambda code, bad:
        estimate(code, CHANNEL, "alpha_star", 100, pairs=[(0, bad)])),
    ("estimate", "attack target"): (
        SimulateError, lambda code, bad:
        estimate(code, CHANNEL, "alpha_star", 100,
                 attack=AttackSpec("targeted", bad))),
    ("OverlayCode.level_matrix", "rows"): (
        OverlayError, lambda code, bad:
        code.overlay.level_matrix(bad)),
    ("OverlayCode.test_indices", "m"): (
        OverlayError, lambda code, bad:
        code.overlay.test_indices(bad)),
    ("VerifyReport.witness", "m"): (
        OverlayError, lambda code, bad:
        verify_overlay(code.overlay).witness(bad, 0)),
    ("VerifyReport.witness", "m_prime"): (
        OverlayError, lambda code, bad:
        verify_overlay(code.overlay).witness(0, bad)),
    ("AuthCode.is_valid_message", "m"): (
        AuthCodeError, lambda code, bad:
        code.is_valid_message(bad)),
    ("AuthCode", "decimated"): (
        AuthCodeError, lambda code, bad:
        replace(code, decimated=_as_set(bad))),
    ("BaseCode", "null_id"): (
        BaseCodeError, lambda code, bad:
        BaseCode(code.base.codewords, null_id=bad)),
}
# a predicate: an integer out of range is no valid message, not an error
PREDICATES = {("AuthCode.is_valid_message", "m")}


@pytest.mark.parametrize("bad", BAD_IDS, ids=repr)
@pytest.mark.parametrize("key", TABLE, ids=lambda key: "-".join(key))
def test_bad_ids_raise_the_module_error(small_auth, key, bad):
    error, call = TABLE[key]
    assert issubclass(error, ValueError)
    if key in PREDICATES and isinstance(bad, int) and bad is not True:
        assert call(small_auth, bad) is False
        return
    with pytest.raises(error, match="must hold message ids"):
        call(small_auth, bad)


@pytest.mark.parametrize("decimated", [frozenset({1.5, 2}),
                                       frozenset({True, 2})], ids=repr)
def test_decimated_ids_are_checked_one_at_a_time(small_auth, decimated):
    # as an array, {True, 2} would cast to the integers {1, 2}
    with pytest.raises(AuthCodeError, match="decimated must hold message"):
        replace(small_auth, decimated=decimated)


def test_the_detector_needs_a_batch_of_ids(small_auth):
    # one id is no batch: before, len() of it raised a TypeError
    ys = np.zeros((1, small_auth.n))
    for call in (level_statistics, detect_batch):
        with pytest.raises(AuthCodeError, match="one row per decoded id"):
            call(small_auth, ys, 3, 0.1)


def _id_parameters():
    """(entry, parameter) for every id-named parameter of the package's
    public callables and of the methods of the classes that take ids."""
    found = set()
    for name in awgnauth.__all__:
        obj = getattr(awgnauth, name)
        if not callable(obj) or (inspect.isclass(obj)
                                 and issubclass(obj, BaseException)):
            continue
        found |= {(name, p) for p in inspect.signature(obj).parameters
                  if p in ID_PARAMS}
    for cls in (OverlayCode, AuthCode, VerifyReport):
        for name, fn in inspect.getmembers(cls, inspect.isfunction):
            if not name.startswith("_"):
                found |= {(f"{cls.__name__}.{name}", p)
                          for p in inspect.signature(fn).parameters
                          if p in ID_PARAMS}
    return found


def test_every_id_parameter_is_in_the_table():
    found = _id_parameters()
    assert ("run_trial", "m") in found and ("BaseCode", "null_id") in found
    missing = found - set(TABLE)
    assert not missing, f"id parameters without a boundary row: {missing}"


@pytest.mark.parametrize("rho", [math.nan, math.inf], ids=repr)
def test_noise_powers_must_be_finite(small_auth, rho):
    code = small_auth
    ys, dec = np.zeros((5, code.n)), np.arange(5)
    calls = [
        (AuthCodeError, lambda: detect_batch(code, ys, dec, rho)),
        (AuthCodeError, lambda: level_statistics(code, ys, dec, rho)),
        (AuthCodeError, lambda: inject_noise(code.base, code.overlay, rho,
                                             0.1, enforce_bounds=False)),
        (AuthCodeError, lambda: inject_noise(code.base, code.overlay, rho,
                                             0.1)),
        (AttackError, lambda: mmse_attack_terms(code, 0, 1, rho)),
        (AttackError, lambda: residual_variance_vector(code, 0, rho, 0.1)),
        (AttackError, lambda: residual_variance_vector(code, 0, 0.1, rho)),
    ]
    for error, call in calls:
        with pytest.raises(error, match="finite"):
            call()

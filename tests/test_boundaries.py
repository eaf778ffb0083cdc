"""Every public entry that takes a message id or a power refuses a bad
one with its own module's error.

A message id is an integer (not a bool) in [0, M); ``streams.check_ids``
is the one test of it.  The table below holds one row per (entry,
parameter); each row is called with ids that wrap, overflow, pass as a
bool or are floats, and must raise its module's ``ValueError`` subclass,
never an ``IndexError``, a ``TypeError`` or a result.  The guard test
scans the package for id-named parameters, so that a new entry point
cannot skip the table.

A noise or signal power is a finite real number (not a bool), at least 0,
above 0 where a formula divides by it; ``streams.check_powers`` is the
one test of it.  The power table works the same way, with NaN, infinity,
-1 and ``True``, and its own guard.

``bounds._check_design`` tests the design parameters of ``bounds``
entries (``gamma``, ``delta``, a rate, a margin ``lam``); their table
reuses the power table's calls and bad values, with a guard of its own.
"""

import inspect
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import awgnauth
from awgnauth import (AttackError, AttackSpec, AuthCode, AuthCodeError,
                      BaseCode, BaseCodeError, BoundsError, ChannelParams,
                      LevelSet, OverlayCode, OverlayError, SimulateError,
                      VerifyReport, auth_encode_batch, bounds_report,
                      decimation_bounds, detect_batch, detection_margin,
                      estimate, inject_noise, level_statistics,
                      mmse_attack_terms, residual_variance_vector, run_trial,
                      verify_overlay)
from awgnauth.authcode import from_json_dict, to_json_dict

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


@pytest.mark.parametrize("bad", ["a", None], ids=repr)
def test_the_predicate_types_an_id_before_its_range(small_auth, bad):
    # a range test first raised Python's TypeError for a non-number
    with pytest.raises(AuthCodeError, match="m must hold message ids"):
        small_auth.is_valid_message(bad)


@pytest.mark.parametrize("ms", [3, np.array([[3]]), np.array([3, 4])],
                         ids=repr)
def test_the_encoder_needs_one_id_per_row(small_auth, ms):
    # one id for one row raised numpy's non-broadcastable output error
    with pytest.raises(AuthCodeError, match="one id per row of unit_delta"):
        auth_encode_batch(small_auth, ms, np.zeros((1, small_auth.n)))


# The power table.  Each entry is called by keyword with good values; a
# row is one power parameter among them, whose call substitutes the bad
# value (in a list for ``rho_vec``).  ``_Code`` stands for the fixture's
# code or one of its attributes.
class _Code:
    def __init__(self, attr=None):
        self.attr = attr

    def of(self, code):
        return code if self.attr is None else getattr(code, self.attr)


CODE, BASE, OVERLAY = _Code(), _Code("base"), _Code("overlay")
POWER_PARAMS = {"rho", "rho_dec", "rho_adv", "rho_delta", "omega", "omega_h",
                "omega_wrapped", "power_budget", "rho_vec"}
BAD_POWERS = [math.nan, math.inf, -1.0, True]
LEVELS = LevelSet((0.0, 0.5))
POINT = dict(n=64, level_set=LEVELS, gamma=0.75, delta=0.2)
ROWS = dict(ys=np.zeros((1, 60)), base_decoded=np.array([0]))
POWER_CALLS = {
    "AuthCode": (AuthCodeError, dict(
        base=BASE, overlay=OVERLAY, rho_delta=1.0, delta=0.2,
        t_table=_Code("t_table"))),
    "inject_noise": (AuthCodeError, dict(
        base=BASE, overlay=OVERLAY, rho_delta=1.0, delta=0.2,
        enforce_bounds=False)),
    "level_statistics": (AuthCodeError, dict(code=CODE, **ROWS, rho_dec=0.1)),
    "detect_batch": (AuthCodeError, dict(code=CODE, **ROWS, rho_dec=0.1)),
    "decimate": (AuthCodeError, dict(
        code=CODE, rho_dec=0.1, rho_adv=0.1, target_size_override=3)),
    "mmse_attack_terms": (AttackError, dict(
        code=CODE, m=0, m_target=1, rho_adv=0.1)),
    "residual_variance_vector": (AttackError, dict(
        code=CODE, m=0, rho_adv=0.1, rho_dec=0.1)),
    "ChannelParams": (SimulateError, dict(
        rho_dec=0.1, rho_adv=0.1, power_budget=2.0)),
    "base_error_probability": (BaseCodeError, dict(
        code=BASE, rho_dec=0.1, trials=100)),
    "make_antipodal_code": (BaseCodeError, dict(n=8, omega=1.0)),
    "make_random_gaussian_code": (BaseCodeError, dict(
        n=8, message_count=4, omega=1.0)),
    "antipodal_error_probability": (BaseCodeError, dict(
        n=8, omega=1.0, rho_dec=0.5)),
    "mmse_weight": (BoundsError, dict(level=0.5, rho_delta=1.0, rho_adv=0.1)),
    "residual_variance": (BoundsError, dict(
        level=0.5, rho_delta=1.0, rho_adv=0.1, rho_dec=0.1)),
    "detection_margin": (BoundsError, dict(
        level_set=LEVELS, gamma=0.75, delta=0.2, rho_delta=1.0, rho_adv=0.1,
        rho_dec=0.1)),
    "injection_power_bound": (BoundsError, dict(
        omega_h=1.0, rate_h=0.03, rho_delta=1.0, n=64, ktilde_size=3,
        k_size=2)),
    "injection_bounds": (BoundsError, dict(
        **POINT, rho_delta=1.0, rho_adv=0.1, rho_dec=0.1, omega_h=1.0,
        rate_h=0.03, epsilon_h=math.nan)),
    "quantization_radius": (BoundsError, dict(
        n=64, omega=1.5, rho_delta=1.0, rho_dec=0.1, delta=0.2, lam=0.1,
        rate=0.03)),
    "decimation_bounds": (BoundsError, dict(
        **POINT, rho_delta=1.0, rho_dec=0.1, omega_wrapped=1.5, rate_h=0.03,
        rho_adv=0.1)),
    "bounds_report": (BoundsError, dict(
        **POINT, rho_delta=1.0, rho_dec=0.1, omega_h=1.0, rate_h=0.03,
        epsilon_h=math.nan, rho_adv=0.1, omega_wrapped=1.5)),
    "capacity": (BoundsError, dict(rho=1.0, rho_dec=0.1, rho_adv=0.1)),
    "optimal_levels": (BoundsError, dict(
        count=2, gamma=0.75, rho_delta=1.0, rho_dec=0.1, delta=0.2)),
    "targeted_false_auth_bound": (BoundsError, dict(
        ell=16, gamma=0.75, lam=0.1)),
    "decimation_rate": (BoundsError, dict(
        n=64, rate_h=0.03, gamma=0.75, ell=16, lam=0.1, theta=10.0)),
    "rate_gap": (BoundsError, dict(rho=1.0, rho_dec=0.1, rho_delta=0.2)),
    "gaussian_posterior": (ValueError, dict(rho=1.0, a=0.5, z=0.3)),
    "quantization_slack": (ValueError, dict(n=1, rho_vec=[0.5], c=1.0)),
}
# a variance that no power name covers, added by hand
EXTRA_POWERS = {("gaussian_posterior", "a")}
POWER_ROWS = sorted({(entry, p) for entry, (_, kwargs) in POWER_CALLS.items()
                     for p in kwargs if p in POWER_PARAMS} | EXTRA_POWERS)
# rows whose formula divides by the power: 0 is refused too
POSITIVE = {("AuthCode", "rho_delta"), ("inject_noise", "rho_delta"),
            ("decimate", "rho_dec"), ("ChannelParams", "power_budget"),
            ("base_error_probability", "rho_dec"),
            ("make_antipodal_code", "omega"),
            ("make_random_gaussian_code", "omega"),
            ("antipodal_error_probability", "omega"),
            ("antipodal_error_probability", "rho_dec"),
            ("residual_variance", "rho_dec"), ("detection_margin", "rho_dec"),
            ("injection_bounds", "rho_dec"), ("decimation_bounds", "rho_dec"),
            ("bounds_report", "rho_dec"), ("capacity", "rho_dec"),
            ("optimal_levels", "rho_delta"), ("optimal_levels", "rho_dec"),
            ("rate_gap", "rho_dec"), ("rate_gap", "rho_delta"),
            ("quantization_slack", "rho_vec")}


def _call_power_row(code, entry, param=None, value=None):
    error, kwargs = POWER_CALLS[entry]
    kwargs = {k: v.of(code) if isinstance(v, _Code) else v
              for k, v in kwargs.items()}
    if param is not None:
        kwargs[param] = [value] if param == "rho_vec" else value
    return error, lambda: getattr(awgnauth, entry)(**kwargs)


@pytest.mark.parametrize("bad", BAD_POWERS, ids=repr)
@pytest.mark.parametrize("row", POWER_ROWS, ids=lambda row: "-".join(row))
def test_bad_powers_raise_the_module_error(small_auth, row, bad):
    error, call = _call_power_row(small_auth, *row, bad)
    with pytest.raises(ValueError, match="finite") as info:
        call()
    assert type(info.value) is error


@pytest.mark.parametrize("row", sorted(POSITIVE),
                         ids=lambda row: "-".join(row))
def test_zero_is_refused_where_a_formula_divides(small_auth, row):
    error, call = _call_power_row(small_auth, *row, 0.0)
    with pytest.raises(error, match="must be a positive finite number"):
        call()


@pytest.mark.parametrize("entry", POWER_CALLS)
def test_the_table_calls_succeed_at_good_powers(small_auth, entry):
    # so that a row's error comes from its bad power alone
    _call_power_row(small_auth, entry)[1]()


def test_every_power_parameter_is_in_the_table():
    found = set()
    for name in awgnauth.__all__:
        obj = getattr(awgnauth, name)
        if callable(obj) and not (inspect.isclass(obj)
                                  and issubclass(obj, BaseException)):
            found |= {(name, p) for p in inspect.signature(obj).parameters
                      if p in POWER_PARAMS}
    assert ("bounds_report", "omega_wrapped") in found
    assert ("ChannelParams", "power_budget") in found
    missing = found - set(POWER_ROWS)
    assert not missing, f"power parameters without a boundary row: {missing}"


@pytest.mark.parametrize("level_set", [LEVELS, LevelSet((0.0, 0.25, 0.5))],
                         ids=repr)
@pytest.mark.parametrize("gamma, delta", [(0.75, math.nan), (math.nan, 0.2)])
def test_a_nan_margin_term_is_refused(level_set, gamma, delta):
    # a NaN term never compared below the running minimum, +inf, so the
    # margin read inf and the targeted bound 0, a perfect guarantee; a
    # NaN gamma or delta is refused before any term is formed
    match = r"(gamma|delta) must lie in .*, not nan"
    with pytest.raises(BoundsError, match=match):
        detection_margin(level_set, gamma, delta, 1.0, 0.1, 0.1)
    with pytest.raises(BoundsError, match=match):
        bounds_report(64, level_set, gamma, delta, 1.0, 0.1, 1.0, 0.03,
                      math.nan, rho_adv=0.1)


DESIGN_PARAMS = {"gamma", "delta", "rate_h", "rate", "lam"}
DESIGN_ROWS = sorted(
    (entry, p) for entry, (_, kwargs) in POWER_CALLS.items()
    if getattr(awgnauth, entry).__module__ == "awgnauth.bounds"
    for p in kwargs if p in DESIGN_PARAMS)
# values past each domain's edges, and one accepted on or near an edge
DESIGN_EDGES = {"gamma": ([0.5, 1.0, 2.0], Fraction(3, 4)),
                "delta": ([1.0, 1.5], 0.0)}


@pytest.mark.parametrize("row", DESIGN_ROWS, ids=lambda row: "-".join(row))
def test_bad_design_values_raise_bounds_error(small_auth, row):
    # a NaN rate gave quantization radius 1, and delta = 1.5 or gamma = 2
    # the vacuous targeted bound 2, without complaint
    refused, accepted = DESIGN_EDGES.get(row[1], ([], 0.0))
    for bad in BAD_POWERS + refused:
        with pytest.raises(BoundsError, match=f"{row[1]} must lie in"):
            _call_power_row(small_auth, *row, bad)[1]()
    _call_power_row(small_auth, *row, accepted)[1]()


def test_every_design_parameter_is_in_the_table():
    found = {(name, p) for name in awgnauth.__all__
             if inspect.isfunction(obj := getattr(awgnauth, name))
             and obj.__module__ == "awgnauth.bounds"
             for p in inspect.signature(obj).parameters
             if p in DESIGN_PARAMS}
    assert ("quantization_radius", "rate") in found
    assert ("targeted_false_auth_bound", "lam") in found
    missing = found - set(DESIGN_ROWS)
    assert not missing, f"design parameters without a boundary row: {missing}"


@pytest.mark.parametrize("rho_dec", [math.nan, 0.0], ids=repr)
def test_adversary_agnostic_decimation_checks_rho_dec(rho_dec):
    # NaN gave theta 1 and a NaN alpha bound marked not vacuous; 0 a
    # ZeroDivisionError
    with pytest.raises(BoundsError, match="rho_dec must be a positive"):
        decimation_bounds(64, LEVELS, 0.75, 0.2, 1.0, rho_dec, 1.5, 0.03,
                          adversary_agnostic=True)


@pytest.mark.parametrize("delta", [-0.1, 1.0, 7.0, math.nan], ids=repr)
def test_the_code_owns_its_delta(small_auth, delta):
    # delta = 7 built a code with threshold ell * 8, and JSON was not read
    code = small_auth
    with pytest.raises(AuthCodeError, match=r"delta must lie in \[0,1\)"):
        AuthCode(code.base, code.overlay, 1.0, delta, code.t_table)
    blob = to_json_dict(code, "base.json", "overlay.json")
    with pytest.raises(AuthCodeError, match=r"delta must lie in \[0,1\)"):
        from_json_dict({**blob, "delta": delta}, code.base, code.overlay)
    with pytest.raises(AuthCodeError, match=r"delta must lie in \(0,1\)"):
        inject_noise(code.base, code.overlay, 1.0, delta)


def test_a_code_may_carry_delta_zero_but_no_build_gives_one(small_auth):
    # delta = 0, threshold ell, is the boundary point of the
    # false-authentication analysis; the construction guarantee needs > 0
    code = small_auth
    assert replace(code, delta=0.0).threshold == code.ell
    with pytest.raises(AuthCodeError, match=r"delta must lie in \(0,1\)"):
        inject_noise(code.base, code.overlay, 1.0, 0.0)

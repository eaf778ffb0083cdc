"""Every public entry that takes a number refuses a bad one with its own
module's error, never a raw ``IndexError``, ``TypeError``,
``OverflowError`` or ``ZeroDivisionError``, a NaN or a result.

``streams`` states each single-value rule once, in one of three checks,
and each has a table here with one row per (entry, parameter) and a
guard that scans ``awgnauth.__all__``, so that a new parameter cannot
skip its table:

* ``check_ids``: a message id is an integer (not a bool) in [0, M).
  Each id row is called with ids that wrap, overflow, pass as a bool or
  are floats.
* ``check_reals``: a real number (not a bool) whose domain comes from
  its name.  The power table calls each power row with NaN, infinity,
  -1 and ``True`` (and 0 where a formula divides); the design table
  does the same for ``gamma`` in (1/2, 1), ``delta`` and levels in
  [0, 1), ``confidence`` and the arguments of ``i2`` in (0, 1), those of
  ``h2`` and ``d2`` and the one ``level`` of ``mmse_weight`` and
  ``residual_variance`` in [0, 1], a finite ``weight_scale`` of any sign,
  rates, margins and the reals of the lemmas, with a string and the
  values past each domain's edges too.
* ``check_int``: the integer table calls each row with 1.5, ``True``
  and a value below the entry's minimum.  An attack's target is an
  integer of at least 0, checked by ``AttackSpec``; a run checks that it
  is a message of the code, so the id table's attack target rows see
  ``AttackError`` for every bad id but M.

``b``, ``c`` and ``beta`` are integers in some entries and reals in
others, so both tables are keyed by (entry, parameter).  The last test
holds one call for each leak that reached a raw error or a silent result
before these checks.
"""

import inspect
import math
import re
from dataclasses import replace
from fractions import Fraction
from operator import attrgetter

import numpy as np
import pytest

import awgnauth
from awgnauth import (AttackError, AttackSpec, AuthCode, AuthCodeError,
                      BaseCode, BaseCodeError, BoundsError, ChannelParams,
                      LevelSet, OverlayCode, OverlayError, SimulateError,
                      VerifyReport, auth_encode_batch, bounds_report,
                      chi_square_tail_bound, construct_overlay, d2, decimate,
                      decimation_bounds, detect_batch, detection_margin,
                      estimate, estimate_points, h2, hypergeom_log_bound,
                      inject_noise,
                      injection_power_bound, level_statistics,
                      make_random_gaussian_code,
                      mixed_variance_lower_tail_bound, mmse_attack_terms,
                      mmse_weight, optimal_levels, overlay_rate_asymptotic,
                      quantization_slack, residual_variance_vector, run_trial,
                      targeted_false_auth_bound, verify_overlay,
                      wilson_interval)
from awgnauth.authcode import from_json_dict, to_json_dict
from awgnauth.basecode import from_json_dict as base_from_json

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
    ("estimate_points", "message"): (
        SimulateError, lambda code, bad:
        estimate_points(code, [(CHANNEL, AttackSpec("none"))], "epsilon",
                        100, message=bad)),
    ("estimate_points", "pairs"): (
        SimulateError, lambda code, bad:
        estimate_points(code, [(CHANNEL, AttackSpec("none"))], "alpha_star",
                        100, pairs=[(0, bad)])),
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
    ("AttackSpec", "target"): (
        AttackError, lambda code, bad: AttackSpec("targeted", bad)),
}
# a predicate: an integer out of range is no valid message, not an error
PREDICATES = {("AuthCode.is_valid_message", "m")}
# the attack spec types a target; only a run knows that M is out of range
SPEC_ROWS = {("AttackSpec", "target"), ("run_trial", "attack target"),
             ("estimate", "attack target")}


@pytest.mark.parametrize("bad", BAD_IDS, ids=repr)
@pytest.mark.parametrize("key", TABLE, ids=lambda key: "-".join(key))
def test_bad_ids_raise_the_module_error(small_auth, key, bad):
    error, call = TABLE[key]
    assert issubclass(error, ValueError)
    if key in PREDICATES and isinstance(bad, int) and bad is not True:
        assert call(small_auth, bad) is False
        return
    if key in SPEC_ROWS and not (type(bad) is int and bad >= 0):
        with pytest.raises(AttackError,
                           match="target must be a nonnegative integer"):
            call(small_auth, bad)
        return
    if key == ("AttackSpec", "target"):
        assert call(small_auth, bad).target == bad
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


# The call table, shared by the power, design and integer tables.  Each
# entry is called by keyword with good values; a row is one parameter
# among them, whose call substitutes the bad value (inside a sequence for
# the parameters of ``WRAP``).  ``_Code`` stands for the fixture's code
# or one of its (dotted) attributes.
class _Code:
    def __init__(self, attr=None):
        self.attr = attr

    def of(self, code):
        return code if self.attr is None else attrgetter(self.attr)(code)


CODE, BASE, OVERLAY = _Code(), _Code("base"), _Code("overlay")
WRAP = {"rho_vec": lambda v: [v], "tau": lambda v: [v, 2.0],
        "levels": lambda v: (v, 0.5), "counts_per_level": lambda v: [v, 2],
        "radices": lambda v: [v, 2]}
POWER_PARAMS = {"rho", "rho_dec", "rho_adv", "rho_delta", "omega", "omega_h",
                "omega_wrapped", "power_budget", "rho_vec"}
BAD_POWERS = [math.nan, math.inf, -1.0, True]
LEVELS = LevelSet((0.0, 0.5))
POINT = dict(n=64, level_set=LEVELS, gamma=0.75, delta=0.2)
ROWS = dict(ys=np.zeros((1, 60)), base_decoded=np.array([0]))
CALLS = {
    "AuthCode": (AuthCodeError, dict(
        base=BASE, overlay=OVERLAY, rho_delta=1.0, delta=0.2,
        t_table=_Code("t_table"))),
    "inject_noise": (AuthCodeError, dict(
        base=BASE, overlay=OVERLAY, rho_delta=1.0, delta=0.2, seed=0,
        enforce_bounds=False)),
    "level_statistics": (AuthCodeError, dict(code=CODE, **ROWS, rho_dec=0.1)),
    "detect_batch": (AuthCodeError, dict(code=CODE, **ROWS, rho_dec=0.1)),
    "decimate": (AuthCodeError, dict(
        code=CODE, rho_dec=0.1, seed=0, rho_adv=0.1, target_size_override=3)),
    "mmse_attack_terms": (AttackError, dict(
        code=CODE, m=0, m_target=1, rho_adv=0.1, weight_scale=0.5)),
    "AttackSpec": (AttackError, dict(kind="targeted", target=1,
                                     weight_scale=0.5)),
    "residual_variance_vector": (AttackError, dict(
        code=CODE, m=0, rho_adv=0.1, rho_dec=0.1)),
    "ChannelParams": (SimulateError, dict(
        rho_dec=0.1, rho_adv=0.1, power_budget=2.0)),
    "base_error_probability": (BaseCodeError, dict(
        code=BASE, rho_dec=0.1, trials=100, seed=0)),
    "make_antipodal_code": (BaseCodeError, dict(n=8, omega=1.0)),
    "make_random_gaussian_code": (BaseCodeError, dict(
        n=8, message_count=4, omega=1.0, seed=0)),
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
    "LevelSet": (OverlayError, dict(levels=(0.0, 0.5))),
    "LevelSet.uniform": (OverlayError, dict(ktilde_size=3)),
    "OverlayCode": (OverlayError, dict(
        n=_Code("overlay.n"), level_set=_Code("overlay.level_set"),
        gamma_exact=_Code("overlay.gamma_exact"),
        level_index=_Code("overlay.level_index"),
        radices=_Code("overlay.radices"))),
    "construct_overlay": (OverlayError, dict(
        n=60, level_set=LEVELS, gamma=0.75, seed=0, counts_per_level=[3, 2],
        max_messages_per_level=3)),
    "overlay_rate_finite": (OverlayError, dict(
        n=60, level_set=LEVELS, gamma=0.75)),
    "overlay_rate_asymptotic": (OverlayError, dict(ktilde_size=3,
                                                   gamma=0.75)),
    # max_pairs keeps its default: epsilon enumerates no attack pairs
    "estimate": (SimulateError, dict(
        code=CODE, channel=CHANNEL, metric="epsilon", trials=100, seed=0,
        threads=1)),
    "estimate_points": (SimulateError, dict(
        code=CODE, points=[(CHANNEL, AttackSpec("none"))], metric="epsilon",
        trials=100, seed=0, threads=1)),
    "run_trial": (SimulateError, dict(
        code=CODE, channel=CHANNEL, attack=AttackSpec("none"), m=0, seed=0,
        trial_index=0)),
    "hypergeom_log_bound": (BoundsError, dict(a=10, b=4, c=3)),
    "hoeffding_wo_replacement_bound": (BoundsError, dict(
        set_size=20, beta=5, mu=0.2, eta=0.5, c=1.5)),
    "mixed_variance_lower_tail_bound": (BoundsError, dict(
        tau=[1.5, 2.0], alpha=1.0, beta=2.0, gamma_frac=0.5, b=0.5, c=0.1)),
    "chi_square_tail_bound": (ValueError, dict(n=10, c=0.5)),
    "h2": (ValueError, dict(a=0.5)),
    "d2": (ValueError, dict(a=0.5, b=0.25)),
    "i2": (ValueError, dict(a=0.5, b=0.25)),
    "wilson_interval": (ValueError, dict(successes=5, trials=10,
                                         confidence=0.95)),
    "binomial_se": (ValueError, dict(successes=5, trials=10)),
}
# a variance that no power name covers, added by hand
EXTRA_POWERS = {("gaussian_posterior", "a")}
POWER_ROWS = sorted({(entry, p) for entry, (_, kwargs) in CALLS.items()
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


def _call_row(code, entry, param=None, value=None):
    error, kwargs = CALLS[entry]
    kwargs = {k: v.of(code) if isinstance(v, _Code) else v
              for k, v in kwargs.items()}
    if param is not None:
        kwargs[param] = WRAP.get(param, lambda v: v)(value)
    return error, lambda: attrgetter(entry)(awgnauth)(**kwargs)


@pytest.mark.parametrize("bad", BAD_POWERS, ids=repr)
@pytest.mark.parametrize("row", POWER_ROWS, ids=lambda row: "-".join(row))
def test_bad_powers_raise_the_module_error(small_auth, row, bad):
    error, call = _call_row(small_auth, *row, bad)
    with pytest.raises(ValueError, match="finite") as info:
        call()
    assert type(info.value) is error


@pytest.mark.parametrize("row", sorted(POSITIVE),
                         ids=lambda row: "-".join(row))
def test_zero_is_refused_where_a_formula_divides(small_auth, row):
    error, call = _call_row(small_auth, *row, 0.0)
    with pytest.raises(error, match="must be a positive finite number"):
        call()


@pytest.mark.parametrize("entry", CALLS)
def test_the_table_calls_succeed_at_good_powers(small_auth, entry):
    # so that a row's error comes from its bad power alone
    _call_row(small_auth, entry)[1]()


def test_every_power_parameter_is_in_the_table():
    found = {(name, p) for name, p, _ in _public_parameters()
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


# the results the package returns; no entry takes their fields as input
RECORDS = {"EstimateReport", "OptimalLevels", "RateGap", "TrialOutcome",
           "VerifyReport"}


def _public_parameters():
    """(entry, parameter, annotation) for every parameter of the package's
    public callables, the exceptions and the result records aside."""
    for name in set(awgnauth.__all__) - RECORDS:
        obj = getattr(awgnauth, name)
        if callable(obj) and not (inspect.isclass(obj)
                                  and issubclass(obj, BaseException)):
            for p, param in inspect.signature(obj).parameters.items():
                yield name, p, str(param.annotation)


# The design table: one row per (entry, real parameter) whose domain
# ``check_reals`` reads from its name (gamma, delta, levels, confidence,
# weight_scale) or is given as an interval (the probabilities of h2, d2
# and i2, and the one level of mmse_weight and residual_variance, which
# an array test checks), or that is a rate, a margin, the radius theta or a real of a
# lemma, finite and at least 0 (above 0 in ``POSITIVE_REALS``).  ``a``,
# ``b``, ``c`` and ``beta`` are integers in some entries: those rows are
# in the integer table.
DESIGN_PARAMS = {"gamma", "gamma_exact", "delta", "levels", "rate_h", "rate",
                 "lam", "theta", "tau", "alpha", "beta", "gamma_frac", "a",
                 "b", "c", "mu", "eta", "confidence", "weight_scale",
                 "level"}
INT_ANNOTATIONS = {"int", "int | None", "Sequence[int] | None"}
POSITIVE_REALS = {("mixed_variance_lower_tail_bound", p)
                  for p in ("tau", "alpha", "beta", "gamma_frac", "b")} | {
    ("hoeffding_wo_replacement_bound", p) for p in ("mu", "eta", "c")} | {
    ("quantization_slack", "c"), ("decimation_rate", "theta")}
# (entry, parameter) -> the least integer the entry accepts
INT_ROWS = {
    ("LevelSet.uniform", "ktilde_size"): 2,
    ("OverlayCode", "n"): 3, ("OverlayCode", "radices"): 1,
    ("construct_overlay", "n"): 3, ("construct_overlay", "seed"): 0,
    ("construct_overlay", "counts_per_level"): 1,
    ("construct_overlay", "max_messages_per_level"): 1,
    ("overlay_rate_finite", "n"): 3,
    ("overlay_rate_asymptotic", "ktilde_size"): 2,
    ("inject_noise", "seed"): 0, ("decimate", "seed"): 0,
    ("decimate", "target_size_override"): 2,
    ("make_antipodal_code", "n"): 1, ("make_random_gaussian_code", "n"): 1,
    ("make_random_gaussian_code", "message_count"): 1,
    ("make_random_gaussian_code", "seed"): 0,
    ("antipodal_error_probability", "n"): 1,
    ("base_error_probability", "trials"): 100,
    ("base_error_probability", "seed"): 0,
    ("estimate", "trials"): 100, ("estimate", "seed"): 0,
    ("estimate", "max_pairs"): 1, ("estimate", "threads"): 1,
    ("estimate_points", "trials"): 100, ("estimate_points", "seed"): 0,
    ("estimate_points", "max_pairs"): 1, ("estimate_points", "threads"): 1,
    ("run_trial", "seed"): 0, ("run_trial", "trial_index"): 0,
    ("injection_power_bound", "n"): 1,
    ("injection_power_bound", "ktilde_size"): 2,
    ("injection_power_bound", "k_size"): 1,
    ("targeted_false_auth_bound", "ell"): 1, ("injection_bounds", "n"): 1,
    ("quantization_radius", "n"): 1, ("decimation_rate", "n"): 1,
    ("decimation_rate", "ell"): 1, ("decimation_bounds", "n"): 1,
    ("bounds_report", "n"): 1, ("optimal_levels", "count"): 1,
    ("hypergeom_log_bound", "a"): 1, ("hypergeom_log_bound", "b"): 1,
    ("hypergeom_log_bound", "c"): 1,
    ("hoeffding_wo_replacement_bound", "set_size"): 1,
    ("hoeffding_wo_replacement_bound", "beta"): 1,
    ("chi_square_tail_bound", "n"): 1, ("quantization_slack", "n"): 1,
    ("wilson_interval", "successes"): 0, ("wilson_interval", "trials"): 1,
    ("binomial_se", "successes"): 0, ("binomial_se", "trials"): 1,
}
DESIGN_ROWS = sorted(
    (entry, p) for entry, (_, kwargs) in CALLS.items()
    for p in kwargs if p in DESIGN_PARAMS and (entry, p) not in INT_ROWS)
# values past the edges of a named domain, and one accepted on or near an
# edge (0.0 where none is named; none where the row refuses 0)
DESIGN_EDGES = {"gamma": ([0.5, 1.0, 2.0], Fraction(3, 4)),
                "gamma_exact": ([0.5, 1.0, 2.0], Fraction(3, 4)),
                "delta": ([1.0, 1.5], 0.0), "levels": ([1.0], 0.0),
                ("inject_noise", "delta"): ([1.0, 1.5], 0.5),
                "confidence": ([0.0, 1.0], 0.5), "weight_scale": ([], -1.0),
                "level": ([1.5], 1.0),
                ("h2", "a"): ([1.5], 1.0), ("d2", "a"): ([1.5], 0.0),
                ("d2", "b"): ([1.5], None), ("i2", "a"): ([0.0, 1.0], None),
                ("i2", "b"): ([0.0, 1.0], None)}
# the name in the message, where it is not the parameter's
NAMES = {"gamma_exact": "gamma", "tau": "tau[0]", "radices": "radix"}
# the domain in the message, by parameter or by (entry, parameter)
DOMAINS = {"gamma": "lie in (1/2,1)", "delta": "lie in [0,1)",
           "levels": "lie in [0,1)", "confidence": "lie in (0, 1)",
           "weight_scale": "be finite and real", "level": "lie in [0, 1]",
           ("h2", "a"): "lie in [0, 1]", ("d2", "a"): "lie in [0, 1]",
           ("d2", "b"): "lie in [0, 1]", ("i2", "a"): "lie in (0, 1)",
           ("i2", "b"): "lie in (0, 1)"}


def _design_match(entry, param):
    name = NAMES.get(param, param)
    domain = DOMAINS.get((entry, param), DOMAINS.get(name))
    if domain is None:
        domain = "be a {} finite number".format(
            "positive" if (entry, param) in POSITIVE_REALS else "nonnegative")
    return re.escape(f"{name} must {domain}, not ")


def _check_design_row(code, row):
    refused, accepted = DESIGN_EDGES.get(row, DESIGN_EDGES.get(
        row[1], ([0.0], None) if row in POSITIVE_REALS else ([], 0.0)))
    # a weight_scale of any sign is valid
    bad_values = [v for v in BAD_POWERS
                  if row[1] != "weight_scale" or v != -1.0]
    for bad in bad_values + ["0.75"] + refused:
        error, call = _call_row(code, *row, bad)
        with pytest.raises(ValueError, match=_design_match(*row)) as info:
            call()
        assert type(info.value) is error
    if accepted is not None:
        _call_row(code, *row, accepted)[1]()


@pytest.mark.parametrize("row", [row for row in DESIGN_ROWS if attrgetter(
    row[0])(awgnauth).__module__ == "awgnauth.bounds"],
    ids=lambda row: "-".join(row))
def test_bad_design_values_raise_bounds_error(small_auth, row):
    # a NaN rate gave quantization radius 1, and delta = 1.5 or gamma = 2
    # the vacuous targeted bound 2, without complaint
    _check_design_row(small_auth, row)


@pytest.mark.parametrize("row", [row for row in DESIGN_ROWS if attrgetter(
    row[0])(awgnauth).__module__ != "awgnauth.bounds"],
    ids=lambda row: "-".join(row))
def test_bad_design_values_raise_the_module_error(small_auth, row):
    # a NaN or infinite gamma raised a raw ValueError or OverflowError
    # from Fraction, and a NaN argument of a numerics helper gave NaN
    _check_design_row(small_auth, row)


def test_every_design_parameter_is_in_the_table():
    found = {(name, p) for name, p, annotation in _public_parameters()
             if p in DESIGN_PARAMS and annotation not in INT_ANNOTATIONS}
    assert ("quantization_radius", "rate") in found
    assert ("targeted_false_auth_bound", "lam") in found
    assert ("OverlayCode", "gamma_exact") in found
    assert ("mixed_variance_lower_tail_bound", "b") in found
    missing = found - set(DESIGN_ROWS)
    assert not missing, f"design parameters without a boundary row: {missing}"


@pytest.mark.parametrize("row", sorted(INT_ROWS),
                         ids=lambda row: "-".join(row))
def test_bad_integers_raise_the_module_error(small_auth, row):
    # a float count was truncated, a bool read as 1, a negative seed
    # reached numpy's own ValueError and n = 0 divided by zero
    minimum = INT_ROWS[row]
    what = {0: "a nonnegative integer", 1: "a positive integer"}.get(
        minimum, f"an integer of at least {minimum}")
    for bad in (1.5, True, minimum - 1):
        error, call = _call_row(small_auth, *row, bad)
        with pytest.raises(ValueError, match=re.escape(
                f"{NAMES.get(row[1], row[1])} must be {what}, not ")) as info:
            call()
        assert type(info.value) is error


# ids, whose table is above; the build counters that a code records
NOT_SIZES = ID_PARAMS | {"target", "transmitted", "decoded", "attempts"}


def test_every_integer_parameter_is_in_the_table():
    found = {(name, p) for name, p, annotation in _public_parameters()
             if annotation in INT_ANNOTATIONS and p not in NOT_SIZES}
    assert ("hypergeom_log_bound", "b") in found
    assert ("construct_overlay", "counts_per_level") in found
    assert ("mixed_variance_lower_tail_bound", "b") not in found
    missing = found - set(INT_ROWS)
    assert not missing, f"integer parameters without a boundary row: {missing}"


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
    with pytest.raises(AuthCodeError, match=r"delta must lie in \[0,1\)"):
        inject_noise(code.base, code.overlay, 1.0, delta)


def test_a_code_may_carry_delta_zero_but_no_build_gives_one(small_auth):
    # delta = 0, threshold ell, is the boundary point of the
    # false-authentication analysis; the construction guarantee needs > 0
    code = small_auth
    assert replace(code, delta=0.0).threshold == code.ell
    with pytest.raises(AuthCodeError, match=r"delta must lie in \(0,1\)"):
        inject_noise(code.base, code.overlay, 1.0, 0.0)


# Each leak below got past the entry's checks before ``check_reals`` and
# the integer checks: it raised a raw ValueError, TypeError, OverflowError
# or ZeroDivisionError, returned NaN or a number, or built a code.
NAN, INF = math.nan, math.inf
LEAKS = {
    "construct_overlay-gamma-nan": (OverlayError, lambda code:
        construct_overlay(60, LEVELS, NAN, counts_per_level=[3, 2])),
    "construct_overlay-gamma-inf": (OverlayError, lambda code:
        construct_overlay(60, LEVELS, INF, counts_per_level=[3, 2])),
    "construct_overlay-gamma-str": (OverlayError, lambda code:
        construct_overlay(60, LEVELS, "0.75", counts_per_level=[3, 2])),
    "overlay_rate_asymptotic-gamma-str": (OverlayError, lambda code:
        overlay_rate_asymptotic(3, "0.75")),
    "LevelSet-str": (OverlayError, lambda code: LevelSet(("0.5",))),
    "LevelSet-bool": (OverlayError, lambda code: LevelSet((False, 0.5))),
    "mixed_variance-tau-nan": (BoundsError, lambda code:
        mixed_variance_lower_tail_bound([NAN, 2.0], 1.0, 2.0, 0.5, 0.5, 0.1)),
    "mixed_variance-b-nan": (BoundsError, lambda code:
        mixed_variance_lower_tail_bound([1.5, 2.0], 1.0, 2.0, 0.5, NAN, 0.1)),
    "mixed_variance-c-nan": (BoundsError, lambda code:
        mixed_variance_lower_tail_bound([1.5, 2.0], 1.0, 2.0, 0.5, 0.5, NAN)),
    "chi_square_tail_bound-c-nan": (ValueError, lambda code:
        chi_square_tail_bound(10, NAN)),
    "quantization_slack-c-nan": (ValueError, lambda code:
        quantization_slack(1, [0.5], NAN)),
    "d2-b-nan": (ValueError, lambda code: d2(0.5, NAN)),
    "injection_power_bound-n-0": (BoundsError, lambda code:
        injection_power_bound(1.0, 0.03, 1.0, 0, 3, 2)),
    "optimal_levels-count-float": (BoundsError, lambda code:
        optimal_levels(1.5, 0.75, 1.0, 0.1)),
    "optimal_levels-count-bool": (BoundsError, lambda code:
        optimal_levels(True, 0.75, 1.0, 0.1)),
    "hypergeom_log_bound-a-float": (BoundsError, lambda code:
        hypergeom_log_bound(10.5, 5, 3)),
    "targeted_false_auth_bound-ell-negative": (BoundsError, lambda code:
        targeted_false_auth_bound(-5, 0.75, 0.1)),
    "construct_overlay-seed-negative": (OverlayError, lambda code:
        construct_overlay(60, LEVELS, 0.75, seed=-1,
                          counts_per_level=[3, 2])),
    "inject_noise-seed-negative": (AuthCodeError, lambda code:
        inject_noise(code.base, code.overlay, 1.0, 0.2, seed=-1)),
    "decimate-seed-negative": (AuthCodeError, lambda code:
        decimate(code, 0.1, seed=-1, adversary_agnostic=True,
                 target_size_override=3)),
    "make_random_gaussian_code-seed-negative": (BaseCodeError, lambda code:
        make_random_gaussian_code(8, 4, 1.0, seed=-1)),
    "construct_overlay-counts-float": (OverlayError, lambda code:
        construct_overlay(60, LEVELS, 0.75, counts_per_level=[2.5, 2])),
    "decimate-target_size_override-float": (AuthCodeError, lambda code:
        decimate(code, 0.1, adversary_agnostic=True,
                 target_size_override=3.5)),
    "construct_overlay-n-float": (OverlayError, lambda code:
        construct_overlay(60.0, LEVELS, 0.75, counts_per_level=[3, 2])),
    "LevelSet.uniform-float": (OverlayError, lambda code:
        LevelSet.uniform(2.5)),
    "AuthCode-delta-bool": (AuthCodeError, lambda code:
        AuthCode(code.base, code.overlay, 1.0, False, code.t_table)),
    "h2-a-str": (ValueError, lambda code: h2("0.5")),
    "wilson_interval-confidence-str": (ValueError, lambda code:
        wilson_interval(5, 10, confidence="0.9")),
    "construct_overlay-rates-str": (OverlayError, lambda code:
        construct_overlay(60, LEVELS, 0.75, rates_per_level=["0.1", "0.1"])),
    "construct_overlay-rates-bool": (OverlayError, lambda code:
        construct_overlay(60, LEVELS, 0.75, rates_per_level=[True, 0.1])),
    "construct_overlay-slot-float": (OverlayError, lambda code:
        construct_overlay(8, LevelSet((0.0,)), 0.75,
                          subset_tables=[[[1.5, 2.7, 3, 4], [5, 6, 7, 8]]])),
    "construct_overlay-slot-bool": (OverlayError, lambda code:
        construct_overlay(8, LevelSet((0.0,)), 0.75,
                          subset_tables=[[[True, 2, 3, 4], [5, 6, 7, 8]]])),
    # the design table's scalar rows aside: a NaN among an attacked
    # message's levels gave weight 0
    "mmse_weight-level-array": (BoundsError, lambda code:
        mmse_weight(np.array([0.5, NAN]), 1.0, 0.1)),
    # the id table's rows aside: a spec built and only a run refused it
    "AttackSpec-target-str": (AttackError, lambda code:
        AttackSpec("impersonation", "3")),
}


@pytest.mark.parametrize("leak", LEAKS)
def test_a_leak_raises_the_module_error(small_auth, leak):
    error, call = LEAKS[leak]
    with pytest.raises(ValueError) as info:
        call(small_auth)
    assert type(info.value) is error


def _auth_blob(code, **changes):
    blob = {**to_json_dict(code, "base.json", "overlay.json"), **changes}
    return {k: v for k, v in blob.items() if v is not None}


# A loader's bad JSON raised a bare KeyError or numpy's ValueError; it
# raises its module's error, in the overlay loader's words.
JSON_CASES = {
    "base-key": (BaseCodeError, "base code JSON lacks the key 'codewords'",
                 lambda code: base_from_json({"n": 60})),
    "base-ragged": (BaseCodeError, "malformed base code JSON: ",
                    lambda code: base_from_json(
                        {"n": 2, "codewords": [[1.0, 2.0], [1.0]]})),
    "auth-key": (AuthCodeError, "auth code JSON lacks the key 'rho_delta'",
                 lambda code: from_json_dict(_auth_blob(code, rho_delta=None),
                                             code.base, code.overlay)),
    "auth-value": (AuthCodeError, "malformed auth code JSON: ",
                   lambda code: from_json_dict(_auth_blob(code, rho_delta="x"),
                                               code.base, code.overlay)),
}


@pytest.mark.parametrize("case", JSON_CASES)
def test_a_loader_refuses_bad_json_with_its_module_error(small_auth, case):
    error, message, call = JSON_CASES[case]
    with pytest.raises(ValueError, match=re.escape(message)) as info:
        call(small_auth)
    assert type(info.value) is error

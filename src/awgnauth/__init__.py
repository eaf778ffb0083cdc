"""Keyless authentication over AWGN channels.

Overlay-code construction, the two code modifications that retrofit
authentication onto deterministic channel codes (noise injection and
decimation), the optimal MMSE adversary, Monte Carlo estimation of the
operational measures, and closed-form evaluation of every guarantee.
"""

from .adversary import (AttackError, AttackSpec, mmse_attack_terms,
                        mmse_targeted_attack_batch, residual_variance_vector)
from .authcode import (REJECT, AuthCode, AuthCodeError, auth_encode_batch,
                       decimate, detect_batch, inject_noise,
                       level_statistics)
from .basecode import (BaseCode, BaseCodeError, antipodal_error_probability,
                       make_antipodal_code, make_random_gaussian_code)
from .bounds import (BoundsError, DecimationBounds, InjectionBounds,
                     OptimalLevels, RateGap, bounds_report, capacity,
                     decimation_bounds, decimation_rate, detection_margin,
                     hoeffding_wo_replacement_bound, hypergeom_log_bound,
                     injection_bounds, injection_power_bound,
                     mixed_variance_lower_tail_bound, mmse_weight,
                     optimal_levels,
                     quantization_radius, rate_gap, residual_variance,
                     targeted_false_auth_bound)
from .numerics import (chi_square_tail_bound, d2, gaussian_cdf,
                       gaussian_posterior, h2, i2, quantization_slack)
from .overlay import (LevelSet, OverlayCode, OverlayError, VerifyReport,
                      construct_overlay, overlay_rate_asymptotic,
                      overlay_rate_finite, verify_overlay)
from .reporting import EstimateReport, binomial_se, wilson_interval
from .simulate import (METRICS, ChannelParams, SimulateError, TrialOutcome,
                       base_error_probability, classify, estimate, run_trial)

__version__ = "0.1.0"

__all__ = [
    "AttackError", "AttackSpec", "AuthCode", "AuthCodeError", "BaseCode",
    "BaseCodeError", "BoundsError", "ChannelParams", "DecimationBounds",
    "EstimateReport", "InjectionBounds", "LevelSet", "METRICS",
    "OptimalLevels", "OverlayCode", "OverlayError", "RateGap", "REJECT",
    "SimulateError", "TrialOutcome", "VerifyReport",
    "antipodal_error_probability", "auth_encode_batch",
    "base_error_probability", "binomial_se", "bounds_report", "capacity",
    "chi_square_tail_bound", "classify", "construct_overlay", "d2",
    "decimate", "decimation_bounds", "decimation_rate", "detect_batch",
    "detection_margin", "estimate", "gaussian_cdf", "gaussian_posterior",
    "h2", "hoeffding_wo_replacement_bound", "hypergeom_log_bound", "i2",
    "inject_noise", "injection_bounds", "injection_power_bound",
    "level_statistics", "make_antipodal_code", "make_random_gaussian_code",
    "mixed_variance_lower_tail_bound", "mmse_attack_terms",
    "mmse_targeted_attack_batch",
    "mmse_weight", "optimal_levels", "overlay_rate_asymptotic",
    "overlay_rate_finite", "quantization_radius", "quantization_slack",
    "rate_gap", "residual_variance", "residual_variance_vector", "run_trial",
    "targeted_false_auth_bound", "verify_overlay", "wilson_interval",
]

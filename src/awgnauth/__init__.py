"""Keyless authentication over AWGN channels.

Overlay-code construction, the two code modifications that retrofit
authentication onto deterministic channel codes (noise injection and
decimation), the optimal MMSE adversary, Monte Carlo estimation of the
operational measures, and closed-form evaluation of every guarantee.
"""

import types

from .adversary import (AttackError, AttackSpec, mmse_attack_terms,
                        mmse_targeted_attack_batch)
from .authcode import (REJECT, AuthCode, AuthCodeError, auth_encode_batch,
                       decimate, detect_batch, inject_noise,
                       level_statistics)
from .basecode import (BaseCode, BaseCodeError, antipodal_error_probability,
                       make_antipodal_code, make_random_gaussian_code)
from .bounds import (BoundsError, OptimalLevels, RateGap, bounds_report,
                     capacity, decimation_bounds, decimation_rate,
                     detection_margin, hoeffding_wo_replacement_bound,
                     hypergeom_log_bound, injection_bounds,
                     injection_power_bound, mixed_variance_lower_tail_bound,
                     mmse_weight, optimal_levels, quantization_radius,
                     rate_gap, residual_variance, targeted_false_auth_bound)
from .numerics import (chi_square_tail_bound, d2, gaussian_cdf,
                       gaussian_posterior, h2, i2, quantization_slack)
from .overlay import (LevelSet, OverlayCode, OverlayError, VerifyReport,
                      construct_overlay, overlay_rate_asymptotic,
                      overlay_rate_finite, verify_overlay)
from .reporting import EstimateReport, binomial_se, wilson_interval
from .simulate import (METRICS, ChannelParams, SimulateError, TrialOutcome,
                       base_error_probability, classify, estimate,
                       estimate_points, run_trial)

__version__ = "0.1.0"

# the names imported above, stated once
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_")
                 and not isinstance(value, types.ModuleType))

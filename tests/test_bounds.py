import math

import numpy as np
import pytest
from scipy.stats import hypergeom

from awgnauth import numerics
from awgnauth.bounds import (
    BoundsError,
    bounds_report,
    capacity,
    decimation_bounds,
    decimation_rate,
    detection_margin,
    hoeffding_wo_replacement_bound,
    hypergeom_log_bound,
    injection_bounds,
    injection_power_bound,
    mixed_variance_lower_tail_bound,
    optimal_levels,
    quantization_radius,
    rate_gap,
    residual_variance,
    targeted_false_auth_bound,
)
from awgnauth.overlay import LevelSet

# Frozen oracle values, computed independently (rational arithmetic /
# exact formula evaluation) before the implementation existed.
TAU_FULL_1_01_01 = 0.19090909090909092   # a=1, rho_delta=1, rho_adv=.1, rho_dec=.1
TAU_FULL_1_1_01 = 0.6                    # a=1, rho_delta=1, rho_adv=1, rho_dec=.1
TAU_HALF_1_1_01 = 0.3                    # a=1/2, same channel
LAM_K0 = 0.18518518518518523             # K={0}, gamma=3/4, delta=0, 1/.1/.1
ALPHA_1000 = 0.3825894716128323          # ell=1000, gamma=3/4, lam=LAM_K0
ALPHA_2000 = 0.11887408906469812         # ell=2000, same margin
THETA_1000 = 65.26867548832288           # sqrt(4260)
RDD_FROZEN = 0.492201682633452           # lam=0, n=1000, r=1/2, theta=100
MIX_LAM = 0.18367346938775508
MIX_BOUND = 0.12321047969758037
HYP_BOUND = -3.161094680901922           # (a,b,c) = (10,4,3)
HYP_EXACT = 2.169053700369523            # -ln C(4,3)C(6,1)/C(10,4)

K0 = LevelSet((0.0,))
K2 = LevelSet((0.0, 0.5))


class TestResidualVariance:
    def test_frozen_values(self):
        assert residual_variance(1.0, 1.0, 0.1, 0.1) == pytest.approx(
            TAU_FULL_1_01_01, rel=1e-12)
        assert residual_variance(1.0, 1.0, 1.0, 0.1) == pytest.approx(
            TAU_FULL_1_1_01, rel=1e-12)
        assert residual_variance(0.5, 1.0, 1.0, 0.1) == pytest.approx(
            TAU_HALF_1_1_01, rel=1e-12)

    def test_degenerate_cases(self):
        assert residual_variance(0.0, 1.0, 1.0, 0.1) == 0.1
        assert residual_variance(1.0, 1.0, 0.0, 0.1) == 0.1
        assert residual_variance(0.0, 1.0, 0.0, 0.1) == 0.1

    def test_monotone_in_level(self):
        vals = [residual_variance(a, 1.0, 0.5, 0.1)
                for a in np.linspace(0.0, 1.0, 21)]
        assert all(x < y for x, y in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(BoundsError):
            residual_variance(1.0, -1.0, 0.1, 0.1)
        with pytest.raises(BoundsError):
            residual_variance(1.0, 1.0, -0.1, 0.1)
        with pytest.raises(BoundsError):
            residual_variance(1.0, 1.0, 0.1, 0.0)


class TestDetectionMargin:
    def test_frozen_single_level(self):
        lam, level = detection_margin(K0, 0.75, 0.0, 1.0, 0.1, 0.1)
        assert lam == pytest.approx(LAM_K0, rel=1e-12)
        assert level == 0.0

    def test_clamped_at_zero(self):
        # a loose threshold slack makes every level's margin negative
        lam, _ = detection_margin(K2, 0.75, 0.5, 1.0, 0.1, 0.1)
        assert lam == 0.0

    def test_argmin_is_the_weakest_level(self):
        lam, level = detection_margin(K2, 0.75, 0.0, 1.0, 1.0, 0.1)
        per_level = {}
        for k in K2.levels:
            d = K2.next_above(k)
            denom = (0.75 * residual_variance(k, 1.0, 1.0, 0.1)
                     + 0.25 * residual_variance(d, 1.0, 1.0, 0.1))
            per_level[k] = 1.0 - (k * k * 1.0 + 0.1) / denom
        assert level == min(per_level, key=per_level.get)
        assert lam == pytest.approx(max(0.0, min(per_level.values())),
                                    rel=1e-12)


class TestTargetedFalseAuthBound:
    def test_frozen_values(self):
        assert targeted_false_auth_bound(1000, 0.75, LAM_K0) == pytest.approx(
            ALPHA_1000, rel=1e-12)
        assert targeted_false_auth_bound(2000, 0.75, LAM_K0) == pytest.approx(
            ALPHA_2000, rel=1e-12)

    def test_zero_margin_is_vacuous_two(self):
        assert targeted_false_auth_bound(500, 0.6, 0.0) == 2.0

    def test_monotone_in_ell_and_margin(self):
        vals = [targeted_false_auth_bound(ell, 0.75, 0.2)
                for ell in (100, 200, 400, 800)]
        assert all(x > y for x, y in zip(vals, vals[1:]))
        vals = [targeted_false_auth_bound(400, 0.75, lam)
                for lam in (0.05, 0.1, 0.2, 0.4)]
        assert all(x > y for x, y in zip(vals, vals[1:]))


class TestInjectionBounds:
    def test_power_variant_and_t_zero(self):
        default = injection_power_bound(1.0, 0.5, 1.0, 1000, 3, 2)
        variant = injection_power_bound(1.0, 0.5, 1.0, 1000, 3, 2,
                                        variant=True)
        extra = 0.5 + 1.0 + math.log(2) / 1000
        want = 1.0 + 2.0 * math.sqrt(2.0 * 1.5) + 1.0 * (1.0 + 24 * extra)
        want_var = 1.0 + 2.0 * math.sqrt(2.0 * 1.5) + 1.0 * (1.0 + 17 * extra)
        assert default == pytest.approx(want, rel=1e-12)
        assert variant == pytest.approx(want_var, rel=1e-12)
        assert variant < default

        inj = injection_bounds(1000, K0, 0.75, 0.0, 1.0, 0.1, 0.1,
                               omega_h=1.0, rate_h=0.5, epsilon_h=0.01,
                               t_zero=True)
        assert inj["injected_power_bound"] == 1.0 + 1.0
        assert inj["injected_power_bound_variant"] == 1.0 + 1.0

    def test_report_fields_consistent(self):
        inj = injection_bounds(1000, K0, 0.75, 0.0, 1.0, 0.1, 0.1,
                               omega_h=1.0, rate_h=0.5, epsilon_h=0.01)
        lam = inj["detection_margin"]
        assert lam == pytest.approx(LAM_K0, rel=1e-12)
        assert inj["injected_rate"] == 0.5
        assert inj["targeted_false_auth_bound"] == pytest.approx(
            targeted_false_auth_bound(500, 0.75, lam), rel=1e-12)
        assert not inj["targeted_false_auth_bound_vacuous"]
        t = inj["injected_error_terms"]
        assert inj["injected_error_bound"] == (
            t["base"] + t["concentration"] + t["detector"])
        assert inj["injected_error_bound_variant"] == (
            t["base"] + t["concentration_variant"] + t["detector"])
        assert set(inj["residual_variance_by_level"]) == {"0.0", "1.0"}

    def test_vacuous_flag(self):
        inj = injection_bounds(40, K2, 0.75, 0.0, 1.0, 0.01, 1.0,
                               omega_h=1.0, rate_h=0.05, epsilon_h=0.0)
        assert inj["targeted_false_auth_bound"] >= 1.0
        assert inj["targeted_false_auth_bound_vacuous"]


class TestDecimation:
    def test_frozen_theta(self):
        theta = quantization_radius(1000, 1.0, 0.1, 0.1, 0.1, 0.0, 0.5)
        assert theta == pytest.approx(THETA_1000, rel=1e-12)
        assert theta == pytest.approx(math.sqrt(4260.0), rel=1e-12)

    def test_theta_clamped_at_one(self):
        assert quantization_radius(1, 1e-12, 1e-12, 1e-12, 0.0, 0.0, 0.0) == 1.0

    def test_frozen_decimated_rate(self):
        # gamma/ell are inert at lam=0
        r = decimation_rate(1000, 0.5, 0.75, 250, 0.0, 100.0)
        assert r == pytest.approx(RDD_FROZEN, rel=1e-12)

    def test_bounds_cross_field_identities(self):
        dec = decimation_bounds(1000, K0, 0.75, 0.1, 0.1, 0.1,
                                omega_wrapped=1.0, rate_h=0.5,
                                epsilon_h=0.01, rho_adv=None)
        assert dec["decimation_margin"] == 0.0
        theta = dec["decimation_quantization_radius"]
        assert theta == pytest.approx(THETA_1000, rel=1e-12)
        n, ell = 1000, 500
        rate, terms = dec["decimated_rate"], dec["decimation_terms"]
        assert rate == pytest.approx(
            decimation_rate(n, 0.5, 0.75, ell, 0.0, theta), rel=1e-12)
        assert dec["decimated_target_size"] == math.floor(math.exp(n * rate))
        assert dec["decimated_rate_bound"] == pytest.approx(
            0.5 - terms["margin_term"] * (n / n)
            - (0.5 + 2.0 + math.log(4.0 * n * theta)) / n, rel=1e-12)
        assert terms["margin_term"] == 0.0
        assert terms["rate_term"] == pytest.approx(0.4995, rel=1e-12)
        assert dec["decimation_analysed_rate_feasible"]

    def test_alpha_bound_closed_form(self):
        n, ell = 1000, 500
        dec = decimation_bounds(n, K0, 0.75, 0.0, 1.0, 0.1,
                                omega_wrapped=2.0, rate_h=0.5,
                                epsilon_h=0.0, rho_adv=0.1)
        lam, alpha = dec["decimation_margin"], dec["decimated_false_auth_bound"]
        assert lam == pytest.approx(LAM_K0, rel=1e-12)
        want = ((2.0 * n + 1.0 / (2.0 * math.sqrt(n * 0.1)))
                * math.exp(-0.25 * ell * lam ** 2 / 8.0))
        assert alpha == pytest.approx(want, rel=1e-12)
        assert dec["decimated_false_auth_bound_vacuous"] == (alpha >= 1.0)

    def test_infeasible_at_small_blocklength(self):
        dec = decimation_bounds(60, K2, 0.75, 0.2, 1.0, 0.1,
                                omega_wrapped=2.5, rate_h=math.log(6) / 60,
                                epsilon_h=0.0, rho_adv=0.1)
        assert not dec["decimation_analysed_rate_feasible"]
        assert dec["decimated_rate"] < 0.0
        assert dec["decimated_target_size"] == 0

    def test_rho_adv_required(self):
        # a required keyword; None is the agnostic design, the only one
        with pytest.raises(TypeError, match="missing 1 required "
                           "keyword-only argument: 'rho_adv'"):
            decimation_bounds(1000, K0, 0.75, 0.0, 1.0, 0.1,
                              omega_wrapped=1.0, rate_h=0.5)
        with pytest.raises(TypeError, match="adversary_agnostic"):
            decimation_bounds(1000, K0, 0.75, 0.0, 1.0, 0.1,
                              omega_wrapped=1.0, rate_h=0.5, rho_adv=0.1,
                              adversary_agnostic=True)


class TestCapacity:
    def test_dec_noise_only_matters(self):
        for rho_adv in (1e-9, 0.1, 1.0, 100.0):
            assert capacity(1.0, 1.0, rho_adv) == pytest.approx(
                0.5 * math.log(2.0), rel=1e-15)

    def test_noiseless_adversary_kills_capacity(self):
        assert capacity(1.0, 0.1, 0.0) == 0.0

    def test_zero_power(self):
        assert capacity(0.0, 1.0, 1.0) == 0.0

    def test_monotone(self):
        caps = [capacity(r, 0.5, 1.0) for r in (0.1, 0.5, 1.0, 5.0)]
        assert all(x < y for x, y in zip(caps, caps[1:]))
        caps = [capacity(1.0, d, 1.0) for d in (0.1, 0.5, 1.0, 5.0)]
        assert all(x > y for x, y in zip(caps, caps[1:]))

    def test_domain(self):
        with pytest.raises(BoundsError):
            capacity(-1.0, 1.0, 1.0)
        with pytest.raises(BoundsError):
            capacity(1.0, 0.0, 1.0)
        with pytest.raises(BoundsError):
            capacity(1.0, 1.0, -1.0)


class TestRateGap:
    def test_exact_gap_is_rho_free(self):
        a = rate_gap(1.0, 0.7, 0.3)
        b = rate_gap(5.0, 0.7, 0.3)
        want = 0.5 * math.log1p(0.3 / 0.7)
        assert a.exact == pytest.approx(want, rel=1e-12)
        assert b.exact == pytest.approx(want, rel=1e-12)

    def test_worked_example(self):
        gap = rate_gap(1.0, 1.0, 0.1)
        assert gap.exact == pytest.approx(0.5 * math.log(1.1), rel=1e-12)
        # here c*rho_delta = 1/11, so the series telescopes to ln(1.1)
        assert gap.c == pytest.approx(2.0 / 2.2, rel=1e-12)
        assert gap.series == pytest.approx(math.log(1.1), rel=1e-12)
        assert gap.series >= gap.exact

    def test_domain(self):
        with pytest.raises(BoundsError, match="smaller than the power"):
            rate_gap(1.0, 1.0, 1.0)
        with pytest.raises(BoundsError):
            rate_gap(1.0, 0.0, 0.5)


class TestOptimalLevels:
    def test_two_level_candidate(self):
        out = optimal_levels(2, 0.75, 1.0, 0.01)
        assert out.levels[0] == 0.0
        assert out.levels[1] == pytest.approx(0.01, rel=1e-12)  # rho_dec/rho_delta
        root = 0.5
        c = 0.01**root / (0.75 * 0.01**root + 0.25 * 1.01**root)
        assert out.c == pytest.approx(c, rel=1e-12)
        assert out.valid
        assert out.false_auth_factor == pytest.approx(
            math.exp(-0.25 * (1.0 - c) ** 2 / 8.0), rel=1e-12)

    def test_geometric_spacing(self):
        out = optimal_levels(4, 0.75, 1.0, 1e-4)
        ks = out.levels
        ratios = [ks[i + 1] / ks[i] for i in range(1, 3)]
        assert ratios[0] == pytest.approx(ratios[1], rel=1e-9)

    def test_invalid_levels_flagged_not_clamped(self):
        out = optimal_levels(2, 0.75, 0.01, 1.0)
        assert out.levels[1] == pytest.approx(100.0, rel=1e-12)
        assert not out.valid
        assert out.invalid_levels == (out.levels[1],)

    def test_domain(self):
        with pytest.raises(BoundsError):
            optimal_levels(0, 0.75, 1.0, 0.1)
        with pytest.raises(BoundsError):
            optimal_levels(2, 0.5, 1.0, 0.1)
        with pytest.raises(BoundsError):
            optimal_levels(2, 0.75, 0.0, 0.1)


class TestHypergeomBound:
    def test_frozen_example(self):
        bound = hypergeom_log_bound(10, 4, 3)
        assert bound == pytest.approx(HYP_BOUND, rel=1e-12)
        exact = -math.log(hypergeom.pmf(3, 10, 4, 4))
        assert exact == pytest.approx(HYP_EXACT, rel=1e-9)
        assert exact >= bound

    def test_exhaustive_domination(self):
        # every admissible (a,b,c) up to a=40: the closed form never
        # exceeds the exact negative log-probability
        for a in range(3, 41):
            for b in range(2, a):
                for c in range(max(2 * b - a, 1), b):
                    bound = hypergeom_log_bound(a, b, c)
                    exact = -math.log(hypergeom.pmf(c, a, b, b))
                    assert exact >= bound - 1e-9, (a, b, c)

    def test_domain(self):
        for bad in ((10, 4, 0), (8, 6, 3), (10, 10, 3), (10, 4, 4)):
            with pytest.raises(BoundsError):
                hypergeom_log_bound(*bad)


class TestHoeffdingBound:
    def test_exact_half_against_lemma(self):
        # population (1,0,0,0), two draws without replacement: the mean
        # hits 2*mu=0.5 exactly when the 1 is drawn, probability 1/2
        out = hoeffding_wo_replacement_bound(4, 2, 0.25, 1.0, 2.0)
        assert out.lemma == pytest.approx(0.75, rel=1e-12)
        assert out.corollary == pytest.approx(0.75, rel=1e-12)
        assert 0.5 <= out.lemma

    def test_ceiling_sharpens(self):
        for eta in (0.5, 0.8):
            for c in (1.5, 2.0):
                out = hoeffding_wo_replacement_bound(20, 5, 0.2, eta, c)
                assert out.corollary <= out.lemma + 1e-12

    def test_domain(self):
        with pytest.raises(BoundsError):
            hoeffding_wo_replacement_bound(4, 0, 0.25, 1.0, 2.0)
        with pytest.raises(BoundsError):
            hoeffding_wo_replacement_bound(4, 5, 0.25, 1.0, 2.0)
        with pytest.raises(BoundsError):
            hoeffding_wo_replacement_bound(4, 2, 0.0, 1.0, 2.0)
        with pytest.raises(BoundsError):
            hoeffding_wo_replacement_bound(4, 2, 0.5, 0.4, 1.5)
        with pytest.raises(BoundsError):
            hoeffding_wo_replacement_bound(4, 2, 0.25, 1.0, 1.0)
        with pytest.raises(BoundsError):
            hoeffding_wo_replacement_bound(4, 2, 0.25, 1.0, 5.0)


class TestMixedVarianceTail:
    TAU = [0.1, 0.19] * 1000

    def test_frozen_example(self):
        out = mixed_variance_lower_tail_bound(self.TAU, 0.1, 0.19, 0.75,
                                              b=0.1, c=0.0)
        assert out.lam == pytest.approx(MIX_LAM, rel=1e-12)
        assert out.bound == pytest.approx(MIX_BOUND, rel=1e-12)

    def test_vacuous_when_threshold_above_mean(self):
        out = mixed_variance_lower_tail_bound(self.TAU, 0.1, 0.19, 0.75,
                                              b=1.0, c=0.0)
        assert out.lam == 0.0
        assert out.bound == 2.0

    def test_monte_carlo_domination(self, rng):
        out = mixed_variance_lower_tail_bound(self.TAU, 0.1, 0.19, 0.75,
                                              b=0.1, c=0.0)
        draws = (0.1 * rng.chisquare(1000, size=100_000)
                 + 0.19 * rng.chisquare(1000, size=100_000))
        emp = float(np.mean(draws <= 2000 * 0.1))
        assert emp <= out.bound

    def test_preconditions(self):
        with pytest.raises(BoundsError, match="below the fraction"):
            mixed_variance_lower_tail_bound(self.TAU, 0.1, 0.19, 0.4,
                                            b=0.1, c=0.0)
        with pytest.raises(BoundsError, match="at least alpha"):
            mixed_variance_lower_tail_bound([0.05, 0.19], 0.1, 0.19, 0.75,
                                            b=0.1, c=0.0)
        with pytest.raises(BoundsError):
            mixed_variance_lower_tail_bound([], 0.1, 0.19, 0.75, b=0.1, c=0.0)
        with pytest.raises(BoundsError):
            mixed_variance_lower_tail_bound([0.2], 0.2, 0.1, 0.75, b=0.1, c=0.0)
        with pytest.raises(BoundsError):
            mixed_variance_lower_tail_bound([0.2], 0.1, 0.2, 1.0, b=0.1, c=0.0)
        with pytest.raises(BoundsError):
            mixed_variance_lower_tail_bound([0.2], 0.1, 0.2, 0.75, b=0.0, c=0.0)
        with pytest.raises(BoundsError):
            mixed_variance_lower_tail_bound([0.2], 0.1, 0.2, 0.75, b=0.1, c=-1.0)


class TestBoundsReport:
    COMMON = dict(n=1000, level_set=K0, gamma=0.75, delta=0.1,
                  rho_delta=0.1, rho_dec=0.1, omega_h=1.0, rate_h=0.5,
                  epsilon_h=0.01)

    def test_injection_block_gated_on_rho_adv(self):
        with_adv = bounds_report(rho_adv=0.1, **self.COMMON)
        without = bounds_report(**self.COMMON)
        inj_keys = {"capacity", "detection_margin", "injected_rate",
                    "injected_power_bound", "injected_error_bound",
                    "targeted_false_auth_bound"}
        assert inj_keys <= set(with_adv)
        assert not (inj_keys & set(without))
        dec_keys = {"decimation_margin", "decimated_rate",
                    "decimated_target_size", "decimated_false_auth_bound",
                    "decimation_analysed_rate_feasible", "rate_gap_exact"}
        assert dec_keys <= set(with_adv)
        assert dec_keys <= set(without)
        assert without["decimation_margin"] == 0.0  # agnostic fallback

    def test_values_match_component_calls(self):
        rep = bounds_report(rho_adv=0.1, omega_wrapped=1.2, **self.COMMON)
        lam, _ = detection_margin(K0, 0.75, 0.1, 0.1, 0.1, 0.1)
        assert rep["detection_margin"] == pytest.approx(lam, rel=1e-12)
        assert rep["ell"] == 500
        dec = decimation_bounds(1000, K0, 0.75, 0.1, 0.1, 0.1,
                                omega_wrapped=1.2, rate_h=0.5,
                                epsilon_h=0.01, rho_adv=0.1)
        assert rep["decimated_rate"] == pytest.approx(dec["decimated_rate"],
                                                      rel=1e-12)
        assert rep["decimated_target_size"] == dec["decimated_target_size"]
        assert rep["rate_gap_exact"] == pytest.approx(
            rate_gap(1.1, 0.1, 0.1).exact, rel=1e-12)

    @pytest.mark.parametrize("rho_adv, kwargs", [
        (0.1, dict(omega_wrapped=1.2)), (0.1, dict(t_zero=True)),
        (0.1, dict(adversary_agnostic=True)), (None, {})])
    def test_is_its_header_and_the_two_blocks(self, rho_adv, kwargs):
        # beside the header, capacity and the rate gap, every entry is one
        # that injection_bounds or decimation_bounds returns, under its key
        rep = bounds_report(rho_adv=rho_adv, **kwargs, **self.COMMON)
        point = (1000, K0, 0.75, 0.1, 0.1)   # n, levels, gamma, delta, rho_D
        want = {"ell": 500, "levels": [0.0], "gamma": 0.75, "delta": 0.1,
                "rho_delta": 0.1, "rho_dec": 0.1, "rho_adv": rho_adv}
        if rho_adv is not None:
            want["capacity"] = capacity(1.1, 0.1, rho_adv)
            want |= injection_bounds(*point, rho_adv, 0.1, 1.0, 0.5, 0.01,
                                     t_zero=kwargs.get("t_zero", False))
        want |= decimation_bounds(
            *point, 0.1, kwargs.get("omega_wrapped", 1.0), 0.5, 0.01,
            rho_adv=None if kwargs.get("adversary_agnostic") else rho_adv)
        want["rate_gap_exact"] = rate_gap(1.1, 0.1, 0.1).exact
        assert list(rep) == list(want)
        assert rep == want

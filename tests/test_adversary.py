import math
import re

import numpy as np
import pytest

from awgnauth import cli
from awgnauth.adversary import (
    AttackError,
    AttackSpec,
    mmse_attack_terms,
    mmse_targeted_attack_batch,
    mmse_weight,
    no_attack,
)
from awgnauth.authcode import auth_encode_batch, detect_batch
from awgnauth.bounds import residual_variance
from awgnauth.simulate import ChannelParams, estimate

# Frozen values of the residual-variance law tau(a) = a^2 rho_D rho_A /
# (a^2 rho_D + rho_A) + rho_dec.
TAU_FULL_1_01_01 = 0.19090909090909092   # a=1, rho_D=1, rho_A=0.1, rho_dec=0.1
TAU_FULL_1_1_01 = 0.6                    # a=1, rho_D=1, rho_A=1,   rho_dec=0.1


class TestAttackSpec:
    def test_parse_forms(self):
        assert AttackSpec.parse("none").kind == "none"
        spec = AttackSpec.parse("targeted:3")
        assert (spec.kind, spec.target) == ("targeted", 3)
        spec = AttackSpec.parse(" impersonation:2 ")
        assert (spec.kind, spec.target) == ("impersonation", 2)

    def test_parse_errors(self):
        with pytest.raises(AttackError, match="needs ':<target id>'"):
            AttackSpec.parse("targeted")
        with pytest.raises(AttackError, match="cannot parse"):
            AttackSpec.parse("replay:1")
        with pytest.raises(ValueError):
            AttackSpec.parse("targeted:abc")

    def test_constructor_validation(self):
        with pytest.raises(AttackError, match="needs a target"):
            AttackSpec(kind="targeted")
        with pytest.raises(AttackError, match="unknown attack kind"):
            AttackSpec(kind="jamming")
        # the MMSE attack is the one attack: a callable names no kind
        with pytest.raises(AttackError, match="unknown attack kind 'custom'"):
            AttackSpec(kind="custom")

    @pytest.mark.parametrize("scale", [math.nan, math.inf, -math.inf])
    def test_weight_scale_must_be_finite(self, scale):
        with pytest.raises(AttackError, match="weight_scale must be finite"):
            AttackSpec(kind="targeted", target=1, weight_scale=scale)

    @pytest.mark.parametrize("text, message", [
        ("targeted:abc", "needs an integer target id, not 'abc'"),
        ("targeted:1.5", "needs an integer target id, not '1.5'"),
        ("impersonation:x", "needs an integer target id"),
        ("none:3", "cannot parse attack spec 'none:3'"),
        ("none:", "cannot parse attack spec"),
    ])
    def test_malformed_specs_raise_attack_error(self, text, message):
        with pytest.raises(AttackError, match=message):
            AttackSpec.parse(text)

    @pytest.mark.parametrize("scale", [True, False, "x", "1.0", None, 2,
                                       np.float32(0.5), np.int64(3)])
    def test_weight_scale_is_a_real_number(self, scale):
        if scale is None or not isinstance(scale, (bool, str)):
            AttackSpec(kind="targeted", target=1, weight_scale=scale)
            return
        with pytest.raises(AttackError, match="weight_scale must be finite "
                                              "and real"):
            AttackSpec(kind="targeted", target=1, weight_scale=scale)

    def test_none_attack_takes_no_target(self):
        with pytest.raises(AttackError, match="takes no target"):
            AttackSpec(kind="none", target=3)

    @pytest.mark.parametrize("kind, target", [("none", None),
                                              ("targeted", 1),
                                              ("impersonation", 1)])
    def test_no_attack_takes_a_callable(self, kind, target):
        # weight_scale is the third field: a callable there is refused
        def jam(v, m, code):
            return np.zeros_like(v)

        with pytest.raises(AttackError, match="weight_scale must be finite"):
            AttackSpec(kind, target, jam)
        with pytest.raises(TypeError, match="custom"):
            AttackSpec(kind=kind, target=target, custom=jam)


class TestMmseWeight:
    def test_values(self):
        assert mmse_weight(0.0, 1.0, 0.1) == 0.0
        assert mmse_weight(1.0, 1.0, 0.1) == pytest.approx(1.0 / 1.1)
        assert mmse_weight(0.5, 1.0, 0.1) == pytest.approx(0.25 / 0.35)

    def test_noiseless_adversary_limit(self):
        assert mmse_weight(1.0, 1.0, 0.0) == 1.0
        assert mmse_weight(0.0, 1.0, 0.0) == 0.0  # nothing to cancel


class TestResidualNulling:
    def test_attack_nulls_the_conditional_mean(self, small_auth, rng):
        code = small_auth
        m, m_target, rho_adv = 1, 4, 0.3
        vs = rng.normal(size=(4, code.n)) * 2.0
        zs = mmse_targeted_attack_batch(
            vs, mmse_attack_terms(code, m, m_target, rho_adv))
        # E[Y - x(m') - t(m') | V, Z] = x(m) + t(m) - x(m') - t(m') + z
        #                               + w . (v - x(m) - t(m))
        mean_m = code.base.codewords[m] + code.t_table[m]
        mean_t = code.base.codewords[m_target] + code.t_table[m_target]
        w = np.array([mmse_weight(f, code.rho_delta, rho_adv)
                      for f in code.overlay.level_matrix()[m]])
        mu = mean_m - mean_t + zs + w * (vs - mean_m)
        assert np.max(np.abs(mu)) <= 1e-9

    def test_attacking_into_an_array_equals_a_new_attack(self, small_auth,
                                                         rng):
        terms = mmse_attack_terms(small_auth, 1, 4, 0.3)
        vs = rng.normal(size=(6, small_auth.n))
        want = mmse_targeted_attack_batch(vs, terms)
        out = np.full_like(vs, np.nan)
        assert mmse_targeted_attack_batch(vs, terms, out=out) is out
        assert out.tobytes() == want.tobytes()
        # in place over the observation, as the simulation runs it
        assert mmse_targeted_attack_batch(vs, terms, out=vs) is vs
        assert vs.tobytes() == want.tobytes()

    def test_no_cancellation_on_level_zero(self, small_auth, rng):
        # w = 0 where f(m) = 0: the attack there is the pure mean swap,
        # independent of the observation.
        code = small_auth
        m, m_target = 0, 5
        vs = rng.normal(size=(8, code.n))
        zs = mmse_targeted_attack_batch(
            vs, mmse_attack_terms(code, m, m_target, 0.2))
        f = code.overlay.level_matrix()[m]
        swap = (code.base.codewords[m_target] + code.t_table[m_target]
                - code.base.codewords[m] - code.t_table[m])
        assert np.allclose(zs[:, f == 0.0],
                           np.broadcast_to(swap[f == 0.0], (8, 20)), atol=0)

    def test_errors(self, small_auth):
        with pytest.raises(AttackError, match="nonnegative"):
            mmse_attack_terms(small_auth, 0, 1, -0.5)
        with pytest.raises(AttackError, match="differ"):
            mmse_attack_terms(small_auth, 2, 2, 0.5)

    @pytest.mark.parametrize("shape", [(5, 1), (5, 59), (60,)])
    def test_observations_are_rows_of_the_terms_width(self, small_auth,
                                                       shape):
        # a (5, 1) batch broadcast to (5, 60) and returned an attack
        terms = mmse_attack_terms(small_auth, 0, 1, 0.1)
        with pytest.raises(AttackError, match=re.escape(
                f"vs must be a (rows, 60) array of real numbers, not an "
                f"array of shape {shape}")):
            mmse_targeted_attack_batch(np.zeros(shape), terms)


class TestResidualVarianceLaw:
    @staticmethod
    def law(code, m, rho_adv, rho_dec):
        """The per-coordinate law of an attack on a transmission of m."""
        return residual_variance(code.overlay.level_matrix(m),
                                 code.rho_delta, rho_adv, rho_dec)

    def test_vector_matches_frozen_values(self, small_auth):
        vec = self.law(small_auth, 2, rho_adv=1.0, rho_dec=0.1)
        f = small_auth.overlay.level_matrix()[2]
        assert np.allclose(vec[f == 0.0], 0.1, rtol=1e-12)
        assert np.allclose(vec[f == 0.5], 0.3, rtol=1e-12)
        assert np.allclose(vec[f == 1.0], TAU_FULL_1_1_01, rtol=1e-12)

    @pytest.mark.parametrize("rho_delta", [0.0, 0.3, 1.0, 2.5])
    def test_scalar_law_equals_the_vector_bitwise(self, rho_delta):
        # one formula, w rho_adv + rho_dec, for the scalar law of the
        # bounds and the per-coordinate law of the attack: a float for a
        # level, an array for an array of levels (which raised TypeError)
        levels = np.array([0.0, 0.1, 0.25, 1 / 3, 0.5, 0.7, 0.9, 1.0])
        for rho_adv in (0.0, 1e-12, 1e-3, 0.01, 0.05, 0.3, 1.0, 7.5):
            for rho_dec in (1e-3, 0.1, 0.7, 4.0):
                scalar = [residual_variance(float(f), rho_delta, rho_adv,
                                            rho_dec) for f in levels]
                vector = (mmse_weight(levels, rho_delta, rho_adv) * rho_adv
                          + rho_dec)
                law = residual_variance(levels, rho_delta, rho_adv, rho_dec)
                assert all(type(v) is float for v in scalar)
                assert scalar == vector.tolist()
                assert law.tobytes() == vector.tobytes()

    def test_code_vector_equals_the_scalar_law(self, small_auth):
        f = small_auth.overlay.level_matrix()[2]
        for rho_adv, rho_dec in ((0.0, 0.1), (0.05, 0.1), (1.0, 0.3)):
            vec = self.law(small_auth, 2, rho_adv, rho_dec)
            assert vec.tolist() == [
                residual_variance(float(k), small_auth.rho_delta, rho_adv,
                                  rho_dec) for k in f]

    def test_monotone_in_level(self, small_auth):
        vec = self.law(small_auth, 0, 0.1, 0.1)
        f = small_auth.overlay.level_matrix()[0]
        assert np.all(vec[f == 0.0] < vec[f == 0.5][0])
        assert np.all(vec[f == 0.5] < vec[f == 1.0][0])
        assert vec[f == 1.0][0] == pytest.approx(TAU_FULL_1_01_01, rel=1e-12)

    def test_pooled_empirical_variance(self, small_auth, rng):
        # Decoder-side residual against the target's centre, per level
        # of the *transmitted* message's overlay row.
        code, B = small_auth, 20000
        m, m_target, rho_adv, rho_dec = 3, 0, 1.0, 0.1
        ms = np.full(B, m)
        xs = auth_encode_batch(code, ms, rng.standard_normal((B, code.n)))
        vs = xs + math.sqrt(rho_adv) * rng.standard_normal((B, code.n))
        zs = mmse_targeted_attack_batch(
            vs, mmse_attack_terms(code, m, m_target, rho_adv))
        ys = xs + zs + math.sqrt(rho_dec) * rng.standard_normal((B, code.n))
        resid = ys - (code.base.codewords[m_target] + code.t_table[m_target])
        f = code.overlay.level_matrix()[m]
        for level, expect in ((0.0, 0.1), (0.5, 0.3), (1.0, 0.6)):
            pooled = resid[:, f == level]
            assert np.mean(pooled) == pytest.approx(0.0, abs=0.01)
            assert np.var(pooled) == pytest.approx(expect, rel=0.05)

    def test_noiseless_observation_collapses_to_decoder_noise(self, small_auth,
                                                              rng):
        # rho_adv -> 0: cancellation is perfect and only rho_dec remains.
        code, B = small_auth, 5000
        m, m_target, rho_dec = 2, 5, 0.1
        ms = np.full(B, m)
        xs = auth_encode_batch(code, ms, rng.standard_normal((B, code.n)))
        vs = xs + math.sqrt(1e-12) * rng.standard_normal((B, code.n))
        zs = mmse_targeted_attack_batch(
            vs, mmse_attack_terms(code, m, m_target, 1e-12))
        ys = xs + zs + math.sqrt(rho_dec) * rng.standard_normal((B, code.n))
        resid = ys - (code.base.codewords[m_target] + code.t_table[m_target])
        assert np.var(resid) == pytest.approx(rho_dec, rel=0.05)


class TestImpersonation:
    def test_requires_null_message(self):
        # estimate raises SimulateError (test_simulate), and the CLI exits 2
        assert cli.main(["simulate", "base.kind=gaussian", "base.n=60",
                         "base.messages=6", "overlay.counts=[3,2]",
                         "channel.rho_adv=0.1", "attack=impersonation:1",
                         'run.metrics=["alpha_star"]',
                         "run.trials=100"]) == 2

    def test_equals_targeted_attack_from_null(self, null_auth):
        ch = ChannelParams(rho_dec=0.1, rho_adv=0.25)
        null = null_auth.base.null_id
        a = estimate(null_auth, ch, ["alpha_star", "alpha"], 200, seed=3,
                     attack=AttackSpec("impersonation", 2))
        b = estimate(null_auth, ch, ["alpha_star", "alpha"], 200, seed=3,
                     pairs=[(null, 2)])
        for imp, tgt in zip(a, b):
            assert imp.detail["per_pair"] == tgt.detail["per_pair"]
            assert imp.successes == tgt.successes

    def test_null_row_carries_its_own_shift(self, null_auth):
        # The silent state is an ordinary message: zero codeword but a
        # live mean-shift row the attacker must cancel.
        null = null_auth.base.null_id
        assert not np.any(null_auth.base.codewords[null])
        f = null_auth.overlay.level_matrix()[null]
        assert np.any(null_auth.t_table[null][f < 1.0] != 0.0)


class TestWeightGridDiscrimination:
    def test_mmse_weight_maximises_acceptance(self, small_auth, rng):
        # At rho_adv = 0.01 the analytic weight forges almost surely while
        # half- and double-weight attacks leave detectable energy.
        code, B = small_auth, 2000
        m, m_target, rho_adv, rho_dec = 1, 4, 0.01, 0.1
        ms = np.full(B, m)
        rates = {}
        for scale in (0.0, 0.5, 1.0, 1.5, 2.0):
            xs = auth_encode_batch(code, ms, rng.standard_normal((B, code.n)))
            vs = xs + math.sqrt(rho_adv) * rng.standard_normal((B, code.n))
            zs = mmse_targeted_attack_batch(vs, mmse_attack_terms(
                code, m, m_target, rho_adv, weight_scale=scale))
            ys = xs + zs + math.sqrt(rho_dec) * rng.standard_normal((B, code.n))
            dec = code.base.decode_batch(ys)
            rej = detect_batch(code, ys, dec, rho_dec)
            rates[scale] = np.mean(~rej & (dec == m_target))
        assert rates[1.0] > 0.5
        assert all(rates[1.0] > rates[s] for s in rates if s != 1.0)
        assert rates[0.0] < 0.05 and rates[2.0] < 0.05


class TestNoAttack:
    def test_zero_vector(self):
        z = no_attack(12)
        assert z.shape == (12,)
        assert not np.any(z)

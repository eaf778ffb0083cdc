import math
import re

import pytest

from awgnauth.reporting import EstimateReport, binomial_se, wilson_interval

# scipy.stats reference for wilson_interval(50, 100, 0.95), frozen.
WILSON_50_100 = (0.4038315303659956, 0.5961684696340044)


class TestWilsonInterval:
    def test_frozen_midpoint_case(self):
        lo, hi = wilson_interval(50, 100, 0.95)
        assert lo == pytest.approx(WILSON_50_100[0], rel=1e-12)
        assert hi == pytest.approx(WILSON_50_100[1], rel=1e-12)

    def test_zero_successes_touches_zero(self):
        lo, hi = wilson_interval(0, 1000)
        assert lo == 0.0
        assert 0.0 < hi < 0.01

    def test_all_successes_touches_one(self):
        lo, hi = wilson_interval(1000, 1000)
        assert hi == 1.0
        assert 0.99 < lo < 1.0

    def test_narrower_with_more_trials(self):
        w1 = wilson_interval(10, 100)
        w2 = wilson_interval(100, 1000)
        assert (w2[1] - w2[0]) < (w1[1] - w1[0])

    def test_nonstandard_confidence_uses_ndtri(self):
        lo95, hi95 = wilson_interval(50, 100, 0.95)
        lo97, hi97 = wilson_interval(50, 100, 0.97)
        assert lo97 < lo95 and hi97 > hi95

    def test_domain(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)
        with pytest.raises(ValueError):
            wilson_interval(-1, 10)
        with pytest.raises(ValueError):
            wilson_interval(11, 10)
        with pytest.raises(ValueError):
            wilson_interval(5, 10, confidence=1.5)


class TestBinomialSe:
    def test_values(self):
        assert binomial_se(50, 100) == pytest.approx(0.05)
        assert binomial_se(0, 100) == 0.0
        assert binomial_se(100, 100) == 0.0

    def test_scaling(self):
        assert binomial_se(500, 10000) == pytest.approx(
            math.sqrt(0.05 * 0.95 / 10000))


class TestEstimateReport:
    def test_basic_properties(self):
        r = EstimateReport("epsilon", successes=25, trials=1000, seed=3)
        assert r.estimate == 0.025
        assert r.se == pytest.approx(binomial_se(25, 1000))
        assert r.interval == wilson_interval(25, 1000, 0.95)
        assert r.dominated is None  # no bound attached

    def test_domination_rule_is_three_se(self):
        r = EstimateReport("epsilon", successes=100, trials=1000)
        se = r.se
        assert r.with_bound(0.1, "b").dominated is True
        assert r.with_bound(0.1 - 2.9 * se, "b").dominated is True
        assert r.with_bound(0.1 - 3.1 * se, "b").dominated is False

    def test_with_bound_preserves_rest(self):
        r = EstimateReport("alpha", 1, 100, seed=7, params={"x": 1})
        rb = r.with_bound(0.5, "targeted_false_auth_bound")
        assert rb.bound == 0.5
        assert rb.bound_label == "targeted_false_auth_bound"
        assert rb.successes == 1 and rb.seed == 7 and rb.params == {"x": 1}

    def test_json_dict_without_bound(self):
        d = EstimateReport("epsilon", 3, 200, seed=9).to_json_dict()
        assert d["metric"] == "epsilon"
        assert d["estimate"] == pytest.approx(0.015)
        assert d["successes"] == 3 and d["trials"] == 200
        assert d["ci_lo"] < 0.015 < d["ci_hi"]
        assert d["seed"] == 9
        assert "bound" not in d and "dominated" not in d

    def test_json_dict_with_bound_and_detail(self):
        r = EstimateReport("alpha_star", 0, 100,
                           detail={"per_pair": []}).with_bound(0.2, "lbl")
        d = r.to_json_dict()
        assert d["bound"] == 0.2
        assert d["bound_label"] == "lbl"
        assert d["dominated"] is True
        assert d["detail"] == {"per_pair": []}

    @pytest.mark.parametrize("successes, trials, message", [
        (0, 0, "trials must be a positive integer, not 0"),
        (5, 3, "successes must lie in [0, 3], got 5"),
        (-1, 10, "successes must be a nonnegative integer, not -1"),
        (1, 10.0, "trials must be a positive integer, not 10.0"),
    ])
    def test_counts_are_checked_when_built(self, successes, trials, message):
        # (0, 0) raised ZeroDivisionError on .estimate, and (5, 3) built
        # and failed only in to_json_dict
        with pytest.raises(ValueError, match=re.escape(message)):
            EstimateReport("epsilon", successes, trials)

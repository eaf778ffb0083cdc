"""Acceptance suite: twelve end-to-end checks with stated tolerances.

Each criterion is one test function, so a ``pytest -v`` run prints one
pass/fail line per criterion.  Monte Carlo tolerances are three binomial
standard errors unless stated otherwise; closed-form comparisons use the
relative tolerance given inline.
"""

import dataclasses
import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
from scipy.stats import hypergeom

from awgnauth.adversary import (AttackSpec, mmse_attack_terms,
                                mmse_targeted_attack_batch,
                                residual_variance_vector)
from awgnauth.authcode import (auth_encode_batch, inject_noise,
                               sample_decimation_subset)
from awgnauth.basecode import make_antipodal_code, make_random_gaussian_code
from awgnauth.bounds import (capacity, decimation_rate, detection_margin,
                             hoeffding_wo_replacement_bound,
                             hypergeom_log_bound, quantization_radius,
                             rate_gap, targeted_false_auth_bound)
from awgnauth.cli import main as cli_main
from awgnauth.numerics import chi_square_tail_bound, gaussian_posterior
from awgnauth.overlay import LevelSet, construct_overlay, verify_overlay
from awgnauth.simulate import ChannelParams, estimate


def _passed(num: int, detail: str) -> None:
    print(f"criterion {num:02d} PASS: {detail}")


def test_criterion_01_overlay_reproduction():
    """Explicit subset tables at n=9, K={0,1/2} reproduce the worked
    12-message assignment exactly (all rows, witness included).  <1 s."""
    s_zero = [{2, 7, 8}, {1, 2, 6}, {2, 6, 9}, {1, 5, 9}]
    s_half = [{2, 4, 5}, {3, 4, 6}, {1, 3, 5}]
    expected = np.array([
        [1, 0, .5, 1, .5, .5, 0, 0, 1],
        [1, 0, 1, .5, .5, 1, 0, 0, .5],
        [.5, 0, 1, .5, 1, .5, 0, 0, 1],
        [0, 0, 1, .5, 1, 0, .5, .5, 1],
        [0, 0, 1, 1, .5, 0, .5, 1, .5],
        [0, 0, .5, 1, .5, 0, 1, .5, 1],
        [1, 0, .5, 1, .5, 0, .5, 1, 0],
        [1, 0, 1, .5, .5, 0, 1, .5, 0],
        [.5, 0, 1, .5, 1, 0, .5, 1, 0],
        [0, 1, .5, 1, 0, .5, .5, 1, 0],
        [0, 1, 1, .5, 0, .5, 1, .5, 0],
        [0, .5, 1, .5, 0, 1, .5, 1, 0],
    ])
    code = construct_overlay(9, LevelSet((0.0, 0.5)), Fraction(2, 3),
                             subset_tables=[s_zero, s_half])
    assert code.message_count == 12
    assert code.ell == 3
    assert np.array_equal(code.level_matrix(), expected)
    # the highlighted row: fourth level-0 table entry is {2,6,9}, second
    # half-level entry {3,4,6} maps into the surviving slots
    assert np.array_equal(code.level_matrix()[7],
                          np.array([1, 0, 1, .5, .5, 0, 1, .5, 0]))
    report = verify_overlay(code)
    assert report.passed
    # first two messages share their level-0 subset, so the witness sits
    # at level 1/2 with a single shared coordinate
    level_idx, overlap = report.witness(0, 1)
    assert code.level_set.levels[level_idx] == 0.5
    assert overlap == 1
    _passed(1, "12/12 assignment rows exact, witness(0,1) = (1/2, 1)")


def test_criterion_02_overlay_properties_at_scale():
    """Constructed codes across n x level-count x gamma pass the exact
    all-ordered-pairs verification.  <30 s per cell."""
    cells = 0
    for n in (120, 300, 600):
        for levels, counts in (((0.0, 0.5), [8, 6]),
                               ((0.0, 1 / 3, 2 / 3), [8, 6, 4])):
            for gamma in (Fraction(3, 5), Fraction(3, 4)):
                code = construct_overlay(n, LevelSet(levels), gamma,
                                         counts_per_level=counts, seed=2)
                report = verify_overlay(code)
                assert report.passed, (n, levels, gamma, report.violations[:3])
                cells += 1
    assert cells == 12
    _passed(2, "12/12 (n, levels, gamma) cells verified exactly")


def test_criterion_03_chi_square_tail_domination():
    """Empirical two-sided chi-square tail frequencies never exceed the
    closed-form bound + 3 SE on the 36-point grid, 1e6 trials per point
    (one point drawn from explicit normals).  <2 min."""
    trials = 10 ** 6
    rng = np.random.default_rng(301)
    checked = 0
    for n in (16, 64, 256):
        for rho in (0.5, 1.0, 2.0):
            if (n, rho) == (16, 0.5):
                draws = rho * np.sum(
                    rng.standard_normal((trials, n)) ** 2, axis=1)
            else:
                draws = rho * rng.chisquare(n, size=trials)
            mean = n * rho
            for c in (0.25, 0.5, 1.0, 2.0):
                freq = float(np.mean((draws >= mean * (1.0 + c))
                                     | (draws <= mean * (1.0 - c))))
                bound = chi_square_tail_bound(n, c)
                se = math.sqrt(freq * (1.0 - freq) / trials)
                assert freq <= bound + 3.0 * se, (n, rho, c, freq, bound)
                checked += 1
    assert checked == 36
    _passed(3, "36/36 grid points dominated by the tail bound")


def test_criterion_04_conditional_moments():
    """Rejection sampling of X ~ N(0,1) given X+N(0,1) in a narrow window
    around 2 matches the posterior moments (1, 1/2) within 3 SE at 1e6
    samples.  <30 s."""
    rng = np.random.default_rng(4)
    x = rng.standard_normal(10 ** 6)
    z = x + rng.standard_normal(10 ** 6)
    accepted = x[np.abs(z - 2.0) <= 0.01]
    m = accepted.size
    assert m > 1000  # ~2076 expected
    mu, var = gaussian_posterior(1.0, 1.0, 2.0)
    assert (mu, var) == (1.0, 0.5)
    se_mean = accepted.std(ddof=1) / math.sqrt(m)
    assert abs(accepted.mean() - mu) <= 3.0 * se_mean
    s2 = accepted.var(ddof=1)
    se_var = s2 * math.sqrt(2.0 / (m - 1))
    assert abs(s2 - var) <= 3.0 * se_var
    _passed(4, f"both conditional moments within 3 SE ({m} accepted)")


def test_criterion_05_detector_calibration():
    """No-attack detector-only false alarm at ell=1000, delta=0.2 stays
    under |K| e^{-ell delta^2/8} = e^{-5} + 3 SE over 1e5 trials.  <1 min."""
    base = make_antipodal_code(2000, 1.0)
    overlay = construct_overlay(2000, LevelSet((0.0,)), 0.75,
                                counts_per_level=[2], seed=5)
    code = inject_noise(base, overlay, rho_delta=1.0, delta=0.2, seed=5)
    assert code.ell == 1000
    rep = estimate(code, ChannelParams(rho_dec=0.1), "false_alarm",
                   100_000, seed=5)
    bound = math.exp(-5.0)
    assert rep.estimate <= bound + 3.0 * rep.se, (rep.estimate, bound)
    _passed(5, f"false alarm {rep.estimate:.2e} <= e^-5 = {bound:.2e}")


def test_criterion_06_targeted_attack_domination(small_auth):
    """Targeted cancel-and-shift success at ell=2000, K={0}, gamma=3/4,
    rho_delta=1, rho_adv=rho_dec=0.1, delta=0 stays under the margin
    bound (~0.1189) + 3 SE over 1e5 trials; the 5-point weight grid peaks
    at the analytic cancellation weight within CI.  <5 min.

    The grid clause runs at a discriminating operating point
    (rho_adv=0.01 on the small fixture code): at the bound-domination
    point the detector rejects every grid scale, so a peak would be
    vacuously undefined there.
    """
    base = make_antipodal_code(4000, 1.0)
    overlay = construct_overlay(4000, LevelSet((0.0,)), 0.75,
                                counts_per_level=[2], seed=6)
    built = inject_noise(base, overlay, rho_delta=1.0, delta=0.2, seed=6)
    code = dataclasses.replace(built, delta=0.0)  # threshold is derived
    assert code.ell == 2000 and code.threshold == 2000.0
    lam, _ = detection_margin(LevelSet((0.0,)), 0.75, 0.0, 1.0, 0.1, 0.1)
    assert abs(lam - 0.18518518518518523) < 1e-12
    bound = targeted_false_auth_bound(2000, 0.75, lam)
    assert abs(bound - 0.11887408906469812) < 1e-12
    rep = estimate(code, ChannelParams(rho_dec=0.1, rho_adv=0.1),
                   "alpha_star", 100_000, seed=6, pairs=[(0, 1)])
    assert rep.estimate <= bound + 3.0 * rep.se, (rep.estimate, bound)

    grid = {}
    for scale in (0.0, 0.5, 1.0, 1.5, 2.0):
        grid[scale] = estimate(
            small_auth, ChannelParams(rho_dec=0.1, rho_adv=0.01),
            "alpha_star", 4000, seed=66, pairs=[(0, 3)],
            attack=AttackSpec(kind="targeted", target=3, weight_scale=scale))
    peak = grid[1.0]
    for scale, other in grid.items():
        joint = 3.0 * math.sqrt(peak.se ** 2 + other.se ** 2)
        assert peak.estimate >= other.estimate - joint, (scale, other.estimate)
    assert peak.estimate > grid[0.0].estimate
    assert peak.estimate > grid[2.0].estimate
    _passed(6, f"alpha* {rep.estimate:.4f} <= {bound:.4f}; weight grid "
               f"peaks at scale 1.0 ({peak.estimate:.3f})")


def test_criterion_07_residual_variance_law():
    """Attacked-channel residual variance pooled per level matches the
    cancellation law within 5 relative % over 1e5 trials.  <1 min."""
    n, rho_adv, rho_dec = 600, 1.0, 0.1
    base = make_random_gaussian_code(n, 6, omega=1.0, seed=7)
    overlay = construct_overlay(n, LevelSet((0.0, 0.5)), 0.75,
                                counts_per_level=[3, 2], seed=7)
    code = inject_noise(base, overlay, rho_delta=1.0, delta=0.2, seed=7)
    a, b = 0, 4
    law = residual_variance_vector(code, a, rho_adv, rho_dec)
    masks = {level: code.overlay.level_matrix()[a] == level
             for level in (0.0, 0.5, 1.0)}
    expect = {0.0: 0.1, 0.5: 0.3, 1.0: 0.6}
    for level, mask in masks.items():
        assert np.allclose(law[mask], expect[level], rtol=1e-12)

    center_b = base.codewords[b] + code.t_table[b]
    rng = np.random.default_rng(700)
    sumsq = {level: 0.0 for level in masks}
    count = {level: 0 for level in masks}
    chunk, total = 10_000, 100_000
    for _ in range(total // chunk):
        enc = auth_encode_batch(code, np.full(chunk, a),
                                rng.standard_normal((chunk, n)))
        v = enc + math.sqrt(rho_adv) * rng.standard_normal((chunk, n))
        z = mmse_targeted_attack_batch(v, mmse_attack_terms(code, a, b,
                                                            rho_adv))
        y = enc + z + math.sqrt(rho_dec) * rng.standard_normal((chunk, n))
        resid = y - center_b
        for level, mask in masks.items():
            sumsq[level] += float(np.sum(resid[:, mask] ** 2))
            count[level] += chunk * int(mask.sum())
    details = []
    for level, tau in expect.items():
        emp = sumsq[level] / count[level]  # the attack nulls the mean
        assert abs(emp - tau) <= 0.05 * tau, (level, emp, tau)
        details.append(f"{level:g}:{emp:.3f}")
    _passed(7, "pooled residual variances " + ", ".join(details)
               + " within 5% of 0.1/0.3/0.6")


def test_criterion_08_collapse_at_noiseless_observation():
    """With rho_adv = 1e-12 the targeted attack is indistinguishable from
    a genuine transmission of the target: paired-seed acceptance rates
    agree within 3 joint SE.  <1 min."""
    base = make_antipodal_code(1000, 1.0)
    overlay = construct_overlay(1000, LevelSet((0.0,)), 0.75,
                                counts_per_level=[2], seed=8)
    code = inject_noise(base, overlay, rho_delta=1.0, delta=0.2, seed=8)
    trials = 20_000
    attacked = estimate(code, ChannelParams(rho_dec=0.1, rho_adv=1e-12),
                        "alpha_star", trials, seed=88, pairs=[(0, 1)])
    genuine = estimate(code, ChannelParams(rho_dec=0.1),
                       "genuine_acceptance", trials, seed=88, message=1)
    joint = math.sqrt(attacked.se ** 2 + genuine.se ** 2)
    diff = abs(attacked.estimate - genuine.estimate)
    assert diff <= 3.0 * joint + 1e-12, (attacked.estimate, genuine.estimate)
    _passed(8, f"attacked {attacked.estimate:.4f} vs genuine "
               f"{genuine.estimate:.4f} (diff {diff:.2e})")


def test_criterion_09_decimation_machinery():
    """Survivor sampling is uniform over all C(6,3)=20 subsets (1e5
    draws, each within 3 SE of 0.05); the decimated-rate and quantization
    radius arithmetic matches hand-evaluated values to 1e-9.  <30 s."""
    rng = np.random.default_rng(9)
    draws = 100_000
    counts = Counter(sample_decimation_subset(6, 3, rng)
                     for _ in range(draws))
    assert len(counts) == 20
    se = math.sqrt(0.05 * 0.95 / draws)
    for subset, c in counts.items():
        assert abs(c / draws - 0.05) <= 3.0 * se, (sorted(subset), c)
    theta = quantization_radius(1000, 1.0, 0.1, 0.1, 0.1, 0.0, 0.5)
    assert abs(theta - math.sqrt(4260.0)) <= 1e-9
    r_dd = decimation_rate(1000, 0.5, 0.75, 250, 0.0, 100.0)
    assert abs(r_dd - 0.492201682633452) <= 1e-9
    _passed(9, "20/20 survivor subsets uniform; r'/theta arithmetic to 1e-9")


def test_criterion_10_combinatorial_bounds():
    """The overlap log-probability bound never exceeds the exact value
    for every admissible triple up to a=40, and the without-replacement
    tail example (exact 0.5 <= bound 0.75) reproduces.  <1 min."""
    triples = 0
    for a in range(3, 41):
        for b in range(2, a):
            for c in range(max(2 * b - a, 1), b):
                bound = hypergeom_log_bound(a, b, c)
                exact = -math.log(hypergeom.pmf(c, a, b, b))
                assert exact >= bound - 1e-9, (a, b, c)
                triples += 1
    population = (1.0, 0.0, 0.0, 0.0)
    hits = sum(1 for pair in itertools.combinations(population, 2)
               if sum(pair) / 2 >= 0.5)
    exact_p = hits / 6.0
    out = hoeffding_wo_replacement_bound(4, 2, 0.25, 1.0, 2.0)
    assert exact_p == 0.5
    assert abs(out.lemma - 0.75) <= 1e-12
    assert exact_p <= out.lemma
    _passed(10, f"{triples} hypergeometric triples dominated; "
                "enumeration 0.5 <= 0.75")


def test_criterion_11_capacity_endpoints():
    """Capacity depends only on decoding noise once the observation is
    noisy, vanishes when it is noiseless, and the power-reservation rate
    gap is rho-independent to 1e-12.  <1 s."""
    half_ln2 = 0.5 * math.log(2.0)
    for rho_adv in (1e-9, 1.0, 100.0):
        assert abs(capacity(1.0, 1.0, rho_adv) - half_ln2) <= 1e-15
    assert capacity(1.0, 0.1, 0.0) == 0.0
    want = 0.5 * math.log1p(0.1 / 0.1)
    gaps = [rate_gap(rho, 0.1, 0.1).exact for rho in (0.5, 7.0)]
    assert abs(gaps[0] - gaps[1]) <= 1e-12
    assert abs(gaps[0] - want) <= 1e-12
    _passed(11, "capacity endpoints exact; rate gap rho-independent @1e-12")


def test_criterion_12_byte_identical_reports(tmp_path, capsys):
    """Rerunning the same experiment and master seed reproduces the
    simulate report byte for byte.  Runs the criterion-6-shaped config at
    delta=0.1 with 1e4 trials (the CLI enforces delta in (0,1); identity,
    not the estimate, is what is asserted, so trials are reduced).  <1 min."""
    config = ["base.n=4000", "overlay.levels=[0.0]", "auth.delta=0.1",
              "channel.rho_dec=0.1", "channel.rho_adv=0.1",
              "attack=targeted:1", "run.message=0",
              'run.metrics=["alpha_star"]', "run.trials=10000", "run.seed=99"]
    paths = [tmp_path / "first.json", tmp_path / "second.json"]
    for path in paths:
        rc = cli_main(["simulate", *config, "--out", str(path)])
        assert rc == 0
    capsys.readouterr()
    first, second = paths[0].read_bytes(), paths[1].read_bytes()
    assert first == second
    assert len(first) > 0
    _passed(12, f"two runs byte-identical ({len(first)} bytes)")

import csv
import hashlib
import json
import math
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from scipy.stats import chi2, norm

from awgnauth import simulate, streams
from awgnauth.adversary import (AttackSpec, mmse_attack_terms,
                                mmse_targeted_attack_batch)
from awgnauth.authcode import (REJECT, auth_encode_batch, decimate,
                               detect_batch, inject_noise, level_statistics)
from awgnauth.basecode import (BaseCode, BaseCodeError, make_antipodal_code,
                               make_random_gaussian_code)
from awgnauth.cli import main
from awgnauth.overlay import LevelSet, construct_overlay
from awgnauth.simulate import (
    CLASS_CORRECT,
    CLASS_CORRECT_REJECT,
    CLASS_FALSE_AUTH_OTHER,
    CLASS_FALSE_AUTH_TARGET,
    CLASS_MISS,
    CLASS_WRONG_MESSAGE,
    MAX_PAIRS,
    ChannelParams,
    SimulateError,
    base_error_probability,
    classify,
    estimate,
    estimate_points,
    run_trial,
)
from awgnauth.streams import Role, block_rows, choices

try:
    import resource
except ImportError:   # not on every platform
    resource = None


@pytest.fixture(scope="module")
def null_only():
    """A code whose only message is the null message: nothing to transmit
    under no attack."""
    overlay = construct_overlay(60, LevelSet((0.0,)), 0.75,
                                counts_per_level=[1], seed=1)
    return inject_noise(BaseCode(np.zeros((1, 60)), null_id=0), overlay,
                        rho_delta=1.0, delta=0.2, seed=1)


@pytest.fixture(scope="module")
def decimated_42():
    """n=60, 42 messages decimated to 20: decodes outside them reject."""
    ov = construct_overlay(60, LevelSet((0.0, 0.5)), 0.75,
                           counts_per_level=[7, 6], seed=3)
    code = inject_noise(make_random_gaussian_code(60, 42, 1.0, seed=3), ov,
                        rho_delta=1.0, delta=0.2, seed=3)
    return decimate(code, 0.5, seed=3, rho_adv=None,
                    target_size_override=20)


@pytest.fixture(scope="module")
def pair_auth():
    """Two-message antipodal code with a two-level overlay at n=120."""
    base = make_antipodal_code(120, 1.0)
    overlay = construct_overlay(120, LevelSet((0.0, 0.5)), 0.75,
                                counts_per_level=[2, 1], seed=7)
    return inject_noise(base, overlay, rho_delta=25.0, delta=0.2, seed=7)


class TestChannelParams:
    def test_validation(self):
        with pytest.raises(SimulateError, match="rho_dec"):
            ChannelParams(rho_dec=-0.1)
        with pytest.raises(SimulateError, match="rho_adv"):
            ChannelParams(rho_dec=0.1, rho_adv=-1.0)
        with pytest.raises(SimulateError, match="power_budget"):
            ChannelParams(rho_dec=0.1, power_budget=0.0)
        # the decoder always sees noise: capacity divides by rho_dec
        with pytest.raises(SimulateError, match="rho_dec must be a positive "
                                                "finite number, not 0.0"):
            ChannelParams(rho_dec=0.0)
        ChannelParams(rho_dec=0.1)   # an unattacked channel: rho_adv = 0

    @pytest.mark.parametrize("kwargs", [
        dict(rho_dec=math.nan), dict(rho_dec=math.inf),
        dict(rho_dec=0.1, rho_adv=math.nan),
        dict(rho_dec=0.1, power_budget=math.nan),
        dict(rho_dec=0.1, power_budget=math.inf),
    ])
    def test_rejects_values_that_are_not_finite(self, kwargs):
        with pytest.raises(SimulateError, match="finite"):
            ChannelParams(**kwargs)


class TestMessageValidation:
    # Each of these used to wrap to another message or raise IndexError.
    @pytest.mark.parametrize("kwargs", [
        dict(metric="alpha_star", pairs=[(-1, 0)]),
        dict(metric="alpha_star", pairs=[(0, 6)]),
        dict(metric="epsilon", message=-2),
        dict(metric="epsilon", message=6),
        dict(metric="genuine_acceptance", message=2.0),
    ])
    def test_estimate_rejects_invalid_ids(self, small_auth, kwargs):
        channel = ChannelParams(rho_dec=0.1, rho_adv=0.1)
        with pytest.raises(SimulateError, match="not a valid message"):
            estimate(small_auth, channel, trials=100, **kwargs)

    def test_decimated_away_message_is_invalid(self, small_auth):
        code = decimate(small_auth, rho_dec=0.1, seed=3,
                        rho_adv=None, target_size_override=3)
        dead = next(m for m in range(code.message_count)
                    if m not in code.decimated)
        with pytest.raises(SimulateError, match="not a valid message"):
            estimate(code, ChannelParams(rho_dec=0.1), "epsilon", 100,
                     message=dead)

    def test_run_trial_rejects_invalid_id(self, small_auth):
        with pytest.raises(SimulateError, match="not a valid message"):
            run_trial(small_auth, ChannelParams(rho_dec=0.1),
                      AttackSpec(kind="none"), -1, seed=0)


class TestClassify:
    def test_mapping(self):
        none = AttackSpec(kind="none")
        targ = AttackSpec(kind="targeted", target=4)
        assert classify(none, 1, 1) == CLASS_CORRECT
        assert classify(none, 1, REJECT) == CLASS_MISS
        assert classify(none, 1, 2) == CLASS_WRONG_MESSAGE
        assert classify(targ, 1, REJECT) == CLASS_CORRECT_REJECT
        assert classify(targ, 1, 4) == CLASS_FALSE_AUTH_TARGET
        assert classify(targ, 1, 3) == CLASS_FALSE_AUTH_OTHER
        assert classify(targ, 1, 1) == CLASS_CORRECT


class TestRunTrial:
    def test_noiseless_pipe_classifies_correct(self, small_auth):
        # the rows x(m) + t(m), with no noise at all, decode to m, and their
        # statistics are exactly 0.0 at a decoder noise rho_dec > 0
        code, ms = small_auth, np.array([0, 3, 5])
        ys = code.base.codewords[ms] + code.t_table[ms]
        decoded = code.base.decode_batch(ys)
        assert decoded.tolist() == ms.tolist()
        assert level_statistics(code, ys, decoded, 0.1).tolist() \
            == [[0.0, 0.0]] * 3
        assert not detect_batch(code, ys, decoded, 0.1).any()
        for m in ms.tolist():
            assert classify(AttackSpec("none"), m, m) == CLASS_CORRECT

    def test_matches_batched_rows(self, small_auth, tmp_path):
        # Trial t of a batched run is bit-identical to a run_trial at the
        # same index (counter-addressed streams).
        channel = ChannelParams(rho_dec=0.1)
        log = tmp_path / "trials.csv"
        estimate(small_auth, channel, "genuine_acceptance", trials=100,
                 seed=9, message=2, trial_log=str(log))
        with open(log, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 100
        for t in (0, 1, 7, 42, 99):
            single = run_trial(small_auth, channel, AttackSpec(kind="none"),
                               2, seed=9, trial_index=t)
            assert str(single.decoded) == rows[t]["decoded"]
            assert single.classification == rows[t]["classification"]

    @pytest.mark.parametrize("code_name, attack, m", [
        ("small_auth", AttackSpec("targeted", 4), 1),
        ("null_auth", AttackSpec("impersonation", 2), 6),
    ], ids=["targeted", "impersonation"])
    def test_an_attacked_trial_replays_by_hand(self, request, code_name,
                                               attack, m):
        # run_trial is the encoder, the MMSE attack on the full observation
        # v = x + sqrt(rho_adv) G_adv, the channel and the detector, each on
        # the trial's own slice of the DELTA, ADVERSARY and DECODER streams
        code = request.getfixturevalue(code_name)
        ch, seed = ChannelParams(rho_dec=0.1, rho_adv=0.02), 3
        terms = mmse_attack_terms(code, m, attack.target, ch.rho_adv)
        classes = set()
        for t in range(40):
            g_delta, g_adv, g_dec = (streams.normals(seed, role, t, 1, code.n)
                                     for role in (Role.DELTA, Role.ADVERSARY,
                                                  Role.DECODER))
            x = auth_encode_batch(code, np.array([m]), g_delta)
            v = x + math.sqrt(ch.rho_adv) * g_adv
            z = mmse_targeted_attack_batch(v, terms)
            y = x + z + math.sqrt(ch.rho_dec) * g_dec
            dec = code.base.decode_batch(y)
            want = REJECT if detect_batch(code, y, dec, ch.rho_dec)[0] \
                else int(dec[0])
            out = run_trial(code, ch, attack, m, seed, trial_index=t)
            assert (out.decoded, out.classification) \
                == (want, classify(attack, m, want)), t
            classes.add(out.classification)
        # the attack both lands and is caught among these trials
        assert classes == {CLASS_FALSE_AUTH_TARGET, CLASS_CORRECT_REJECT}

    def test_impersonation_transmits_the_null_message(self, small_auth,
                                                      null_auth):
        ch = ChannelParams(rho_dec=0.1, rho_adv=0.1)
        attack = AttackSpec(kind="impersonation", target=2)
        with pytest.raises(SimulateError, match="this code has no null"):
            run_trial(small_auth, ch, attack, 0, seed=1)
        with pytest.raises(SimulateError, match="0 is not the null"):
            run_trial(null_auth, ch, attack, 0, seed=1)
        null = null_auth.base.null_id
        assert run_trial(null_auth, ch, attack, null, seed=1).transmitted \
            == null

    @pytest.mark.parametrize("code_name, spec, m, kwargs, message", [
        ("small_auth", AttackSpec("targeted", 1), 1, dict(pairs=[(1, 1)]),
         "the target must differ from the transmitted message"),
        ("small_auth", AttackSpec("targeted", 6), 0, {},
         "6 is not a valid message"),
        ("null_auth", AttackSpec("impersonation", 3), 0,
         dict(pairs=[(0, 3)]), "0 is not the null message"),
        ("small_auth", AttackSpec("impersonation", 3), 0, {},
         "impersonation transmits the null message; this code has no null "
         "message"),
        ("small_auth", None, 0, {}, "attack must be an AttackSpec, not None"),
        ("small_auth", "none", 0, {},
         "attack must be an AttackSpec, not 'none'"),
    ])
    def test_run_trial_and_estimate_refuse_the_same_run(
            self, request, code_name, spec, m, kwargs, message):
        # one check of a run: the same bad run, the same SimulateError
        code = request.getfixturevalue(code_name)
        ch = ChannelParams(rho_dec=0.1, rho_adv=0.1)
        with pytest.raises(SimulateError, match=message) as single:
            run_trial(code, ch, spec, m, seed=0)
        with pytest.raises(SimulateError, match=message) as batched:
            estimate(code, ch, "alpha_star", 100, attack=spec, **kwargs)
        assert str(single.value) == str(batched.value)

    def test_power_budget_enforced(self, small_auth):
        channel = ChannelParams(rho_dec=0.1,
                                power_budget=small_auth.power * 0.5)
        with pytest.raises(SimulateError, match="exceeds the budget"):
            run_trial(small_auth, channel, AttackSpec(kind="none"), 0, seed=0)


class TestEstimateValidation:
    def test_basic_errors(self, small_auth):
        ch = ChannelParams(rho_dec=0.1)
        with pytest.raises(SimulateError, match="unknown metric"):
            estimate(small_auth, ch, "bias", 100)
        with pytest.raises(SimulateError, match="at least 100"):
            estimate(small_auth, ch, "epsilon", 99)
        with pytest.raises(SimulateError, match="no attack"):
            estimate(small_auth, ch, "epsilon", 100,
                     attack=AttackSpec(kind="targeted", target=1))
        with pytest.raises(SimulateError, match="fixed message"):
            estimate(small_auth, ch, "genuine_acceptance", 100)
        with pytest.raises(SimulateError, match="rho_adv > 0"):
            estimate(small_auth, ch, "alpha_star", 100)
        with pytest.raises(SimulateError, match="no attack pairs"):
            estimate(small_auth, ChannelParams(0.1, rho_adv=0.1),
                     "alpha_star", 100, pairs=[])
        with pytest.raises(SimulateError, match="must be an AttackSpec"):
            estimate(small_auth, ch, "epsilon", 100, attack=None)

    def test_an_array_of_pairs_reports_as_the_equal_list(self, small_auth):
        ch = ChannelParams(0.1, rho_adv=0.1)
        reports = [estimate(small_auth, ch, "alpha_star", 100, seed=3,
                            pairs=pairs).to_json_dict()
                   for pairs in ([(0, 1), (2, 4)], np.array([[0, 1], [2, 4]]),
                                 [[np.int64(0), 1], (np.int32(2), 4)])]
        assert reports[1] == reports[0] and reports[2] == reports[0]
        assert json.dumps(reports[1]) == json.dumps(reports[0])
        with pytest.raises(SimulateError, match="no attack pairs"):
            estimate(small_auth, ch, "alpha_star", 100,
                     pairs=np.empty((0, 2), int))

    @pytest.mark.parametrize("code_name, kwargs, message", [
        ("small_auth", dict(pairs=[(1, 1)]), "target must differ"),
        ("small_auth", dict(max_pairs=-1), "max_pairs must be a positive int"),
        ("small_auth", dict(max_pairs=0), "max_pairs must be a positive int"),
        ("null_auth", dict(pairs=[(0, 3)], attack=AttackSpec(
            kind="impersonation", target=3)), "transmits the null message"),
        ("small_auth", dict(pairs=[(0, True)]),
         "pairs must hold message ids, .*: True is not a valid message"),
        ("small_auth", dict(attack=AttackSpec("targeted", 6)),
         "6 is not a valid message"),
        ("small_auth", dict(pairs=[(0,)]),
         r"must be a \(transmit, target\) pair, not \(0,\)"),
        ("small_auth", dict(pairs=[(0, 1), (0, 1, 2)]),
         r"must be a \(transmit, target\) pair, not \(0, 1, 2\)"),
        ("small_auth", dict(pairs=[3]),
         r"must be a \(transmit, target\) pair, not 3"),
    ])
    def test_bad_pairs_fail_before_any_draw(self, request, monkeypatch,
                                            code_name, kwargs, message):
        def no_draws(*args):
            raise AssertionError("drew streams before validating the pairs")

        monkeypatch.setattr(simulate, "normals", no_draws)
        code = request.getfixturevalue(code_name)
        with pytest.raises(SimulateError, match=message):
            estimate(code, ChannelParams(rho_dec=0.1, rho_adv=0.1),
                     "alpha_star", 100, **kwargs)


    @pytest.mark.parametrize("fn, kwargs, message", [
        ("estimate", dict(trials=1000.0), "trials must be an integer of at "
         "least 100"),
        ("estimate", dict(seed=-1), "seed must be a nonnegative integer"),
        ("estimate", dict(seed=1.5), "seed must be a nonnegative integer"),
        ("estimate", dict(trials=99), "trials must be an integer of at "
         "least 100"),
        ("estimate", dict(seed=True), "seed must be a nonnegative integer"),
        ("estimate", dict(threads=1.5), "threads must be a positive integer"),
        ("estimate", dict(max_pairs=2.5), "max_pairs must be a positive int"),
        ("estimate", dict(max_pairs=True), "max_pairs must be a positive int"),
        ("estimate", dict(message=True), "True is not a valid message"),
        ("run_trial", dict(seed=-1), "seed must be a nonnegative integer"),
        ("run_trial", dict(seed=1.5), "seed must be a nonnegative integer"),
        ("run_trial", dict(trial_index=-1), "trial_index must be a nonneg"),
        ("base_error_probability", dict(trials=1000.0), "trials must be an "
         "integer of at least 100"),
        ("base_error_probability", dict(seed=-1), "seed must be a nonneg"),
        ("base_error_probability", dict(seed=1.5), "seed must be a nonneg"),
        ("estimate", dict(trial_log="."),
         r"trial_log '\.' must name a file in an existing directory"),
        ("estimate", dict(trial_log="no_such_directory/trials.csv"),
         "trial_log 'no_such_directory/trials.csv' must name a file in an "
         "existing directory"),
        # an empty transmit pool
        ("estimate", dict(code="null_only", metric="epsilon", trials=100),
         "the code has no message to transmit but the null message"),
        ("base_error_probability", dict(code="null_only", trials=100),
         "the code has no message to transmit but the null message"),
    ])
    def test_bad_arguments_fail_at_the_boundary(self, small_auth, monkeypatch,
                                                request, fn, kwargs, message):
        def no_blocks(*args, **kw):
            raise AssertionError("ran a block before checking the arguments")

        monkeypatch.setattr(simulate, "_simulate_block", no_blocks)
        monkeypatch.setattr(simulate, "_base_errors", no_blocks)
        kwargs = {key: request.getfixturevalue(value) if key == "code"
                  else value for key, value in kwargs.items()}
        calls = {
            "estimate": lambda code=small_auth, metric="alpha", trials=1000,
                **kw: estimate(code, ChannelParams(0.1, rho_adv=0.1), metric,
                               trials, **kw),
            "run_trial": lambda seed=0, **kw: run_trial(
                small_auth, ChannelParams(0.1), AttackSpec("none"), 0, seed,
                **kw),
            "base_error_probability": lambda code=small_auth, trials=1000,
                **kw: base_error_probability(code.base, 0.1, trials, **kw),
        }
        error = BaseCodeError if fn == "base_error_probability" \
            else SimulateError
        with pytest.raises(error, match=message):
            calls[fn](**kwargs)


class TestOnePass:
    PAIRS = [(2, 5), (0, 3), (4, 1)]

    def test_each_block_draws_each_stream_once(self, small_auth, monkeypatch):
        drawn = []
        normals = simulate.normals

        def counting(seed, role, start, trials, width, **kwargs):
            drawn.append(Role(role))
            return normals(seed, role, start, trials, width, **kwargs)

        monkeypatch.setattr(simulate, "normals", counting)
        rep = estimate(small_auth, ChannelParams(rho_dec=0.1, rho_adv=0.05),
                       "alpha_star", 300, seed=6, pairs=self.PAIRS)
        assert rep.params["pairs"] == 3
        assert sorted(drawn) == [Role.DELTA, Role.ADVERSARY, Role.DECODER]

    def test_a_pair_does_not_depend_on_the_other_pairs(self, small_auth,
                                                       tmp_path,
                                                       fixed_blocks):
        ch = ChannelParams(rho_dec=0.1, rho_adv=0.05)

        def run(pairs, **kw):
            log = tmp_path / f"{len(pairs)}.csv"
            rep = estimate(small_auth, ch, "alpha", 300, seed=6, pairs=pairs,
                           trial_log=str(log), **kw)
            with open(log, newline="") as fh:
                rows = [r for r in csv.DictReader(fh)
                        if (r["transmitted"], r["target"]) == ("0", "3")]
            [entry] = [p for p in rep.detail["per_pair"]
                       if (p["transmit"], p["target"]) == (0, 3)]
            return entry, rows

        alone = run([(0, 3)])
        fixed_blocks(57)
        among = run(self.PAIRS, threads=2)
        assert alone == among
        assert len(alone[1]) == 300

    @pytest.mark.parametrize("n, messages", [
        (60, 6), (600, 6), (256, 64), (600, 4096), (3, 2 ** 22), (2 ** 22, 2)])
    def test_auto_block_holds_at_most_2_pow_22_values(self, n, messages):
        # a block is whole chunks, the largest number of them within
        # messages / 4 rows whose received rows, all runs together, hold at
        # most 2**19 values, and one chunk at least; a chunk's n-wide arrays
        # hold at most 2**17 values (floor one row) and the decode's tiles
        # at most 2**20 (TestDecodeTiles in test_basecode), so the five
        # chunk arrays, the received rows, their float32 copy and a score
        # tile stay below 2**22 values
        chunk = max(1, 2 ** 17 // n)
        assert chunk == 1 or chunk * n <= 2 ** 17 < (chunk + 1) * n
        for runs in (1, 4, 20):
            def fits(chunks):
                rows = chunks * chunk
                return rows <= messages // 4 and rows * runs * n <= 2 ** 19

            rows = block_rows(n, messages, runs=runs)
            assert rows % chunk == 0
            assert (rows == chunk or fits(rows // chunk)) \
                and not fits(rows // chunk + 1)
            if chunk > 1:   # a one-chunk block's runs share one buffer
                received = rows * n * (1 if rows == chunk else runs)
                assert 5 * chunk * n + 1.5 * received + 2 ** 20 < 2 ** 22

    def test_block_rows_floor_and_sizes(self):
        assert block_rows(2 ** 23, 6) == 1
        # large_codebook: four 218-row chunks, decoded together; twenty
        # runs keep one chunk
        assert block_rows(600, 4096) == 872
        assert block_rows(600, 4096, runs=20) == 218
        assert block_rows(256, 64) == 512

    @pytest.mark.parametrize("threads", [1, 2])
    def test_results_do_not_depend_on_the_block_rule(self, small_auth,
                                                     tmp_path, threads,
                                                     fixed_blocks):
        # 3000 trials are two auto blocks at n=60 (2184 rows keep the
        # n-wide arrays at 2**17 values) and one block under a 2**22
        # rule; reports and trial logs must not see the difference
        trials = 3000
        assert block_rows(60, 6) < trials <= 2 ** 22 // 60
        ch = ChannelParams(rho_dec=0.1, rho_adv=0.05)

        def run(rows, threads, name=None):
            log = tmp_path / f"{name or rows}-{threads}.csv"
            fixed_blocks(rows)
            reports = estimate(small_auth, ch, ["epsilon", "alpha_star",
                                                "false_alarm", "alpha"],
                               trials, seed=6, pairs=TestSeveralMetrics.PAIRS,
                               threads=threads, trial_log=str(log))
            return [r.to_json_dict() for r in reports], log.read_bytes()

        one_block = run(trials, 1, name="one-block")
        for rows in (None, 57, trials):
            assert run(rows, threads) == one_block


@pytest.fixture(scope="module")
def readme_code():
    """The README quick start's code: n=600, 6 messages."""
    ov = construct_overlay(600, LevelSet((0.0, 0.5)), 0.75,
                           counts_per_level=[3, 2], seed=7)
    return inject_noise(make_random_gaussian_code(600, 6, 1.0, seed=7), ov,
                        rho_delta=1.0, delta=0.1, seed=7)


class TestBoundedMemory:
    def test_peak_memory_does_not_grow_with_trials(self):
        # counts, not per-trial rows, are kept: ten times the trials over
        # 20 pairs peak no higher than a small constant above
        ov = construct_overlay(12, LevelSet((0.0, 0.5)), 0.75,
                               counts_per_level=[3, 2], seed=11)
        code = inject_noise(make_random_gaussian_code(12, 6, 1.0, seed=11),
                            ov, rho_delta=1.0, delta=0.2, seed=11)
        ch = ChannelParams(rho_dec=0.1, rho_adv=0.05)

        def peak(trials):
            tracemalloc.start()
            try:
                reports = estimate(code, ch, ["alpha_star", "alpha"], trials,
                                   seed=3, max_pairs=20)
                assert reports[0].params["pairs"] == 20
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(10 ** 6) <= peak(10 ** 5) + 2 ** 20

    def test_the_block_schedule_does_not_grow_with_trials(self, small_auth,
                                                          monkeypatch,
                                                          fixed_blocks):
        # one-row blocks of a stubbed simulation and count, with no runs:
        # the blocks are visited, not listed (a list of them takes about
        # 96 B a block, 17 MiB more at 2e5 blocks than at 2e4)
        visited = 0

        def stub(*args, **kwargs):
            nonlocal visited
            visited += 1
            return []

        monkeypatch.setattr(simulate, "_simulate_block", stub)
        no_counts = np.zeros((0, 5), np.int64)
        monkeypatch.setattr(simulate, "_count", lambda runs, results:
                            no_counts)
        fixed_blocks(1)

        def peak(trials):
            nonlocal visited
            visited = 0
            tracemalloc.start()
            try:
                simulate._run_counting(small_auth, 0, trials, [],
                                       detector=True, threads=1)
                assert visited == trials
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(2 * 10 ** 5) <= peak(2 * 10 ** 4) + 2 ** 20


    @pytest.mark.parametrize("channels", [
        [(0.1, 0.001), (0.1, 0.01), (0.1, 0.1), (0.1, 1.0)],
        [(0.05, 0.001), (0.1, 0.01), (0.2, 0.1), (0.4, 1.0)],
    ], ids=["rho_adv", "rho_dec-and-rho_adv"])
    def test_points_add_no_chunk_buffer(self, monkeypatch, readme_code,
                                        channels):
        # 4 points of 20 pairs each on one worker hold the 1-point call's
        # arrays: each run scales the draws it reads into its received
        # rows and the encoder's scratch, whatever powers the points take
        monkeypatch.setattr(simulate, "_openblas", lambda: None)

        def peak(channels):
            points = [(ChannelParams(d, rho_adv=a), AttackSpec("none"))
                      for d, a in channels]
            tracemalloc.start()
            try:
                reports = estimate_points(readme_code, points,
                                          ["alpha_star", "alpha"], 1000,
                                          seed=1, max_pairs=20)
                assert [r[0].params["pairs"] for r in reports] == [20] * len(
                    channels)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(channels[1:2])   # warm up
        assert peak(channels) <= peak(channels[1:2]) + 2 ** 20

    def test_a_base_code_holds_its_decoder_draws_and_received_rows(
            self, monkeypatch, readme_code):
        # with no runs, a workspace holds one chunk of DECODER draws and
        # the received rows, 1 MiB each, beside the decode's scratch; the
        # DELTA draws, codewords and scratch of runs would add 3 MiB
        monkeypatch.setattr(simulate, "_openblas", lambda: None)
        base_error_probability(readme_code.base, 0.1, 1000, seed=1)
        tracemalloc.start()
        try:
            base_error_probability(readme_code.base, 0.1, 1000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * 2 ** 20


class TestChunkedBlocks:
    """A block is drawn in chunks and decoded once; counts and trial logs
    must not see where the chunks and blocks end."""

    @pytest.fixture(scope="class")
    def odd_auth(self):
        """n=60 and 42 messages: with 5-row chunks, auto blocks are two."""
        ov = construct_overlay(60, LevelSet((0.0, 0.5)), 0.75,
                               counts_per_level=[7, 6], seed=3)
        return inject_noise(make_random_gaussian_code(60, 42, 1.0, seed=3),
                            ov, rho_delta=1.0, delta=0.2, seed=3)

    @pytest.mark.parametrize("fixture", ["small_auth", "odd_auth"])
    def test_counts_and_logs_equal_at_any_chunk_and_block(
            self, request, fixture, tmp_path, monkeypatch, fixed_blocks):
        code = request.getfixturevalue(fixture)
        monkeypatch.setattr(streams, "ROW_VALUES", 5 * code.n)   # 5 rows
        pool = simulate._transmit_pool(code)
        pairs = [(int(pool[0]), int(pool[1])), (int(pool[2]), int(pool[1]))]
        ch = ChannelParams(rho_dec=0.1, rho_adv=0.05)

        def run(rows, threads):
            log = tmp_path / f"{rows}-{threads}.csv"
            fixed_blocks(rows)
            reports = estimate(code, ch, ["epsilon", "alpha_star", "alpha"],
                               300, seed=6, pairs=pairs, threads=threads,
                               trial_log=str(log))
            return ([r.to_json_dict() for r in reports],
                    hashlib.sha256(log.read_bytes()).hexdigest())

        if fixture == "odd_auth":
            assert block_rows(60, 42) == 10   # auto: two chunks
        want = run(300, 1)   # one block of 60 chunks
        for rows in (1, 57, 5, 17, None):   # 1 chunk, one, 4 and auto
            for threads in (1, 2):
                assert run(rows, threads) == want, (rows, threads)

    def test_a_one_chunk_block_holds_one_received_buffer(self, monkeypatch):
        # 20 pairs of the README code on one worker (without the BLAS
        # symbols, threads=1 is one worker at any CPU count): one 218-row
        # chunk per block, whose runs take turns in one 1 MiB buffer of
        # received rows; a buffer per run would hold 20 MiB
        monkeypatch.setattr(simulate, "_openblas", lambda: None)
        ov = construct_overlay(600, LevelSet((0.0, 0.5)), 0.75,
                               counts_per_level=[3, 2], seed=7)
        code = inject_noise(make_random_gaussian_code(600, 6, 1.0, seed=7),
                            ov, rho_delta=1.0, delta=0.1, seed=7)
        ch = ChannelParams(rho_dec=0.1, rho_adv=0.01)
        assert block_rows(600, 6, runs=20) == 218
        estimate(code, ch, "alpha", 100, seed=1, max_pairs=2)   # warm up
        tracemalloc.start()
        try:
            [report, _] = estimate(code, ch, ["alpha_star", "alpha"], 1000,
                                   seed=1, max_pairs=20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.params["pairs"] == 20
        # the workspace: five chunk arrays and one received buffer, 1 MiB
        # each, plus per-block results and the decode's small scratch
        assert peak < 8 * 2 ** 20


class TestWorkspace:
    PAIRS = [(0, 1), (0, 2), (3, 1)]
    TRIALS = 2300   # two auto blocks at n=60: 2184 rows and 116

    @pytest.fixture(scope="class")
    def replayed(self, small_auth):
        """The trial log of ``["alpha_star", "alpha", "epsilon"]`` built
        from trials replayed one by one, each with arrays of its own."""
        ch = ChannelParams(rho_dec=0.1, rho_adv=0.05)
        pool = simulate._transmit_pool(small_auth)
        drawn = pool[choices(6, Role.MESSAGE, 0, self.TRIALS, pool.size)]
        pair_rows = []
        for a, b in self.PAIRS:
            pair_rows += [[t, a, b, run_trial(
                small_auth, ch, AttackSpec("targeted", b), a, 6, t)]
                for t in range(self.TRIALS)]
        genuine = [[t, int(m), "", run_trial(small_auth, ch,
                                             AttackSpec("none"), int(m), 6, t)]
                   for t, m in enumerate(drawn)]
        return [[name, str(t), str(m), str(target), str(out.decoded),
                 out.classification]
                for name, rows in (("alpha_star", pair_rows),
                                   ("alpha", pair_rows), ("epsilon", genuine))
                for t, m, target, out in rows]

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_blocks_reusing_arrays_equal_trials_alone(self, small_auth,
                                                      tmp_path, replayed,
                                                      threads, fixed_blocks):
        assert block_rows(60, 6) < self.TRIALS
        ch = ChannelParams(rho_dec=0.1, rho_adv=0.05)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)   # interleave the workers often
        try:
            runs = []
            for rows in (None, 57, self.TRIALS):
                log = tmp_path / f"{rows}.csv"
                fixed_blocks(rows)
                reports = estimate(small_auth, ch,
                                   ["alpha_star", "alpha", "epsilon"],
                                   self.TRIALS, seed=6, pairs=self.PAIRS,
                                   threads=threads, trial_log=str(log))
                runs.append(([r.to_json_dict() for r in reports],
                             log.read_bytes()))
        finally:
            sys.setswitchinterval(interval)
        assert runs[1] == runs[0] and runs[2] == runs[0]
        with open(tmp_path / "None.csv", newline="") as fh:
            assert list(csv.reader(fh))[1:] == replayed

    @pytest.mark.skipif(resource is None, reason="needs resource.getrusage")
    def test_blocks_do_not_fault_their_arrays_in_again(self):
        # n=256, M=64: 512-row blocks of 1 MiB arrays.  Arrays allocated
        # per block and handed back to the kernel cost about 1,500 minor
        # faults per block; reused, next to none.
        ov = construct_overlay(256, LevelSet((0.0, 0.5)), 0.75,
                               counts_per_level=[8, 8], seed=0)
        code = inject_noise(make_random_gaussian_code(256, 64, 1.0, seed=0),
                            ov, rho_delta=1.0, delta=0.2, seed=0)

        def faults(trials):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            estimate(code, ChannelParams(rho_dec=0.1), "epsilon", trials,
                     seed=1)
            return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

        faults(20_000)   # warm up
        few, many = faults(20_000), faults(200_000)
        extra_blocks = -(-200_000 // 512) - -(-20_000 // 512)
        assert block_rows(256, 64) == 512
        assert many - few < 64 * extra_blocks


ENUMERATES = ("max_pairs is read only where alpha_star or alpha enumerates "
              "the attack pairs")


class TestSeveralMetrics:
    PAIRS = [(0, 1), (0, 2), (3, 1)]

    @pytest.mark.parametrize("metrics, kwargs", [
        (["epsilon", "false_alarm", "genuine_acceptance"], dict(message=2)),
        (["alpha_star", "alpha"], dict(max_pairs=4)),
        (["alpha", "epsilon", "alpha_star", "false_alarm"],
         dict(pairs=PAIRS, attack=AttackSpec("targeted", 1, weight_scale=0.5))),
    ])
    def test_one_call_equals_one_call_per_metric(self, small_auth, tmp_path,
                                                 metrics, kwargs):
        ch = ChannelParams(rho_dec=0.1, rho_adv=0.05)
        together = tmp_path / "together.csv"
        reports = estimate(small_auth, ch, metrics, 300, seed=4,
                           trial_log=str(together), **kwargs)
        apart = tmp_path / "apart.csv"
        singles = [estimate(small_auth, ch, name, 300, seed=4,
                            trial_log=str(apart),
                            **{k: v for k, v in kwargs.items()
                               if k not in ("attack", "pairs")
                               or name in simulate.FALSE_AUTH_METRICS})
                   for name in metrics]
        assert [r.to_json_dict() for r in reports] == [
            r.to_json_dict() for r in singles]
        assert together.read_bytes() == apart.read_bytes()

    def test_one_name_gives_one_report(self, small_auth):
        ch = ChannelParams(rho_dec=0.1)
        [listed] = estimate(small_auth, ch, ["epsilon"], 200, seed=4)
        assert estimate(small_auth, ch, "epsilon", 200,
                        seed=4).to_json_dict() == listed.to_json_dict()

    def test_each_block_draws_each_stream_once(self, small_auth, monkeypatch,
                                              fixed_blocks):
        drawn = []
        normals = simulate.normals

        def counting(seed, role, start, trials, width, **kwargs):
            drawn.append((Role(role), start))
            return normals(seed, role, start, trials, width, **kwargs)

        monkeypatch.setattr(simulate, "normals", counting)
        fixed_blocks(100)
        estimate(small_auth, ChannelParams(rho_dec=0.1, rho_adv=0.05),
                 ["epsilon", "false_alarm", "alpha_star", "alpha"], 300,
                 seed=6, pairs=self.PAIRS)
        assert sorted(drawn) == sorted(
            (role, t0) for t0 in (0, 100, 200)
            for role in (Role.DELTA, Role.ADVERSARY, Role.DECODER))

    def test_pairs_sharing_a_transmit_message_encode_once(self, small_auth,
                                                          monkeypatch):
        encoded = []
        encode = simulate.auth_encode_batch

        def counting(code, ms, g_delta, **kwargs):
            encoded.append(sorted(set(ms.tolist())))
            return encode(code, ms, g_delta, **kwargs)

        monkeypatch.setattr(simulate, "auth_encode_batch", counting)
        estimate(small_auth, ChannelParams(rho_dec=0.1, rho_adv=0.05),
                 ["alpha_star", "alpha"], 300, seed=6, pairs=self.PAIRS)
        assert encoded == [[0], [3]]

    def test_points_encode_each_transmit_message_once_a_chunk(
            self, small_auth, monkeypatch, fixed_blocks):
        # three points that vary rho_adv and rho_dec, in 50-row chunks of
        # 100-row blocks on one worker: each chunk encodes the drawn
        # messages of the genuine runs and the transmit messages 0 and 3
        # of the pairs once
        encoded = []
        encode = simulate.auth_encode_batch

        def counting(code, ms, g_delta, **kwargs):
            encoded.append(ms.size if ms.min() < ms.max() else int(ms[0]))
            return encode(code, ms, g_delta, **kwargs)

        monkeypatch.setattr(simulate, "auth_encode_batch", counting)
        monkeypatch.setattr(simulate, "_openblas", lambda: None)
        monkeypatch.setattr(streams, "ROW_VALUES", 50 * small_auth.n)
        fixed_blocks(100)
        points = [(ChannelParams(0.1, rho_adv=0.05), AttackSpec("none")),
                  (ChannelParams(0.1, rho_adv=0.2), AttackSpec("none")),
                  (ChannelParams(0.3, rho_adv=0.2), AttackSpec("none"))]
        estimate_points(small_auth, points, ["epsilon", "alpha_star", "alpha"],
                        300, seed=6, pairs=self.PAIRS)
        # a chunk of drawn messages is logged by its size, 50 rows
        assert encoded == [50, 0, 3] * 6

    @pytest.mark.parametrize("metrics, kwargs, message", [
        (["epsilon", "alpha"], {}, "rho_adv > 0"),
        (["epsilon", "false_alarm"],
         dict(channel=ChannelParams(0.1, rho_adv=0.1),
              attack=AttackSpec("targeted", 1)),
         "epsilon is defined under no attack"),
        (["alpha", "genuine_acceptance"],
         dict(channel=ChannelParams(0.1, rho_adv=0.1)), "fixed message"),
        (["epsilon", "bias"], {}, "unknown metric 'bias'"),
        ([], {}, "no metric requested"),
        (["epsilon"], dict(max_pairs=0), "max_pairs must be a positive"),
        (["epsilon"], dict(seed=-1), "seed must be a nonnegative integer"),
        (["epsilon"], dict(seed=1.5), "seed must be a nonnegative integer"),
        (["epsilon"], dict(threads=0), "threads must be a positive integer"),
        (["epsilon"], dict(threads=-1), "threads must be a positive integer"),
        ("epsilon", dict(threads=1.0), "threads must be a positive integer"),
        (["epsilon"], dict(attack=AttackSpec("none", weight_scale=0.5)),
         "a weight_scale needs alpha_star or alpha"),
        (["epsilon"], dict(channel=0.0),
         r"each point must be a \(ChannelParams, AttackSpec\) pair"),
        # max_pairs is read only where alpha_star or alpha enumerates pairs
        (["epsilon"], dict(max_pairs=5), ENUMERATES),
        (["alpha_star"], dict(channel=ChannelParams(0.1, rho_adv=0.1),
                              attack=AttackSpec("targeted", 3), message=1,
                              max_pairs=5), ENUMERATES),
        (["alpha"], dict(channel=ChannelParams(0.1, rho_adv=0.1),
                         attack=AttackSpec("impersonation", 3),
                         max_pairs=5), ENUMERATES),
        (["alpha_star", "epsilon"],
         dict(channel=ChannelParams(0.1, rho_adv=0.1), pairs=PAIRS,
              max_pairs=5), ENUMERATES),
        (["false_alarm"], dict(max_pairs=MAX_PAIRS + 1), ENUMERATES),
        # so are pairs
        (["epsilon", "false_alarm"], dict(pairs=PAIRS),
         "pairs are read only where alpha_star or alpha runs the attack "
         "pairs"),
    ])
    def test_bad_calls_fail_before_any_draw(self, small_auth, monkeypatch,
                                            metrics, kwargs, message):
        def no_draws(*args):
            raise AssertionError("drew streams before validating the call")

        monkeypatch.setattr(simulate, "normals", no_draws)
        kwargs = dict(kwargs)
        channel = kwargs.pop("channel", ChannelParams(rho_dec=0.1))
        with pytest.raises(SimulateError, match=message):
            estimate(small_auth, channel, metrics, 100, **kwargs)


class TestEstimatePoints:
    PAIRS = [(0, 1), (0, 2), (3, 1)]
    # rho_adv, then the attack, then rho_dec vary; the last point repeats
    # the first one's channel with another attack
    POINTS = [(ChannelParams(0.1, rho_adv=0.05), AttackSpec("none")),
              (ChannelParams(0.1, rho_adv=0.2), AttackSpec("none")),
              (ChannelParams(0.1, rho_adv=0.2),
               AttackSpec("targeted", 1, weight_scale=0.5)),
              (ChannelParams(0.3, rho_adv=0.2), AttackSpec("none")),
              (ChannelParams(0.1, rho_adv=0.05),
               AttackSpec("none", weight_scale=2.0))]

    @pytest.mark.parametrize("rows, chunk", [(None, None), (17, 5)])
    def test_each_point_equals_its_own_estimate(self, small_auth, monkeypatch,
                                                fixed_blocks, rows, chunk):
        if chunk:
            monkeypatch.setattr(streams, "ROW_VALUES", chunk * small_auth.n)
        fixed_blocks(rows)
        metrics = ["epsilon", "alpha_star", "alpha"]
        together = estimate_points(small_auth, self.POINTS, metrics, 300,
                                   seed=6, pairs=self.PAIRS, threads=2)
        assert len(together) == len(self.POINTS)
        for (channel, attack), reports in zip(self.POINTS, together):
            alone = estimate(small_auth, channel, metrics, 300, seed=6,
                             attack=attack, pairs=self.PAIRS)
            assert [r.to_json_dict() for r in reports] \
                == [r.to_json_dict() for r in alone], (channel, attack)

    def test_one_name_gives_one_report_per_point(self, small_auth):
        reports = estimate_points(small_auth, self.POINTS[:2], "epsilon", 200,
                                  seed=4)
        assert [r.metric for r in reports] == ["epsilon", "epsilon"]

    def test_max_pairs_is_read_where_any_point_enumerates(self, small_auth):
        # the first point enumerates the pairs from message 1, the second
        # pins the pair (1, 3)
        channel, attack = self.POINTS[0]
        pinned = (ChannelParams(0.1, rho_adv=0.2), AttackSpec("targeted", 3))
        reports = estimate_points(small_auth, [(channel, attack), pinned],
                                  "alpha_star", 100, message=1, max_pairs=2)
        assert [r.params["pairs"] for r in reports] == [2, 1]
        assert reports[1].params["argmax_pair"] == [1, 3]
        alone = estimate(small_auth, channel, "alpha_star", 100,
                         attack=attack, message=1, max_pairs=2)
        assert reports[0].to_json_dict() == alone.to_json_dict()

    @pytest.mark.parametrize("points, kwargs, message", [
        ([], {}, "no point to estimate"),
        (POINTS[:2], dict(trial_log="trials.csv"),
         "a trial_log has no point column; give one point"),
        ([(ChannelParams(0.1), AttackSpec("none"))], {}, "rho_adv > 0"),
        ([POINTS[0], (ChannelParams(0.1, rho_adv=0.1), None)], {},
         "attack must be an AttackSpec"),
        ([(ChannelParams(0.1, rho_adv=0.1),)], {}, "each point must be a"),
        ([(0.1, AttackSpec("none"))], {}, "each point must be a"),
        ([ChannelParams(0.1, rho_adv=0.1)], {}, "each point must be a"),
        ([POINTS[0], (ChannelParams(0.1), AttackSpec("none"))], {},
         "rho_adv > 0"),
        ([(channel, AttackSpec("targeted", 3)) for channel, _ in POINTS[:2]],
         dict(message=1, max_pairs=5), ENUMERATES),
        (POINTS[:2], dict(pairs=PAIRS, max_pairs=5), ENUMERATES),
    ])
    def test_bad_points_fail_before_any_draw(self, small_auth, monkeypatch,
                                             tmp_path, points, kwargs,
                                             message):
        def no_draws(*args, **kw):
            raise AssertionError("drew streams before validating the call")

        monkeypatch.setattr(simulate, "normals", no_draws)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SimulateError, match=message):
            estimate_points(small_auth, points, "alpha", 100, **kwargs)


class TestDeterminism:
    def test_bit_identical_reports(self, small_auth):
        ch = ChannelParams(rho_dec=0.1, rho_adv=0.05)
        kw = dict(trials=200, seed=5, pairs=[(0, 3)])
        a = estimate(small_auth, ch, "alpha_star", **kw)
        b = estimate(small_auth, ch, "alpha_star", **kw)
        assert a.to_json_dict() == b.to_json_dict()

    def test_thread_and_batch_invariance(self, small_auth, fixed_blocks):
        ch = ChannelParams(rho_dec=0.1)
        base = estimate(small_auth, ch, "epsilon", 500, seed=8)
        fixed_blocks(57)
        threaded = estimate(small_auth, ch, "epsilon", 500, seed=8,
                            threads=4)
        assert base.to_json_dict() == threaded.to_json_dict()

    def test_seed_changes_the_draws(self, small_auth):
        ch = ChannelParams(rho_dec=2.0)
        a = estimate(small_auth, ch, "epsilon", 2000, seed=1)
        b = estimate(small_auth, ch, "epsilon", 2000, seed=2)
        assert a.successes != b.successes


class TestEpsilonAndFalseAlarm:
    def test_epsilon_matches_composite_closed_form(self, pair_auth):
        # Antipodal base + injected noise: exact block error per message is
        # Phi(-|sum(x+t)| / sqrt(rho_D sum f^2 + n rho_dec)), and the
        # detector's false-alarm complement is chi-square exact; disjoint
        # per-level test sets make the per-level statistics independent.
        code, rho_dec, trials = pair_auth, 4.0, 10 ** 5
        sig = code.base.codewords + code.t_table
        var = (code.rho_delta
               * np.sum(code.overlay.level_matrix() ** 2, axis=1)
               + code.n * rho_dec)
        eps_base = float(np.mean(norm.cdf(-np.abs(sig.sum(axis=1))
                                          / np.sqrt(var))))
        p_fa = 1.0 - chi2.cdf(code.threshold, code.ell) ** 2
        expect = eps_base + (1.0 - eps_base) * p_fa
        rep = estimate(code, ChannelParams(rho_dec=rho_dec), "epsilon",
                       trials, seed=3)
        assert abs(rep.estimate - expect) <= 3.0 * rep.se

    def test_false_alarm_matches_detector_complement(self, pair_auth):
        code, rho_dec = pair_auth, 4.0
        rep = estimate(code, ChannelParams(rho_dec=rho_dec), "false_alarm",
                       20000, seed=3)
        p_fa = 1.0 - chi2.cdf(code.threshold, code.ell) ** 2
        assert rep.params["raw_trials"] == 20000
        assert rep.trials <= 20000  # conditioned on correct base decode
        assert abs(rep.estimate - p_fa) <= 3.0 * rep.se

    def test_epsilon_vanishes_without_noise_sources(self, small_auth):
        rep = estimate(small_auth, ChannelParams(rho_dec=1e-9), "epsilon",
                       500, seed=0)
        # residual tests still see the injected noise, so only base errors
        # vanish; detector=False isolates the decode path
        rep_nodet = estimate(small_auth, ChannelParams(rho_dec=1e-9),
                             "epsilon", 500, seed=0, detector=False)
        assert rep_nodet.successes == 0
        assert rep.successes >= rep_nodet.successes


class TestGenuineAcceptance:
    def test_complement_of_conditional_rejection(self, small_auth):
        ch = ChannelParams(rho_dec=0.1)
        rep = estimate(small_auth, ch, "genuine_acceptance", 2000, seed=11,
                       message=4)
        assert rep.params["message"] == 4
        # conditioned on correct decode, acceptance is the product of the
        # two per-level chi-square acceptances
        expect = chi2.cdf(small_auth.threshold, small_auth.ell) ** 2
        assert abs(rep.estimate - expect) <= 3.0 * rep.se


class TestFalseAuthentication:
    def test_alpha_star_below_alpha_with_shared_randomness(self, small_auth):
        # Decoding exactly the target implies accepting something != a,
        # trial by trial, so with shared streams the counts are ordered.
        ch = ChannelParams(rho_dec=0.1, rho_adv=0.05)
        pairs = [(0, 3), (2, 5), (4, 1)]
        star = estimate(small_auth, ch, "alpha_star", 300, seed=6, pairs=pairs)
        alpha = estimate(small_auth, ch, "alpha", 300, seed=6, pairs=pairs)
        per_star = {(p["transmit"], p["target"]): p["successes"]
                    for p in star.detail["per_pair"]}
        per_alpha = {(p["transmit"], p["target"]): p["successes"]
                     for p in alpha.detail["per_pair"]}
        for key in per_star:
            assert per_star[key] <= per_alpha[key]
        assert star.estimate <= alpha.estimate

    def test_two_messages_give_two_ordered_pairs(self, pair_auth):
        ch = ChannelParams(rho_dec=0.5, rho_adv=0.1)
        rep = estimate(pair_auth, ch, "alpha_star", 100, seed=1)
        assert rep.params["pairs"] == 2
        got = {(p["transmit"], p["target"]) for p in rep.detail["per_pair"]}
        assert got == {(0, 1), (1, 0)}

    def test_reported_point_is_the_pair_maximum(self, small_auth):
        ch = ChannelParams(rho_dec=0.1, rho_adv=0.2)
        rep = estimate(small_auth, ch, "alpha_star", 200, seed=2,
                       pairs=[(0, 1), (3, 5)])
        best = max(rep.detail["per_pair"], key=lambda p: p["successes"])
        assert rep.successes == best["successes"]
        assert rep.params["argmax_pair"] == [best["transmit"], best["target"]]
        assert rep.params["max_is_lower_confidence_bound"] is True

    def test_impersonation_pairs_start_at_null(self, null_auth):
        # aimed at the attack's target, like a targeted attack
        ch = ChannelParams(rho_dec=0.1, rho_adv=0.1)
        rep = estimate(null_auth, ch, "alpha_star", 100, seed=4,
                       attack=AttackSpec(kind="impersonation", target=0))
        null = null_auth.base.null_id
        assert rep.params["pairs"] == 1
        assert [(p["transmit"], p["target"])
                for p in rep.detail["per_pair"]] == [(null, 0)]
        with pytest.raises(SimulateError, match="7 is not a valid message"):
            estimate(null_auth, ch, "alpha_star", 100,
                     attack=AttackSpec(kind="impersonation", target=7))

    def test_impersonation_needs_null(self, small_auth):
        ch = ChannelParams(rho_dec=0.1, rho_adv=0.1)
        with pytest.raises(SimulateError, match="null message"):
            estimate(small_auth, ch, "alpha_star", 100,
                     attack=AttackSpec(kind="impersonation", target=0))

    def test_max_pairs_subsampling(self, small_auth):
        ch = ChannelParams(rho_dec=0.1, rho_adv=0.1)
        rep = estimate(small_auth, ch, "alpha_star", 100, seed=3, max_pairs=5)
        assert rep.params["pairs"] == 5  # 30 ordered pairs subsampled

    def test_targeted_attack_without_pairs_keeps_its_target(self, small_auth):
        ch = ChannelParams(rho_dec=0.1, rho_adv=0.1)
        every = estimate(small_auth, ch, "alpha_star", 100, seed=3,
                         attack=AttackSpec("targeted", 3))
        assert [(p["transmit"], p["target"])
                for p in every.detail["per_pair"]] == [
            (0, 3), (1, 3), (2, 3), (4, 3), (5, 3)]
        some = estimate(small_auth, ch, "alpha_star", 100, seed=3,
                        attack=AttackSpec("targeted", 3), max_pairs=2)
        assert some.params["pairs"] == 2
        assert all(p["target"] == 3 for p in some.detail["per_pair"])


class TestTrialLog:
    def test_csv_schema(self, small_auth, tmp_path):
        path = tmp_path / "log.csv"
        estimate(small_auth, ChannelParams(rho_dec=0.1), "epsilon", 150,
                 seed=2, trial_log=str(path))
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
        assert header == ["metric", "trial", "transmitted", "target",
                          "decoded", "classification"]
        assert len(rows) == 150
        assert [int(r[1]) for r in rows] == list(range(150))
        assert all(r[0] == "epsilon" and r[3] == "" for r in rows)
        assert all(r[5] in (CLASS_CORRECT, CLASS_MISS, CLASS_WRONG_MESSAGE)
                   for r in rows)

    def test_pairs_sharing_a_transmit_message_are_told_apart(self, small_auth,
                                                              tmp_path):
        path = tmp_path / "log.csv"
        estimate(small_auth, ChannelParams(rho_dec=0.1, rho_adv=0.1),
                 "alpha_star", 100, seed=2, pairs=[(0, 1), (0, 2)],
                 trial_log=str(path))
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 200
        assert {(r["transmitted"], r["target"]) for r in rows} == {
            ("0", "1"), ("0", "2")}
        assert len({(r["target"], r["trial"]) for r in rows}) == 200

    def test_one_cli_run_logs_every_metric(self, tmp_path, capsys):
        path = tmp_path / "log.csv"
        path.write_text("rows of an earlier run\n")
        main(["simulate", "base.n=60", "run.trials=200",
              'run.metrics=["epsilon","false_alarm"]',
              f"run.trial_log={path}"])
        capsys.readouterr()
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["metric"] for r in rows] == (["epsilon"] * 200
                                               + ["false_alarm"] * 200)
        assert [int(r["trial"]) for r in rows] == list(range(200)) * 2

    @pytest.mark.parametrize("fixture, metrics, kwargs", [
        ("small_auth", ["epsilon", "genuine_acceptance"], dict(message=2)),
        ("small_auth", ["alpha_star", "epsilon", "alpha"],
         dict(pairs=[(0, 1), (3, 1), (2, 5)],
              attack=AttackSpec("targeted", 1, weight_scale=0.8))),
        ("decimated_42", ["epsilon", "alpha", "alpha_star"],
         dict(max_pairs=4)),
        ("null_auth", ["alpha_star", "alpha", "epsilon"],
         dict(attack=AttackSpec("impersonation", 3))),
    ])
    def test_the_log_and_the_counts_tell_the_same_story(
            self, request, tmp_path, fixture, metrics, kwargs):
        # every report's successes are the class counts of its own rows
        path = tmp_path / "log.csv"
        reports = estimate(request.getfixturevalue(fixture),
                           ChannelParams(rho_dec=4.0, rho_adv=2.0), metrics,
                           400, seed=7, trial_log=str(path), **kwargs)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == sum(400 * r.params.get("pairs", 1)
                                for r in reports)
        classes = Counter((r["metric"], r["classification"]) for r in rows)
        of_pair = Counter((r["metric"], int(r["transmitted"]),
                           int(r["target"]), r["classification"])
                          for r in rows if r["target"])
        for report in reports:
            name = report.metric
            if name == "epsilon":
                assert report.successes == 400 - classes[name, CLASS_CORRECT]
            elif name == "genuine_acceptance":
                assert report.successes == classes[name, CLASS_CORRECT]
            else:
                wanted = ([CLASS_FALSE_AUTH_TARGET] if name == "alpha_star"
                          else [CLASS_FALSE_AUTH_TARGET,
                                CLASS_FALSE_AUTH_OTHER])
                for pair in report.detail["per_pair"]:
                    assert pair["successes"] == sum(
                        of_pair[name, pair["transmit"], pair["target"], c]
                        for c in wanted), (name, pair)
        # a noisy channel: every case reaches the classes of epsilon's run,
        # each attacked case a rejection and a target, the decimated code's
        # pairs a wrong message other than the target
        seen = {c for _, c in classes}
        assert seen >= {CLASS_CORRECT, CLASS_MISS, CLASS_WRONG_MESSAGE}
        if "alpha" in metrics:
            assert seen >= {CLASS_CORRECT_REJECT, CLASS_FALSE_AUTH_TARGET}
        assert (CLASS_FALSE_AUTH_OTHER in seen) == (fixture == "decimated_42")

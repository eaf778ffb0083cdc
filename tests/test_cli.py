import argparse
import json
import os
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awgnauth import cli, simulate
from awgnauth.adversary import AttackSpec
from awgnauth.cli import (
    SWEEP_HEADER,
    ConfigError,
    ExperimentConfig,
    apply_settings,
    build_pipeline,
    config_hash,
    main,
    parse_config,
    parse_config_text,
)
from awgnauth.overlay import LevelSet, OverlayCode, _index_from_rows
from awgnauth.overlay import to_json_dict as overlay_to_json
from awgnauth.simulate import ChannelParams, estimate


def run_cli(args, capsys):
    rc = main(args)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestConfigGrammar:
    def test_defaults(self):
        cfg = parse_config()
        assert cfg == ExperimentConfig()
        assert cfg.base_kind == "antipodal"
        assert cfg.metrics == ("epsilon",)

    def test_line_grammar(self):
        text = """
        # comment-only line
        base.kind = antipodal      # trailing comment
        overlay.gamma = 0.75

        [channel]
        rho_dec = 0.5
        rho_adv = 1.0

        run.metrics = ["epsilon", "false_alarm"]
        run.trials = 12345
        base.n = 80
        """
        flat = dict(parse_config_text(text))
        assert flat["base.kind"] == "antipodal"
        assert flat["channel.rho_dec"] == 0.5
        assert flat["channel.rho_adv"] == 1.0
        assert flat["run.metrics"] == ["epsilon", "false_alarm"]
        assert flat["run.trials"] == 12345
        cfg = apply_settings(ExperimentConfig(), list(flat.items()))
        assert cfg.rho_dec == 0.5
        assert cfg.metrics == ("epsilon", "false_alarm")
        assert cfg.n == 80

    def test_dotted_key_ignores_section(self):
        flat = parse_config_text("[channel]\nrun.trials = 200\nrho_adv = 2.0")
        assert flat == [("run.trials", 200), ("channel.rho_adv", 2.0)]

    def test_json_config(self):
        text = json.dumps({"channel": {"rho_dec": 0.25},
                           "run": {"trials": 500, "metrics": ["epsilon"]}})
        cfg = apply_settings(ExperimentConfig(), parse_config_text(text))
        assert cfg.rho_dec == 0.25
        assert cfg.trials == 500

    def test_diagnostics_carry_line_numbers(self):
        with pytest.raises(ConfigError, match=r"cfg\.ini:3: expected 'key"):
            parse_config_text("a.b = 1\n\nnot a setting\n", source="cfg.ini")
        with pytest.raises(ConfigError, match=r"cfg\.ini:1: empty key"):
            parse_config_text("= 3", source="cfg.ini")
        with pytest.raises(ConfigError, match="invalid JSON config"):
            parse_config_text("{ not json", source="cfg.ini")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config key 'base.m'"):
            apply_settings(ExperimentConfig(), [("base.m", 3)])

    def test_override_forms(self):
        cfg = parse_config(None, ["run.trials=500", "channel.rho_adv=0.5",
                                  "overlay.gamma=2/3"])
        assert cfg.trials == 500
        assert cfg.rho_adv == 0.5
        assert cfg.gamma_value() == Fraction(2, 3)

    def test_bad_override_shape(self):
        with pytest.raises(ConfigError, match="cannot parse argument 'trials'; "
                           "expected key=value or --key value"):
            parse_config(None, ["trials"])


class TestValidation:
    def test_exact_messages(self, capsys, monkeypatch):
        # every refusal exits 2 from parse_config, before any code is built
        built = []
        monkeypatch.setattr(cli, "build_pipeline", built.append)
        under_no_attack = ("epsilon is defined under no attack; an attack "
                           "or a weight_scale needs alpha_star or alpha")
        no_pairs = ("max_pairs is read only where alpha_star or alpha "
                    "enumerates the attack pairs")
        cases = {
            "overlay.levels=[0.0, 1.0]":
                "overlay.levels: levels must lie in [0,1), not 1.0",
            "overlay.levels=[]":
                "overlay.levels: at least one level below 1 is required",
            "overlay.gamma=0.5": "overlay.gamma must lie in (1/2,1), not 0.5",
            'run.metrics=["bogus"]':
                "unknown metric 'bogus'; choose from ('epsilon', "
                "'false_alarm', 'genuine_acceptance', 'alpha_star', 'alpha')",
            "run.metrics=[]": "no metric requested",
            "overlay.counts=[]": "overlay.counts must hold at least one value",
            "overlay.rates=[]": "overlay.rates must hold at least one value",
            "attack=targeted":
                "attack.spec: targeted attack needs ':<target id>'",
            "base.kind=bpsk":
                "base.kind must be one of antipodal, gaussian, not 'bpsk'",
            "base.n=1": "base.n must be an integer of at least 2, not 1",
            "auth.delta=1.5": "auth.delta must lie in (0, 1), not 1.5",
            "channel.rho_dec=0":
                "channel.rho_dec must be a positive finite number, not 0.0",
            "overlay.levels=[0.5, 0.25]":
                "overlay.levels: levels must be strictly increasing, "
                "got (0.5, 0.25)",
            "run.message=-3": "run.message must be a nonnegative integer, "
                              "not -3",
            "auth.rho_delta=Infinity":
                "auth.rho_delta must be a positive finite number, not inf",
            "channel.power_budget=NaN":
                "channel.power_budget must be a positive finite number, "
                "not nan",
            "attack.weight_scale=nan":
                "attack.weight_scale must be finite and real, not nan",
            "run.max_pairs=-1": "run.max_pairs must be a positive integer, "
                                "not -1",
            "run.max_pairs=0": "run.max_pairs must be a positive integer, "
                               "not 0",
            "base.seed=-1": "base.seed must be a nonnegative integer, not -1",
            "overlay.seed=-1":
                "overlay.seed must be a nonnegative integer, not -1",
            "auth.seed=-1": "auth.seed must be a nonnegative integer, not -1",
            "mod2.seed=-1": "mod2.seed must be a nonnegative integer, not -1",
            "run.seed=-1": "run.seed must be a nonnegative integer, not -1",
            "run.trials=-1": "run.trials must be a nonnegative integer, "
                             "not -1",
            "run.trials=50": "run.trials must be an integer of at least 100, "
                             "not 50",
            ("base.kind=gaussian", "base.messages=4", "base.n=60",
             "overlay.counts=[2,2]", "overlay.rates=[0.1,0.1]"):
                "overlay.counts and overlay.rates: give only one",
            # estimate's code-free request rules, in the library's words
            "attack=targeted:1": under_no_attack,
            "attack.weight_scale=0.5": under_no_attack,
            ("attack=impersonation:0",
             'run.metrics=["epsilon","genuine_acceptance"]', "run.message=0"):
                under_no_attack,
            'run.metrics=["genuine_acceptance"]':
                "genuine_acceptance needs a fixed message",
            "run.trial_log=.": "trial_log '.' must name a file in an "
                               "existing directory",
            "run.trial_log=no_such_directory/trials.csv":
                "trial_log 'no_such_directory/trials.csv' must name a "
                "file in an existing directory",
            'run.metrics=["alpha_star"]':
                "false-authentication metrics need rho_adv > 0",
            ("channel.rho_adv=0", 'run.metrics=["epsilon","alpha"]'):
                "false-authentication metrics need rho_adv > 0",
            # a setting that the config does not read keeps its default
            "base.messages=16":
                "base.messages is read only under base.kind=gaussian",
            "base.seed=3": "base.seed is read only under base.kind=gaussian",
            "overlay.auto_count=3":
                "overlay.auto_count is read only under overlay.levels=auto",
            "mod2.agnostic=true":
                "mod2.agnostic is read only under mod2.enabled=true",
            ("mod2.target_override=5", "mod2.seed=3"):
                "mod2.target_override is read only under mod2.enabled=true",
            "mod2.seed=3": "mod2.seed is read only under mod2.enabled=true",
            ("auth.t_zero=true", "auth.seed=5"):
                "auth.seed is read only under auth.t_zero=false",
            ("auth.t_zero=true", "auth.enforce_bounds=false"):
                "auth.enforce_bounds is read only under auth.t_zero=false",
            # run.max_pairs, where no pairs are enumerated, or one is pinned
            ("base.n=60", "run.trials=100", "run.max_pairs=5"): no_pairs,
            ("channel.rho_adv=0.1", "attack=targeted:3", "run.message=1",
             'run.metrics=["alpha_star"]', "run.max_pairs=5"): no_pairs,
            ("base.null=true", "overlay.counts=[7,1]", "channel.rho_adv=0.1",
             "attack=impersonation:0", 'run.metrics=["alpha"]',
             "run.max_pairs=5"): no_pairs,
            # impersonation transmits the null message, which the code
            # has only under base.null=true
            ("channel.rho_adv=0.1", "attack=impersonation:0",
             'run.metrics=["alpha"]'):
                "impersonation transmits the null message, which needs "
                "base.null=true",
        }
        for override, message in cases.items():
            overrides = [override] if isinstance(override, str) \
                else list(override)
            with pytest.raises(ConfigError) as info:
                parse_config(None, overrides)
            assert str(info.value) == message, override
            rc, out, err = run_cli(["construct", *overrides], capsys)
            assert (rc, out, err) == (2, "", f"error: {message}\n"), override
        assert built == []

    def test_a_message_equal_to_the_target_is_a_bad_run(self, capsys):
        # the pair (1, 1) passes the config check and fails _check_run
        rc, out, err = run_cli(["simulate", "base.n=60", "run.trials=100",
                                "channel.rho_adv=0.1", "attack=targeted:1",
                                "run.message=1", 'run.metrics=["alpha_star"]'],
                               capsys)
        assert (rc, out, err) == (2, "", "error: simulate: run (1, 1): the "
                                  "target must differ from the transmitted "
                                  "message\n")

    def test_too_few_trials_leave_the_trial_log_alone(self, tmp_path,
                                                      capsys):
        log = tmp_path / "old.csv"
        log.write_text("kept\n")
        rc, out, err = run_cli(["simulate", "base.n=60", "run.trials=50",
                                f"run.trial_log={log}"], capsys)
        assert rc == 2 and out == ""
        assert err == ("error: run.trials must be an integer of at least 100, "
                       "not 50\n")
        assert log.read_text() == "kept\n"

    @pytest.mark.parametrize("setting, message", [
        ("run.message=50", "simulate: message must hold message ids"),
        ("channel.power_budget=0.01",
         "simulate: code power 2.14146 exceeds the budget 0.01")])
    def test_an_estimate_refusal_leaves_the_trial_log_alone(
            self, tmp_path, capsys, setting, message):
        # the run's rows go to a new file, which replaces the log only
        # when every estimate succeeded
        log = tmp_path / "old.csv"
        log.write_bytes(b"kept\n")
        rc, out, err = run_cli(["simulate", "base.n=60", "run.trials=100",
                                setting, f"run.trial_log={log}"], capsys)
        assert rc == 2 and out == ""
        assert err.startswith(f"error: {message}")
        assert log.read_bytes() == b"kept\n"
        assert os.listdir(tmp_path) == ["old.csv"]

    @pytest.mark.parametrize("name", [".", "no_such_directory/trials.csv"])
    def test_a_trial_log_outside_a_directory_is_refused(
            self, tmp_path, capsys, monkeypatch, name):
        monkeypatch.chdir(tmp_path)
        rc, out, err = run_cli(["simulate", "base.n=60", "run.trials=100",
                                f"run.trial_log={name}"], capsys)
        assert rc == 2 and out == ""
        assert err == (f"error: trial_log {name!r} must name a file in "
                       "an existing directory\n")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("value", [-1, 0])
    def test_max_per_level_must_be_positive(self, value, capsys):
        rc, out, err = run_cli(["construct", "base.n=60",
                                f"overlay.max_per_level={value}"], capsys)
        assert rc == 2 and out == ""
        assert err == ("error: overlay.max_per_level must be a positive "
                       f"integer, not {value}\n")

    @pytest.mark.parametrize("raw, expected", [
        (0, False), (1, True), ("0", False), ("1", True), (True, True),
        (False, False), (2, None), (-1, None), (1.0, None), (0.0, None),
        (0.5, None)])
    def test_integer_booleans(self, raw, expected):
        settings = [("run.detector", raw), ("base.null", raw)]
        if expected is None:
            with pytest.raises(ConfigError, match="expected a boolean"):
                apply_settings(ExperimentConfig(), settings)
        else:
            cfg = apply_settings(ExperimentConfig(), settings)
            assert cfg.detector is expected and cfg.base_null is expected

    @pytest.mark.parametrize("rates", ["[Infinity,0.1]", "[0.1,NaN]"])
    def test_rates_must_be_finite(self, rates, capsys):
        rc, out, err = run_cli(["construct", "base.kind=gaussian", "base.n=60",
                                "base.messages=2", f"overlay.rates={rates}"],
                               capsys)
        assert rc == 2 and out == ""
        assert err.startswith("error: overlay.rates must be finite and real, "
                              "not ")

    def test_integer_boolean_overrides(self):
        cfg = parse_config(None, ["run.detector=0", "base.null=1"])
        assert cfg.detector is False and cfg.base_null is True

    def test_gamma_fraction_string(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            parse_config(None, ["overlay.gamma=a/b"])

    def test_config_hash_tracks_content(self):
        a = parse_config()
        b = parse_config(None, ["run.trials=55555"])
        assert config_hash(a) == config_hash(parse_config())
        assert config_hash(a) != config_hash(b)


class TestConstructVerify:
    def test_round_trip(self, tmp_path, capsys):
        code_path = tmp_path / "code.json"
        rc, _, err = run_cli(["construct", "--out", str(code_path),
                              "base.n=60"], capsys)
        assert rc == 0 and err == ""
        payload = json.loads(code_path.read_text())
        assert payload["summary"]["base"]["n"] == 60
        assert payload["overlay"]["gamma"]
        rc, out, err = run_cli(["verify", "--code", str(code_path)], capsys)
        assert rc == 0 and err == ""
        report = json.loads(out)
        assert report["passed"] is True
        assert report["violations"] == []

    def test_verify_from_config(self, capsys):
        rc, out, _ = run_cli(["verify", "base.n=60"], capsys)
        assert rc == 0
        assert json.loads(out)["passed"] is True

    def test_verify_exit_one_on_violation(self, tmp_path, capsys):
        row = (frozenset({1, 2, 3, 4}),)
        broken = OverlayCode(8, LevelSet((0.0,)), Fraction(3, 4),
                             _index_from_rows(8, 1, (row, row)))
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"overlay": overlay_to_json(broken)}))
        rc, out, _ = run_cli(["verify", "--code", str(path)], capsys)
        assert rc == 1
        report = json.loads(out)
        assert report["passed"] is False
        assert any("no witness level" in v for v in report["violations"])

    @pytest.mark.parametrize("edit, message", [
        (lambda blob: {k: v for k, v in blob.items() if k != "levels"},
         "lacks the key 'levels'"),
        (lambda blob: {**blob, "levels": [0.0, 0.5]}, "lacks the key '0.5'"),
        (lambda blob: [blob], "malformed overlay JSON"),
        (lambda blob: {**blob, "radices": [2.5]}, "radix must be a positive"),
        (lambda blob: {**blob, "n": 8.5}, "n must be a positive integer"),
        (lambda blob: {**blob, "gamma": 1.0, "gamma_exact": "1/1",
                       "messages": blob["messages"] * 6},
         "gamma must lie in (1/2,1), not Fraction(1, 1)"),
        (lambda blob: {**blob, "gamma": 0.8},
         "gamma 0.8 disagrees with gamma_exact 3/4"),
    ], ids=["no-levels", "coords-not-at-levels", "top-level-list",
            "float-radix", "float-n", "gamma-one", "gamma-disagrees"])
    def test_verify_exit_two_on_malformed_code(self, tmp_path, capsys, edit,
                                               message):
        # missing levels, level_coords keys that do not match the levels,
        # a top-level list, a non-integer radix or n: each a domain error
        # (exit 2), not a traceback
        row = (frozenset({1, 2, 3, 4}),)
        blob = overlay_to_json(OverlayCode(
            8, LevelSet((0.0,)), Fraction(3, 4),
            _index_from_rows(8, 1, (row,))))
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(edit(blob)))
        rc, out, err = run_cli(["verify", "--code", str(path)], capsys)
        assert rc == 2 and out == ""
        assert err.startswith("error: overlay: ") and message in err

    def test_mismatched_message_count(self, capsys):
        rc, _, err = run_cli(["construct", "base.n=60",
                              "overlay.counts=[4,1]"], capsys)
        assert rc == 2
        assert err.startswith("error: overlay:")
        assert "does not match the base code's" in err


class TestBoundsCommand:
    def test_report_without_estimates(self, capsys):
        rc, out, _ = run_cli(["bounds", "base.n=60", "channel.rho_adv=0.1"],
                             capsys)
        assert rc == 0
        report = json.loads(out)
        assert report["estimates"] == []
        assert report["pass"] is True
        assert "targeted_false_auth_bound" in report["bounds"]
        assert report["bounds"]["ell"] == 20  # 60 // |{0, 1/2, 1}|
        assert report["config_hash"]
        assert report["schema_version"] == 1

    def test_auto_levels_come_from_optimal_levels(self, capsys):
        rc, out, _ = run_cli(["bounds", "overlay.levels=auto"], capsys)
        assert rc == 0
        report = json.loads(out)
        assert report["config"]["overlay"]["levels"] == "auto"
        assert report["code"]["overlay"]["levels"] == [0.0, 0.1]

    def test_auto_levels_outside_the_unit_interval_exit_two(self, capsys):
        rc, out, err = run_cli(["bounds", "overlay.levels=auto",
                                "channel.rho_dec=2"], capsys)
        assert rc == 2 and out == ""
        assert err.startswith("error: overlay: optimal levels fall outside "
                              "[0,1)")


class TestSimulateCommand:
    def test_exit_zero_when_dominated(self, capsys):
        rc, out, _ = run_cli(["simulate", "base.n=60", "run.trials=150",
                              "run.seed=3"], capsys)
        assert rc == 0
        report = json.loads(out)
        assert report["pass"] is True
        (row,) = report["estimates"]
        assert row["metric"] == "epsilon"
        assert row["dominated"] is True
        assert row["bound"] > row["estimate"]

    VIOLATING = ["base.n=2000", "overlay.levels=[0.0]", "auth.delta=0.01",
                 "channel.rho_dec=0.1", "channel.rho_adv=0.1",
                 "attack=targeted:1", "run.message=0", "run.detector=false",
                 'run.metrics=["alpha_star"]', "run.trials=150", "run.seed=1"]

    def test_exit_one_when_bound_violated(self, capsys):
        # with the residual detector disabled, the cancel-and-shift attack
        # always lands on the target, far above the closed-form guarantee
        rc, out, _ = run_cli(["simulate", *self.VIOLATING], capsys)
        assert rc == 1
        report = json.loads(out)
        assert report["pass"] is False
        (row,) = report["estimates"]
        assert row["dominated"] is False
        assert row["estimate"] > row["bound"]
        assert row["bound"] < 1.0

    GAUSS = ["base.kind=gaussian", "base.n=60", "base.messages=6",
             "overlay.counts=[3,2]", "channel.rho_adv=0.1", "run.trials=100",
             'run.metrics=["epsilon","alpha_star","alpha"]']
    NULL = ["base.null=true", "overlay.counts=[7,1]"]   # message 6 is null

    @pytest.mark.parametrize("settings, kwargs, pairs", [
        # every ordered pair, subsampled to max_pairs
        (["run.max_pairs=4"], dict(max_pairs=4), 4),
        # a message transmits in every run, the enumerated pairs' too
        (["run.message=2"], dict(message=2),
         [(2, 0), (2, 1), (2, 3), (2, 4), (2, 5)]),
        (["attack=targeted:3", "run.message=1"],
         dict(attack=AttackSpec("targeted", 3), message=1), [(1, 3)]),
        (["attack=targeted:3"], dict(attack=AttackSpec("targeted", 3)),
         [(0, 3), (1, 3), (2, 3), (4, 3), (5, 3)]),
        ([*NULL, "attack=impersonation:0"],
         dict(attack=AttackSpec("impersonation", 0)), [(6, 0)]),
        ([*NULL, "attack=impersonation:0", "run.message=6"],
         dict(attack=AttackSpec("impersonation", 0), message=6), [(6, 0)]),
        (["attack.weight_scale=0.5", "run.max_pairs=4"],
         dict(attack=AttackSpec("none", weight_scale=0.5), max_pairs=4), 4),
        (["attack=targeted:3", "attack.weight_scale=0.5", "run.message=1"],
         dict(attack=AttackSpec("targeted", 3, weight_scale=0.5), message=1),
         [(1, 3)]),
    ], ids=["none", "none-message", "targeted-message", "targeted",
            "impersonation", "impersonation-message", "scaled",
            "targeted-scaled"])
    def test_estimates_equal_the_library_call(self, capsys, settings, kwargs,
                                              pairs):
        # the run settings reach estimate unchanged: the report's rows are
        # the library's reports with the same message, attack and metrics
        args = [*self.GAUSS, *settings]
        rc, out, _ = run_cli(["simulate", *args], capsys)
        assert rc in (0, 1)
        rows = [{k: v for k, v in row.items()
                 if k not in ("bound", "bound_label", "dominated")}
                for row in json.loads(out)["estimates"]]
        reports = estimate(build_pipeline(parse_config(None, args)),
                           ChannelParams(rho_dec=0.1, rho_adv=0.1),
                           ["epsilon", "alpha_star", "alpha"], 100, **kwargs)
        assert rows == [cli._sanitize(r.to_json_dict()) for r in reports]
        run = [(p["transmit"], p["target"])
               for p in reports[1].detail["per_pair"]]
        assert run == pairs if isinstance(pairs, list) else len(run) == pairs

    def test_byte_identical_reruns(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            rc, _, _ = run_cli(["simulate", "base.n=60", "run.trials=150",
                                "run.seed=3", "--out", str(p)], capsys)
            assert rc == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_one_estimate_call_per_report(self, capsys, monkeypatch):
        calls = []
        estimate = cli.estimate

        def counting(*args, **kwargs):
            calls.append(args[2])
            return estimate(*args, **kwargs)

        monkeypatch.setattr(cli, "estimate", counting)
        rc, out, _ = run_cli(["simulate", "base.n=60", "run.trials=150",
                              'run.metrics=["epsilon","false_alarm"]'], capsys)
        assert rc == 0
        assert calls == [["epsilon", "false_alarm"]]
        assert [row["metric"] for row in json.loads(out)["estimates"]] == [
            "epsilon", "false_alarm"]


class TestSweepCommand:
    def test_csv_schema(self, capsys):
        rc, out, _ = run_cli(["sweep", "--axis", "channel.rho_adv",
                              "--values", "0.0,0.1", "base.n=60",
                              "run.trials=150"], capsys)
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == ",".join(SWEEP_HEADER)
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "0.0" and first[1] == "epsilon"
        assert first[6] in ("true", "false")

    def test_empty_values_gives_header_only(self, capsys):
        rc, out, _ = run_cli(["sweep", "--axis", "base.n", "--values", "",
                              "base.n=60"], capsys)
        assert rc == 0
        assert out == ",".join(SWEEP_HEADER) + "\n"

    def test_unsweepable_axis(self, capsys):
        rc, _, err = run_cli(["sweep", "--axis", "run.seed", "--values", "1",
                              "base.n=60"], capsys)
        assert rc == 2
        assert "not sweepable" in err

    def test_trial_log_is_refused_before_any_point(self, tmp_path, capsys,
                                                  monkeypatch):
        def no_point(*args, **kwargs):
            raise AssertionError("a sweep point ran")

        monkeypatch.setattr(cli, "make_report", no_point)
        monkeypatch.setattr(cli, "estimate_points", no_point)
        log = tmp_path / "trials.csv"
        rc, out, err = run_cli(["sweep", "--axis", "channel.rho_adv",
                                "--values", "0.0,0.1", "base.n=60",
                                "run.trials=100", f"run.trial_log={log}"],
                               capsys)
        assert rc == 2 and out == ""
        assert err.startswith("error: run.trial_log is not supported by sweep")
        assert not log.exists()

    def test_every_point_is_checked_before_any_runs(self, capsys,
                                                    monkeypatch):
        def no_point(*args, **kwargs):
            raise AssertionError("a sweep point ran")

        monkeypatch.setattr(cli, "make_report", no_point)
        monkeypatch.setattr(cli, "estimate_points", no_point)
        rc, out, err = run_cli(["sweep", "--axis", "channel.rho_adv",
                                "--values", "0.1,-1", "base.n=60",
                                "run.trials=100"], capsys)
        assert rc == 2 and out == ""
        assert err == ("error: channel.rho_adv must be a nonnegative finite "
                       "number, not -1.0\n")

    @pytest.mark.parametrize("values, args, message", [
        # the base config's rho_adv = 0 is the axis's, which every point
        # replaces; the point at 0 is refused before any code is built
        ("0,0.1", ['run.metrics=["alpha_star"]'],
         "false-authentication metrics need rho_adv > 0"),
        # without points the base config itself is checked
        ("", ["run.trials=50"],
         "run.trials must be an integer of at least 100, not 50"),
    ])
    def test_points_are_checked_with_their_axis_value(self, capsys,
                                                      monkeypatch, values,
                                                      args, message):
        built = []
        monkeypatch.setattr(cli, "build_pipeline", built.append)
        rc, out, err = run_cli(["sweep", "--axis", "channel.rho_adv",
                                "--values", values, "base.n=60", *args],
                               capsys)
        assert (rc, out, err) == (2, "", f"error: {message}\n")
        assert built == []

    def test_every_point_is_built_before_any_runs(self, capsys, monkeypatch):
        # n = 2 passes the config check but not the overlay construction
        def no_point(*args, **kwargs):
            raise AssertionError("a sweep point ran")

        monkeypatch.setattr(cli, "make_report", no_point)
        monkeypatch.setattr(cli, "estimate_points", no_point)
        rc, out, err = run_cli(["sweep", "--axis", "base.n", "--values",
                                "64,2", "run.trials=20000"], capsys)
        assert rc == 2 and out == ""
        assert err == ("error: overlay: n must be an integer of at least 3, "
                       "not 2\n")

    MOD2 = ["base.kind=gaussian", "base.messages=6", "overlay.counts=[3,2]",
            "mod2.enabled=true", "mod2.target_override=4"]

    def test_each_point_is_built_once(self, capsys, monkeypatch):
        calls = []
        for name in ("build_pipeline", "make_report"):
            def counting(*args, _fn=getattr(cli, name), _name=name, **kw):
                calls.append(_name)
                return _fn(*args, **kw)
            monkeypatch.setattr(cli, name, counting)
        for axis, values, args, builds in [
            # the channel's adversary and the attack's weight build no code
            ("channel.rho_adv", "0.0,0.1,0.2", [], 1),
            ("attack.weight_scale", "0.5,1.0,2.0",
             ["channel.rho_adv=0.1", 'run.metrics=["alpha_star"]'], 1),
            ("base.n", "60,64,68", [], 3),
            # decimation reads rho_adv unless it is adversary-agnostic
            ("channel.rho_adv", "0.05,0.1,0.2", self.MOD2, 3),
            ("channel.rho_adv", "0.05,0.1,0.2",
             [*self.MOD2, "mod2.agnostic=true"], 1),
        ]:
            calls.clear()
            assert run_cli(["sweep", "--axis", axis, "--values", values,
                            "base.n=60", *args, "run.trials=100"],
                           capsys)[0] == 0
            assert calls == ["build_pipeline"] * builds + ["make_report"] * 3
        calls.clear()
        assert run_cli(["simulate", "base.n=60", "run.trials=100"],
                       capsys)[0] == 0
        assert calls == ["build_pipeline", "make_report"]

    @pytest.mark.parametrize("axis, values, args", [
        ("channel.rho_adv", "0.05,0.1,0.2", []),
        ("attack.weight_scale", "0.5,1.0,2.0", ["channel.rho_adv=0.1"]),
    ])
    def test_points_of_one_code_draw_once(self, capsys, monkeypatch, axis,
                                          values, args):
        # three points of one code draw the streams of one simulate run
        drawn = []

        def counting(*args, **kwargs):
            drawn.append(args[1:3])
            return normals(*args, **kwargs)

        normals = simulate.normals
        monkeypatch.setattr(simulate, "normals", counting)
        args = ["base.n=60", "run.trials=300", *args,
                'run.metrics=["epsilon","alpha_star"]']
        assert run_cli(["simulate", *args, f"{axis}={values.split(',')[0]}"],
                       capsys)[0] == 0
        once, drawn[:] = sorted(drawn), []
        assert run_cli(["sweep", "--axis", axis, "--values", values, *args],
                       capsys)[0] == 0
        assert sorted(drawn) == once and len(once) > 0

    def test_a_run_that_every_point_shares_runs_once(self, capsys,
                                                     monkeypatch):
        # epsilon's genuine run reads no rho_adv: three rho_adv points
        # simulate it once, beside each point's own attack pairs
        passes, counting = [], simulate._run_counting

        def spy(code, seed, trials, runs, **kwargs):
            passes.append(runs)
            return counting(code, seed, trials, runs, **kwargs)

        monkeypatch.setattr(simulate, "_run_counting", spy)
        assert run_cli(["sweep", "--axis", "channel.rho_adv", "--values",
                        "0.05,0.1,0.2", "base.n=60", "run.trials=100",
                        "run.max_pairs=2",
                        'run.metrics=["epsilon","alpha_star"]'],
                       capsys)[0] == 0
        [runs] = passes
        assert [run.spec.kind for run in runs] == ["none"] + ["targeted"] * 6
        assert len({run.channel for run in runs}) == 4

    def sweep_and_points(self, axis, values, args, capsys):
        """The sweep's CSV lines, and the lines that one-point ``simulate``
        runs of its values give."""
        rc, out, _ = run_cli(["sweep", "--axis", axis, "--values",
                              ",".join(values), *args], capsys)
        assert rc == 0
        expected = [",".join(SWEEP_HEADER)]
        for value in values:
            _, report, _ = run_cli(["simulate", *args, f"{axis}={value}"],
                                   capsys)
            for row in json.loads(report)["estimates"]:
                bound = row.get("bound")
                expected.append(",".join([
                    value, row["metric"],
                    *(f"{row[k]:.10g}" for k in ("estimate", "ci_lo",
                                                 "ci_hi")),
                    "" if bound is None else f"{bound:.10g}",
                    str(row.get("dominated", "")).lower()]))
        return out.splitlines(), expected

    def test_rows_match_one_point_simulate_runs(self, capsys):
        for axis, values, args in [
            ("channel.rho_adv", ("0.05", "0.2"), []),
            ("channel.rho_adv", ("0.05", "0.2"), self.MOD2),
            ("channel.rho_adv", ("0.05", "0.2"),
             [*self.MOD2, "mod2.agnostic=true"]),
            ("attack.weight_scale", ("0.5", "2.0"),
             [*self.MOD2, "channel.rho_adv=0.1"]),
            ("attack.weight_scale", ("0.5", "2.0"),
             [*self.MOD2, "mod2.agnostic=true", "channel.rho_adv=0.1"]),
        ]:
            args = ["base.n=60", "attack=targeted:1", "run.trials=150", *args,
                    'run.metrics=["epsilon","false_alarm","alpha_star",'
                    '"alpha"]']
            rows, expected = self.sweep_and_points(axis, values, args, capsys)
            assert rows == expected, (axis, args)

    def test_weight_scale_applies_without_an_attack_spec(self, capsys):
        # attack.spec is left at none: alpha_star still runs the MMSE
        # attack over its pairs, and the weight scale reaches it
        args = ["base.n=60", "channel.rho_adv=0.1", "run.trials=200",
                'run.metrics=["alpha_star"]']
        rows, expected = self.sweep_and_points(
            "attack.weight_scale", ("0.0", "2.0"), args, capsys)
        assert rows == expected
        assert rows[1].split(",")[2] != rows[2].split(",")[2]

    def test_exit_one_when_any_point_violates(self, capsys):
        rc, out, _ = run_cli(["sweep", "--axis", "channel.rho_adv",
                              "--values", "0.1",
                              *TestSimulateCommand.VIOLATING[:1],
                              *TestSimulateCommand.VIOLATING[1:]], capsys)
        assert rc == 1
        assert out.strip().splitlines()[1].endswith("false")


class TestOutputHandling:
    def test_output_dir_env(self, tmp_path, capsys, monkeypatch):
        outdir = tmp_path / "reports"
        monkeypatch.setenv("AWGNAUTH_OUTPUT_DIR", str(outdir))
        rc, _, _ = run_cli(["bounds", "base.n=60", "--out", "rep.json"],
                           capsys)
        assert rc == 0
        assert (outdir / "rep.json").exists()
        absolute = tmp_path / "abs.json"
        rc, _, _ = run_cli(["bounds", "base.n=60", "--out", str(absolute)],
                           capsys)
        assert rc == 0
        assert absolute.exists()

    def test_errors_go_to_stderr_with_code_two(self, tmp_path, capsys):
        rc, out, err = run_cli(["bounds", "--config",
                                str(tmp_path / "missing.ini")], capsys)
        assert rc == 2 and out == ""
        assert err.startswith("error: cannot read config")
        rc, _, err = run_cli(["bounds", "no_such_key=1"], capsys)
        assert rc == 2
        assert err.startswith("error: unknown config key")
        rc, _, err = run_cli(["bounds", "stray"], capsys)
        assert rc == 2
        assert "cannot parse argument 'stray'" in err

    def test_flag_style_overrides(self, capsys):
        rc, out, _ = run_cli(["bounds", "--base.n", "60",
                              "--channel.rho_adv=0.2"], capsys)
        assert rc == 0
        report = json.loads(out)
        assert report["config"]["base"]["n"] == 60
        assert report["config"]["channel"]["rho_adv"] == 0.2
        rc, _, err = run_cli(["bounds", "--base.n"], capsys)
        assert rc == 2
        assert "missing a value" in err


class TestFlagSurface:
    def test_subcommand_flags_are_not_settings(self):
        parser = cli.build_parser()
        commands = next(a for a in parser._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        flags = {opt for p in commands.values() for a in p._actions
                 for opt in a.option_strings} - {"-h", "--help"}
        assert flags == {"--config", "--code", "--axis", "--values"}
        assert not {f[2:] for f in flags} & set(cli._SETTINGS)

    def test_out_overrides_the_config_file(self, tmp_path, capsys):
        config = tmp_path / "exp.ini"
        config.write_text(f"base.n = 60\nrun.out = {tmp_path / 'file.json'}\n")
        flag = tmp_path / "flag.json"
        rc, out, _ = run_cli(["bounds", "--config", str(config),
                              "--out", str(flag)], capsys)
        assert rc == 0 and out == ""
        assert flag.exists() and not (tmp_path / "file.json").exists()

    @pytest.mark.parametrize("args, trials", [
        (["--run.trials", "500", "run.trials=100"], 100),
        (["run.trials=100", "--run.trials", "500"], 500),
        (["run.trials=100", "trials=200", "--run.trials=300"], 300),
        (["trials=200", "run.trials=100", "trials=300"], 300),
    ])
    def test_settings_apply_left_to_right(self, args, trials, capsys):
        rc, out, _ = run_cli(["bounds", "base.n=60", *args], capsys)
        assert rc == 0
        assert json.loads(out)["config"]["run"]["trials"] == trials


# aliased fields, their spellings and values that parse back to themselves
ALIASED = {"trials": (("trials", "run.trials"),
                      st.just(0) | st.integers(100, 10**6)),
           "n": (("n", "base.n"), st.integers(2, 10**4)),
           "out": (("out", "run.out"),
                   st.from_regex(r"[a-z]{1,6}\.json", fullmatch=True))}
ARGUMENT_FORMS = (lambda key, value: [f"{key}={value}"],
                  lambda key, value: [f"--{key}", f"{value}"],
                  lambda key, value: [f"--{key}={value}"])


@st.composite
def setting_sequences(draw):
    """Settings of the aliased fields, a split point between a config file
    and the command line, and a form for each command-line setting."""
    sequence = draw(st.lists(st.sampled_from(sorted(ALIASED)).flatmap(
        lambda name: st.tuples(st.just(name),
                               st.sampled_from(ALIASED[name][0]),
                               ALIASED[name][1])), min_size=1, max_size=8))
    split = draw(st.integers(0, len(sequence)))
    forms = draw(st.lists(st.sampled_from(ARGUMENT_FORMS),
                          min_size=len(sequence), max_size=len(sequence)))
    return sequence, split, forms


class TestSettingsOrder:
    @settings(max_examples=100, deadline=None)
    @given(setting_sequences())
    def test_last_setting_wins_across_file_and_arguments(self, case):
        sequence, split, forms = case
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "exp.ini")
            with open(path, "w") as fh:
                fh.writelines(f"{key} = {value}\n"
                              for _, key, value in sequence[:split])
            args = [token for (_, key, value), form
                    in zip(sequence[split:], forms)
                    for token in form(key, value)]
            cfg = parse_config(path, args)
        expected = {name: getattr(ExperimentConfig(), name)
                    for name in ALIASED}
        expected.update({name: value for name, _, value in sequence})
        assert {name: getattr(cfg, name) for name in ALIASED} == expected

    def test_config_file_last_line_wins(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("trials = 100\nrun.trials = 200\ntrials = 300\n")
        assert parse_config(str(path)).trials == 300

    def test_json_config_last_setting_wins(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text('{"trials": 100, "run": {"trials": 200}, '
                        '"trials": 300}')
        assert parse_config(str(path)).trials == 300

    def test_malformed_setting_fails_even_when_replaced(self, tmp_path,
                                                        capsys):
        path = tmp_path / "exp.ini"
        path.write_text("trials = abc\ntrials = 5\n")
        rc, out, err = run_cli(["bounds", "--config", str(path),
                                "base.n=60"], capsys)
        assert rc == 2 and out == ""
        assert err == "error: trials: expected an integer, got 'abc'\n"

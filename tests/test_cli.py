import argparse
import json
import os
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awgnauth import cli
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
    def test_exact_messages(self):
        cases = {
            "overlay.levels=[0.0, 1.0]": r"levels must lie in \[0,1\), got 1.0",
            "overlay.gamma=0.5": "must lie strictly between 1/2 and 1",
            'run.metrics=["bogus"]': "unknown metric 'bogus'",
            "attack=targeted": "needs ':<target id>'",
            "base.n=1": "base.n must be at least 2",
            "auth.delta=1.5": r"auth.delta must lie in \(0,1\)",
            "channel.rho_dec=0": "rho_dec must be positive",
            "overlay.levels=[0.5, 0.25]": "strictly increasing",
            "run.message=-3": "run.message must be nonnegative",
            "auth.rho_delta=Infinity": "auth.rho_delta must be positive",
            "channel.power_budget=NaN": "channel.power_budget must be positive",
            "attack.weight_scale=nan": "attack.weight_scale must be finite",
            "run.max_pairs=-1": "run.max_pairs must be positive",
            "run.max_pairs=0": "run.max_pairs must be positive",
            "base.seed=-1": "base.seed must be nonnegative",
            "overlay.seed=-1": "overlay.seed must be nonnegative",
            "auth.seed=-1": "auth.seed must be nonnegative",
            "mod2.seed=-1": "mod2.seed must be nonnegative",
            "run.seed=-1": "run.seed must be nonnegative",
        }
        for override, message in cases.items():
            with pytest.raises(ConfigError, match=message):
                parse_config(None, [override])

    @pytest.mark.parametrize("value", [-1, 0])
    def test_max_per_level_must_be_positive(self, value, capsys):
        rc, out, err = run_cli(["construct", "base.n=60",
                                f"overlay.max_per_level={value}"], capsys)
        assert rc == 2 and out == ""
        assert err == ("error: overlay.max_per_level must be positive, "
                       f"got {value}\n")

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
        assert err.startswith("error: overlay.rates must be finite, got (")

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

    def test_targeted_attack_without_message_keeps_its_target(self, capsys):
        rc, out, _ = run_cli(["simulate", "base.kind=gaussian", "base.n=60",
                              "base.messages=6", "overlay.counts=[3,2]",
                              "channel.rho_adv=0.1", "attack=targeted:3",
                              'run.metrics=["alpha_star"]', "run.trials=100"],
                             capsys)
        (row,) = json.loads(out)["estimates"]
        assert [(p["transmit"], p["target"])
                for p in row["detail"]["per_pair"]] == [
            (0, 3), (1, 3), (2, 3), (4, 3), (5, 3)]

    def test_impersonation_matches_the_library(self, capsys):
        args = ["base.kind=gaussian", "base.n=60", "base.messages=6",
                "base.null=true", "overlay.counts=[7,1]",
                "channel.rho_adv=0.1", "attack=impersonation:0",
                'run.metrics=["alpha_star"]', "run.trials=100"]
        rc, out, _ = run_cli(["simulate", *args], capsys)
        (row,) = json.loads(out)["estimates"]
        cfg = parse_config(None, args)
        report = estimate(build_pipeline(cfg),
                          ChannelParams(cfg.rho_dec, cfg.rho_adv),
                          "alpha_star", cfg.trials, cfg.seed,
                          attack=AttackSpec.parse(cfg.attack))
        assert row["detail"]["per_pair"] == report.detail["per_pair"]
        assert [(p["transmit"], p["target"])
                for p in report.detail["per_pair"]] == [(6, 0)]

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
        rc, out, err = run_cli(["sweep", "--axis", "channel.rho_adv",
                                "--values", "0.1,-1", "base.n=60",
                                "run.trials=100"], capsys)
        assert rc == 2 and out == ""
        assert err == ("error: channel.rho_adv must be nonnegative and "
                       "finite, got -1.0\n")

    def test_every_point_is_built_before_any_runs(self, capsys, monkeypatch):
        # n = 2 passes the config check but not the overlay construction
        def no_point(*args, **kwargs):
            raise AssertionError("a sweep point ran")

        monkeypatch.setattr(cli, "make_report", no_point)
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
            ("attack.weight_scale", "0.5,1.0,2.0", ["channel.rho_adv=0.1"], 1),
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
        (["run.trials=1", "trials=2", "--run.trials=3"], 3),
        (["trials=2", "run.trials=1", "trials=3"], 3),
    ])
    def test_settings_apply_left_to_right(self, args, trials, capsys):
        rc, out, _ = run_cli(["bounds", "base.n=60", *args], capsys)
        assert rc == 0
        assert json.loads(out)["config"]["run"]["trials"] == trials


# aliased fields, their spellings and values that parse back to themselves
ALIASED = {"trials": (("trials", "run.trials"), st.integers(0, 10**6)),
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
        path.write_text("trials = 1\nrun.trials = 2\ntrials = 3\n")
        assert parse_config(str(path)).trials == 3

    def test_json_config_last_setting_wins(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text('{"trials": 1, "run": {"trials": 2}, "trials": 3}')
        assert parse_config(str(path)).trials == 3

    def test_malformed_setting_fails_even_when_replaced(self, tmp_path,
                                                        capsys):
        path = tmp_path / "exp.ini"
        path.write_text("trials = abc\ntrials = 5\n")
        rc, out, err = run_cli(["bounds", "--config", str(path),
                                "base.n=60"], capsys)
        assert rc == 2 and out == ""
        assert err == "error: trials: expected an integer, got 'abc'\n"

"""The experiment config schema declared on ``ExperimentConfig`` fields."""

import json
from dataclasses import fields

import pytest

from awgnauth.cli import (
    SWEEPABLE,
    ConfigError,
    ExperimentConfig,
    apply_settings,
    config_hash,
    parse_config,
    parse_config_text,
)
from awgnauth.streams import _DOMAINS

SETTINGS = fields(ExperimentConfig)


def test_every_field_has_a_dotted_key():
    for f in SETTINGS:
        section, dot, name = f.metadata.get("key", "").partition(".")
        assert section and dot and name, f.name


def test_keys_and_aliases_are_unique():
    names = [k for f in SETTINGS
             for k in (f.metadata["key"], *f.metadata["aliases"])]
    assert len(names) == len(set(names)) == 47
    assert sum(1 for f in SETTINGS for _ in f.metadata["aliases"]) == 11


def test_numeric_domains_are_streams_domains():
    # a real's domain is a streams.check_reals domain name and an
    # integer's its minimum, so no numeric range is stated in cli.py
    for f in SETTINGS:
        domain = f.metadata["domain"]
        assert not callable(domain), f.name
        if "float" in f.type:
            assert domain in _DOMAINS, f.name
        elif "int" in f.type:
            assert type(domain) is int, f.name


# the settings read only under another setting's value, a value each
# may take there, and the (setting, value) it is read under
CONDITIONAL = {
    "base.messages": (16, ("base.kind", "gaussian")),
    "base.seed": (3, ("base.kind", "gaussian")),
    "overlay.auto_count": (3, ("overlay.levels", "auto")),
    "auth.enforce_bounds": (False, ("auth.t_zero", False)),
    "auth.seed": (5, ("auth.t_zero", False)),
    "mod2.agnostic": (True, ("mod2.enabled", True)),
    "mod2.target_override": (5, ("mod2.enabled", True)),
    "mod2.seed": (3, ("mod2.enabled", True)),
}
# every other setting: read by every config (run.out and run.trial_log
# name where output goes), but run.max_pairs, which validate_config
# refuses by its own rule where no attack pairs are enumerated
ALWAYS_READ = {
    "base.kind", "base.n", "base.omega", "base.null", "overlay.levels",
    "overlay.gamma", "overlay.counts", "overlay.rates",
    "overlay.max_per_level", "overlay.seed", "auth.rho_delta", "auth.delta",
    "auth.t_zero", "mod2.enabled", "channel.rho_dec", "channel.rho_adv",
    "channel.power_budget", "attack.spec", "attack.weight_scale",
    "run.metrics", "run.trials", "run.seed", "run.threads", "run.max_pairs",
    "run.message", "run.detector", "run.out", "run.trial_log"}


def test_every_setting_is_always_read_or_declares_when():
    # a new setting must be classified here
    rules = {f.metadata["key"]: f.metadata["read_when"] for f in SETTINGS}
    assert {key for key, rule in rules.items() if rule is None} == ALWAYS_READ
    assert {key: rule for key, rule in rules.items() if rule} == {
        key: rule for key, (_, rule) in CONDITIONAL.items()}


@pytest.mark.parametrize("key", sorted(CONDITIONAL))
def test_a_setting_is_refused_only_where_it_is_not_read(key):
    value, (when, needed) = CONDITIONAL[key]
    default = {f.metadata["key"]: f.default for f in SETTINGS}

    def setting(k, v):
        return f"{k}={str(v).lower()}"

    # a boolean condition that holds by default is turned off
    off = [setting(when, not needed)] if default[when] == needed else []
    with pytest.raises(ConfigError, match=f"^{key} is read only under "
                       f"{setting(when, needed)}$"):
        parse_config(None, [*off, setting(key, value)])
    parse_config(None, [*off, setting(key, default[key])])   # the default
    cfg = parse_config(None, [setting(when, needed), setting(key, value)])
    section, name = key.split(".")
    assert cfg.canonical()[section][name] == value


def test_sweep_axes():
    assert SWEEPABLE == ("base.n", "auth.rho_delta", "auth.delta",
                         "channel.rho_adv", "attack.weight_scale")


@pytest.mark.parametrize("overrides", [
    [],
    ["base.kind=gaussian", "base.messages=8", "overlay.gamma=2/3",
     "overlay.levels=[0.0, 0.25, 0.5]", "overlay.counts=[2,2,2]",
     "mod2.enabled=true", "mod2.target_override=4",
     "channel.power_budget=4.5", "attack=targeted:1",
     "run.metrics=alpha_star,epsilon", "run.message=3",
     "run.detector=false"],
])
def test_canonical_form_round_trips(overrides):
    cfg = parse_config(None, overrides)
    flat = parse_config_text(json.dumps(cfg.canonical()))
    assert apply_settings(ExperimentConfig(), flat) == cfg


def test_default_hash_is_unchanged():
    assert config_hash(parse_config()) == (
        "1c839a01b014450514f6442454fd8b30554043cb8ab6d98b73fcea1ad702a533")


def test_output_paths_are_not_hashed():
    cfg = parse_config(None, ["run.out=report.json", "run.trial_log=t.csv"])
    assert config_hash(cfg) == config_hash(parse_config())
    assert "out" not in cfg.canonical()["run"]


@pytest.mark.parametrize("key", ["base.omega", "auth.rho_delta", "auth.delta",
                                 "channel.rho_dec", "channel.rho_adv",
                                 "channel.power_budget"])
def test_nan_fails_every_float_domain(key):
    with pytest.raises(ConfigError, match=f"{key} must"):
        parse_config(None, [f"{key}=NaN"])

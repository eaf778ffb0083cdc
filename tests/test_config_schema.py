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

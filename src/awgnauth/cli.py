"""Batch experiment runner.

Subcommands: ``construct``, ``verify``, ``bounds``, ``simulate``,
``sweep``.  Every run is configured by dotted ``key = value`` settings,
taken from a config file and then from the command line (``key=value``,
``--key value`` or ``--key=value``; ``--out FILE`` is ``run.out``), and
applied in the order written: the last setting of a field wins, whatever
its spelling, and a malformed setting exits 2 even when a later one
replaces it.  Each field declares its setting's domain in ``streams``'
terms, so a bad value exits 2 in the library's words under its key
(``channel.rho_adv must be a nonnegative finite number, not -1.0``)
before any code is built.  ``sweep`` checks every point and builds its
code before it runs any; points with one ``code_key`` share one code, and
run in one ``estimate_points`` pass.

Config grammar (line oriented; ``#`` starts a comment)::

    # full dotted keys anywhere
    base.kind = antipodal
    overlay.gamma = 0.75

    [channel]          # a section header prefixes the keys below
    rho_dec = 0.1
    rho_adv = 1.0

    run.metrics = ["epsilon", "alpha_star"]   # values parse as JSON
    run.trials = 100000                       # bare words stay strings

A file whose first non-blank character is ``{`` is parsed as a JSON
object of (possibly nested) sections instead.

Reports are JSON with sorted keys and no timestamps, so the same config
and master seed reproduce byte-identical output.  ``simulate`` exits 0
iff every estimate with a paired bound is dominated by it (bound plus
three standard errors); usage and validation problems exit 2.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import math
import os
import subprocess
import sys
import uuid
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from typing import Any, Iterator, Sequence

import numpy as np

from . import basecode as basecode_mod
from . import bounds as bounds_mod
from .adversary import AttackSpec
from .authcode import AuthCode, decimate, inject_noise
from .basecode import BaseCode, antipodal_error_probability, make_antipodal_code
from .overlay import (LevelSet, OverlayCode, construct_overlay, verify_overlay)
from .overlay import to_json_dict as overlay_to_json
from .overlay import from_json_dict as overlay_from_json
from .reporting import EstimateReport
from .simulate import (MAX_PAIRS, MIN_TRIALS, ChannelParams, check_request,
                       estimate, estimate_points)
from .streams import check_int, check_reals

OUTPUT_DIR_ENV = "AWGNAUTH_OUTPUT_DIR"
SCHEMA_VERSION = 1
SWEEP_HEADER = ["axis", "metric", "estimate", "ci_lo", "ci_hi", "bound",
                "dominated"]


class ConfigError(ValueError):
    pass


class StageError(RuntimeError):
    """A module error annotated with the pipeline stage that raised it."""


def _as_bool(key: str, value: Any) -> bool:
    if isinstance(value, int) and value in (0, 1):   # True and False too
        return bool(value)
    if isinstance(value, str) and value.lower() in ("true", "false", "1", "0",
                                                    "yes", "no"):
        return value.lower() in ("true", "1", "yes")
    raise ConfigError(f"{key}: expected a boolean, got {value!r}")


def _as_int(key: str, value: Any) -> int:
    # not a bool; a float only when it is whole
    if not isinstance(value, bool) and (isinstance(value, (int, str)) or (
            isinstance(value, float) and value.is_integer())):
        try:
            return int(value)
        except ValueError:
            pass
    raise ConfigError(f"{key}: expected an integer, got {value!r}")


def _as_float(key: str, value: Any) -> float:
    if not isinstance(value, bool) and isinstance(value, (int, float, str)):
        try:
            return float(value)
        except ValueError:
            pass
    raise ConfigError(f"{key}: expected a number, got {value!r}")


def _as_opt(cast):
    def parse(key: str, value: Any):
        if value is None or (isinstance(value, str)
                             and value.lower() in ("none", "null", "")):
            return None
        return cast(key, value)
    return parse


def _as_str(key: str, value: Any) -> str:
    return str(value)


def _as_list(cast):
    def parse(key: str, value: Any):
        if isinstance(value, str):
            parts = [p for p in value.replace(",", " ").split() if p]
            return tuple(cast(key, p) for p in parts)
        if isinstance(value, (list, tuple)):
            return tuple(cast(key, v) for v in value)
        return (cast(key, value),)
    return parse


def _as_levels(key: str, value: Any):
    if isinstance(value, str) and value.strip().lower() == "auto":
        return "auto"
    return _as_list(_as_float)(key, value)


def _as_gamma(key: str, value: Any):
    if isinstance(value, str) and "/" in value:
        return value.strip()
    return _as_float(key, value)


def _setting(key: str, parse, default: Any = None, *, aliases=(),
             domain: str | int | tuple[str, ...] | None = None,
             sweep: bool = False, hashed: bool = True,
             read_when: tuple[str, Any] | None = None) -> Any:
    """Declare one config setting as an ``ExperimentConfig`` field:
    ``key`` is its dotted name (the prefix is its section), ``aliases``
    further names, ``parse(key, raw)`` its parser, ``domain`` must hold
    unless the value is None, ``sweep`` makes it a ``sweep --axis`` and
    ``hashed`` puts it in ``canonical()`` and so in ``config_hash``.
    A real's ``domain`` is a ``streams.check_reals`` domain name, an
    integer's its minimum and a string's the tuple of its choices; a
    list's holds for each of its items.  ``read_when`` is (key, value):
    the setting is read only when that setting has that value, and may
    not leave its default otherwise."""
    return field(default=default, metadata={
        "key": key, "aliases": aliases, "parse": parse, "domain": domain,
        "sweep": sweep, "hashed": hashed, "read_when": read_when})


# the settings that some settings are read under
_GAUSSIAN = ("base.kind", "gaussian")
_RANDOM_T = ("auth.t_zero", False)
_DECIMATED = ("mod2.enabled", True)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment; each field is the only declaration of its setting."""

    base_kind: str = _setting("base.kind", _as_str, "antipodal",
                              domain=("antipodal", "gaussian"))
    n: int = _setting("base.n", _as_int, 64, aliases=("n",), sweep=True,
                      domain=2)
    base_messages: int = _setting("base.messages", _as_int, 8, domain=1,
                                  read_when=_GAUSSIAN)
    base_omega: float = _setting("base.omega", _as_float, 1.0,
                                 domain="positive")
    base_null: bool = _setting("base.null", _as_bool, False)
    base_seed: int = _setting("base.seed", _as_int, 0, domain=0,
                              read_when=_GAUSSIAN)

    # a tuple of floats, or "auto"; a list is checked as a LevelSet
    overlay_levels: Any = _setting("overlay.levels", _as_levels, (0.0, 0.5))
    overlay_auto_count: int = _setting("overlay.auto_count", _as_int, 2,
                                       domain=1,
                                       read_when=("overlay.levels", "auto"))
    # a float, or a "p/q" string; checked in (1/2,1) as gamma_value()
    gamma: Any = _setting("overlay.gamma", _as_gamma, 0.75, aliases=("gamma",))
    overlay_counts: tuple[int, ...] | None = _setting(
        "overlay.counts", _as_opt(_as_list(_as_int)), domain=1)
    overlay_rates: tuple[float, ...] | None = _setting(
        "overlay.rates", _as_opt(_as_list(_as_float)), domain="finite")
    overlay_max_per_level: int | None = _setting(
        "overlay.max_per_level", _as_opt(_as_int), domain=1)
    overlay_seed: int = _setting("overlay.seed", _as_int, 0, domain=0)

    rho_delta: float = _setting("auth.rho_delta", _as_float, 1.0, sweep=True,
                                aliases=("rho_delta",), domain="positive")
    delta: float = _setting("auth.delta", _as_float, 0.2, sweep=True,
                            aliases=("delta",), domain="(0,1)")
    t_zero: bool = _setting("auth.t_zero", _as_bool, False)
    auth_enforce: bool = _setting("auth.enforce_bounds", _as_bool, True,
                                  read_when=_RANDOM_T)
    auth_seed: int = _setting("auth.seed", _as_int, 0, domain=0,
                              read_when=_RANDOM_T)

    mod2_enabled: bool = _setting("mod2.enabled", _as_bool, False)
    mod2_agnostic: bool = _setting("mod2.agnostic", _as_bool, False,
                                   read_when=_DECIMATED)
    mod2_target: int | None = _setting("mod2.target_override",
                                       _as_opt(_as_int), domain=2,
                                       read_when=_DECIMATED)
    mod2_seed: int = _setting("mod2.seed", _as_int, 0, domain=0,
                              read_when=_DECIMATED)

    rho_dec: float = _setting("channel.rho_dec", _as_float, 0.1,
                              aliases=("rho_dec",), domain="positive")
    rho_adv: float = _setting("channel.rho_adv", _as_float, 0.0,
                              aliases=("rho_adv",), sweep=True,
                              domain="nonnegative")
    power_budget: float | None = _setting(
        "channel.power_budget", _as_opt(_as_float), domain="positive")

    attack: str = _setting("attack.spec", _as_str, "none", aliases=("attack",))
    weight_scale: float | None = _setting(
        "attack.weight_scale", _as_opt(_as_float), sweep=True,
        domain="finite")

    # check_request refuses an unknown metric and an empty list
    metrics: tuple[str, ...] = _setting("run.metrics", _as_list(_as_str),
                                        ("epsilon",), aliases=("metrics",))
    # 0 skips the estimates; any other count is at least MIN_TRIALS
    trials: int = _setting("run.trials", _as_int, 100_000, aliases=("trials",),
                           domain=0)
    seed: int = _setting("run.seed", _as_int, 0, aliases=("seed",), domain=0)
    # estimate's ``threads``: blocks run on min(threads x BLAS threads,
    # CPUs) workers at one BLAS thread each; no count depends on it
    threads: int = _setting("run.threads", _as_int, 1, domain=1)
    max_pairs: int = _setting("run.max_pairs", _as_int, MAX_PAIRS, domain=1)
    message: int | None = _setting("run.message", _as_opt(_as_int), domain=0)
    detector: bool = _setting("run.detector", _as_bool, True)
    out: str | None = _setting("run.out", _as_opt(_as_str), aliases=("out",),
                               hashed=False)
    trial_log: str | None = _setting("run.trial_log", _as_opt(_as_str),
                                     hashed=False)

    def gamma_value(self) -> float | Fraction:
        if isinstance(self.gamma, str):
            try:
                return Fraction(self.gamma)
            except (ValueError, ZeroDivisionError) as e:
                raise ConfigError(f"overlay.gamma: cannot parse {self.gamma!r}") from e
        return float(self.gamma)

    def run_settings(self) -> dict[str, Any]:   # passed to estimate unchanged
        return dict(message=self.message, max_pairs=self.max_pairs,
                    detector=self.detector, threads=self.threads)

    def point(self) -> tuple[ChannelParams, AttackSpec]:   # estimate's
        try:   # the attack parsed, weight_scale applied
            attack = replace(AttackSpec.parse(self.attack),
                             weight_scale=self.weight_scale)
        except ValueError as e:
            raise ConfigError(f"attack.spec: {e}") from e
        return ChannelParams(self.rho_dec, self.rho_adv,
                             self.power_budget), attack

    def canonical(self) -> dict[str, Any]:
        """Nested plain-data view of the hashed settings, by section."""
        out: dict[str, dict[str, Any]] = {}
        for f in fields(self):
            if f.metadata["hashed"]:
                section, _, name = f.metadata["key"].partition(".")
                value = getattr(self, f.name)
                out.setdefault(section, {})[name] = (
                    list(value) if isinstance(value, tuple) else value)
        return out


_SETTINGS = {key: f for f in fields(ExperimentConfig)
             for key in (f.metadata["key"], *f.metadata["aliases"])}
SWEEPABLE = tuple(f.metadata["key"] for f in fields(ExperimentConfig)
                  if f.metadata["sweep"])


Settings = list[tuple[str, Any]]


class _JSONObject(list):
    """A JSON object as its (key, value) pairs, repeated keys kept."""


def _flatten(prefix: str, obj: Any, into: Settings) -> None:
    if isinstance(obj, _JSONObject):
        for k, v in obj:
            _flatten(f"{prefix}.{k}" if prefix else k, v, into)
    else:
        into.append((prefix, obj))


def _parse_value(text: str) -> Any:
    text = text.strip()
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def parse_config_text(text: str, source: str = "<config>") -> Settings:
    """Parse the line grammar, or a JSON object, into dotted ``(key,
    value)`` settings in the order written; errors carry line numbers."""
    settings: Settings = []
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text, object_pairs_hook=_JSONObject)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{source}: invalid JSON config: {e}") from e
        _flatten("", data, settings)
        return settings
    section = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            continue
        if "=" not in line:
            raise ConfigError(
                f"{source}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"{source}:{lineno}: empty key")
        full = f"{section}.{key}" if section and "." not in key else key
        settings.append((full, _parse_value(value)))
    return settings


def apply_settings(cfg: ExperimentConfig,
                   settings: Settings) -> ExperimentConfig:
    """Parse every ``(key, value)`` setting, in order, and apply them at
    once: the last setting of a field wins, whatever its spelling, and a
    malformed one fails even when a later one replaces it."""
    updates: dict[str, Any] = {}
    for key, raw in settings:
        if key not in _SETTINGS:
            raise ConfigError(f"unknown config key {key!r}")
        f = _SETTINGS[key]
        updates[f.name] = f.metadata["parse"](key, raw)
    return replace(cfg, **updates)


def parse_config(path: str | None = None, overrides: Sequence[str] = (),
                 validate: bool = True) -> ExperimentConfig:
    """Build a config from an optional file, then command-line arguments
    ``key=value``, ``--key value`` or ``--key=value``, each applied in the
    order written (see ``apply_settings``), and validate it if asked."""
    settings: Settings = []
    if path is not None:
        try:
            with open(path) as fh:
                settings = parse_config_text(fh.read(), source=path)
        except OSError as e:
            raise ConfigError(f"cannot read config {path!r}: {e}") from e
    items = iter(overrides)
    for item in items:
        key, eq, value = item.removeprefix("--").partition("=")
        if not eq and item.startswith("--"):
            value = next(items, None)
            if value is None:
                raise ConfigError(f"flag {item} is missing a value")
        elif not eq:
            raise ConfigError(f"cannot parse argument {item!r}; expected "
                              "key=value or --key value")
        settings.append((key.strip(), _parse_value(value)))
    cfg = apply_settings(ExperimentConfig(), settings)
    if validate:
        validate_config(cfg)
    return cfg


def validate_config(cfg: ExperimentConfig) -> None:
    """Check each declared domain with ``streams``' checks (a list's on
    each item, and a list must not be empty), then that no setting that
    ``cfg`` does not read leaves its default, then the checks no single
    field owns, and last ``check_request`` on the config's one point and
    impersonation's null message; every refusal is a ConfigError."""
    for f in fields(cfg):
        key, value, domain = (f.metadata["key"], getattr(cfg, f.name),
                              f.metadata["domain"])
        if domain is None or value is None:
            continue
        items = value if isinstance(value, tuple) else (value,)
        if not items:
            raise ConfigError(f"{key} must hold at least one value")
        for item in items:
            if isinstance(domain, str):
                check_reals(ConfigError, domain=domain, **{key: item})
            elif isinstance(domain, int):
                check_int(key, item, ConfigError, domain)
            elif item not in domain:
                raise ConfigError(f"{key} must be one of "
                                  f"{', '.join(domain)}, not {item!r}")
    for f in fields(cfg):
        when = f.metadata["read_when"]
        if when and getattr(cfg, _SETTINGS[when[0]].name) != when[1] \
                and getattr(cfg, f.name) != f.default:
            raise ConfigError(f"{f.metadata['key']} is read only under "
                              f"{when[0]}={str(when[1]).lower()}")
    if cfg.trials:
        check_int("run.trials", cfg.trials, ConfigError, MIN_TRIALS)
    check_reals(ConfigError, domain="(1/2,1)",
                **{"overlay.gamma": cfg.gamma_value()})
    if cfg.overlay_counts is not None and cfg.overlay_rates is not None:
        raise ConfigError("overlay.counts and overlay.rates: give only one")
    if not isinstance(cfg.overlay_levels, str):   # "auto" is resolved later
        try:
            LevelSet(cfg.overlay_levels)
        except ValueError as e:
            raise ConfigError(f"overlay.levels: {e}") from e
    check_request(ConfigError, cfg.metrics, [cfg.point()], message=cfg.message,
                  max_pairs=cfg.max_pairs, trial_log=cfg.trial_log)
    if cfg.point()[1].kind == "impersonation" and not cfg.base_null:
        raise ConfigError("impersonation transmits the null message, which "
                          "needs base.null=true")


def _stage(stage: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (ValueError, RuntimeError) as e:
        raise StageError(f"{stage}: {e}") from e


def build_base(cfg: ExperimentConfig) -> BaseCode:
    if cfg.base_kind == "antipodal":
        code = _stage("base", make_antipodal_code, cfg.n, cfg.base_omega)
        if cfg.base_null:
            rows = np.vstack([code.codewords, np.zeros((1, cfg.n))])
            code = _stage("base", BaseCode, rows, null_id=2)
        return code
    return _stage("base", basecode_mod.make_random_gaussian_code,
                  cfg.n, cfg.base_messages, cfg.base_omega, cfg.base_seed,
                  null_message=cfg.base_null)


def resolve_levels(cfg: ExperimentConfig) -> LevelSet:
    if not isinstance(cfg.overlay_levels, str):
        return _stage("overlay", LevelSet, tuple(cfg.overlay_levels))
    opt = _stage("bounds", bounds_mod.optimal_levels, cfg.overlay_auto_count,
                 float(cfg.gamma_value()), cfg.rho_delta, cfg.rho_dec,
                 cfg.delta)
    if not opt.valid:
        raise StageError("overlay: optimal levels fall outside [0,1) for "
                         f"these powers: {opt.levels}")
    return _stage("overlay", LevelSet, tuple(sorted(opt.levels)))


def build_overlay(cfg: ExperimentConfig, base: BaseCode) -> OverlayCode:
    levels = resolve_levels(cfg)
    counts = cfg.overlay_counts
    if counts is None and cfg.overlay_rates is None:
        counts = (base.message_count,) + (1,) * (len(levels) - 1)
    code = _stage("overlay", construct_overlay, cfg.n, levels,
                  cfg.gamma_value(), rates_per_level=cfg.overlay_rates,
                  counts_per_level=counts,
                  max_messages_per_level=cfg.overlay_max_per_level,
                  seed=cfg.overlay_seed)
    if code.message_count != base.message_count:
        raise StageError(
            f"overlay: message count {code.message_count} does not match the "
            f"base code's {base.message_count}; set overlay.counts so their "
            f"product equals the base message count")
    return code


def build_auth(cfg: ExperimentConfig, base: BaseCode,
               overlay: OverlayCode) -> AuthCode:
    code = _stage("inject", inject_noise, base, overlay, cfg.rho_delta,
                  cfg.delta, cfg.auth_seed, t_zero=cfg.t_zero,
                  enforce_bounds=cfg.auth_enforce)
    if cfg.mod2_enabled:
        code = _stage("decimate", decimate, code, cfg.rho_dec, cfg.mod2_seed,
                      rho_adv=(None if cfg.mod2_agnostic else cfg.rho_adv),
                      adversary_agnostic=cfg.mod2_agnostic,
                      target_size_override=cfg.mod2_target)
    return code


def build_pipeline(cfg: ExperimentConfig) -> AuthCode:
    base = build_base(cfg)
    overlay = build_overlay(cfg, base)
    return build_auth(cfg, base, overlay)


def code_key(cfg: ExperimentConfig) -> str:
    """The settings ``build_pipeline`` reads, so configs with one key
    build one code: the ``base``, ``overlay``, ``auth`` and ``mod2``
    sections and ``channel.rho_dec``, plus ``channel.rho_adv`` when
    ``mod2.enabled`` is set and ``mod2.agnostic`` is not, the one case
    where ``decimate`` reads it."""
    canon = cfg.canonical()
    key = {s: canon[s] for s in ("base", "overlay", "auth", "mod2")}
    key["channel"] = {"rho_dec": cfg.rho_dec}
    if cfg.mod2_enabled and not cfg.mod2_agnostic:
        key["channel"]["rho_adv"] = cfg.rho_adv
    return json.dumps(key, sort_keys=True)


def _base_epsilon_closed_form(cfg: ExperimentConfig, noise: float) -> float:
    if cfg.base_kind == "antipodal" and not cfg.base_null:
        return antipodal_error_probability(cfg.n, cfg.base_omega, noise)
    return math.nan


def bounds_payload(cfg: ExperimentConfig, code: AuthCode) -> dict[str, Any]:
    eps_h = _base_epsilon_closed_form(cfg, cfg.rho_dec + cfg.rho_delta)
    return _stage("bounds", bounds_mod.bounds_report, cfg.n,
                  code.overlay.level_set, float(cfg.gamma_value()), cfg.delta,
                  cfg.rho_delta, cfg.rho_dec, code.base.power,
                  code.base.rate, eps_h,
                  rho_adv=cfg.rho_adv,
                  omega_wrapped=code.power, t_zero=cfg.t_zero,
                  adversary_agnostic=cfg.mod2_agnostic)


def _metric_bound(cfg: ExperimentConfig, code: AuthCode,
                  bounds: dict[str, Any], metric: str
                  ) -> tuple[float | None, str | None]:
    def pick(value: Any, label: str) -> tuple[float | None, str | None]:
        if isinstance(value, float) and math.isfinite(value):
            return value, label
        return None, None

    if metric == "epsilon":
        return pick(bounds.get("injected_error_bound"),
                    "decode error after noise injection")
    if metric == "false_alarm":
        return pick(bounds.get("injected_error_terms", {}).get("detector"),
                    "detector false-alarm concentration")
    if metric == "alpha_star":
        return pick(bounds.get("targeted_false_auth_bound"),
                    "targeted false authentication after noise injection")
    if metric == "alpha" and code.decimated is not None:
        return pick(bounds.get("decimated_false_auth_bound"),
                    "false authentication after decimation")
    return None, None


@contextlib.contextmanager
def _replacing(path: str) -> Iterator[str]:
    """A new file beside ``path`` that replaces it if the block succeeds
    and is removed if not: a refused or failed run leaves an old file."""
    new = f"{path}.{uuid.uuid4().hex}.tmp"
    open(new, "x").close()
    try:
        yield new
        os.replace(new, path)
    finally:
        if os.path.exists(new):
            os.remove(new)


def run_estimates(cfg: ExperimentConfig,
                  code: AuthCode) -> list[EstimateReport]:
    with (_replacing(cfg.trial_log) if cfg.trial_log   # every metric's
          else contextlib.nullcontext()) as log:
        channel, attack = cfg.point()
        return _stage("simulate", estimate, code, channel, list(cfg.metrics),
                      cfg.trials, cfg.seed, attack=attack, trial_log=log,
                      **cfg.run_settings())


@functools.cache
def _version_string() -> str:
    try:
        from importlib.metadata import version
        base = version("awgnauth")
    except Exception:
        base = "0.0.0"
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--tags", "--dirty"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)))
        if out.returncode == 0 and out.stdout.strip():
            return f"{base}+g{out.stdout.strip()}"
    except OSError:
        pass
    return base


def config_hash(cfg: ExperimentConfig) -> str:
    canon = json.dumps(cfg.canonical(), sort_keys=True,
                       separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _header(cfg: ExperimentConfig | None = None) -> dict[str, Any]:
    """Every payload's first fields, with the config's own if it has one."""
    header = {"schema_version": SCHEMA_VERSION, "version": _version_string()}
    if cfg is not None:
        header.update(config_hash=config_hash(cfg), config=cfg.canonical())
    return header


def _sanitize(obj: Any) -> Any:
    """Make a payload strictly JSON serialisable and deterministic."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    return obj


def summarize_code(code: AuthCode) -> dict[str, Any]:
    overlay = code.overlay
    return {
        "base": {"n": code.base.n, "messages": code.base.message_count,
                 "power": code.base.power, "rate": code.base.rate,
                 "null_id": code.base.null_id},
        "overlay": {"n": overlay.n, "ell": overlay.ell,
                    "gamma": overlay.gamma,
                    "levels": list(overlay.level_set.levels),
                    "messages": overlay.message_count,
                    "radices": list(overlay.radices or ()),
                    "max_overlap": overlay.max_overlap,
                    "attempts": overlay.attempts},
        "auth": {"power": code.power, "rate": code.rate,
                 "threshold": code.threshold, "delta": code.delta,
                 "rho_delta": code.rho_delta, "t_zero": code.t_zero,
                 "attempts": code.attempts,
                 "decimated": (None if code.decimated is None
                               else len(code.decimated)),
                 "decimation_feasible": (code.decimation_info or {}).get(
                     "decimation_analysed_rate_feasible")},
    }


def make_report(cfg: ExperimentConfig, code: AuthCode, *,
                reports: list[EstimateReport] | None = None
                ) -> dict[str, Any]:
    """The report of ``cfg`` on ``code``, the code that
    ``build_pipeline(cfg)`` built, with the estimates ``reports``, or
    else those of ``run_estimates`` (none at ``run.trials=0``)."""
    bounds = bounds_payload(cfg, code)
    if reports is None:
        reports = run_estimates(cfg, code) if cfg.trials > 0 else []
    rows = []
    for metric, report in zip(cfg.metrics, reports):
        bound, label = _metric_bound(cfg, code, bounds, metric)
        if bound is not None:
            report = report.with_bound(bound, label)
        rows.append(report.to_json_dict())
    checks = [r["dominated"] for r in rows if "dominated" in r]
    report = {
        **_header(cfg),
        "code": summarize_code(code),
        "bounds": bounds,
        "estimates": rows,
        "pass": all(checks) if checks else True,
    }
    return _sanitize(report)


def emit_json(payload: dict[str, Any], out: str | None) -> None:
    emit_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
              + "\n", out)


def emit_text(text: str, out: str | None) -> None:
    """Write ``text`` to stdout, or to the file ``out`` (a relative path
    lands in ``$AWGNAUTH_OUTPUT_DIR`` when that is set)."""
    if out is None:
        sys.stdout.write(text)
        return
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not os.path.isabs(out):
        os.makedirs(base, exist_ok=True)
        out = os.path.join(base, out)
    with open(out, "w") as fh:
        fh.write(text)


def cmd_construct(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    code = build_pipeline(cfg)
    from .authcode import to_json_dict as auth_to_json
    payload = _sanitize({
        **_header(cfg),
        "summary": summarize_code(code),
        "base": basecode_mod.to_json_dict(code.base),
        "overlay": overlay_to_json(code.overlay),
        "auth": auth_to_json(code, "inline", "inline"),
    })
    emit_json(payload, cfg.out)
    return 0


def cmd_verify(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    if args.code:
        with open(args.code) as fh:
            data = json.load(fh)
        if isinstance(data, dict):
            data = data.get("overlay", data)
        overlay = _stage("overlay", overlay_from_json, data)
    else:
        overlay = build_overlay(cfg, build_base(cfg))
    report = verify_overlay(overlay)
    payload = _sanitize({
        **_header(),
        "passed": report.passed,
        "ell": report.ell,
        "max_overlap_allowed": report.max_overlap_allowed,
        "violations": report.violations,
        "messages": overlay.message_count,
    })
    emit_json(payload, cfg.out)
    return 0 if report.passed else 1


def cmd_bounds(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    emit_json(make_report(cfg, build_pipeline(cfg), reports=[]), cfg.out)
    return 0


def cmd_simulate(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    report = make_report(cfg, build_pipeline(cfg))
    emit_json(report, cfg.out)
    return 0 if report["pass"] else 1


def cmd_sweep(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    if args.axis not in _SETTINGS or not _SETTINGS[args.axis].metadata["sweep"]:
        raise ConfigError(f"axis {args.axis!r} is not sweepable; choose from "
                          f"{sorted(SWEEPABLE)}")
    if cfg.trial_log:   # refused before any point is built
        raise ConfigError("run.trial_log is not supported by sweep: the log "
                          "has no point column")
    values = [_parse_value(v) for v in args.values.split(",") if v.strip()]
    points = [apply_settings(cfg, [(args.axis, v)]) for v in values]
    if not points:   # else each point is checked, its axis value in place
        validate_config(cfg)
    keys, codes = [], {}   # each point's code_key, and each key's code
    for point in points:   # every point is checked and built before any runs
        validate_config(point)
        keys.append(code_key(point))
        if keys[-1] not in codes:
            codes[keys[-1]] = build_pipeline(point)
    reports: list[list[EstimateReport]] = [[] for _ in points]
    # one pass per code, of its points; run.trials=0 runs none
    for key, code in codes.items() if cfg.trials else ():
        mine = [i for i, k in enumerate(keys) if k == key]
        got = _stage("simulate", estimate_points, code,
                     [points[i].point() for i in mine], list(cfg.metrics),
                     cfg.trials, cfg.seed, **cfg.run_settings())
        for i, point_reports in zip(mine, got):
            reports[i] = point_reports
    lines = [",".join(SWEEP_HEADER)]
    passed = True
    for value, point, key, got in zip(values, points, keys, reports):
        report = make_report(point, codes[key], reports=got)
        passed &= report["pass"]
        for row in report["estimates"]:
            bound = row.get("bound")
            dominated = row.get("dominated")
            lines.append(",".join([
                repr(value), row["metric"],
                f"{row['estimate']:.10g}",
                f"{row['ci_lo']:.10g}", f"{row['ci_hi']:.10g}",
                "" if bound is None else f"{bound:.10g}",
                "" if dominated is None else str(dominated).lower(),
            ]))
    emit_text("\n".join(lines) + "\n", cfg.out)
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="awgnauth",
        description="Keyless authentication over AWGN channels: construct "
                    "codes, evaluate bounds, and run Monte Carlo experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text in [
        ("construct", cmd_construct,
         "build the code pipeline and emit its tables"),
        ("verify", cmd_verify,
         "check the pairwise overlay property by exact counting"),
        ("bounds", cmd_bounds, "evaluate every closed-form guarantee"),
        ("simulate", cmd_simulate,
         "estimate operational measures and pair with bounds"),
        ("sweep", cmd_sweep, "repeat an experiment along one parameter axis"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--config", default=None, help="config file "
                       "(key = value lines or JSON)")
        if name == "verify":
            p.add_argument("--code", default=None,
                           help="code JSON emitted by construct")
        if name == "sweep":
            p.add_argument("--axis", required=True,
                           help=f"swept key: one of {', '.join(SWEEPABLE)}")
            p.add_argument("--values", required=True,
                           help="comma-separated values (empty for a "
                                "header-only table)")
        # key=value / --key value overrides are collected from the
        # unparsed remainder so that flag/value adjacency survives; a
        # declared positional would swallow the values out of order
        p.epilog = ("remaining arguments are settings, key=value or --key "
                    "value, applied after the config file's in the order "
                    "written; --out FILE is run.out (relative paths land "
                    f"in ${OUTPUT_DIR_ENV} when set)")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args, extras = build_parser().parse_known_args(argv)
    try:
        return args.handler(parse_config(
            args.config, extras, validate=args.command != "sweep"), args)
    except (ConfigError, StageError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

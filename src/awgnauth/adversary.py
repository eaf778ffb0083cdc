"""Optimal (and tunable) attacks against the authentication scheme.

The adversary observes V = X(m) + G_adv non-causally, knows every code
table, and chooses an additive channel input z.  Against a target
message m', the best it can do is subtract its MMSE estimate of the
transmitted signal and substitute the target's mean signal, driving the
decoder-side conditional mean of Y - x(m') - t(m') to zero; what
remains is independent noise whose per-coordinate variance is the
residual-variance law.  ``mmse_targeted_attack_batch`` is the one attack
path: ``mmse_attack_terms`` computes the constants of an attack from one
transmitted message to one target once, and the batch function applies
them to each block of observations; impersonation is the same attack
launched from the null message.  ``weight_scale`` scales the
per-coordinate cancellation weight so tests can confirm the MMSE choice
actually maximises acceptance.  ``mmse_weight`` lives in ``bounds``,
where the scalar residual-variance law uses it too.

``AttackSpec`` is the one description of an attack, from a config's
``attack.spec`` string (``AttackSpec.parse``) to the simulator's runs;
``AttackSpec("none")`` (``simulate.NO_ATTACK``) is the only spelling of
"no chosen attack".  A malformed spec raises ``AttackError``: an unknown
kind, a missing target, a target that is not a nonnegative integer (a
bool is refused), a target on a none attack, a callable on any attack but
a custom one, or a ``weight_scale`` that is not a finite real number (a
bool is refused).
Whether a spec fits a run (its target a message of the code, its
transmit message) is checked by ``simulate``, once per run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .authcode import AuthCode
from .bounds import mmse_weight
from .streams import check_ids, check_int, check_reals


class AttackError(ValueError):
    pass

CustomAttack = Callable[[np.ndarray, int, AuthCode], np.ndarray]


@dataclass(frozen=True)
class AttackSpec:
    """The one description of an attack: 'none', 'targeted',
    'impersonation', or 'custom' (a callable of (v, transmitted m, code)
    -> z).  A targeted or impersonation attack names its target message,
    a nonnegative integer, a 'none' attack names none; ``weight_scale``, a finite real number,
    scales the MMSE weight of every MMSE attack run under this spec."""

    kind: str
    target: int | None = None
    custom: CustomAttack | None = None
    weight_scale: float | None = None   # scales the MMSE weight (grid tests)

    def __post_init__(self) -> None:
        if self.kind not in ("none", "targeted", "impersonation", "custom"):
            raise AttackError(f"unknown attack kind {self.kind!r}")
        if self.kind in ("targeted", "impersonation") and self.target is None:
            raise AttackError(f"{self.kind} attack needs a target message")
        if self.kind == "none" and self.target is not None:
            raise AttackError("a none attack takes no target message")
        if self.target is not None:
            check_int("target", self.target, AttackError, 0)
        if self.kind == "custom" and self.custom is None:
            raise AttackError("custom attack needs a callable")
        if self.kind != "custom" and self.custom is not None:
            raise AttackError(f"a {self.kind} attack takes no callable; only "
                              "a custom attack does")
        if self.weight_scale is not None:
            check_reals(AttackError, weight_scale=self.weight_scale)

    @classmethod
    def parse(cls, text: str) -> "AttackSpec":
        """Parse 'none', 'targeted:<id>', or 'impersonation:<id>', where
        ``<id>`` is an integer; anything else raises ``AttackError``."""
        name, sep, arg = text.strip().partition(":")
        if name == "none" and not sep:
            return cls(kind="none")
        if name not in ("targeted", "impersonation"):
            raise AttackError(f"cannot parse attack spec {text!r}")
        if not arg:
            raise AttackError(f"{name} attack needs ':<target id>'")
        try:
            target = int(arg)
        except ValueError:
            raise AttackError(f"{name} attack needs an integer target id, "
                              f"not {arg!r}") from None
        return cls(kind=name, target=target)


def no_attack(n: int) -> np.ndarray:
    return np.zeros(n)


def mmse_attack_terms(code: AuthCode, m: int, m_target: int, rho_adv: float,
                      weight_scale: float | None = None
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The constants of the MMSE attack from ``m`` to ``m_target``,
    computed once per attacked run: the mean shift x(m') + t(m') - x(m)
    - t(m), the mean x(m) + t(m), and the ``mmse_weight`` w of f(m),
    times ``weight_scale`` when given."""
    check_reals(AttackError, rho_adv=rho_adv)
    for name, v in (("m", m), ("m_target", m_target)):
        check_ids(name, v, code.message_count, AttackError)
    if m == m_target:
        raise AttackError("target must differ from the transmitted message")
    mean_m, mean_t = code._means(m), code._means(m_target)
    w = mmse_weight(code.overlay.level_matrix(m), code.rho_delta, rho_adv)
    if weight_scale is not None:
        check_reals(AttackError, weight_scale=weight_scale)
        w = float(weight_scale) * w
    return mean_t - mean_m, mean_m, w


def mmse_targeted_attack_batch(
        vs: np.ndarray, terms: tuple[np.ndarray, np.ndarray, np.ndarray],
        out: np.ndarray | None = None) -> np.ndarray:
    """z = x(m') + t(m') - x(m) - t(m) - w . (v - x(m) - t(m)) rowwise,
    from the ``mmse_attack_terms`` of (m, m').  This nulls the
    conditional mean of Y - x(m') - t(m') given (V, Z).  ``out``, an
    array of the shape of ``vs`` (``vs`` itself included), receives z in
    place of a new array."""
    shift, mean_m, w = terms
    zs = np.subtract(vs, mean_m, out=out)
    zs *= w
    return np.subtract(shift, zs, out=zs)


def residual_variance_vector(code: AuthCode, m: int, rho_adv: float,
                             rho_dec: float) -> np.ndarray:
    """Per-coordinate variance of Y - x(m') - t(m') under the MMSE
    attack: the residual-variance law evaluated at f(m), that is the
    cancelled share w rho_adv of the injected noise plus rho_dec."""
    check_reals(AttackError, rho_adv=rho_adv, rho_dec=rho_dec)
    check_ids("m", m, code.message_count, AttackError)
    w = mmse_weight(code.overlay.level_matrix(m), code.rho_delta, rho_adv)
    return w * rho_adv + rho_dec

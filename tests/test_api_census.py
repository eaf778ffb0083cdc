"""The settings census of the public API.

Every parameter of every public callable in ``awgnauth.__all__`` (a
class's constructor and its public methods included), and every field of
every exported dataclass, is listed in ``api_census.json``.  A change
that adds, removes or renames a setting fails here until it updates that
list on purpose, so that the count of settable values (the ``name(param)``
entries) only moves when a change means it to.
"""

import dataclasses
import enum
import inspect
import json
from pathlib import Path
from types import FunctionType

import awgnauth

RECORDED = Path(__file__).with_name("api_census.json")


def _params(key, fn):
    return [f"{key}({p})" for p in inspect.signature(fn).parameters
            if p != "self"]


def _entries(name, obj):
    """``name(param)`` for each parameter and ``name.field`` for each
    dataclass field of one exported object; none for exceptions, enums
    and constants."""
    if not inspect.isclass(obj):
        return _params(name, obj) if callable(obj) else []
    if issubclass(obj, (BaseException, enum.Enum)):
        return []
    out = _params(name, obj)
    if dataclasses.is_dataclass(obj):
        out += [f"{name}.{f.name}" for f in dataclasses.fields(obj)]
    for attr, member in vars(obj).items():
        if not attr.startswith("_") and isinstance(
                member, (FunctionType, classmethod, staticmethod)):
            out += _params(f"{name}.{attr}", getattr(obj, attr))
    return out


def census():
    return sorted(entry for name in awgnauth.__all__
                  for entry in _entries(name, getattr(awgnauth, name)))


def test_the_settings_are_the_recorded_ones():
    found, recorded = set(census()), set(json.loads(RECORDED.read_text()))
    assert not found - recorded and not recorded - found, (
        f"settings added: {sorted(found - recorded)}; removed: "
        f"{sorted(recorded - found)}; update {RECORDED.name} on purpose")


def test_the_census_sees_every_kind_of_setting():
    found = census()
    assert "estimate(threads)" in found             # a function
    assert "OverlayCode.level_matrix(out)" in found  # a method
    assert "LevelSet.uniform(ktilde_size)" in found  # a class method
    assert "EstimateReport.detail" in found          # a dataclass field
    assert "AuthCode.valid_mask" in found            # a derived field
    assert not any(e.startswith("AuthCodeError") for e in found)

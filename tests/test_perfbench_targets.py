"""The traced benchmark's call sites still exist in the package.

``perfbench/workload.py`` wraps package functions by dotted path and
reads named arguments of some of them.  A rename in the package would
otherwise show up only in a traced benchmark run; these tests load the
workload module as it is and check its targets against the package.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workload():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))   # workload.py imports spans
        spec = importlib.util.spec_from_file_location(
            "perfbench_workload", PERFBENCH / "workload.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        yield module, importlib.import_module("spans")


class _Any:
    """Stands in for any argument value a count function reads."""

    shape = (1,)
    message_count = 1
    attempts = 1

    def __len__(self):
        return 1

    def __int__(self):
        return 0

    def __array__(self, dtype=None, copy=None):
        return np.zeros(1, dtype=dtype)


class _Reads(dict):
    """Bound arguments that record every name looked up."""

    def __init__(self):
        super().__init__()
        self.names = set()

    def __getitem__(self, name):
        self.names.add(name)
        return _Any()

    def get(self, name, default=None):
        self.names.add(name)
        return _Any()


class _Bound:
    def __init__(self):
        self.arguments = _Reads()


def test_every_target_resolves(workload):
    module, spans = workload
    tracer = spans.Tracer()
    try:
        for path, name, count in module.TARGETS:
            tracer.wrap(path, name, count)
    finally:
        tracer.uninstall()
    for paths in module.EXPECTED.values():
        assert set(paths) <= set(tracer.targets)


def test_counted_arguments_are_parameters(workload):
    module, spans = workload
    checked = 0
    for path, _, count in module.TARGETS:
        if count is None:
            continue
        owner, attr = spans.resolve(path)
        fn = (inspect.getattr_static(owner, attr) if isinstance(owner, type)
              else getattr(owner, attr))
        bound = _Bound()
        count(bound, _Any())
        params = set(inspect.signature(fn).parameters)
        assert bound.arguments.names <= params, (path, params)
        checked += bool(bound.arguments.names)
    assert checked >= 5

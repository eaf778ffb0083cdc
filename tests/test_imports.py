"""Every name that a module of the package imports is used in it, so an
import left behind by a change fails here.  ``__init__.py`` is exempt:
its imports are the package's re-exports."""

import ast
from pathlib import Path

import awgnauth

PACKAGE = Path(awgnauth.__file__).resolve().parent


def unused_imports(source):
    """The names that ``source``'s imports bind and that it never reads
    (``from __future__`` imports aside)."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # ``import a.b`` binds ``a``
            bound.update(alias.asname or alias.name.split(".")[0]
                         for alias in node.names)
    # ``np.x`` reads the name ``np``
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_the_checker_finds_an_unused_name():
    source = ("from __future__ import annotations\n"
              "import os, os.path as osp\nimport numpy.linalg\n"
              "from math import pi, tau  # noqa: F401\n"
              "def f(x: numpy.ndarray) -> float:\n    return os.sep + pi\n")
    assert unused_imports(source) == ["osp", "tau"]


def test_no_module_imports_a_name_it_never_uses():
    unused = {path.name: unused_imports(path.read_text())
              for path in sorted(PACKAGE.glob("*.py"))
              if path.name != "__init__.py"}
    assert {name: names for name, names in unused.items() if names} == {}

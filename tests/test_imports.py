"""No module of the package imports a name it never uses.

Each module under ``src/nijflow`` is parsed with ``ast``.  An imported name
counts as used when the module reads it (in code or in a string
annotation), when ``__init__.py`` lists it in ``__all__``, or when its
import statement carries ``# noqa: F401`` on any of its lines, as the
benchmark's patch points do.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nijflow"
MODULES = sorted(PACKAGE.glob("*.py"))


def _names_read(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotations = [getattr(node, "annotation", None),
                       getattr(node, "returns", None)]
        for annotation in annotations:
            for part in ast.walk(annotation) if annotation else ():
                if (isinstance(part, ast.Constant)
                        and isinstance(part.value, str)):
                    names |= _names_read(ast.parse(part.value, mode="eval"))
    return names


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["__all__"]):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never uses, in import order."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = _names_read(tree) | _exported(tree)
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        statement = lines[node.lineno - 1:node.end_lineno]
        if any("# noqa: F401" in line for line in statement):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.partition(".")[0]
            if name != "*" and name not in used:
                unused.append(name)
    return unused


def test_the_guard_finds_unused_imports():
    source = ("from typing import Sequence, Union\n"
              "import numpy as np\n"
              "import os.path\n"
              "from .a import (b,  # noqa: F401\n"
              "                c)\n"
              "__all__ = ['d']\n"
              "from .d import d\n"
              "def f(x: 'Sequence[int]') -> None:\n"
              "    return np.zeros(1)\n")
    assert unused_imports(source) == ["Union", "os"]


@pytest.mark.parametrize("path", MODULES, ids=[m.stem for m in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []

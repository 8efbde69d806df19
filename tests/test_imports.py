"""Every name that a g2kit module imports is used in that module or listed
in its __all__, read off the module's syntax tree."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "g2kit"


def imported_names(tree):
    """(bound name, line) for each import, future imports aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source):
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    kept = used | exported_names(tree)
    return [(name, line) for name, line in imported_names(tree) if name not in kept]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used_or_exported(path):
    assert unused_imports(path.read_text()) == []


def test_scan_catches_an_unused_import():
    source = ("from __future__ import annotations\n"
              "from collections import Counter\n"
              "import numpy.linalg\n"
              "from .errors import G2KitError\n"
              "__all__ = ['G2KitError']\n"
              "def f(x):\n"
              "    return numpy.linalg.norm(x)\n")
    assert unused_imports(source) == [("Counter", 2)]

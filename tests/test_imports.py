"""Every name a package module imports is read in that module."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "bebcharge"


def unused_imports(source):
    """Names bound by the module's imports that no expression reads, in
    annotations included, and that ``__all__`` does not export."""
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted((name, line) for name, line in imported.items()
                  if name not in read and name not in exported)


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Dict, List\n"
        "x: List[int] = []\n"
        "def f() -> 'Dict':\n"
        "    return os\n"
    )
    assert unused_imports(source) == [("Dict", 3)]


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name
)
def test_package_module_reads_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []

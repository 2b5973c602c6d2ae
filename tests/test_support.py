"""The oracles in support.py stay independent of the library's internals."""

from __future__ import annotations

import ast
import importlib
import types
from pathlib import Path

import support


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_names(source: str) -> list[str]:
    """The private digitop names source imports, or reads off a digitop
    module: `from digitop.space import _reach`, `canon._canonical`."""
    tree = ast.parse(source)
    modules: set[str] = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "digitop":
                    modules.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "digitop":
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"{node.module}.{alias.name}")
                elif isinstance(
                    getattr(importlib.import_module(node.module), alias.name, None),
                    types.ModuleType,
                ):
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in modules:
                found.append(f"{ast.unparse(node.value)}.{node.attr}")
    return found


def test_support_uses_only_public_names():
    """An oracle that called a private helper of the module it checks
    would check the library against itself.  Helpers private to
    support.py, such as _clique_links, stay allowed."""
    source = Path(support.__file__).read_text()
    assert private_names(source) == []
    # the guard sees both forms
    assert private_names("from digitop.space import _reach, join") == ["digitop.space._reach"]
    assert private_names("from digitop import canon\ncanon._canonical([0])") == [
        "canon._canonical"
    ]
    assert private_names("import digitop\ndigitop.space._bits(3)\ndigitop.__file__") == [
        "digitop.space._bits"
    ]

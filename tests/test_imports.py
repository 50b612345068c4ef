"""Every name a package module imports is used there or re-exported in ``__all__``,
and no package module imports another one's private (``_``-prefixed) name."""

import ast
from pathlib import Path

import pytest

import mackeywitt

MODULES = sorted(Path(mackeywitt.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Imported names that the module never reads and does not list in ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used | exported]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_reported():
    source = "from .fgab import AbHom, _IntRows\nimport os\n__all__ = ['os']\nAbHom(1)\n"
    assert unused_imports(source) == ["_IntRows (line 1)"]


def private_imports(source: str) -> list[str]:
    """``_``-prefixed names imported from a package module (relative or ``mackeywitt``)."""
    return [
        f"{alias.name} (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "mackeywitt")
        for alias in node.names
        if alias.name.startswith("_")
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_no_private_name_of_another_module(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


def test_private_import_is_reported():
    source = (
        "from .fgab import _SNF, AbHom\n"
        "from json.encoder import encode_basestring_ascii as _jstr\n"
        "from mackeywitt.mackey import _in_columns as ok\n"
        "from . import spans\n"
    )
    assert private_imports(source) == ["_SNF (line 1)", "_in_columns (line 3)"]

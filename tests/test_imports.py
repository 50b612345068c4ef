"""Every name a package module imports is used there or re-exported in ``__all__``."""

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

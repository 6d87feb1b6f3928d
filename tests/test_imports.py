"""Every name a module imports is used in that module.

A removed option or function tends to leave its imports behind (a typing
name, a helper); this check, built on the stdlib ``ast`` module only, finds
them.  Names imported from ``__future__`` and names a module lists in
``__all__`` (it re-exports them) are exempt.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = sorted(
    [*(ROOT / "src" / "cowpath").glob("*.py"), *(ROOT / "tests").glob("*.py")]
)


def _unused_imports(tree: ast.Module) -> list[str]:
    """The names the module's imports bind and nothing else in it reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds `a`
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    unused = set(imported) - used - exported
    return sorted(f"{name} (line {imported[name]})" for name in unused)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unused_imports(tree) == []


def test_unused_import_is_found():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Optional, Sequence as Seq\n"
        "__all__ = ['Optional']\n"
        "x: Seq[int] = []\n"
    )
    assert _unused_imports(tree) == ["os (line 2)"]

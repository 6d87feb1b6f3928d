"""Every name a module of the package, the tests or the demos imports is
used in that module, and the package uses only numpy's core.

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
    path
    for folder in (ROOT / "src" / "cowpath", ROOT / "tests", ROOT / "demos")
    for path in folder.glob("*.py")
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


# Each loads a numpy submodule: np.random loads numpy.random, and np.ma and
# np.unique load numpy.ma.
_NUMPY_SUBMODULE_NAMES = {"random", "ma", "unique"}
PACKAGE = sorted((ROOT / "src" / "cowpath").glob("*.py"))


def _numpy_submodule_uses(tree: ast.Module) -> list[str]:
    """The references to np.random, np.ma or np.unique, in any spelling:
    attributes of ``np`` or ``numpy`` and imports from numpy."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [node.value.id, node.attr]
        elif isinstance(node, ast.Import):
            names = [part for alias in node.names for part in alias.name.split(".")]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [*node.module.split("."), *(alias.name for alias in node.names)]
        else:
            continue
        used = _NUMPY_SUBMODULE_NAMES.intersection(names[1:])
        if names[0] in ("np", "numpy") and used:
            found.append(f"{names[0]}.{min(used)} (line {node.lineno})")
    return found


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_package_uses_only_numpys_core(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _numpy_submodule_uses(tree) == []


def test_numpy_submodule_use_is_found():
    tree = ast.parse(
        "import numpy as np\n"
        "import numpy.ma\n"
        "from numpy import unique\n"
        "from numpy.random import default_rng\n"
        "np.sort(np.random.default_rng(0).random(3))\n"
        "random.Random(0)\n"
    )
    assert _numpy_submodule_uses(tree) == [
        "numpy.ma (line 2)",
        "numpy.unique (line 3)",
        "numpy.random (line 4)",
        "np.random (line 5)",
    ]

"""Every name a module of the package, the tests or the demos imports is
used in that module, every public name has a reader, the package uses only
numpy's core, and no library module names a CLI flag.

A removed option or function tends to leave its imports behind (a typing
name, a helper); this check, built on the stdlib ``ast`` module only, finds
them.  Names imported from ``__future__`` and names a module lists in
``__all__`` (it re-exports them) are exempt.
"""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = sorted(
    path
    for folder in (ROOT / "src" / "cowpath", ROOT / "tests", ROOT / "demos")
    for path in folder.glob("*.py")
)


def _exported(tree: ast.Module) -> list[str]:
    """The names the module lists in ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


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
    unused = set(imported) - used - set(_exported(tree))
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


# The record types public functions return: a caller reads their fields and
# need never name them.
RETURNED_RECORDS = {
    "LowerBound", "FrontierPoint", "FrontierCurve", "InequalityReport",
    "LabeledInterval",
}


def _unread_names(package: list, readers: list) -> list[str]:
    """The names a package module lists in ``__all__`` that no other module
    of ``package`` and no file of ``readers`` mentions, as module.name."""
    texts = {path: path.read_text(encoding="utf-8") for path in [*package, *readers]}
    unread = []
    for path in package:
        for name in _exported(ast.parse(texts[path], filename=str(path))):
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(text) for p, text in texts.items() if p != path):
                unread.append(f"{path.stem}.{name}")
    return unread


def test_every_public_name_has_a_reader():
    """A public name only its own module reads is surface to keep for no
    one: the package's other modules, the demos, the benchmark, the README
    or the acceptance tests must read it."""
    readers = [
        *sorted((ROOT / "demos").glob("*.py")),
        *sorted((ROOT / "bench").glob("*.py")),
        ROOT / "README.md",
        ROOT / "tests" / "test_acceptance.py",
    ]
    unread = _unread_names(PACKAGE, readers)
    assert [n for n in unread if n.split(".")[1] not in RETURNED_RECORDS] == []


def test_unread_name_is_found(tmp_path):
    (tmp_path / "a.py").write_text("__all__ = ['f', 'g', 'h']\n")
    (tmp_path / "b.py").write_text("from .a import f\n")
    (tmp_path / "README.md").write_text("call `g(x)`; fg and h_ are other words\n")
    package = [tmp_path / "a.py", tmp_path / "b.py"]
    assert _unread_names(package, [tmp_path / "README.md"]) == ["a.h"]


_FLAG = re.compile(r"--[A-Za-z]")
# The library: the modules below cli.py, which alone knows the CLI's flags.
LIBRARY = ["_rules.py", "bounds.py", "model.py", "hints.py", "ratios.py"]


def _flag_strings(tree: ast.Module) -> list[str]:
    """The string constants outside docstrings, f-string parts included,
    that name a CLI flag ('--' and a letter)."""
    owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, owners)
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    return [
        f"{node.value!r} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and id(node) not in docstrings
        and _FLAG.search(node.value)
    ]


@pytest.mark.parametrize("name", LIBRARY)
def test_library_names_no_cli_flag(name):
    """An error of the library states the limit it checks; which flag to
    change is the CLI's to say."""
    path = ROOT / "src" / "cowpath" / name
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _flag_strings(tree) == []


def test_flag_string_is_found():
    tree = ast.parse(
        '"""Run `cowpath eval --horizon 8`."""\n'
        "def f(n, lower='--k'):\n"
        '    """Docstrings may name --count."""\n'
        "    x = 'a -- b, -1, --2'\n"
        "    raise ValueError(f'n={n} (lower --horizon)')\n"
    )
    assert _flag_strings(tree) == [
        "'--k' (line 2)",
        "' (lower --horizon)' (line 5)",
    ]


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

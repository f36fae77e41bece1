"""Every name a module imports is used in that module, and the package
imports no module before one of its names is read.

Each module under ``src/`` except the package ``__init__`` modules, which
import names to re-export them, and each module under ``tests/``,
``tools/`` and ``demos/`` is parsed with :mod:`ast`.  A name bound by an
import statement must be read somewhere else in the module: as a name, as
the root of an attribute, in a string annotation, or in ``__all__``.
``from __future__`` imports are exempt.
"""

from __future__ import annotations

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
OTHERS = sorted(p for d in ("tests", "tools", "demos")
                for p in (ROOT / d).rglob("*.py"))


def label(path: Path) -> str:
    """A module's path from ``src/``, or from the repository's root."""
    return str(path.relative_to(SRC if SRC in path.parents else ROOT))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its import."""
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # string annotations and __all__ entries
            try:
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(inner)
                        if isinstance(n, ast.Name))
    return used


def test_there_are_modules_to_check():
    assert len(MODULES) > 10


@pytest.mark.parametrize("path", MODULES + OTHERS, ids=label)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = used_names(tree)
    unused = sorted(f"{name} (line {line})"
                    for name, line in imported_names(tree).items()
                    if name not in used)
    assert not unused, f"{label(path)} imports unused {unused}"


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os\nfrom typing import Iterable, Mapping\n"
                     "x: 'Mapping[str, int]' = {}\n")
    assert set(imported_names(tree)) - used_names(tree) == {"os", "Iterable"}


# The modules the query path must not import: the control plane, the BGP
# simulator and the harness, and the standard library modules that only
# they use.
UNNEEDED = ("prelude.control", "prelude.bgpsim", "prelude.harness",
            "statistics", "configparser", "csv", "fractions")


def fresh(code: str) -> object:
    """What ``code``, run in a fresh interpreter against ``src/``, prints
    as JSON."""
    done = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path[:0] = [{str(SRC)!r}]; "
         + code], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_the_query_path_imports_no_other_layer():
    loaded = fresh("import json, prelude.distinct_match; print(json.dumps("
                   f"[m for m in {UNNEEDED!r} if m in sys.modules]))")
    assert loaded == []


def test_every_export_resolves_lazily():
    # the star import reads every name of __all__ through the package's
    # __getattr__, in an interpreter that has imported none of them
    assert fresh("import json, prelude; before = set(sys.modules); "
                 "from prelude import *; print(json.dumps([len(prelude."
                 "__all__), sorted(set(prelude.__all__) - set(globals())), "
                 "'prelude.control' in before]))") == [28, [], False]

"""Every module-level name a program module defines is read somewhere.

Each module under ``src/`` except the package ``__init__`` modules is
parsed with :mod:`ast`, and the names its top level binds by assignment or
by a ``def`` or ``class`` statement are collected.  Each must be read in
``src/``, ``tests/``, ``perfbench/`` or ``demos/``: as a name, as an
attribute, in a string annotation, or as a string such as the one
``getattr`` or ``monkeypatch.setattr`` takes.  A mention in ``__all__``
does not count, and neither does an import, which only passes a name on.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
READERS = [p for top in ("src", "tests", "perfbench", "demos")
           for p in sorted((ROOT / top).rglob("*.py"))]


def defined_names(tree: ast.Module) -> set[str]:
    """The names a module's top level binds, imports and dunders aside."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target)
                             if isinstance(n, ast.Name))
    return {n for n in names if not (n.startswith("__") and n.endswith("__"))}


def _is_all(node: ast.AST) -> bool:
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, (ast.AnnAssign,
                                                       ast.AugAssign))
               else [])
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def read_names(tree: ast.AST) -> set[str]:
    """The names a module reads, leaving out the strings of ``__all__``."""
    read: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if _is_all(node):
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                pass
            else:
                read |= read_names(inner)
        stack.extend(ast.iter_child_nodes(node))
    return read


def dead_names() -> list[str]:
    read: set[str] = set()
    for path in READERS:
        read |= read_names(ast.parse(path.read_text(encoding="utf-8")))
    dead = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        dead += [f"{path.relative_to(SRC)}: {name}"
                 for name in sorted(defined_names(tree) - read)]
    return dead


def test_every_module_level_name_is_read():
    dead = dead_names()
    assert not dead, f"defined but never read: {dead}"


def test_the_check_sees_a_dead_name():
    tree = ast.parse("__all__ = ['B', 'C']\nA = 1\nB = A\n"
                     "def C(): pass\nclass D: pass\n"
                     "x: 'D' = getattr(object, 'E')\n")
    assert defined_names(tree) == {"A", "B", "C", "D", "x"}
    assert defined_names(tree) - read_names(tree) == {"B", "C", "x"}

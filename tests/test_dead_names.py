"""Every name a program module defines at its top level is read somewhere.

Each module under ``src/`` except the package ``__init__`` modules is
parsed with :mod:`ast`, and the names its top level binds by assignment or
by a ``def`` or ``class`` statement are collected, with the methods and
fields each top-level class binds in its body.  Each must be read in
``src/``, ``tests/``, ``perfbench/`` or ``demos/``: as a name, as an
attribute that is not assigned to, in a string annotation, or as a string
such as the one ``getattr`` or ``monkeypatch.setattr`` takes.  A mention
in ``__all__`` does not count, and neither does an import, which only
passes a name on.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
READERS = [p for top in ("src", "tests", "perfbench", "demos")
           for p in sorted((ROOT / top).rglob("*.py"))]


def _bound(node: ast.stmt) -> set[str]:
    """The names one statement binds by a ``def``, ``class`` or assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return {node.name}
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [
            node.target]
        return {n.id for target in targets for n in ast.walk(target)
                if isinstance(n, ast.Name)}
    return set()


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def defined_names(tree: ast.Module) -> set[str]:
    """The names a module's top level binds, and each top-level class's
    methods and fields as ``Class.member``, imports and dunders aside."""
    names: set[str] = set()
    for node in tree.body:
        names |= _bound(node)
        if isinstance(node, ast.ClassDef):
            names |= {f"{node.name}.{member}" for statement in node.body
                      for member in _bound(statement)}
    return {n for n in names if not _dunder(n.rpartition(".")[2])}


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
        elif (isinstance(node, ast.Attribute)
              and not isinstance(node.ctx, ast.Store)):
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
                 for name in sorted(defined_names(tree))
                 if name.rpartition(".")[2] not in read]
    return dead


def test_every_module_level_name_is_read():
    dead = dead_names()
    assert not dead, f"defined but never read: {dead}"


def test_the_check_sees_a_dead_name():
    tree = ast.parse("__all__ = ['B', 'C']\nA = 1\nB = A\n"
                     "def C(): pass\nclass D: pass\n"
                     "x: 'D' = getattr(object, 'E')\n"
                     "class F:\n    g: int\n    h = 0\n"
                     "    def __init__(self): self.g = 1\n"
                     "    def i(self): return self.h\n")
    assert defined_names(tree) == {"A", "B", "C", "D", "x", "F", "F.g",
                                   "F.h", "F.i"}
    read = read_names(tree)
    # a member counts as read by its attribute name; an assignment to it
    # does not read it
    assert {n for n in defined_names(tree)
            if n.rpartition(".")[2] not in read} == {"B", "C", "x", "F",
                                                     "F.g", "F.i"}

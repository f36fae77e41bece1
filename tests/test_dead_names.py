"""Every name a program module defines at its top level is read somewhere,
and every name a subpackage re-exports is read through that package.

Each module under ``src/`` except the package ``__init__`` modules is
parsed with :mod:`ast`, and the names its top level binds by assignment or
by a ``def`` or ``class`` statement are collected, with the methods and
fields each top-level class binds in its body.  Each must be read in
``src/``, ``tests/``, ``perfbench/``, ``demos/`` or ``tools/``: as a name,
as an attribute that is not assigned to, in a string annotation, or as a
string such as the one ``getattr`` or ``monkeypatch.setattr`` takes.  A
mention in ``__all__`` does not count, and neither does an import, which
only passes a name on.

A subpackage ``__init__`` under ``src/prelude/`` only imports names to
re-export them, so each name it imports must be read through the package
in the same files: by ``from prelude.<pkg> import``, by a relative import
that resolves to the package, as an attribute of the package, or in a lazy
map such as the top package's, which names the package and its names as
strings.  A name read only from the module that defines it needs no
re-export.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
READERS = [p for top in ("src", "tests", "perfbench", "demos", "tools")
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


def _package_of(path: Path) -> str:
    """The package a relative import in ``path`` starts from: none outside
    ``src/``."""
    if SRC not in path.parents:
        return ""
    return ".".join(path.relative_to(SRC).parent.parts)


def _resolve(node: ast.ImportFrom, here: str) -> str:
    """The module a ``from ... import`` imports from, in package ``here``."""
    if not node.level:
        return node.module or ""
    parts = here.split(".")
    base = parts[:len(parts) - node.level + 1]
    return ".".join(base + ([node.module] if node.module else []))


def _dotted(node: ast.expr) -> str:
    """``a.b.c`` for a chain of attributes on a name, else ``""``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        owner = _dotted(node.value)
        return f"{owner}.{node.attr}" if owner else ""
    return ""


def read_through(tree: ast.Module, here: str) -> set[tuple[str, str]]:
    """Each ``(module, name)`` a module in package ``here`` imports from a
    module, reads as an attribute of one, or lists under one in a lazy map
    of module names to tuples of names."""
    read: set[tuple[str, str]] = set()
    bound: dict[str, str] = {}  # a local name -> the module it stands for
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = _resolve(node, here)
            for alias in node.names:
                read.add((source, alias.name))
                bound[alias.asname or alias.name] = f"{source}.{alias.name}"
        elif isinstance(node, ast.Import):
            bound |= {alias.asname: alias.name for alias in node.names
                      if alias.asname}
        elif isinstance(node, ast.Dict):
            read |= {(key.value, name.value)
                     for key, value in zip(node.keys, node.values)
                     if isinstance(key, ast.Constant)
                     and isinstance(value, ast.Tuple)
                     for name in value.elts if isinstance(name, ast.Constant)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and not isinstance(node.ctx, ast.Store)):
            head, dot, rest = _dotted(node.value).partition(".")
            if head:
                read.add((bound.get(head, head) + dot + rest, node.attr))
    return read


def reexported(init: ast.Module) -> list[str]:
    """The names a package ``__init__`` imports, in order."""
    return [alias.asname or alias.name for node in init.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def dead_reexports() -> list[str]:
    read: set[tuple[str, str]] = set()
    for path in READERS:
        read |= read_through(ast.parse(path.read_text(encoding="utf-8")),
                             _package_of(path))
    dead = []
    for init in sorted((SRC / "prelude").glob("*/__init__.py")):
        package = _package_of(init)
        tree = ast.parse(init.read_text(encoding="utf-8"))
        dead += [f"{package}: {name}" for name in sorted(reexported(tree))
                 if (package, name) not in read]
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


def test_every_reexport_is_read_through_its_package():
    dead = dead_reexports()
    assert not dead, f"re-exported but never read through the package: {dead}"


def test_the_check_sees_a_dead_reexport():
    init = ast.parse("from .a import A, B, C, D\nfrom .b import E, F, G\n")
    assert reexported(init) == ["A", "B", "C", "D", "E", "F", "G"]
    reader = ast.parse("from prelude.pkg import A\n"
                       "from ..pkg import B\n"
                       "from prelude import pkg as p\n"
                       "import prelude.pkg\n"
                       "p.C\n"
                       "prelude.pkg.D\n"
                       "LAZY = {'prelude.pkg': ('E',)}\n"
                       "from prelude.pkg.b import F\n"
                       "prelude.pkg.G = None\n")
    read = read_through(reader, "prelude.other")
    # a name read from its own module, or assigned on the package, is not
    # read through the package
    assert [name for name in reexported(init)
            if ("prelude.pkg", name) not in read] == ["F", "G"]

"""``tools/src_lines.py`` counts code lines, not blanks, comments or docstrings."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"
spec = importlib.util.spec_from_file_location("src_lines", TOOL)
src_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_lines)


def test_only_code_lines_count():
    source = '''"""Module docstring,
over two lines."""

import os  # a trailing comment


# a comment line
class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        text = """a string that
        is not a docstring"""
        return text
'''
    # import, class, def, the two lines of the assigned string, return
    assert src_lines.code_lines(source) == 6

"""The benchmark's traced run wraps program callables by name.

``perfbench/spans.py`` looks each one up when it installs its tracer, so a
deleted or renamed callable would only show in a ``--trace 1`` run.  This
installs the tracer against ``src/`` in a fresh interpreter instead.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_trace_hooks_resolve():
    code = ("import sys; sys.path[:0] = ['src', 'perfbench']; "
            "import spans; spans.install(spans.Tracer())")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr

"""The walkthrough demos run to completion against ``src/``.

Each demo asserts its own story, so a changed API or answer fails here
instead of only when someone runs the demo by hand.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ["01_rules_and_overlap.py", "02_private_query.py",
         "03_two_exchange_story.py", "04_experiments.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    # run where a demo may write: 04 writes its CSVs to demo_results/
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr

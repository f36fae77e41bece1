"""``tools/session_pairs.py`` times sessions in pairs and records them."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "session_pairs.py"


def test_one_pair_of_one_shape_against_the_working_tree(tmp_path):
    # Both sides are this tree: one pair of runs of the tool's 200
    # sessions per backend at width 4 and one entry.
    out = tmp_path / "SESSIONS.json"
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--shapes", "4x1", "--pairs", "1",
         "--parent-tree", str(ROOT), "--out", str(out)],
        capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text())
    assert record["parent"] == str(ROOT)
    assert [(s["width"], s["k"], s["backend"]) for s in record["shapes"]] == [
        (4, 1, "gmw"), (4, 1, "yao")]
    exact = {"gmw": {"and_depth": 2, "online_rounds": 3, "flights": 4,
                     "setup_bytes": 60, "online_bytes": 49},
             "yao": {"and_depth": 1, "online_rounds": 2, "flights": 2,
                     "setup_bytes": 249, "online_bytes": 224}}
    for shape in record["shapes"]:
        assert shape["pairs"] == 1 and shape["sessions_per_run"] == 200
        assert shape["first_in_pair"] == ["parent"]
        ms = shape["ms"]
        for side in ("parent", "change"):
            (value,) = ms["values_by_pair"][side]
            assert value > 0
            assert ms[side] == {"median": value, "q1": value, "q3": value}
        assert ms["change_better_pairs"] in (0, 1)
        counters = shape["counters"]
        assert counters["parent"] == counters["change"] == exact[
            shape["backend"]]
        assert counters["equal"]
    assert "4x1" in proc.stdout and str(out) in proc.stdout

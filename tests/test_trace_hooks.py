"""The benchmark's traced run wraps program callables by name.

``perfbench/spans.py`` looks each one up when it installs its tracer, so a
deleted or renamed callable would only show in a ``--trace 1`` run.  This
installs the tracer against ``src/`` in a fresh interpreter instead, since
installing it patches the program's modules for the whole process.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

INSTALL = ("import sys; sys.path[:0] = ['src', 'perfbench']; "
           "import spans; tracer = spans.Tracer(); spans.install(tracer)")

# One w=4, k=3 query per backend; prints the (name, party) pairs of the
# step spans.
QUERY = """
import json, random
from prelude.distinct_match import (LoopbackEndpoint, NextHopId, RuleEntry,
                                    SdxMatchService)
from prelude.rules import random_rule
rng = random.Random(3)
service = SdxMatchService(sdx_id=1)
for i in range(3):
    service.register(RuleEntry(rule=random_rule(4, rng),
                               next_hop=NextHopId(1, 100 + i), owner=100 + i,
                               prefix="p"))
endpoint = LoopbackEndpoint(service, seed=1)
for backend in ("gmw", "yao"):
    endpoint.query(random_rule(4, rng), "p", backend=backend)
name, attrs = spans.FIELDS.index("name"), spans.FIELDS.index("attrs")
print(json.dumps([[s[name], s[attrs]["party"]] for s in tracer.spans
                  if s[name].endswith("_steps")]))
"""


def run(code: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)


def test_trace_hooks_resolve():
    done = run(INSTALL)
    assert done.returncode == 0, done.stderr


def test_traced_steps_name_their_party():
    # the tracer reads each party from an argument position, which a
    # reordered signature would silently break
    done = run(INSTALL + "\n" + QUERY)
    assert done.returncode == 0, done.stderr
    pairs = [tuple(pair) for pair in json.loads(done.stdout)]
    assert sorted(pairs) == sorted([
        ("gmw_steps", "querier"), ("gmw_steps", "holder"),
        ("reveal_steps", "querier"), ("reveal_steps", "holder"),
        ("garble_steps", "holder"), ("release_steps", "holder"),
        ("evaluate_steps", "querier"), ("open_steps", "querier"),
    ])

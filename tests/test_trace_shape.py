"""The benchmark's traced run reads the shape of the template it sizes.

``perfbench/spans.py`` keys a cache by the ``gates``, ``n_wires`` and
``output_wires`` of the circuit ``dealer_for_circuit`` gets and records
its ``and_count()`` and ``and_depth()``, so a template without them would
only fail in a ``--trace 1`` run.  This reads the shape as that run does.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from prelude.distinct_match import query_template

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_circuit_shape_is_the_template_and_count_and_depth():
    spec = importlib.util.spec_from_file_location("spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    for width, shape in ((4, (3, 2)), (104, (69, 4))):
        assert tracer.circuit_shape(query_template(width)) == shape

"""Protocol step functions know nothing of accounting.

A party's frames are recorded from outside its steps, by
:func:`prelude.smpc.run_pair` or :func:`prelude.smpc.drive`, which move
them, so no step function takes a transcript: not one of :mod:`prelude.smpc`,
nor the holder's ``serve_steps`` or the querier's ``_querier_steps``.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import prelude.smpc
from prelude import distinct_match


def step_functions() -> dict[str, object]:
    """Every generator function the protocol modules define, by name."""
    found = {}
    for info in pkgutil.iter_modules(prelude.smpc.__path__):
        module = importlib.import_module(f"prelude.smpc.{info.name}")
        for name, fn in vars(module).items():
            if (inspect.isgeneratorfunction(fn)
                    and fn.__module__ == module.__name__):
                found[f"{info.name}.{name}"] = fn
    found["distinct_match.SdxMatchService.serve_steps"] = (
        distinct_match.SdxMatchService.serve_steps)
    found["distinct_match._querier_steps"] = distinct_match._querier_steps
    return found


def test_no_step_function_takes_a_transcript():
    steps = step_functions()
    assert {"dealer.first_steps", "gmw._and_steps", "gmw.gmw_steps",
            "gmw.reveal_steps", "yao.garble_steps", "yao.evaluate_steps",
            "yao.release_steps", "yao.open_steps"} <= set(steps)
    taking = sorted(name for name, fn in steps.items()
                    if "transcript" in inspect.signature(fn).parameters)
    assert not taking, f"step functions that take a transcript: {taking}"

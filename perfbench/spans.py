"""Spans recorded from outside the program, for the traced run.

:func:`install` wraps the public callables the layers call each other
through, as ``prelude.distinct_match`` and ``prelude.control`` look them up
at call time, so no program file changes.  A plain call becomes one span
from entry to return.  A step generator becomes one span whose ``busy``
time counts only the intervals between each resume and its next yield, so
under the in-thread loopback the two parties' compute separates from the
time a session spends waiting on its channel.

Every span records its parent (the span open when it started), the query
session and the control-plane event it belongs to, and the benchmark phase.
Time inside ``SessionTranscript.record_send``/``record_receive`` is summed
per session instead of kept as spans, since those calls come once per frame.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter

# Span fields, in the order they are stored and written.
FIELDS = ("id", "parent", "session", "event", "phase", "name", "start",
          "end", "busy", "attrs")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.transcript_s: dict[int, float] = {}
        self.phase = "setup"
        self._stack: list[int] = [0]
        self._session = 0
        self._event = 0
        self._next_id = 1
        self._shape_cache: dict[tuple, tuple[int, int]] = {}

    # ------------------------------------------------------------ wrapping

    def _new_id(self) -> int:
        sid = self._next_id
        self._next_id += 1
        return sid

    def wrap_call(self, owner, attr: str, name: str, *, attrs=None,
                  scope: str | None = None) -> None:
        """Wrap ``owner.attr`` so each call records one span.

        ``attrs(args, kwargs, result)`` adds fields after the call returns;
        ``scope`` is "session" or "event" for spans that open one.
        """
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._new_id()
            parent = tracer._stack[-1]
            outer = (tracer._session, tracer._event)
            if scope == "session":
                tracer._session = sid
            elif scope == "event":
                tracer._event = sid
            tracer._stack.append(sid)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                tracer._stack.pop()
                session, event = tracer._session, tracer._event
                tracer._session, tracer._event = outer
                extra = attrs(args, kwargs, result) if attrs else None
                tracer.spans.append((sid, parent, session, event, tracer.phase,
                                     name, start, end, end - start, extra))

        setattr(owner, attr, wrapper)

    def wrap_steps(self, owner, attr: str, name: str, *, attrs=None) -> None:
        """Wrap a step-generator function; its span's busy time is resume time."""
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            sid = tracer._new_id()
            parent = tracer._stack[-1]
            session, event = tracer._session, tracer._event
            busy = 0.0
            start = perf_counter()
            reply = None
            thrown = None
            try:
                while True:
                    tracer._stack.append(sid)
                    t0 = perf_counter()
                    try:
                        if thrown is None:
                            op = inner.send(reply)
                        else:
                            op = inner.throw(thrown)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        busy += perf_counter() - t0
                        tracer._stack.pop()
                    thrown = None
                    reply = None
                    try:
                        reply = yield op
                    except GeneratorExit:
                        inner.close()
                        raise
                    except Exception as exc:  # noqa: BLE001 - handed to the inner step
                        thrown = exc
            finally:
                end = perf_counter()
                extra = attrs(args, kwargs) if attrs else None
                tracer.spans.append((sid, parent, session, event, tracer.phase,
                                     name, start, end, busy, extra))

        setattr(owner, attr, wrapper)

    def wrap_transcript(self, cls, attr: str) -> None:
        """Sum the time of a per-frame transcript call into its session."""
        fn = getattr(cls, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                session = tracer._session
                tracer.transcript_s[session] = (
                    tracer.transcript_s.get(session, 0.0)
                    + perf_counter() - start)

        setattr(cls, attr, wrapper)

    # ------------------------------------------------------------ helpers

    def circuit_shape(self, circuit) -> tuple[int, int]:
        """(AND gates, AND depth) of a circuit, computed once per shape."""
        key = (len(circuit.gates), circuit.n_wires, len(circuit.output_wires))
        shape = self._shape_cache.get(key)
        if shape is None:
            shape = (circuit.and_count(), circuit.and_depth())
            self._shape_cache[key] = shape
        return shape

    def write(self, path) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(FIELDS, span))) + "\n")


def _arg(args, kwargs, index: int, key: str, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[index] if len(args) > index else default


def install(tracer: Tracer) -> None:
    """Wrap every traced callable of the program."""
    from prelude import control, distinct_match
    from prelude.circuits import BatchQueryCircuit
    from prelude.smpc import SessionTranscript

    def query_attrs(args, kwargs, result):
        # LoopbackEndpoint.query(self, local, prefix, backend, stats_out)
        attrs = {"backend": _arg(args, kwargs, 3, "backend", "gmw")}
        stats = _arg(args, kwargs, 4, "stats_out")
        if stats:
            s = stats[-1]
            attrs.update(k=s.k, rounds=s.online_rounds, depth=s.and_depth,
                         setup_bytes=s.setup_bytes,
                         online_bytes=s.online_bytes)
        return attrs

    def dealer_attrs(args, kwargs, result):
        ands, depth = tracer.circuit_shape(_arg(args, kwargs, 0, "circuit"))
        return {"backend": _arg(args, kwargs, 1, "backend"), "ands": ands,
                "depth": depth}

    def gmw_attrs(args, kwargs):
        return {"party": "holder" if _arg(args, kwargs, 1, "party") == 1
                else "querier"}

    def reveal_attrs(args, kwargs):
        return {"party": "holder" if _arg(args, kwargs, 2, "send", True)
                and not _arg(args, kwargs, 3, "receive", True)
                else "querier"}

    def fixed(party):
        return lambda args, kwargs: {"party": party}

    def plane_query_attrs(args, kwargs, result):
        # ControlPlane.query(self, origin_sdx, target_sdx, rule, prefix)
        return {"target": _arg(args, kwargs, 2, "target_sdx")}

    def explore_attrs(args, kwargs, result):
        return {"status": result.status if result is not None else None}

    tracer.wrap_call(distinct_match.LoopbackEndpoint, "query",
                     "LoopbackEndpoint.query", attrs=query_attrs,
                     scope="session")
    tracer.wrap_call(distinct_match.SdxMatchService, "serve_query",
                     "SdxMatchService.serve_query")
    tracer.wrap_steps(distinct_match, "gmw_steps", "gmw_steps",
                      attrs=gmw_attrs)
    tracer.wrap_steps(distinct_match, "reveal_steps", "reveal_steps",
                      attrs=reveal_attrs)
    tracer.wrap_steps(distinct_match, "garble_steps", "garble_steps",
                      attrs=fixed("holder"))
    tracer.wrap_steps(distinct_match, "release_steps", "release_steps",
                      attrs=fixed("holder"))
    tracer.wrap_steps(distinct_match, "evaluate_steps", "evaluate_steps",
                      attrs=fixed("querier"))
    tracer.wrap_steps(distinct_match, "open_steps", "open_steps",
                      attrs=fixed("querier"))
    tracer.wrap_call(distinct_match, "dealer_for_circuit",
                     "dealer_for_circuit", attrs=dealer_attrs)
    tracer.wrap_call(distinct_match, "build_batch_query", "build_batch_query")
    tracer.wrap_call(BatchQueryCircuit, "distinct_stage",
                     "BatchQueryCircuit.distinct_stage")
    tracer.wrap_transcript(SessionTranscript, "record_send")
    tracer.wrap_transcript(SessionTranscript, "record_receive")
    tracer.wrap_call(control, "explore_deflection", "explore_deflection",
                     attrs=explore_attrs)
    for op in ("install", "remove", "bgp_update"):
        tracer.wrap_call(control.ControlPlane, op, f"ControlPlane.{op}",
                         scope="event")
    tracer.wrap_call(control.ControlPlane, "query", "ControlPlane.query",
                     attrs=plane_query_attrs)

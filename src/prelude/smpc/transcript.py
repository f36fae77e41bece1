"""Per-endpoint session transcripts: rounds, bytes, and phase accounting.

:func:`recorded` runs one party's step generator and records in a
:class:`SessionTranscript` every frame it sends or receives, so the
protocol code knows nothing of accounting.  A frame's kind decides its
phase: the envelope, its ack, the garbled tables and the dealer material
(recorded by whoever hands it out) are setup, independent of the querier's
inputs; every other frame is online.  Rounds are counted on the online
phase only, from the frames themselves: an online round holds at most one
frame in each direction, and a second frame in the same direction opens
the next round.  The online phase starts at the first online frame, which
a querier sends right after its envelope, so its wall time spans the
ack's flight too.  A transcript records each frame's kind and size, never
its payload.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple

from prelude.smpc.channel import (
    MSG_ENVELOPE,
    MSG_ENVELOPE_ACK,
    MSG_GARBLED_TABLES,
    MSG_SETUP_TRIPLES,
    RECV,
)

SENT = "sent"
RECEIVED = "received"

SETUP = "setup"
ONLINE = "online"

SETUP_KINDS = frozenset(
    {MSG_ENVELOPE, MSG_ENVELOPE_ACK, MSG_GARBLED_TABLES, MSG_SETUP_TRIPLES})


class TranscriptEntry(NamedTuple):
    direction: str
    kind: int
    n_bytes: int
    round_index: int
    phase: str


@dataclass
class SessionTranscript:
    entries: list[TranscriptEntry] = field(default_factory=list)
    online_rounds: int = 0
    online_started_at: float | None = None
    online_finished_at: float | None = None
    # the directions the current online round has a frame in; round 0
    # counts as full, so the first online frame opens round 1
    _round: set[str] = field(default_factory=lambda: {SENT, RECEIVED},
                             repr=False)

    def finish(self) -> None:
        if self.online_finished_at is None:
            self.online_finished_at = time.monotonic()

    def _record(self, direction: str, kind: int, n_bytes: int) -> None:
        if kind in SETUP_KINDS:
            self.entries.append(
                TranscriptEntry(direction, kind, n_bytes, 0, SETUP))
            return
        if direction in self._round:
            if not self.online_rounds:
                self.online_started_at = time.monotonic()
            self.online_rounds += 1
            self._round = {direction}
        else:
            self._round.add(direction)
        self.entries.append(TranscriptEntry(
            direction, kind, n_bytes, self.online_rounds, ONLINE))

    def record_send(self, kind: int, n_bytes: int) -> None:
        self._record(SENT, kind, n_bytes)

    def record_receive(self, kind: int, n_bytes: int) -> None:
        self._record(RECEIVED, kind, n_bytes)

    # ------------------------------------------------------------ metrics

    @property
    def setup_bytes(self) -> int:
        return sum(e.n_bytes for e in self.entries if e.phase == SETUP)

    @property
    def online_bytes(self) -> int:
        return sum(e.n_bytes for e in self.entries if e.phase == ONLINE)

    @property
    def online_wall_time(self) -> float:
        if self.online_started_at is None or self.online_finished_at is None:
            return 0.0
        return self.online_finished_at - self.online_started_at


def recorded(steps, transcript: SessionTranscript):
    """Step: run ``steps``, recording in ``transcript`` every frame it sends
    or receives, and finish the transcript when it returns its result."""
    step = steps.send
    record_send = transcript.record_send
    record_receive = transcript.record_receive
    reply = None
    while True:
        try:
            op = step(reply)
        except StopIteration as stop:
            transcript.finish()
            return stop.value
        reply = yield op
        if op is RECV:
            record_receive(reply[0], reply[2])
        else:
            record_send(op[0], reply)

"""Per-endpoint session transcripts: rounds, bytes, and phase accounting.

:func:`~prelude.smpc.run_pair` or :func:`~prelude.smpc.drive`,
whichever moves a party's frames, records in the party's
:class:`SessionTranscript` every frame it sends or receives as the frame
passes, and finishes the transcript when the party returns, so the
protocol code knows nothing of accounting.  A transcript keeps running
counters, not the frames: setup bytes, online bytes, online rounds, and
when the online phase started and finished.  A frame's kind decides its
phase: the envelope, its ack and the garbled tables are setup, independent
of the querier's inputs; every other frame is online.  Dealer material
travels in no frame, so whoever hands it out adds its size to
:attr:`SessionTranscript.setup_bytes` directly.  Rounds are counted on the
online phase only, from the frames themselves: an online round holds at
most one frame in each direction, and a second frame in the same direction
opens the next round.  The online phase starts at the first online frame, which
a querier sends right after its envelope, so its wall time spans the
ack's flight too.  A transcript sees each frame's kind and size, never
its payload.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from prelude.smpc.channel import (
    MSG_ENVELOPE,
    MSG_ENVELOPE_ACK,
    MSG_GARBLED_TABLES,
)

SETUP_KINDS = frozenset({MSG_ENVELOPE, MSG_ENVELOPE_ACK, MSG_GARBLED_TABLES})

# the directions of a frame, as bits of the current round's set
_SENT, _RECEIVED = 1, 2


@dataclass
class SessionTranscript:
    setup_bytes: int = 0
    online_bytes: int = 0
    online_rounds: int = 0
    online_started_at: float | None = None
    online_finished_at: float | None = None
    # the directions the current online round has a frame in; round 0
    # counts as full, so the first online frame opens round 1
    _round: int = field(default=_SENT | _RECEIVED, repr=False)

    def finish(self) -> None:
        if self.online_finished_at is None:
            self.online_finished_at = time.monotonic()

    def _record(self, direction: int, kind: int, n_bytes: int) -> None:
        if kind in SETUP_KINDS:
            self.setup_bytes += n_bytes
            return
        self.online_bytes += n_bytes
        if self._round & direction:
            if not self.online_rounds:
                self.online_started_at = time.monotonic()
            self.online_rounds += 1
            self._round = direction
        else:
            self._round |= direction

    def record_send(self, kind: int, n_bytes: int) -> None:
        self._record(_SENT, kind, n_bytes)

    def record_receive(self, kind: int, n_bytes: int) -> None:
        self._record(_RECEIVED, kind, n_bytes)

    @property
    def online_wall_time(self) -> float:
        if self.online_started_at is None or self.online_finished_at is None:
            return 0.0
        return self.online_finished_at - self.online_started_at


"""Per-endpoint session transcripts: rounds, bytes, and phase accounting.

A transcript separates the setup phase (dealer material, garbled tables;
independent of the querier's inputs) from the online phase (everything that
depends on them).  Rounds are counted on the online phase only: the
protocol code advances the round counter once per synchronised exchange.
A transcript records each frame's kind and size, never its payload.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

SENT = "sent"
RECEIVED = "received"

SETUP = "setup"
ONLINE = "online"


@dataclass(frozen=True)
class TranscriptEntry:
    direction: str
    kind: int
    n_bytes: int
    round_index: int
    phase: str


@dataclass
class SessionTranscript:
    entries: list[TranscriptEntry] = field(default_factory=list)
    phase: str = SETUP
    round_index: int = 0
    online_started_at: float | None = None
    online_finished_at: float | None = None

    def begin_online(self) -> None:
        self.phase = ONLINE
        self.round_index = 0
        if self.online_started_at is None:
            self.online_started_at = time.monotonic()

    def finish(self) -> None:
        if self.online_finished_at is None:
            self.online_finished_at = time.monotonic()

    def next_round(self) -> int:
        self.round_index += 1
        return self.round_index

    def _record(self, direction: str, kind: int, n_bytes: int) -> None:
        self.entries.append(
            TranscriptEntry(direction, kind, n_bytes, self.round_index, self.phase)
        )

    def record_send(self, kind: int, n_bytes: int) -> None:
        self._record(SENT, kind, n_bytes)

    def record_receive(self, kind: int, n_bytes: int) -> None:
        self._record(RECEIVED, kind, n_bytes)

    # ------------------------------------------------------------ metrics

    @property
    def online_rounds(self) -> int:
        return max(
            (e.round_index for e in self.entries if e.phase == ONLINE), default=0
        )

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

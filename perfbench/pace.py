"""Host speed, measured by a fixed reference loop, to steady compute timings.

On a shared host the same Python computation runs at one of two speeds,
about 1.7x apart, switching every few tens of milliseconds as other
tenants' load comes and goes, and the share of time spent slow drifts from
minute to minute.  A fixed loop of the kind of work the program does
(keyed blake2s, 128-bit integer arithmetic), run right beside the timed
operations, tracks that speed: the mean of its times over a phase grows
linearly with the share of the phase spent slow, as the operations' times
do.  A compute-bound timing is reported scaled to the speed at which the
loop takes ``REF_MS``, by the factor ``REF_MS`` over the mean loop time of
its phase.  Raw wall times stay in the notes.
"""

from __future__ import annotations

import hashlib
import statistics
from time import perf_counter

REF_MS = 10.0  # nominal time of one reference loop, the scale's unit
_STEPS = 10_000
_PRF = hashlib.blake2s(key=b"perfbench-pace", digest_size=16)
_MOD = (1 << 128) - 1


def reference_loop() -> float:
    """Run the fixed reference work once; return its wall time in seconds."""
    start = perf_counter()
    acc = 0
    x = 0x9E3779B97F4A7C15F39CC0605CEDC834
    for j in range(_STEPS):
        h = _PRF.copy()
        h.update(j.to_bytes(4, "little"))
        acc ^= int.from_bytes(h.digest(), "little")
        x = (x * 6364136223846793005 + 1442695040888963407) & _MOD
        acc ^= x >> 64
    if acc == -1:  # keeps the result live
        raise AssertionError
    return perf_counter() - start


class Pace:
    """Reference-loop samples of one phase of a run."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, n: int = 1) -> float:
        """Run the loop n times; returns the seconds spent, to leave out."""
        spent = 0.0
        for _ in range(n):
            took = reference_loop()
            self.samples.append(took)
            spent += took
        return spent

    def scale(self) -> float:
        """Factor taking this phase's wall times to reference speed."""
        return REF_MS / 1000 / statistics.fmean(self.samples)

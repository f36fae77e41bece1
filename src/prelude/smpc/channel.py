"""Framed two-party message channels.

Every message on the wire is one frame:

    u32 big-endian length | u8 kind | payload

where length covers the kind byte plus the payload.

Protocol code exists only as step generators over frames: a party yields
``(kind, payload)`` to send a frame and is resumed with the frame's on-wire
size, or yields :data:`RECV` to wait for one and is resumed with
``(kind, payload, frame_size)``, which it checks with :func:`expect`; its
return value is the party's result.  Steps only yield frames, and
:func:`run_pair` or :func:`drive`, which move them, keep the accounts:
given a party's :class:`~prelude.smpc.transcript.SessionTranscript`,
each records every frame as it passes.  :func:`drive` runs one party
over a blocking channel: :class:`TcpChannel`, the only channel and the
only code that encodes frames (:func:`encode_frame`), over a socket.
:func:`run_pair` runs both parties of a session against each other in
the calling thread, so a session needs no thread, and its injectable
one-way delay lets protocol latency be measured without real network
distance.
"""

from __future__ import annotations

from collections import deque
import socket
import struct
import time

# Message kinds.  Values are part of the wire format; do not renumber.
MSG_INPUT_SHARE = 1
MSG_AND_OPENING = 2
MSG_GARBLED_TABLES = 3
MSG_LABELS = 4
MSG_OUTPUT_SHARE = 5
MSG_ENVELOPE = 7
MSG_ENVELOPE_ACK = 8

KIND_NAMES = {
    MSG_INPUT_SHARE: "INPUT_SHARE",
    MSG_AND_OPENING: "AND_OPENING",
    MSG_GARBLED_TABLES: "GARBLED_TABLES",
    MSG_LABELS: "LABELS",
    MSG_OUTPUT_SHARE: "OUTPUT_SHARE",
    MSG_ENVELOPE: "ENVELOPE",
    MSG_ENVELOPE_ACK: "ENVELOPE_ACK",
}

_HEADER = struct.Struct(">I")
# The bytes a frame adds to its payload: the length header and the kind.
FRAME_OVERHEAD = _HEADER.size + 1
# The largest frame a receiver accepts, header included: yao's garbled
# tables at the most entries a querier accepts (4096, ``MAX_ENTRIES`` in
# :mod:`prelude.distinct_match`) and the rule width 104, 16 bytes for each
# of the two rows of 104 cells and entry.  A frame's length comes from the
# peer, so a longer one is refused before its body is read.
MAX_FRAME_BYTES = 5 + 32 * 104 * 4096
# The most one socket read asks for: recv allocates what it is asked for,
# and a frame's length comes from the peer.
_RECV_CHUNK = 1 << 20


class ChannelClosed(Exception):
    """The peer endpoint is gone; the session cannot continue."""


class ChannelTimeout(Exception):
    """No frame arrived within the endpoint's receive timeout."""


class ProtocolError(Exception):
    """A frame arrived but was not what the protocol state expected."""


def encode_frame(kind: int, payload: bytes) -> bytes:
    if not 0 <= kind < 256:
        raise ValueError("kind must fit one byte")
    return _HEADER.pack(1 + len(payload)) + bytes([kind]) + payload


def _sleep_until(arrival: float) -> None:
    wait = arrival - time.monotonic()
    if wait > 0:
        time.sleep(wait)


class TcpChannel:
    """The same framing over a connected TCP socket."""

    def __init__(self, sock: socket.socket, timeout: float | None = 60.0) -> None:
        self._sock = sock
        self._sock.settimeout(timeout)

    def send(self, kind: int, payload: bytes) -> int:
        frame = encode_frame(kind, payload)
        try:
            self._sock.sendall(frame)
        except OSError as exc:
            raise ChannelClosed(str(exc)) from exc
        return len(frame)

    def _read_exact(self, n: int) -> bytes:
        # Chunks are joined once, so a large frame reads in linear time.
        chunks: list[bytes] = []
        left = n
        while left:
            try:
                chunk = self._sock.recv(min(left, _RECV_CHUNK))
            except socket.timeout:
                raise ChannelTimeout("no frame within timeout") from None
            except OSError as exc:
                raise ChannelClosed(str(exc)) from exc
            if not chunk:
                raise ChannelClosed("peer closed the connection")
            chunks.append(chunk)
            left -= len(chunk)
        return b"".join(chunks)

    def recv(self) -> tuple[int, bytes, int]:
        (length,) = _HEADER.unpack(self._read_exact(_HEADER.size))
        size = _HEADER.size + length
        if length < 1:
            raise ProtocolError("frame length below minimum")
        if size > MAX_FRAME_BYTES:
            raise ProtocolError(f"frame of {size} bytes exceeds the cap "
                                f"of {MAX_FRAME_BYTES} bytes")
        body = self._read_exact(length)
        return body[0], body[1:], size

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


# --------------------------------------------------------------------------
# step generators

RECV = None  # what a step generator yields to wait for the next frame


def expect(frame, kind: int, size: int | None = None) -> bytes:
    """The payload of ``frame``, what a step's ``yield RECV`` returns, if
    it is a frame of ``kind`` and, when ``size`` is given, of ``size``
    bytes; raises ProtocolError naming the fault otherwise."""
    got, payload, _ = frame
    if got != kind:
        raise ProtocolError(
            f"expected {KIND_NAMES.get(kind, kind)} frame, "
            f"got {KIND_NAMES.get(got, got)}")
    if size is not None and len(payload) != size:
        raise ProtocolError(
            f"{KIND_NAMES[kind]} frame of {len(payload)} bytes, expected "
            f"{size}")
    return payload


def drive(steps, channel, transcript=None):
    """Run a step generator to completion over a blocking channel,
    recording each frame it sends or receives in ``transcript``, if one is
    given, and finishing the transcript when the steps return."""
    reply = None
    while True:
        try:
            op = steps.send(reply)
        except StopIteration as stop:
            if transcript is not None:
                transcript.finish()
            return stop.value
        if op is RECV:
            reply = channel.recv()
            if transcript is not None:
                transcript.record_receive(reply[0], reply[2])
        else:
            reply = channel.send(*op)
            if transcript is not None:
                transcript.record_send(op[0], reply)


# run_pair's marks for a party that has not started, and one that has ended
_START, _ENDED = object(), object()


def run_pair(first, second, one_way_delay: float = 0.0,
             transcripts: tuple = (None, None)):
    """Run two parties' step generators against each other in this thread.

    Returns ``(first's result, second's result, flights)``.  ``first``
    starts, and a party runs on while frames wait for it; once it waits
    for a frame not yet sent, or ends, the other runs.  So frames a party
    sends back to back travel together, as over a socket.  A frame counts
    ``FRAME_OVERHEAD`` bytes above its payload, as encoded, and arrives
    ``one_way_delay`` seconds after it was sent; its receiver sleeps until
    then.  With no delay no clock is read.

    ``transcripts`` holds a :class:`~prelude.smpc.transcript.SessionTranscript`
    or None for each party, in the parties' order.  A party's transcript
    records each frame it sends or receives as the frame passes, and is
    finished when the party returns.

    ``flights`` counts the one-way flights of the longest causal chain of
    frames: each frame carries its sender's count, and a receiver's count
    becomes one more than that if it is not already larger.  Over a one-way
    delay a run takes at least ``flights`` delays.

    The first exception either party raises ends the run and is raised.  A
    party waiting for a frame once the other has ended ends the run with
    :class:`ChannelClosed`, and both waiting with :class:`ProtocolError`.
    """
    parties = (first, second)
    # the frames on their way to each party:
    # (arrival, sender's flights, kind, payload); arrival 0 with no delay
    inboxes = (deque(), deque())
    flights = [0, 0]
    results = [None, None]
    ops = [_START, _START]  # each party's pending step
    me = 0
    while True:
        party, op, count = parties[me], ops[me], flights[me]
        inbox, outbox = inboxes[me], inboxes[1 - me]
        transcript = transcripts[me]
        try:
            if op is _START:
                op = party.send(None)
            while op is not RECV or inbox:
                if op is RECV:
                    arrival, sent, kind, payload = inbox.popleft()
                    if sent >= count:
                        count = sent + 1
                    if arrival:
                        _sleep_until(arrival)
                    size = FRAME_OVERHEAD + len(payload)
                    if transcript is not None:
                        transcript.record_receive(kind, size)
                    op = party.send((kind, payload, size))
                else:
                    kind, payload = op
                    size = FRAME_OVERHEAD + len(payload)
                    if transcript is not None:
                        transcript.record_send(kind, size)
                    outbox.append((
                        time.monotonic() + one_way_delay if one_way_delay
                        else 0, count, kind, payload))
                    op = party.send(size)
        except StopIteration as stop:
            results[me] = stop.value
            op = _ENDED
            if transcript is not None:
                transcript.finish()
        ops[me], flights[me] = op, count
        me = 1 - me
        if ops[me] is _ENDED:
            if op is _ENDED:
                return results[0], results[1], max(flights)
            raise ChannelClosed("peer closed the channel")
        if op is RECV and ops[me] is RECV and not inboxes[me]:
            raise ProtocolError("both parties are waiting for a frame")

"""Framed two-party message channels.

Every message on the wire is one frame:

    u32 big-endian length | u8 kind | payload

where length covers the kind byte plus the payload.

Protocol code exists only as step generators over frames: a party yields
``(kind, payload)`` to send a frame and is resumed with the frame's on-wire
size, or yields :data:`RECV` to wait for one and is resumed with
``(kind, payload, frame_size)``; its return value is the party's result.
Steps only move frames; :func:`prelude.smpc.transcript.recorded` wraps a
party's steps to account for them.  :func:`drive` runs a step generator
over a blocking channel.  Two channels exist: :class:`TcpChannel`, the
only one that encodes frames (:func:`encode_frame`), over a socket; and
:class:`InlineLoopback`, whose peer is the other party's step generator in
the same thread, so a two-party session needs no thread, and whose
injectable one-way delay lets protocol latency be measured without real
network distance.  The loopback queues ``(kind, payload)`` and counts a
frame's size as the socket would, ``FRAME_OVERHEAD`` bytes above its
payload.  It runs its peer on until the peer waits for a frame, so frames
sent back to back travel in one flight, as over a socket.  It counts the
one-way flights of the longest causal chain of frames: over a one-way
delay, a session takes at least that many delays.
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
# of 2 x 104 cross gates and entry.  A frame's length comes from the peer,
# so a longer one is refused before its body is read.
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

    @staticmethod
    def serve_one(host: str = "127.0.0.1", port: int = 0):
        """Bind, listen, and return (bound_port, accept) where accept() yields a channel."""
        srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        srv.bind((host, port))
        srv.listen(1)

        def accept() -> "TcpChannel":
            conn, _ = srv.accept()
            srv.close()
            return TcpChannel(conn)

        return srv.getsockname()[1], accept

    @staticmethod
    def connect(host: str, port: int, timeout: float | None = 60.0) -> "TcpChannel":
        sock = socket.create_connection((host, port), timeout=timeout)
        return TcpChannel(sock, timeout)

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
        (length,) = _HEADER.unpack(self._read_exact(4))
        if length < 1:
            raise ProtocolError("frame length below minimum")
        if 4 + length > MAX_FRAME_BYTES:
            raise ProtocolError(f"frame of {4 + length} bytes exceeds the cap "
                                f"of {MAX_FRAME_BYTES} bytes")
        body = self._read_exact(length)
        return body[0], body[1:], 4 + length

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


# --------------------------------------------------------------------------
# step generators

RECV = None  # what a step generator yields to wait for the next frame


def send_frame(kind: int, payload: bytes):
    """Step: send one frame; returns its on-wire size."""
    return (yield (kind, payload))


def recv_frame(expect: int):
    """Step: receive one frame of kind ``expect``; returns its payload."""
    kind, payload, _ = yield RECV
    if kind != expect:
        raise ProtocolError(
            f"expected {KIND_NAMES.get(expect, expect)} frame, "
            f"got {KIND_NAMES.get(kind, kind)}")
    return payload


def recv_exact(expect: int, size: int):
    """Step: :func:`recv_frame` for a payload that must be ``size`` bytes."""
    payload = yield from recv_frame(expect)
    if len(payload) != size:
        raise ProtocolError(
            f"{KIND_NAMES[expect]} frame of {len(payload)} bytes, expected "
            f"{size}")
    return payload


def drive(steps, channel):
    """Run a step generator to completion over a blocking channel."""
    reply = None
    while True:
        try:
            op = steps.send(reply)
        except StopIteration as stop:
            return stop.value
        reply = channel.recv() if op is RECV else channel.send(*op)


class InlineLoopback:
    """A blocking channel end whose peer is a step generator in the same thread.

    Each frame becomes visible ``one_way_delay`` seconds after it was sent,
    and its receiver sleeps until then.  Whenever this end waits for a
    frame, the peer is advanced until it waits too, so frames it sends back
    to back leave together; :meth:`finish` runs the peer to its end once
    this side is done.  An exception the peer raises is kept in
    :attr:`peer_error`, and this end sees the peer close the channel.

    :attr:`flights` counts the one-way flights of the longest causal chain
    of frames: each frame carries its sender's count, and a receiver's
    count becomes one more than that if it is not already larger.  Over a
    one-way delay a session takes at least ``flights`` delays.
    """

    def __init__(self, peer_steps, one_way_delay: float = 0.0) -> None:
        self._peer = peer_steps
        self._delay = one_way_delay
        # (arrival, sender's flights, kind, payload) from and to the peer
        self._inbox: deque = deque()
        self._outbox: deque = deque()
        self._flights = 0  # this end's count of flights
        self._peer_flights = 0
        self._op = _NOT_STARTED  # the peer's pending step
        self._peer_done = False
        self._closed = False
        self.peer_result = None
        self.peer_error: Exception | None = None

    @property
    def flights(self) -> int:
        return max(self._flights, self._peer_flights)

    def send(self, kind: int, payload: bytes) -> int:
        if self._closed:
            raise ChannelClosed("send on closed channel")
        return self._post(self._outbox, self._flights, kind, payload)

    def recv(self) -> tuple[int, bytes, int]:
        if not self._inbox:
            self._run_peer()
        if not self._inbox:
            if self._peer_done:
                raise ChannelClosed("peer closed the channel")
            raise ProtocolError("both parties are waiting for a frame")
        arrival, flights, kind, payload = self._inbox.popleft()
        if flights >= self._flights:
            self._flights = flights + 1
        _sleep_until(arrival)
        return kind, payload, FRAME_OVERHEAD + len(payload)

    def close(self) -> None:
        self._closed = True

    def finish(self):
        """Run the peer to its end; return its result or raise its error.

        This end sends nothing more, so a peer still waiting for a frame
        sees the channel close.
        """
        self._closed = True
        self._run_peer()
        if not self._peer_done:
            self._resume(throw=ChannelClosed("peer closed the channel"))
        if self.peer_error is not None:
            raise self.peer_error
        return self.peer_result

    def _run_peer(self) -> None:
        """Advance the peer until it ends or waits for an unsent frame."""
        while not self._peer_done:
            op = self._op
            if op is _NOT_STARTED:
                self._resume()
            elif op is RECV:
                if not self._outbox:
                    return
                arrival, flights, kind, payload = self._outbox.popleft()
                if flights >= self._peer_flights:
                    self._peer_flights = flights + 1
                _sleep_until(arrival)
                self._resume((kind, payload, FRAME_OVERHEAD + len(payload)))
            else:
                self._resume(self._post(self._inbox, self._peer_flights, *op))

    def _post(self, box: deque, flights: int, kind: int,
              payload: bytes) -> int:
        """Queue a frame in ``box``, sent at ``flights``; return its on-wire
        size.  Every frame either end sends passes here."""
        box.append((time.monotonic() + self._delay, flights, kind, payload))
        return FRAME_OVERHEAD + len(payload)

    def _resume(self, reply=None, throw: Exception | None = None) -> None:
        try:
            if throw is None:
                self._op = self._peer.send(reply)
            else:
                self._op = self._peer.throw(throw)
        except StopIteration as stop:
            self._peer_done = True
            self.peer_result = stop.value
        except Exception as exc:  # noqa: BLE001 - the peer's failure, kept for finish()
            self._peer_done = True
            self.peer_error = exc


_NOT_STARTED = object()

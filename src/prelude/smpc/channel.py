"""Framed two-party message channels.

Every message on the wire is one frame:

    u32 big-endian length | u8 kind | payload

where length covers the kind byte plus the payload.  The in-process loopback
channels support an injectable one-way delay so protocol latency can be
measured without real network distance; the TCP binding carries the same
frames over a socket.

Protocol code is written once, as step generators over frames: a party
yields ``(kind, payload)`` to send a frame and is resumed with the frame's
on-wire size, or yields :data:`RECV` to wait for one and is resumed with
``(kind, payload, frame_size)``; its return value is the party's result.
:func:`drive` runs a step generator over any blocking channel, and
:class:`InlineLoopback` runs one as the in-thread peer of a blocking party,
so a two-party session needs no thread.
"""

from __future__ import annotations

import queue
from collections import deque
import socket
import struct
import threading
import time

# Message kinds.  Values are part of the wire format; do not renumber.
MSG_INPUT_SHARE = 1
MSG_AND_OPENING = 2
MSG_GARBLED_TABLES = 3
MSG_LABELS = 4
MSG_OUTPUT_SHARE = 5
MSG_SETUP_TRIPLES = 6
MSG_ENVELOPE = 7
MSG_ENVELOPE_ACK = 8

KIND_NAMES = {
    MSG_INPUT_SHARE: "INPUT_SHARE",
    MSG_AND_OPENING: "AND_OPENING",
    MSG_GARBLED_TABLES: "GARBLED_TABLES",
    MSG_LABELS: "LABELS",
    MSG_OUTPUT_SHARE: "OUTPUT_SHARE",
    MSG_SETUP_TRIPLES: "SETUP_TRIPLES",
    MSG_ENVELOPE: "ENVELOPE",
    MSG_ENVELOPE_ACK: "ENVELOPE_ACK",
}

_HEADER = struct.Struct(">I")


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


def frame_size(payload_len: int) -> int:
    """Total on-wire bytes of a frame with the given payload length."""
    return 4 + 1 + payload_len


def _sleep_until(arrival: float) -> None:
    wait = arrival - time.monotonic()
    if wait > 0:
        time.sleep(wait)


class LoopbackEnd:
    """One endpoint of an in-process channel pair.

    Frames become visible to the peer ``one_way_delay`` seconds after send;
    receive blocks until the frame's arrival time.
    """

    def __init__(self, inbox: "queue.Queue", outbox: "queue.Queue",
                 one_way_delay: float, timeout: float | None) -> None:
        self._inbox = inbox
        self._outbox = outbox
        self._delay = one_way_delay
        self._timeout = timeout
        self._closed = False

    @staticmethod
    def pair(one_way_delay: float = 0.0,
             timeout: float | None = 60.0) -> tuple["LoopbackEnd", "LoopbackEnd"]:
        q_ab: queue.Queue = queue.Queue()
        q_ba: queue.Queue = queue.Queue()
        a = LoopbackEnd(q_ba, q_ab, one_way_delay, timeout)
        b = LoopbackEnd(q_ab, q_ba, one_way_delay, timeout)
        return a, b

    def send(self, kind: int, payload: bytes) -> int:
        """Queue one frame; returns its on-wire size in bytes."""
        if self._closed:
            raise ChannelClosed("send on closed channel")
        frame = encode_frame(kind, payload)
        self._outbox.put((time.monotonic() + self._delay, frame))
        return len(frame)

    def recv(self) -> tuple[int, bytes, int]:
        """Return (kind, payload, frame_size); blocks until arrival time."""
        try:
            item = self._inbox.get(timeout=self._timeout)
        except queue.Empty:
            raise ChannelTimeout("no frame within timeout") from None
        if item is None:
            raise ChannelClosed("peer closed the channel")
        arrival, frame = item
        _sleep_until(arrival)
        return frame[4], frame[5:], len(frame)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._outbox.put(None)


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
        buf = b""
        while len(buf) < n:
            try:
                chunk = self._sock.recv(n - len(buf))
            except socket.timeout:
                raise ChannelTimeout("no frame within timeout") from None
            except OSError as exc:
                raise ChannelClosed(str(exc)) from exc
            if not chunk:
                raise ChannelClosed("peer closed the connection")
            buf += chunk
        return buf

    def recv(self) -> tuple[int, bytes, int]:
        (length,) = _HEADER.unpack(self._read_exact(4))
        if length < 1:
            raise ProtocolError("frame length below minimum")
        body = self._read_exact(length)
        return body[0], body[1:], 4 + length

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


def run_pair(fn_a, fn_b, close_on_error=()):
    """Run two party callables on two threads; return (result_a, result_b).

    If either side raises, the listed channels are closed so the peer cannot
    block forever, and the first exception is re-raised.
    """
    results: list = [None, None]
    errors: list = [None, None]

    def runner(idx, fn):
        try:
            results[idx] = fn()
        except BaseException as exc:  # noqa: BLE001 - must ferry everything
            errors[idx] = exc
            for ch in close_on_error:
                try:
                    ch.close()
                except Exception:
                    pass

    threads = [
        threading.Thread(target=runner, args=(0, fn_a), daemon=True),
        threading.Thread(target=runner, args=(1, fn_b), daemon=True),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for err in errors:
        if err is not None:
            raise err
    return results[0], results[1]


# --------------------------------------------------------------------------
# step generators

RECV = None  # what a step generator yields to wait for the next frame


def send_frame(kind: int, payload: bytes, transcript=None):
    """Step: send one frame and record it; returns its on-wire size."""
    n = yield (kind, payload)
    if transcript is not None:
        transcript.record_send(kind, n)
    return n


def recv_frame(expect: int, transcript=None):
    """Step: receive one frame of kind ``expect`` and record it; returns its payload."""
    kind, payload, n = yield RECV
    if kind != expect:
        raise ProtocolError(
            f"expected {KIND_NAMES.get(expect, expect)} frame, "
            f"got {KIND_NAMES.get(kind, kind)}")
    if transcript is not None:
        transcript.record_receive(kind, n)
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

    Frames carry the one-way delay of :class:`LoopbackEnd`: each becomes
    visible ``one_way_delay`` seconds after it was sent, and its receiver
    sleeps until then.  Whenever this end waits for a frame, the peer is
    advanced until it has sent one; :meth:`finish` runs the peer to its end
    once this side is done.  An exception the peer raises is kept in
    :attr:`peer_error`, and this end sees the peer close the channel.
    """

    def __init__(self, peer_steps, one_way_delay: float = 0.0) -> None:
        self._peer = peer_steps
        self._delay = one_way_delay
        self._inbox: deque = deque()  # (arrival, frame) from the peer
        self._outbox: deque = deque()  # (arrival, frame) to the peer
        self._op = _NOT_STARTED  # the peer's pending step
        self._peer_done = False
        self._closed = False
        self.peer_result = None
        self.peer_error: Exception | None = None

    def send(self, kind: int, payload: bytes) -> int:
        if self._closed:
            raise ChannelClosed("send on closed channel")
        frame = encode_frame(kind, payload)
        self._outbox.append((time.monotonic() + self._delay, frame))
        return len(frame)

    def recv(self) -> tuple[int, bytes, int]:
        if not self._inbox:
            self._run_peer(until_sent=True)
        if not self._inbox:
            if self._peer_done:
                raise ChannelClosed("peer closed the channel")
            raise ProtocolError("both parties are waiting for a frame")
        arrival, frame = self._inbox.popleft()
        _sleep_until(arrival)
        return frame[4], frame[5:], len(frame)

    def close(self) -> None:
        self._closed = True

    def finish(self):
        """Run the peer to its end; return its result or raise its error.

        This end sends nothing more, so a peer still waiting for a frame
        sees the channel close.
        """
        self._closed = True
        self._run_peer(until_sent=False)
        if not self._peer_done:
            self._resume(throw=ChannelClosed("peer closed the channel"))
        if self.peer_error is not None:
            raise self.peer_error
        return self.peer_result

    def _run_peer(self, until_sent: bool) -> None:
        """Advance the peer until it ends or waits for an unsent frame.

        With ``until_sent`` it also stops once it has sent a frame.
        """
        while not self._peer_done:
            op = self._op
            if op is _NOT_STARTED:
                self._resume()
            elif op is RECV:
                if not self._outbox:
                    return
                arrival, frame = self._outbox.popleft()
                _sleep_until(arrival)
                self._resume((frame[4], frame[5:], len(frame)))
            else:
                frame = encode_frame(*op)
                self._inbox.append((time.monotonic() + self._delay, frame))
                self._resume(len(frame))
                if until_sent:
                    return

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

"""Precomputed oblivious transfer (Beaver, CRYPTO 1995) on dealer material.

The dealer hands the sender, party 1, two random 128-bit pads r0 and r1 per
transfer, and the receiver, party 0, a random choice bit d with the pad
r_d.  To receive message m_c of a pair, the receiver sends e = c XOR d; the
sender answers with m_0 XOR r_e and m_1 XOR r_(1 XOR e), and the receiver
opens slot c with its pad, since c XOR e = d.  The sender sees c only under
the one-time pad d, and the receiver holds one of the two pads, so the
other message stays one-time padded too.  A transfer costs the receiver's
one bit and the sender's two messages, in one round trip.

Yao's evaluator receives its input labels this way, one 16-byte label per
querier wire, and gmw's release delivers each output's value, such as an
entry's 6-byte identifier or the dummy.  Each party's material is packed:
transfer i's pads lie in 128-bit lane i of one int and its choice bit in
bit i of another, so both steps act on every transfer at once.  A message
travels in the low bytes of its lane, and a frame carries ``size`` bytes
per message: every transfer's slot 0, then every transfer's slot 1.
"""

from __future__ import annotations

from prelude.smpc.channel import MSG_INPUT_SHARE, recv_exact, send_frame
from prelude.smpc.shares import int_to_bits

LABEL_BITS = 128
LABEL_BYTES = LABEL_BITS // 8


def spread(bits: int, n: int) -> int:
    """Bit i of ``bits`` moved to bit 0 of 128-bit lane i, for ``n`` lanes."""
    out = bytearray(LABEL_BYTES * n)
    out[::LABEL_BYTES] = bytes(int_to_bits(bits, n))
    return int.from_bytes(out, "little")


def select(bits: int) -> int:
    """All ones in each lane whose bit 0 is set in ``bits`` (only bit 0 set)."""
    return (bits << LABEL_BITS) - bits


def to_lanes(data: bytes, n: int, size: int) -> int:
    """``n`` values of ``size`` bytes, concatenated, one per 128-bit lane."""
    out = bytearray(LABEL_BYTES * n)
    for j in range(size):  # byte j of every value at once
        out[j::LABEL_BYTES] = data[j::size]
    return int.from_bytes(out, "little")


def from_lanes(word: int, n: int, size: int) -> bytes:
    """Inverse of :func:`to_lanes`: the low ``size`` bytes of each lane."""
    data = word.to_bytes(LABEL_BYTES * n, "little")
    out = bytearray(size * n)
    for j in range(size):
        out[j::size] = data[j::LABEL_BYTES]
    return bytes(out)


def transfer_material(n: int, rng) -> tuple[tuple[int, int], tuple[int, int]]:
    """The receiver's (d, r_d) and the sender's (r0, r1) for ``n`` transfers."""
    r0 = rng.getrandbits(LABEL_BITS * n)
    r1 = rng.getrandbits(LABEL_BITS * n)
    d = rng.getrandbits(n)
    return (d, r0 ^ (select(spread(d, n)) & (r0 ^ r1))), (r0, r1)


def send_steps(m0: int, m1: int, n: int, size: int, pads: tuple[int, int],
               kind: int, transcript=None):
    """Sender: deliver message m_c of each of ``n`` pairs to a receiver choosing c.

    ``m0`` and ``m1`` hold the messages of ``size`` bytes, at most 16, in
    128-bit lanes, and ``pads`` is this side's (r0, r1).  Receives the
    masked choice bits as an INPUT_SHARE frame, then answers in one frame
    of ``kind``.
    """
    e = int.from_bytes((yield from recv_exact(
        MSG_INPUT_SHARE, (n + 7) // 8, transcript)), "little")
    r0, r1 = pads
    swap = select(spread(e, n)) & (r0 ^ r1)  # r_e = r0 ^ swap
    yield from send_frame(kind, from_lanes(m0 ^ r0 ^ swap, n, size)
                          + from_lanes(m1 ^ r1 ^ swap, n, size), transcript)


def choose_steps(choices: int, n: int, size: int, material: tuple[int, int],
                 kind: int, transcript=None):
    """Receiver: the message bit i of ``choices`` selects in transfer i.

    ``material`` is this side's (d, r_d).  Returns the messages of ``size``
    bytes in 128-bit lanes, transfer i in lane i.
    """
    d, pad = material
    yield from send_frame(MSG_INPUT_SHARE,
                          (choices ^ d).to_bytes((n + 7) // 8, "little"),
                          transcript)
    payload = yield from recv_exact(kind, 2 * size * n, transcript)
    slot0 = to_lanes(payload[: size * n], n, size)
    slot1 = to_lanes(payload[size * n :], n, size)
    chosen = slot0 ^ (select(spread(choices, n)) & (slot0 ^ slot1))
    return chosen ^ (pad & to_lanes(b"\xff" * size * n, n, size))

"""Precomputed oblivious transfer (Beaver, CRYPTO 1995) on dealer material.

The dealer hands the sender, party 1, two random 128-bit pads r0 and r1 per
transfer, and the receiver, party 0, a random choice bit d with the pad
r_d.  To receive message m_c of a pair, the receiver sends e = c XOR d; the
sender answers with m_0 XOR r_e and m_1 XOR r_(1 XOR e), and the receiver
opens slot c with its pad, since c XOR e = d.  The sender sees c only under
the one-time pad d, and the receiver holds one of the two pads, so the
other message stays one-time padded too.  A transfer costs the receiver's
one bit and the sender's two messages, one frame each way, so one online
round of a transcript.  The receiver's frame depends on nothing but its
choices and d, so it can go out before the sender is ready: yao's
querier sends its label choices with its envelope
(:func:`prelude.smpc.dealer.first_steps`), and the holder answers with
the labels in the flight that carries its ack.

Yao's evaluator receives its input labels this way, one 16-byte label per
querier wire, and gmw's release delivers each output's value, such as an
entry's 6-byte identifier or the dummy.  The transfers are part of the
dealer material for one run (:mod:`prelude.smpc.dealer`), as many as that
run takes, with pads as long as the messages: 16 bytes for a label, 6 for
an identifier.  Each party's material is packed: transfer i's pads lie in
lane i of one int, a lane being as many bytes as a message, and its choice
bit in bit i of another, so both steps act on every transfer at once.  The
messages travel in the same lanes, so a frame is two such ints, every
transfer's slot 0 and then every transfer's slot 1.
"""

from __future__ import annotations

from prelude.smpc.channel import MSG_INPUT_SHARE, recv_exact, send_frame
from prelude.smpc.shares import int_to_bits

LABEL_BITS = 128
LABEL_BYTES = LABEL_BITS // 8


def spread(bits: int, n: int, size: int = LABEL_BYTES) -> int:
    """Bit i of ``bits`` moved to bit 0 of lane i, for ``n`` lanes of
    ``size`` bytes."""
    out = bytearray(size * n)
    out[::size] = int_to_bits(bits, n)
    return int.from_bytes(out, "little")


def select(bits: int, size: int = LABEL_BYTES) -> int:
    """All ones in each lane of ``size`` bytes whose bit 0 is set in
    ``bits`` (only bit 0 set)."""
    return (bits << 8 * size) - bits


def to_lanes(data: bytes, n: int, size: int) -> int:
    """``n`` values of ``size`` bytes, concatenated, one per 128-bit lane."""
    out = bytearray(LABEL_BYTES * n)
    for j in range(size):  # byte j of every value at once
        out[j::LABEL_BYTES] = data[j::size]
    return int.from_bytes(out, "little")


def transfer_material(d: int, n: int, rng, size: int = LABEL_BYTES
                      ) -> tuple[tuple[int, int], tuple[int, int]]:
    """The receiver's (d, r_d) and the sender's (r0, r1) for ``n`` transfers
    of ``size``-byte messages on the choice bits ``d``, which the caller
    draws."""
    r0 = rng.getrandbits(8 * size * n)
    r1 = rng.getrandbits(8 * size * n)
    return (d, r0 ^ (select(spread(d, n, size), size) & (r0 ^ r1))), (r0, r1)


def send_steps(m0: int, m1: int, n: int, size: int, pads: tuple[int, int],
               kind: int):
    """Sender: deliver message m_c of each of ``n`` pairs to a receiver choosing c.

    ``m0`` and ``m1`` hold the messages in lanes of ``size`` bytes, and
    ``pads`` is this side's (r0, r1), dealt for that size.  Receives the
    masked choice bits as an INPUT_SHARE frame, then answers in one frame
    of ``kind``.
    """
    e = int.from_bytes((yield from recv_exact(MSG_INPUT_SHARE, (n + 7) // 8)),
                       "little")
    r0, r1 = pads
    swap = select(spread(e, n, size), size) & (r0 ^ r1)  # r_e = r0 ^ swap
    yield from send_frame(kind, (m0 ^ r0 ^ swap).to_bytes(size * n, "little")
                          + (m1 ^ r1 ^ swap).to_bytes(size * n, "little"))


def choose_steps(choices: int, n: int, size: int, material: tuple[int, int],
                 kind: int):
    """Receiver: the message bit i of ``choices`` selects in transfer i.

    ``material`` is this side's (d, r_d), dealt for ``size``-byte messages,
    and the sender must get the masked choices ``choices XOR d``,
    ``(n + 7) // 8`` bytes, as an INPUT_SHARE frame, which the caller
    sends.  Receives the sender's frame of ``kind`` and returns the
    messages in lanes of ``size`` bytes, transfer i in lane i.
    """
    payload = yield from recv_exact(kind, 2 * size * n)
    slot0 = int.from_bytes(payload[: size * n], "little")
    slot1 = int.from_bytes(payload[size * n :], "little")
    swap = select(spread(choices, n, size), size) & (slot0 ^ slot1)
    return slot0 ^ swap ^ material[1]

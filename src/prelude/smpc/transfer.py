"""Precomputed oblivious transfer (Beaver, CRYPTO 1995) on dealer material.

1-out-of-2.  The dealer hands the sender, party 1, two random pads r0 and
r1 per transfer, and the receiver, party 0, a random choice bit d with the
pad r_d.  To receive message m_c of a pair, the receiver sends e = c XOR
d; the sender answers with m_0 XOR r_e and m_1 XOR r_(1 XOR e), and the
receiver opens slot c with its pad, since c XOR e = d.  The sender sees c
only under the one-time pad d, and the receiver holds one of the two
pads, so the other message stays one-time padded too.  gmw's release
delivers each output's value this way, such as an entry's 6-byte
identifier or the dummy, one transfer per lane.

1-out-of-3, the same transfer over Z3 (Naor & Pinkas, SODA 2001, on
Beaver's precomputation).  The dealer hands the sender three random pads
p0, p1 and p2 per transfer, and the receiver a uniform symbol u of Z3 with
the pad p_u.  To receive message m_x of three, the receiver sends the
shift s = x - u mod 3, and the sender puts each message m_v under the pad
its position selects, p_(v - s), so slot x holds m_x XOR p_u.  The sender
sees x only shifted by u, a uniform symbol it never learns, and the
receiver holds one pad of three, so the two messages it did not choose
stay one-time padded.  Yao's evaluator receives its input labels this
way, one 16-byte label per ternary cell, the label of the cell's symbol:
``*``, pinned one or pinned zero.  The shift is the querier's first
frame, the same shifted symbols gmw's lookup level reads
(:func:`prelude.smpc.dealer.first_steps`).

Either transfer costs the receiver's one frame and the sender's one, so
one online round of a transcript.  This module computes the sender's
frame (:func:`offer`, :func:`offer_symbols`) and opens it
(:func:`choose`, :func:`choose_symbols`); the callers' steps move the
frames.  The receiver's frame depends on
nothing but its choices and its dealer piece, so it can go out before
the sender is ready: a querier sends its shifts with its envelope, and a
yao holder answers with the labels in the flight that carries its ack.

The transfers are part of the dealer material for one run
(:mod:`prelude.smpc.dealer`), as many as that run takes, with pads as long
as the messages.  The sender's pads come from its seed and the
receiver's choice bits from its own, its symbols from the dealer's
stream; the dealer sends the receiver the pad its choices select, r_d or
p_u (:func:`choice_pad`, :func:`symbol_pad`), as a correction word.
Each party's material is packed: transfer i's pads lie in lane i of one
int per slot, a lane being as many bytes as a message, and its choice
bit in bit i of another, or its symbol in bits i and n + i of two bit
planes, so every step acts on every transfer at once.  The messages
travel in the same lanes, so a frame is two or three such ints, every
transfer's slot 0 and then every transfer's slot 1, and slot 2.
"""

from __future__ import annotations

from prelude.smpc.shares import int_to_bits

LABEL_BITS = 128
LABEL_BYTES = LABEL_BITS // 8


def lane_mask(bits: int, n: int, size: int = LABEL_BYTES) -> int:
    """All ones in lane i of ``n`` lanes of ``size`` bytes where bit i of
    ``bits`` is set, zeros in the others."""
    out = bytearray(size * n)
    out[::size] = int_to_bits(bits, n)  # bit i to bit 0 of lane i
    low = int.from_bytes(out, "little")
    return (low << 8 * size) - low


def to_lanes(data: bytes, n: int, size: int) -> int:
    """``n`` values of ``size`` bytes, concatenated, one per 128-bit lane."""
    out = bytearray(LABEL_BYTES * n)
    for j in range(size):  # byte j of every value at once
        out[j::LABEL_BYTES] = data[j::size]
    return int.from_bytes(out, "little")


def choice_pad(d: int, n: int, size: int, pads: tuple[int, int]) -> int:
    """The receiver's pad r_d of ``n`` transfers of ``size``-byte messages
    on the choice bits ``d``, of the sender's ``pads`` (r0, r1)."""
    r0, r1 = pads
    return r0 ^ (lane_mask(d, n, size) & (r0 ^ r1))


def offer(m0: int, m1: int, e: int, n: int, size: int,
          pads: tuple[int, int]) -> bytes:
    """Sender: its frame delivering message m_c of each of ``n`` pairs to a
    receiver choosing c.

    ``m0`` and ``m1`` hold the messages in lanes of ``size`` bytes, ``e``
    the receiver's masked choice bits, and ``pads`` is this side's (r0,
    r1), dealt for that size.  The frame is ``2 * size * n`` bytes.
    """
    r0, r1 = pads
    swap = lane_mask(e, n, size) & (r0 ^ r1)  # r_e = r0 ^ swap
    return ((m0 ^ r0 ^ swap).to_bytes(size * n, "little")
            + (m1 ^ r1 ^ swap).to_bytes(size * n, "little"))


def choose(payload: bytes, choices: int, n: int, size: int,
           material: tuple[int, int]) -> int:
    """Receiver: the message bit i of ``choices`` selects in transfer i.

    ``material`` is this side's (d, r_d), dealt for ``size``-byte messages,
    and the sender must have got the masked choices ``choices XOR d``.
    ``payload`` is the sender's frame (:func:`offer`), ``2 * size * n``
    bytes.  Returns the messages in lanes of ``size`` bytes, transfer i in
    lane i.
    """
    slot0 = int.from_bytes(payload[: size * n], "little")
    slot1 = int.from_bytes(payload[size * n :], "little")
    swap = lane_mask(choices, n, size) & (slot0 ^ slot1)
    return slot0 ^ swap ^ material[1]


def _symbol_lanes(symbols: int, n: int) -> tuple[int, int]:
    """All ones in each 16-byte lane whose symbol reads 1, and in each whose
    symbol reads 2, for ``n`` symbols in two bit planes."""
    lanes = lane_mask(symbols, 2 * n)
    return lanes & ((1 << LABEL_BITS * n) - 1), lanes >> LABEL_BITS * n


def _pick(values, lanes: tuple[int, int]) -> int:
    """Each lane of ``values[v]`` where the symbol :func:`_symbol_lanes`
    gave reads v."""
    first, second, third = values
    ones, twos = lanes
    return first ^ (ones & (first ^ second)) ^ (twos & (first ^ third))


def symbol_pad(u: int, n: int, pads: tuple[int, ...]) -> int:
    """The receiver's pad p_u of ``n`` 1-out-of-3 transfers of 16-byte
    labels on the symbols ``u``, two bit planes, of the sender's ``pads``
    (p0, p1, p2)."""
    return _pick(pads, _symbol_lanes(u, n))


def offer_symbols(messages, shift: int, n: int,
                  pads: tuple[int, ...]) -> bytes:
    """Sender: its frame delivering label m_x of each of ``n`` triples to a
    receiver whose symbol is x.

    ``messages`` is (m0, m1, m2), the labels in 16-byte lanes, ``shift``
    the receiver's shifted symbols s = x - u mod 3, two bit planes, and
    ``pads`` this side's (p0, p1, p2).  Slot v of the frame holds m_v
    under p_(v - s), 16 n bytes each.
    """
    p0, p1, p2 = pads
    lanes = _symbol_lanes(shift, n)
    under = (_pick((p0, p2, p1), lanes), _pick((p1, p0, p2), lanes),
             _pick((p2, p1, p0), lanes))
    return b"".join((m ^ pad).to_bytes(LABEL_BYTES * n, "little")
                    for m, pad in zip(messages, under, strict=True))


def choose_symbols(payload: bytes, symbols: int, n: int, pad: int) -> int:
    """Receiver: the label symbol i of ``symbols`` selects in transfer i.

    ``symbols`` holds ``n`` symbols of Z3 as two bit planes, ``pad`` is
    this side's p_u for its shifts u, and the sender must hold the shifts
    ``symbols - u mod 3``.  ``payload`` is the sender's frame
    (:func:`offer_symbols`), ``48 n`` bytes.  Returns the labels in
    16-byte lanes, transfer i in lane i.
    """
    size = LABEL_BYTES * n  # a slot
    slots = [int.from_bytes(payload[at : at + size], "little")
             for at in range(0, len(payload), size)]
    return _pick(slots, _symbol_lanes(symbols, n)) ^ pad

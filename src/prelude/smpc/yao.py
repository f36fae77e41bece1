"""Garbled comparator cells and a key-sum zero test over them.

Party 1, the holder, garbles and party 0, the querier, evaluates, over the
per-entry comparator template (:mod:`prelude.circuits`) run as ``lanes``
instances, one per table entry.  Only yao's level of the template, its w
ternary cells, is garbled: cell j reads the querier's symbol x_j, ``*``,
pinned one or pinned zero, against the holder's two bits h_zero[j] and
h_one[j], which it knows in the clear, one row per cross gate.  The rest of
the template, the OR over the cells, is never garbled; the querier needs
only the value released where it is 0, and a sum of keys decides that
instead.

Labels.  Cell j has three 128-bit labels drawn independently, L* for
``*``, L1 for pinned one and L0 for pinned zero.  The querier receives the
label of its symbol by a precomputed 1-out-of-3 transfer
(:mod:`prelude.smpc.transfer`; Naor & Pinkas, SODA 2001, on Beaver's
precomputation, CRYPTO 1995), one per cell whatever the lane count, since
one querier rule feeds every lane.  Its shifts s = x - u mod 3 are its
first frame (:func:`~prelude.smpc.dealer.first_steps`), and the holder
refuses one of which a cell reads the unused symbol 3 before it garbles.
The holder's word stays clear and gets no labels.  No label carries a
permute bit: the evaluator is the querier, who knows the symbol its label
stands for.

Rows.  Each cell has two rows and one zero-key W0 per lane, under a PRF F
of a label, lane i and a bit:

- R1 = F(L*, i, h_zero) XOR F(L1, i, 0), for the gate q_one h_zero;
- R0 = F(L*, i, h_one) XOR F(L0, i, 0), for the gate q_zero h_one;
- W0 = F(L*, i, 0).

An evaluator holding L* computes F(L*, i, 0), which is W0; one holding L1
computes F(L1, i, 0) XOR R1 = F(L*, i, h_zero), which is W0 exactly where
h_zero = 0; one holding L0 does the same with R0 and h_one.  A table holds
cell j's rows side by side, R1's lanes then R0's, cell by cell.  The lane
count, which both parties know, picks F; the querier learns k in the ack
anyway, so the choice shows it nothing new.

- Label-keyed, from :data:`LABEL_KEYED_LANES` lanes on.  Each label keys
  AES-128 over counter blocks: F(L, i, b) = AES_L(c(i, b)), lane i
  big-endian with the bit in the top byte.  The garbler builds a cell's
  rows over every lane with one ECB call under L*, on both rows' counter
  blocks, whose top bytes a strided slice sets from the holder's bits,
  then one CTR call under L1 over R1 and one under L0 over R0, counting
  from zero; one more CTR call under L* over an accumulator adds the
  cell's zero-keys to the lane sums S0.  The evaluator makes one CTR call
  per cell over its accumulator, then adds the rows its symbols pick: at
  width 104 a session makes 4 x 104 + 104 = 520 keyed calls.
- Hashed, below it.  F(L, i, b) = H(L, j + b), where H is the fixed-key
  hash H(x, t) = pi(sigma(x) XOR t) XOR sigma(x) of Guo, Katz, Wang & Yu
  (IEEE S&P 2020), pi is AES-128 under a fixed public key, sigma is
  doubling in GF(2^128), and j = ``2 (g x lanes + i)`` is cell g's even
  tweak in lane i, the same for its three labels, so the bit takes the
  odd tweak beside it.  The garbler's pi inputs are one buffer
  per session: both rows under L*, the rows under L1 and L0, then the
  zero-keys under L*, five blocks per cell and lane in one AES call, and
  the evaluator's are one block per cell and lane in one more.  A tweak is
  XORed into the few low bytes of each block that it changes.

The threshold.  A label-keyed cell costs five OpenSSL calls, each keyed
afresh, whatever the lane count, so at rule width 104 its 104 cells cost
about 0.7 ms of a session before any lane; hashed rows cost int and bytes
conversions that grow with the lanes.  Whole loopback sessions, medians
of 200 per shape in four interleaved runs on a 2-CPU x86-64 host, hashed
against label-keyed rows: at width 104, 0.51-0.57 against 0.97-1.07 ms
at 5 lanes, 0.85-0.91 against 1.02-1.04 ms at 12, about even at 14, and
1.25-1.34 against 1.05-1.14 ms at 19; at width 4 the two stay within
0.02 ms of each other from 5 lanes to 32.  So the fork stays: label-keyed
rows at every lane count would cost a churn-sized table about half a
millisecond a session.  :data:`LABEL_KEYED_LANES` sits at the crossover,
14 lanes; a second set of four runs gave hashed rows 0.93-1.51 against
1.02-1.12 ms at 12 lanes, 1.03-1.87 against 1.04-1.15 at 14 and
1.12-1.90 against 1.04-1.10 at 15.

The zero test.  Per lane the garbler XORs the zero-keys of the lane's
cells into a sum S0 and the evaluator XORs its keys into S.  A cell that
reads 1, a pinned bit of the querier's that the holder pins the other
way, adds to S the offset F(L*, i, 1) XOR F(L*, i, 0), which only the
garbler knows, so S equals S0 exactly when no cell does, barring a 2^-128
chance: when the two rules overlap.  This is the OT-based private
equality test of Pinkas, Schneider & Zohner (USENIX Security 2014), in
which the receiver XORs the strings it chose, applied to ternary cells.

The release (:func:`release_steps`, :func:`open_steps`).  Per lane the
holder sends its value followed by a tag of at least 80 zero bits, one
16-byte block under the pad H(S0, release tweak + lane).  The evaluator
removes H(S, ...) and keeps the value where the tag reads zero; anywhere
else it opens the fallback, the dummy identifier.  Release tweaks lie
above every garbling tweak.

Privacy.  The transfer hands the evaluator one label per cell, that of
its symbol, and shows the garbler only the shifts, uniform over Z3.  Each
row its symbol leaves unopened is padded by F(L1, i, 0) or F(L0, i, 0),
under a label it lacks; the row it opens yields F(L*, i, h), under L*,
which it lacks unless its symbol is ``*``, and then it opens no row.  So
the rows hide the holder's bits, and a key it computes is W0 or another
PRF output under L*, which it cannot tell apart.  Both PRFs take
independent labels.  Label-keyed, they are independent AES keys, and
every input c(i, b) is distinct per lane and bit.  Hashed, each label is
an independent uniform offset of its own, and the pads under it are H at
tweaks distinct per cell, lane and bit and below the release tweaks, so
they are pseudorandom to the evaluator under H's tweakable correlation
robustness, label by label.  Where its sum misses S0, the pad is the hash
of a key it does not hold: the value stays hidden and the tag fails, so
the lane opens to the dummy, as where the rules are distinct.  The
tables' size is fixed by the template and the lane count alone.

AES comes from the OpenSSL that CPython's ``hashlib`` already loads
(:mod:`prelude.smpc.aes`).  The tables depend only on the template and the
holder's bits, so they travel during setup, two rows per cell and lane.
The online phase is one round trip for the querier's labels and then the
release, a second frame from the garbler and so a second round.  The
querier's shifts need no k, so they go out with its envelope, and the
holder sends the ack, the tables, the labels and the release in the one
flight back: a session takes two one-way flights.
"""

from __future__ import annotations

import sys
from array import array
from typing import Sequence

from prelude.smpc.aes import Aes128, Aes128Ecb, pinned
from prelude.smpc.channel import (
    MSG_GARBLED_TABLES,
    MSG_LABELS,
    MSG_OUTPUT_SHARE,
    recv_exact,
    send_frame,
)
from prelude.smpc.dealer import DealerMaterial, recv_shift_steps
from prelude.smpc.shares import int_to_bits
from prelude.smpc.transfer import (
    LABEL_BITS,
    LABEL_BYTES,
    choose_symbol_steps,
    send_symbol_steps,
    to_lanes,
)

# pi: AES-128 under a fixed, public key
_PI = Aes128Ecb(b"prelude-halfgate")
# From this many lanes on the rows are label-keyed, below it hashed (see
# the module docstring).
LABEL_KEYED_LANES = 14
# Release tweaks start here, above every garbling tweak of any session.
_RELEASE_TWEAK = 1 << 96
# A released value is followed by at least this many zero bytes, its tag.
_TAG_BYTES = 10
_GF128_REDUCE = 0x87  # x^128 = x^7 + x^2 + x + 1


def _lane_word(label: int, n: int) -> int:
    """The int that holds ``label`` in each of ``n`` lanes."""
    return int.from_bytes(label.to_bytes(LABEL_BYTES, "little") * n, "little")


def _lane_ones(lanes: int) -> int:
    """The int whose every lane holds 1: multiplying by it copies a label."""
    return _lane_word(1, lanes)


def _double(x: int, ones: int) -> int:
    """sigma: every 128-bit lane of ``x`` doubled in GF(2^128).

    ``ones`` is :func:`_lane_ones` of the lane count.  A lane's top bit,
    shifted into the next lane's bit 0, is cleared there and sets the
    reduction constant in its own lane instead.
    """
    carry = (x >> (LABEL_BITS - 1)) & ones
    return (x << 1) ^ (carry << LABEL_BITS) ^ (carry * _GF128_REDUCE)


def _words(values: range, byteorder: str) -> array:
    """``values`` as 8-byte words in ``byteorder``."""
    words = array("Q", values)
    if sys.byteorder != byteorder:
        words.byteswap()
    return words


def _lane_index(n: int) -> int:
    """Lane i holding i, for each of ``n`` lanes."""
    lanes = array("Q", bytes(LABEL_BYTES * n))
    lanes[::2] = _words(range(n), "little")  # the low half of each lane
    return int.from_bytes(lanes, "little")


def _fold(word: int, count: int, width: int) -> int:
    """The XOR of the ``count`` fields of ``width`` bits that ``word`` holds."""
    while count > 1:
        half = count // 2
        word = (word & ((1 << half * width) - 1)) ^ (word >> half * width)
        count -= half
    return word


def _by_cell(data: bytes, unit: int) -> bytes:
    """The two halves of ``data``, fields of ``unit`` bytes, in cell
    order: field c of the first half, then field c of the second.

    A word's field c holds cell c's pinned-one bit and field w + c its
    pinned-zero bit, and a table holds cell c's rows R1 and R0 side by
    side.  Few fields are copied whole; many short ones move by strided
    slices, one per item of a field, an item being 8 bytes where the
    fields allow.
    """
    half = len(data) // 2
    size = 8 if unit % 8 == 0 else 1
    items = unit // size  # per field
    if half // unit <= items:
        view = memoryview(data)
        return b"".join([view[at : at + unit] for first in range(0, half, unit)
                         for at in (first, half + first)])
    out = bytearray(len(data))
    kind = "Q" if size == 8 else "B"
    src, dst = memoryview(data).cast(kind), memoryview(out).cast(kind)
    end = half // size
    for at in range(items):
        dst[at :: 2 * items] = src[at : end : items]
        dst[items + at :: 2 * items] = src[end + at :: items]
    return out


def _chosen_rows(word: int, w: int, tables: bytes, lanes: int) -> int:
    """The XOR of the rows the querier's symbols pick: R1 of each cell it
    pins to one and R0 of each it pins to zero."""
    size = LABEL_BYTES * lanes
    rows = 0
    for g in range(2 * w):
        if word >> g & 1:
            at = size * (2 * (g % w) + g // w)  # bit g is cell g mod w's
            rows ^= int.from_bytes(tables[at : at + size], "little")
    return rows


# --------------------------------------------------------------------------
# hashed rows, below LABEL_KEYED_LANES lanes


def _repeat(data: bytes, unit: int, copies: int) -> bytes:
    """Each field of ``unit`` bytes of ``data``, a multiple of 8, ``copies``
    times over, field by field, by strided slices, one per 8-byte word of
    a field's copies."""
    if copies == 1:
        return data
    words = unit // 8
    out = bytearray(len(data) * copies)
    src, dst = memoryview(data).cast("Q"), memoryview(out).cast("Q")
    step = words * copies
    for at in range(step):
        dst[at::step] = src[at % words :: words]
    return out


def _tweaks(w: int, lanes: int) -> bytes:
    """The even tweak j = 2 (c x lanes + i) of cell c's lane i, as eight
    little-endian bytes, cell by cell."""
    return _words(range(0, 2 * w * lanes, 2), "little").tobytes()


def _hash(inputs: bytearray, tweaks: bytes, low: bytes = b"") -> bytearray:
    """pi of every block of ``inputs`` once its tweak is XORed in.

    ``tweaks`` holds each block's tweak as eight little-endian bytes, and
    ``low``, if given, one byte for each of the first blocks more to XOR
    into bit 0, which no even tweak sets.  A tweak changes only the low
    bytes of a block, so only those bytes are read and rewritten.
    """
    blocks = len(inputs) // LABEL_BYTES
    top = (int.from_bytes(tweaks[-8:], "little").bit_length() + 7) // 8
    for at in range(max(1, top)):  # the last tweak is the largest
        column = int.from_bytes(tweaks[at::8], "little")
        if at == 0:
            column ^= int.from_bytes(low, "little")
        inputs[at::LABEL_BYTES] = (int.from_bytes(
            inputs[at::LABEL_BYTES], "little") ^ column).to_bytes(
                blocks, "little")
    return _PI.encrypt(inputs)


def _garble(labels: int, w: int, clear: int,
            lanes: int) -> tuple[bytes, int]:
    """Return (the hashed tables, the lane sums S0 of the zero-keys).

    ``labels`` holds the ``w`` cells' labels L*, then L1, then L0, cell
    c's in field c of each third, and ``clear`` the holder's word.
    """
    field = LABEL_BYTES * w
    doubled = _double(labels, _lane_ones(3 * w)).to_bytes(3 * field,
                                                          "little")
    star = doubled[:field]
    # sigma(L) of each row's labels, cell by cell: L* for both rows, and
    # L1 for R1 and L0 for R0
    under_star = _repeat(star, LABEL_BYTES, 2)
    under_own = _by_cell(doubled[field:], LABEL_BYTES)
    # pi's inputs, sigma(L) ^ j in each lane, the holder's bit b turning j
    # into the odd tweak j + b under L*: the rows under L*, the rows under
    # L1 and L0, then the zero-keys under L*, each cell's lanes side by side
    tweaks = _tweaks(w, lanes)
    rows = _repeat(tweaks, 8 * lanes, 2)
    hashed = _hash(
        bytearray(_repeat(under_star + under_own + star, LABEL_BYTES,
                          lanes)),
        rows + rows + tweaks,
        _by_cell(int_to_bits(clear, 2 * w * lanes), lanes))
    # T = H(L*, j + b) ^ H(L, j): the pi outputs and both sigma(L) terms
    feed = (int.from_bytes(under_star, "little")
            ^ int.from_bytes(under_own, "little")).to_bytes(2 * field,
                                                            "little")
    size = 2 * field * lanes  # the tables', two rows per cell and lane
    tables = (int.from_bytes(hashed[:size], "little")
              ^ int.from_bytes(hashed[size : 2 * size], "little")
              ^ int.from_bytes(_repeat(feed, LABEL_BYTES, lanes), "little"))
    return (tables.to_bytes(size, "little"),
            _key_sums(int.from_bytes(hashed[2 * size :], "little"), star, w,
                      lanes))


def _key_sums(keys: int, sigmas: bytes, w: int, lanes: int) -> int:
    """Each lane's XOR of the ``w`` cells' H(L, j), from ``keys``, their pi
    outputs, one field per cell, and ``sigmas``, their sigma(L).

    A label's sigma(L) is the same in every lane, so those terms add up to
    sigma of the XOR of the ``w`` labels, copied to every lane.
    """
    return (_fold(keys, w, LABEL_BITS * lanes)
            ^ _lane_word(_fold(int.from_bytes(sigmas, "little"), w,
                               LABEL_BITS), lanes))


def _evaluate(chosen: int, w: int, word: int, tables: bytes,
              lanes: int) -> int:
    """The lane sums S of the keys the ``w`` labels of ``chosen``, cell
    c's in field c, unlock under the hashed tables, for the querier's
    ``word``."""
    doubled = _double(chosen, _lane_ones(w)).to_bytes(LABEL_BYTES * w,
                                                      "little")
    keys = int.from_bytes(_hash(bytearray(_repeat(doubled, LABEL_BYTES,
                                                  lanes)),
                                _tweaks(w, lanes)), "little")
    return _key_sums(keys, doubled, w, lanes) ^ _chosen_rows(word, w, tables,
                                                             lanes)


# --------------------------------------------------------------------------
# label-keyed rows, from LABEL_KEYED_LANES lanes on


def _counters(lanes: int) -> bytearray:
    """The counter blocks c(i, 0) of ``lanes`` lanes: lane i big-endian."""
    blocks = array("Q", bytes(LABEL_BYTES * lanes))
    blocks[1::2] = _words(range(lanes), "big")  # the low half of each block
    return bytearray(blocks)


def _garble_keyed(labels: int, w: int, clear: int,
                  lanes: int) -> tuple[bytearray, int]:
    """Return (the label-keyed tables, the lane sums S0 of the zero-keys).

    ``labels`` holds the ``w`` cells' labels L*, then L1, then L0, cell
    c's in field c of each third, and ``clear`` the holder's word.
    """
    size = LABEL_BYTES * lanes
    # every row starts as its counter blocks c(i, b), the holder's bit for
    # the row and lane i in the top byte of its block
    tables = _counters(lanes) * (2 * w)
    tables[::LABEL_BYTES] = _by_cell(int_to_bits(clear, 2 * w * lanes), lanes)
    sums = bytearray(size)
    keys = bytearray(labels.to_bytes(3 * LABEL_BYTES * w, "little"))
    pins = [pinned(buf) for buf in (tables, sums, keys)]
    (_, t_at), (_, s_at), (_, star) = pins
    one, zero = star + LABEL_BYTES * w, star + 2 * LABEL_BYTES * w
    ecb, ctr = Aes128("ecb"), Aes128("ctr")
    for c in range(w):
        row, key = t_at + 2 * size * c, LABEL_BYTES * c
        ecb.encrypt(star + key, row, row, 2 * size)  # AES_L*(c(i, b))
        ctr.encrypt(one + key, row, row, size)  # R1 ^= AES_L1(c(i, 0))
        ctr.encrypt(zero + key, row + size, row + size,
                    size)  # R0 ^= AES_L0(c(i, 0))
        ctr.encrypt(star + key, s_at, s_at, size)  # S0 ^= AES_L*(c(i, 0))
    return tables, int.from_bytes(sums, "little")


def _evaluate_keyed(chosen: int, w: int, word: int, tables: bytes,
                    lanes: int) -> int:
    """The lane sums S of the keys the ``w`` labels of ``chosen``, cell
    c's in field c, unlock under the label-keyed tables, for the
    querier's ``word``."""
    size = LABEL_BYTES * lanes
    sums = bytearray(size)
    keys = bytearray(chosen.to_bytes(LABEL_BYTES * w, "little"))
    pins = [pinned(buf) for buf in (sums, keys)]
    (_, s_at), (_, at) = pins
    ctr = Aes128("ctr")
    for key in range(at, at + LABEL_BYTES * w, LABEL_BYTES):
        ctr.encrypt(key, s_at, s_at, size)  # S ^= AES_L(c(i, 0))
    return int.from_bytes(sums, "little") ^ _chosen_rows(word, w, tables,
                                                         lanes)


def garble_steps(circuit, word: int, setup: DealerMaterial, rng):
    """Garbler's (party 1's) side of one run of the template, over the
    lanes ``setup`` was dealt for.

    ``word`` is the holder's clear word, field g holding gate g's lanes
    (:meth:`~prelude.circuits.BatchQueryCircuit.word`).  Reads the
    querier's shifts first, and raises ProtocolError, before it garbles,
    if a cell reads the unused symbol 3.  Returns the lane sums S0 of the
    zero-keys, lane i in bits [128 i, 128 i + 128), under which
    :func:`release_steps` releases values.
    """
    setup.check(1, circuit, "yao")
    if rng is None:
        raise ValueError("garbler needs an rng")
    lanes = setup.lanes
    circuit.check_word(1, word, lanes)
    w = circuit.width
    shift = yield from recv_shift_steps(w)
    labels = rng.getrandbits(3 * LABEL_BITS * w)  # L*, L1, L0 of every cell
    garble = _garble if lanes < LABEL_KEYED_LANES else _garble_keyed
    tables, sums = garble(labels, w, word, lanes)
    yield from send_frame(MSG_GARBLED_TABLES, tables)
    every = (1 << LABEL_BITS * w) - 1
    yield from send_symbol_steps(
        (labels & every, labels >> LABEL_BITS * w & every,
         labels >> 2 * LABEL_BITS * w),
        shift, w, setup.transfer, MSG_LABELS)
    return sums


def evaluate_steps(circuit, word: int, setup: DealerMaterial):
    """Evaluator's (party 0's) side of one run of the template, over the
    lanes ``setup`` was dealt for.

    ``word`` is the querier's word, its symbol x_j in bits j and w + j
    (:meth:`~prelude.circuits.BatchQueryCircuit.word`), whose shifts the
    evaluator has sent already (:func:`~prelude.smpc.dealer.first_steps`).
    Returns the lane sums S of its keys, with which :func:`open_steps`
    opens the released values.
    """
    setup.check(0, circuit, "yao")
    lanes = setup.lanes
    circuit.check_word(0, word, lanes)
    w = circuit.width
    tables = yield from recv_exact(MSG_GARBLED_TABLES,
                                   2 * LABEL_BYTES * lanes * w)
    chosen = yield from choose_symbol_steps(word, w, setup.transfer[0],
                                            MSG_LABELS)
    evaluate = _evaluate if lanes < LABEL_KEYED_LANES else _evaluate_keyed
    return evaluate(chosen, w, word, tables, lanes)


# --------------------------------------------------------------------------
# releasing values under the key sums


def _release_pads(sums: int, lanes: int) -> int:
    """H(S_i, release tweak + i) in lane i, for the sum S_i of lane i."""
    ones = _lane_ones(lanes)
    doubled = _double(sums, ones)
    tweaks = _RELEASE_TWEAK * ones + _lane_index(lanes)
    return int.from_bytes(_PI.encrypt((doubled ^ tweaks).to_bytes(
        LABEL_BYTES * lanes, "little")), "little") ^ doubled


def _check_size(size: int) -> None:
    if size > LABEL_BYTES - _TAG_BYTES:
        raise ValueError(f"released values are at most "
                         f"{LABEL_BYTES - _TAG_BYTES} bytes")


def release_steps(
    sums: int,
    values: Sequence[bytes],
):
    """Garbler: release ``values[i]`` to an evaluator whose sum in lane i is S0's.

    One frame in the release round carries one 16-byte block per lane: the
    value, then zero bytes as its tag, under the pad of lane i's sum.  Every
    value must have the same length, at most 6 bytes.
    """
    size = len(values[0]) if values else 0
    _check_size(size)
    if set(map(len, values)) - {size}:
        raise ValueError("released values must have equal length")
    lanes = len(values)
    plain = to_lanes(b"".join(values), lanes, size)
    payload = (_release_pads(sums, lanes) ^ plain).to_bytes(
        LABEL_BYTES * lanes, "little")
    yield from send_frame(MSG_OUTPUT_SHARE, payload)


def open_steps(sums: int, lanes: int, fallback: bytes):
    """Evaluator: open the value of each lane whose sum is the garbler's.

    Returns one value per lane, as long as ``fallback``, or ``fallback``
    for a lane whose tag does not read zero.
    """
    size = len(fallback)
    _check_size(size)
    payload = yield from recv_exact(MSG_OUTPUT_SHARE, LABEL_BYTES * lanes)
    plain = (int.from_bytes(payload, "little")
             ^ _release_pads(sums, lanes)).to_bytes(len(payload), "little")
    tag = bytes(LABEL_BYTES - size)
    return [plain[at : at + size]
            if plain[at + size : at + LABEL_BYTES] == tag else fallback
            for at in range(0, len(plain), LABEL_BYTES)]

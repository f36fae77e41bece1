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
The holder's rows stay clear and get no labels.  No label carries a
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
  odd tweak beside it.  The garbler's pi inputs are one buffer per
  session: both rows under L*, the rows under L1 and L0, then the
  zero-keys under L*, five blocks per cell and lane in one AES call, and
  the evaluator's are one block per cell and lane in one more.  Each party
  lays its blocks out lane by lane, so one bytes repetition copies its
  sigma(L) to every lane, XORs each tweak into the few low bytes it
  changes, and moves the outputs back to cell order by strided slices.
  The tweaks and the rest of what the width and the lane count alone fix
  are built once per width and lane count below the threshold and kept.
  The evaluator joins the rows its symbols pick to its keys, as further
  fields of the one fold that sums them per lane.

The threshold.  A label-keyed cell costs five OpenSSL calls, each keyed
afresh, whatever the lane count, so at rule width 104 its 104 cells cost
about 0.7 ms of a session before any lane; hashed rows cost int and bytes
conversions and strided copies that grow with the lanes.  Whole loopback
sessions (``tools/session_pairs.py``, medians of 150 per shape, six to
eight alternating pairs on a 2-CPU x86-64 host), hashed against
label-keyed rows: at width 104, 0.57 against 1.04 ms at 10 lanes, 0.69
against 1.06 at 14, 0.93-0.96 against 1.06-1.09 at 19, 1.01-1.03 against
1.09-1.11 at 21 and 1.02-1.06 against 1.10-1.11 at 22, every pair won by
the hashed rows; at 23 one run gave 1.14 against 1.09 ms and another
1.08 against 1.14.  At width 4 the two stay within 0.015 ms of each other
from 10 lanes to 23, the hashed rows ahead below 23.  So
:data:`LABEL_KEYED_LANES` sits at the crossover, 23 lanes, and the fork
stays: label-keyed rows at every lane count would cost a churn-sized
table about half a millisecond a session.

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

import struct
import sys
from array import array
from itertools import compress, product
from operator import itemgetter
from typing import Sequence

from prelude.circuits import gate_bits, lane_bits
from prelude.smpc.aes import Aes128, Aes128Ecb, pinned
from prelude.smpc.channel import (
    MSG_GARBLED_TABLES,
    MSG_LABELS,
    MSG_OUTPUT_SHARE,
    RECV,
    expect,
)
from prelude.smpc.dealer import DealerMaterial, read_shift
from prelude.smpc.shares import int_to_bits
from prelude.smpc.transfer import (
    LABEL_BITS,
    LABEL_BYTES,
    choose_symbols,
    offer_symbols,
    to_lanes,
)

# pi: AES-128 under a fixed, public key
_PI = Aes128Ecb(b"prelude-halfgate")
# From this many lanes on the rows are label-keyed, below it hashed (see
# the module docstring).
LABEL_KEYED_LANES = 23
# Release tweaks start here, above every garbling tweak of any session.
_RELEASE_TWEAK = 1 << 96
# A released value is followed by at least this many zero bytes, its tag.
_TAG_BYTES = 10
_GF128_REDUCE = 0x87  # x^128 = x^7 + x^2 + x + 1


def _copies(value: int, width: int, n: int) -> int:
    """The int that holds ``value`` in each of ``n`` fields of ``width``
    bits, from the copies of n // 2 fields by one shift."""
    if n < 2:
        return value * n
    half, odd = _copies(value, width, n // 2), n & 1
    return (half << width * (n // 2) | half) << width * odd | value * odd


def _double(x: int, ones: int) -> int:
    """sigma: every 128-bit lane of ``x`` doubled in GF(2^128).

    ``ones`` holds 1 in each of at least as many lanes.  A lane's top bit,
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


# (width, lane count) -> the hashed rows' constants, kept for lane counts
# below LABEL_KEYED_LANES only: fewer than LABEL_KEYED_LANES per width
_HASHED: dict[tuple[int, int], tuple] = {}


def _hashed(w: int, lanes: int) -> tuple:
    """(ones, tweaks, rows_tweaks, unpack, gates): the hashed rows'
    constants at width ``w`` and ``lanes`` lanes, built once below
    :data:`LABEL_KEYED_LANES` and afresh, never kept, from it on.

    Both parties hash lane by lane: lane i's blocks, in cell order, then
    lane i + 1's, so copying a lane's sigma(L) to every lane is one bytes
    repetition, and :func:`_to_cells` puts the outputs back in cell order.
    ``tweaks`` holds one int per byte of the tweaks that :func:`_hash`
    XORs into the evaluator's blocks, cell c's of lane i being byte i w + c
    of each, and ``rows_tweaks`` the garbler's: two rows per cell under L*,
    two under L1 and L0, then the zero-keys, lane by lane within each.
    ``ones`` holds 1 in each lane of the 3w labels, ``unpack`` splits the
    tables into their 2w rows, and ``gates`` puts those in gate order:
    every cell's R1, then every cell's R0.
    """
    got = _HASHED.get((w, lanes))
    if got is None:
        # lane i's even tweaks j = 2 (c x lanes + i), cell by cell
        by_lane = [_words(range(2 * i, 2 * w * lanes, 2 * lanes),
                          "little").tobytes() for i in range(lanes)]
        one = b"".join(by_lane)
        two = b"".join([lane * 2 for lane in by_lane])
        # the low bytes any tweak sets, and bit 0, which the holder's sets
        top = max(1, ((2 * w * lanes - 2).bit_length() + 7) // 8)
        tweaks, rows_tweaks = (tuple(int.from_bytes(words[at::8], "little")
                                     for at in range(top))
                               for words in (one, two + two + one))
        got = (_copies(1, LABEL_BITS, 3 * w), tweaks, rows_tweaks,
               struct.Struct(f"{LABEL_BYTES * lanes}s" * (2 * w)).unpack,
               itemgetter(*range(0, 2 * w, 2), *range(1, 2 * w, 2)))
        if lanes < LABEL_KEYED_LANES:
            _HASHED[w, lanes] = got
    return got


def _to_cells(data: bytes, lanes: int, rows: int) -> bytearray:
    """Blocks hashed lane by lane, in the tables' cell order.

    Lane i of ``data`` holds ``rows`` runs of w blocks, one per cell; the
    result holds cell c's run r of every lane together, cell by cell: the
    lanes of its R1, then of its R0, where ``rows`` is 2.  Each 8-byte
    half of a block moves by strided slices, one per lane and run or one
    per cell and run, whichever are fewer.  Only widths below 23 take the
    cells' loop; with a slice per lane there, whole width-4 sessions fell
    behind label-keyed rows from 16 lanes on (0.220 against 0.201 ms at 16,
    0.245 against 0.211 at 22, ``tools/session_pairs.py``, 2-CPU x86-64).
    """
    out = bytearray(len(data))
    src, dst = memoryview(data).cast("Q"), memoryview(out).cast("Q")
    w = len(src) // (2 * rows * lanes)
    for r, half in product(range(rows), (0, 1)):
        for a in range(min(lanes, w)):  # lane a's run r, or cell a's
            if lanes <= w:
                at = 2 * w * (rows * a + r) + half
                dst[2 * (lanes * r + a) + half :: 2 * rows * lanes] = src[
                    at : at + 2 * w : 2]
            else:
                at = 2 * lanes * (rows * a + r) + half
                dst[at : at + 2 * lanes : 2] = src[
                    2 * (w * r + a) + half :: 2 * rows * w]
    return out


def _hash(inputs: bytearray, tweaks: Sequence[int]) -> bytearray:
    """pi of every block of ``inputs`` once its tweak is XORed in.

    ``tweaks`` holds byte ``at`` of every block's tweak in int ``at``
    (:func:`_hashed`).  A tweak changes only the low bytes of a block, so
    only those are rewritten.
    """
    blocks = len(inputs) // LABEL_BYTES
    for at, column in enumerate(tweaks):
        inputs[at::LABEL_BYTES] = (int.from_bytes(
            inputs[at::LABEL_BYTES], "little") ^ column).to_bytes(
                blocks, "little")
    return _PI.encrypt(inputs)


def _garble(labels: int, w: int, rows: Sequence[str],
            lanes: int) -> tuple[bytes, int]:
    """Return (the hashed tables, the lane sums S0 of the zero-keys).

    ``labels`` holds the ``w`` cells' labels L*, then L1, then L0, cell
    c's in field c of each third, and ``rows`` the holder's rows, row i
    in lane i (:meth:`~prelude.circuits.BatchQueryCircuit.row`).
    """
    ones, _, tweaks, _, _ = _hashed(w, lanes)
    bits = LABEL_BITS * w
    doubled = _double(labels, ones)
    sigma = doubled.to_bytes(3 * LABEL_BYTES * w, "little")
    star = sigma[: LABEL_BYTES * w]
    # pi's inputs, sigma(L) ^ j, lane by lane: every cell's R1 then every
    # cell's R0 under L*, the holder's bit b turning j into the odd tweak
    # j + b in bit 0, which no even tweak sets; the same rows under L1 and
    # L0; then the zero-keys under L*.  Lane i's holder bits are R1's
    # cells then R0's, gates 0 to 2w - 1.
    low = lane_bits(rows)
    pis = memoryview(_hash(bytearray().join(
        [(star + star) * lanes, sigma[len(star):] * lanes, star * lanes]),
        (tweaks[0] ^ low, *tweaks[1:])))
    # T = H(L*, j + b) ^ H(L, j): the pi outputs and both sigma(L) terms,
    # the same in every lane
    stars = doubled & ((1 << bits) - 1)
    feed = (stars << bits | stars) ^ doubled >> bits
    size = 2 * LABEL_BYTES * w * lanes  # the tables', two rows per cell
    tables = (int.from_bytes(pis[:size], "little")
              ^ int.from_bytes(pis[size : 2 * size], "little")
              ^ _copies(feed, 2 * bits, lanes))
    return (_to_cells(tables.to_bytes(size, "little"), lanes, 2),
            _key_sums(_to_cells(pis[2 * size :], lanes, 1), stars, w, lanes))


def _key_sums(fields: bytes, sigmas: int, w: int, lanes: int) -> int:
    """Each lane's XOR of ``fields``, one per cell or picked row, that
    lane's block in each, and of the ``w`` cells' H(L, j) terms sigma(L),
    the labels' in ``sigmas``.

    A label's sigma(L) is the same in every lane, so those terms add up to
    sigma of the XOR of the ``w`` labels, copied to every lane.
    """
    width = LABEL_BITS * lanes
    return (_fold(int.from_bytes(fields, "little"), 8 * len(fields) // width,
                  width)
            ^ _copies(_fold(sigmas, w, LABEL_BITS), LABEL_BITS, lanes))


def _evaluate(chosen: int, w: int, word: int, tables: bytes,
              lanes: int) -> int:
    """The lane sums S of the keys the ``w`` labels of ``chosen``, cell
    c's in field c, unlock under the hashed tables, for the querier's
    ``word``."""
    ones, tweaks, _, unpack, gates = _hashed(w, lanes)
    doubled = _double(chosen, ones)
    sigma = doubled.to_bytes(LABEL_BYTES * w, "little")
    keys = _to_cells(_hash(bytearray(sigma * lanes), tweaks), lanes, 1)
    # the rows its symbols pick, R1 of each cell it pins to one and R0 of
    # each it pins to zero, join the keys as further fields of the sum
    keys += b"".join(compress(gates(unpack(tables)), int_to_bits(word, 2 * w)))
    return _key_sums(keys, doubled, w, lanes)


# --------------------------------------------------------------------------
# label-keyed rows, from LABEL_KEYED_LANES lanes on


def _counters(lanes: int) -> bytearray:
    """The counter blocks c(i, 0) of ``lanes`` lanes: lane i big-endian."""
    blocks = array("Q", bytes(LABEL_BYTES * lanes))
    blocks[1::2] = _words(range(lanes), "big")  # the low half of each block
    return bytearray(blocks)


def _garble_keyed(labels: int, w: int, rows: Sequence[str],
                  lanes: int) -> tuple[bytearray, int]:
    """Return (the label-keyed tables, the lane sums S0 of the zero-keys).

    ``labels`` holds the ``w`` cells' labels L*, then L1, then L0, cell
    c's in field c of each third, and ``rows`` the holder's rows, row i
    in lane i (:meth:`~prelude.circuits.BatchQueryCircuit.row`).
    """
    size = LABEL_BYTES * lanes
    # every row starts as its counter blocks c(i, b), the holder's bit for
    # the row and lane i in the top byte of its block: cell c's R1 reads
    # gate c and its R0 gate w + c
    tables = _counters(lanes) * (2 * w)
    tables[::LABEL_BYTES] = gate_bits(
        rows, w, [g for c in range(w) for g in (c, w + c)])
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


def garble_steps(circuit, rows: Sequence[str], setup: DealerMaterial, rng):
    """Garbler's (party 1's) side of one run of the template, over the
    lanes ``setup`` was dealt for.

    ``rows`` are the holder's rows in the clear, row i in lane i
    (:meth:`~prelude.circuits.BatchQueryCircuit.row`), which the garbler
    lays out itself: no word is built.  Raises ValueError, before it
    sends a frame, for rows of another count than the lanes, of another
    length than 2w or holding a character other than 0 and 1.  Reads the
    querier's shifts first, and raises ProtocolError, before it garbles,
    if a cell reads the unused symbol 3.  Returns the lane sums S0 of the
    zero-keys, lane i in bits [128 i, 128 i + 128), under which
    :func:`release_steps` releases values.
    """
    setup.check(1, circuit, "yao")
    if rng is None:
        raise ValueError("garbler needs an rng")
    lanes = setup.lanes
    circuit.check_rows(rows, lanes)
    w = circuit.width
    shift = read_shift((yield RECV), w)
    labels = rng.getrandbits(3 * LABEL_BITS * w)  # L*, L1, L0 of every cell
    garble = _garble if lanes < LABEL_KEYED_LANES else _garble_keyed
    tables, sums = garble(labels, w, rows, lanes)
    yield MSG_GARBLED_TABLES, tables
    every = (1 << LABEL_BITS * w) - 1
    yield MSG_LABELS, offer_symbols(
        (labels & every, labels >> LABEL_BITS * w & every,
         labels >> 2 * LABEL_BITS * w), shift, w, setup.transfer)
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
    tables = expect((yield RECV), MSG_GARBLED_TABLES,
                    2 * LABEL_BYTES * lanes * w)
    chosen = choose_symbols(expect((yield RECV), MSG_LABELS,
                                   3 * LABEL_BYTES * w),
                            word, w, setup.transfer[0])
    evaluate = _evaluate if lanes < LABEL_KEYED_LANES else _evaluate_keyed
    return evaluate(chosen, w, word, tables, lanes)


# --------------------------------------------------------------------------
# releasing values under the key sums


def _release_constants(lanes: int) -> tuple[int, int]:
    """(1 in each lane, the release tweak + i in lane i) of ``lanes``.

    The ones are one bytes repetition: at 500 lanes it beats
    :func:`_copies`' doubling, which wins on wide fields such as the feed.
    """
    ones = int.from_bytes((b"\1" + bytes(LABEL_BYTES - 1)) * lanes, "little")
    return ones, _RELEASE_TWEAK * ones + _lane_index(lanes)


# the release's constants of each lane count below LABEL_KEYED_LANES
_RELEASE = {n: _release_constants(n) for n in range(1, LABEL_KEYED_LANES)}


def _release_pads(sums: int, lanes: int) -> int:
    """H(S_i, release tweak + i) in lane i, for the sum S_i of lane i."""
    ones, tweaks = _RELEASE.get(lanes) or _release_constants(lanes)
    doubled = _double(sums, ones)
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
    yield MSG_OUTPUT_SHARE, payload


def open_steps(sums: int, lanes: int, fallback: bytes):
    """Evaluator: open the value of each lane whose sum is the garbler's.

    Returns one value per lane, as long as ``fallback``, or ``fallback``
    for a lane whose tag does not read zero.
    """
    size = len(fallback)
    _check_size(size)
    payload = expect((yield RECV), MSG_OUTPUT_SHARE, LABEL_BYTES * lanes)
    plain = (int.from_bytes(payload, "little")
             ^ _release_pads(sums, lanes)).to_bytes(len(payload), "little")
    tag = bytes(LABEL_BYTES - size)
    return [plain[at : at + size]
            if plain[at + size : at + LABEL_BYTES] == tag else fallback
            for at in range(0, len(plain), LABEL_BYTES)]

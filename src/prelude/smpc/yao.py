"""Garbled comparator cells and a key-sum zero test over them.

Party 1, the holder, garbles and party 0, the querier, evaluates, over the
per-entry comparator template (:mod:`prelude.circuits`) run as ``lanes``
instances, one per table entry.  Only yao's level of the template, its
2w cross gates, is garbled: gate g is the AND of querier input bit g with
a bit b the holder knows in the clear.  The rest of the
template, the OR over the comparator cells, is never garbled; the querier
needs only the value released where it is 0, and a sum of keys decides
that instead.

Labels.  Bit g of the querier's word
(:meth:`prelude.circuits.BatchQueryCircuit.word`), input g, has two
128-bit labels A0 and A1 = A0 XOR delta, and cross gate g reads the labels
of input g.  The querier receives the label its bit selects by a
precomputed transfer (:mod:`prelude.smpc.transfer`), one per input
whatever the lane count, since one querier rule feeds every lane.  The
holder's word stays clear and gets no labels.  No label carries a permute
bit: the evaluator is the querier, who knows the bit its label stands for.

Cross gates.  A cross gate in a lane is a garbler half-gate (Zahur, Rosulek
& Evans, EUROCRYPT 2015, section 3) of one row T = H(A0, j) XOR H(A1, j)
XOR b D, with its zero-key W0 = H(A0, j).  An evaluator with input bit a
computes H(A_a, j) XOR a T, taking the row where its own bit is 1, which
is W0 where a AND b is 0 and W0 XOR D where it is 1.  A half-gate row works
under any output offset D, so every cross gate in every lane gets its own:
AES-128 in counter mode under a fresh key that only the garbler draws, the
counter being the gate's tweak j.  No D is derived from a label hash, which
the evaluator could compute.

The zero test.  Per lane the garbler XORs the zero-keys of the lane's cross
gates into a sum S0 and the evaluator XORs its keys into S.  S is S0 XOR
the D of every cross gate that reads 1, so S equals S0 exactly when none
does, barring a 2^-128 chance.  A rule's pinned-one and pinned-zero bits
are disjoint, so no comparator cell has both of its products at 1, and
every cross gate reads 0 exactly when every cell does: when the two rules
overlap.  This is the OT-based private equality test of Pinkas, Schneider
& Zohner (USENIX Security 2014), in which the receiver XORs the strings it
chose, applied to ternary cells.

The release (:func:`release_steps`, :func:`open_steps`).  Per lane the
holder sends its value followed by a tag of at least 80 zero bits, one
16-byte block under the pad H(S0, release tweak + lane).  The evaluator
removes H(S, ...) and keeps the value where the tag reads zero; anywhere
else it opens the fallback, the dummy identifier.

Privacy.  The evaluator holds one label of each input and never delta, so
the hash of the other label is pseudorandom to it.  Each D enters only a
row T, masked by the hash of the label the evaluator lacks, so T hides b
and D alike, and the key it computes is W0 or W0 XOR D without showing
which.  A permute bit hides a wire's value from an evaluator that must
not learn it; here every garbled gate reads one label, of an input the
evaluator owns, so taking its row by that bit tells it nothing new.  Where
its sum misses S0, the pad is the hash of a key it does not hold: the
value stays hidden and the tag fails, so the lane opens to the dummy, as
where the rules are distinct.  The tables' size is fixed by the
template and the lane count alone, and the garbler sees only the querier's
masked choice bits.

The hash is the fixed-key construction H(x, i) = pi(sigma(x) XOR i) XOR
sigma(x) of Guo, Katz, Wang & Yu (IEEE S&P 2020), where pi is AES-128 under
a fixed public key and sigma is doubling in GF(2^128).  AES comes from the
OpenSSL that CPython's ``hashlib`` already loads (:mod:`prelude.smpc.aes`).
The tweak j is unique to every hash of a session: ``2 (g x lanes + lane)``
for cross gate g, and release tweaks lie above all of them.

A lane word holds lane i's 128 bits in bits [128 i, 128 i + 128), so sigma
and the row selections act on every lane at once.  The cross gates are
hashed over all their lanes in batches: as many gates as fit
``_BATCH_BLOCKS`` garbler blocks, one gate at least, share one AES call,
and each batch's keys are folded into the lane sums as it finishes.  The
tables depend only on the template and the holder's bits, so they travel
during setup, one row per cross gate and lane, by gate, then lane.  The
online phase is one round trip for the querier's labels and then the
release, a second frame from the garbler and so a second round.  The
querier's masked choice bits need no k, so they go out with its envelope
(:func:`~prelude.smpc.dealer.first_steps`), and the holder sends the ack,
the tables, the labels and the release in the one flight back: a session
takes two one-way flights.
"""

from __future__ import annotations

from typing import Sequence

from prelude.smpc.aes import Aes128Ecb
from prelude.smpc.channel import (
    MSG_GARBLED_TABLES,
    MSG_LABELS,
    MSG_OUTPUT_SHARE,
    recv_exact,
    send_frame,
)
from prelude.smpc.dealer import DealerMaterial
from prelude.smpc.transfer import (
    LABEL_BITS,
    LABEL_BYTES,
    choose_steps,
    select,
    send_steps,
    spread,
    to_lanes,
)

# pi: AES-128 under a fixed, public key
_PI = Aes128Ecb(b"prelude-halfgate")
# Hash blocks per AES call while garbling, two per cross gate and lane: a
# batch holds as many gates as fit, one gate at least.
_BATCH_BLOCKS = 1 << 14
# Release tweaks start here, above every garbling tweak of any session.
_RELEASE_TWEAK = 1 << 96
# A released value is followed by at least this many zero bytes, its tag.
_TAG_BYTES = 10
_GF128_REDUCE = 0x87  # x^128 = x^7 + x^2 + x + 1


def _lane_word(label: int, n: int) -> int:
    """The int that holds ``label`` in each of ``n`` lanes."""
    return int.from_bytes(label.to_bytes(LABEL_BYTES, "little") * n, "little")


def _labels(word: int, n: int) -> list[int]:
    """The ``n`` labels a word holds, label i in lane i."""
    data = word.to_bytes(LABEL_BYTES * n, "little")
    return [int.from_bytes(data[at : at + LABEL_BYTES], "little")
            for at in range(0, len(data), LABEL_BYTES)]


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


def _lane_index(n: int) -> int:
    """Lane i holding i, for each of ``n`` lanes."""
    return int.from_bytes(
        b"".join([i.to_bytes(LABEL_BYTES, "little") for i in range(n)]),
        "little")


def _encrypt(cipher: Aes128Ecb, words: Sequence[int], size: int) -> int:
    """The words, ``size`` bytes each, encrypted in one call and joined."""
    return int.from_bytes(cipher.encrypt(b"".join(
        [w.to_bytes(size, "little") for w in words])), "little")


def _fold(word: int, count: int, width: int) -> int:
    """The XOR of the ``count`` fields of ``width`` bits that ``word`` holds."""
    while count > 1:
        half = count // 2
        word = (word & ((1 << half * width) - 1)) ^ (word >> half * width)
        count -= half
    return word


def _gates_per_call(lanes: int) -> int:
    """Cross gates per hash batch: as many as fit ``_BATCH_BLOCKS`` garbler
    blocks, two per gate and lane, and one at least."""
    return max(1, _BATCH_BLOCKS // (2 * lanes))


def _keyed_batches(labels: list[int], lanes: int):
    """The cross gates in hash batches, keyed by the labels held here.

    Gate g reads label g.  Yields (first gate, tweaks, hash inputs) with
    one word of ``lanes`` lanes per gate: its tweaks, and sigma(label) XOR
    those tweaks.
    """
    # lane i of g * step + twice_index holds 2 (g x lanes + i)
    step = 2 * lanes * _lane_ones(lanes)
    twice_index = 2 * _lane_index(lanes)
    per_call = _gates_per_call(lanes)
    for at in range(0, len(labels), per_call):
        batch = labels[at : at + per_call]
        tweaks = [g * step + twice_index for g in range(at, at + len(batch))]
        inputs = [_lane_word(_double(label, 1), lanes) ^ t
                  for label, t in zip(batch, tweaks)]
        yield at, tweaks, inputs


def _key_sums(labels: list[int], folded: int, lanes: int) -> int:
    """Each lane's XOR of one key H(A, j) per gate.

    ``folded`` is the XOR of every batch's keys without their sigma(A)
    terms, one word per gate of a full batch.  A gate's sigma(A) is the
    same in every lane, so those terms add up to sigma of the XOR of the
    labels, copied to every lane.
    """
    total = 0
    for label in labels:
        total ^= label
    count = min(_gates_per_call(lanes), len(labels))
    return (_fold(folded, count, LABEL_BITS * lanes)
            ^ _lane_word(_double(total, 1), lanes))


def _garble(labels: list[int], delta: int, key: int, clear: int,
            lanes: int) -> tuple[bytes, int]:
    """Return (the tables, the lane sums S0 of the zero-keys).

    ``labels`` are the querier inputs' zero-labels, ``key`` the offsets'
    AES key, and ``clear`` the holder's level-1 word, gate g's lanes in
    field g.
    """
    size = LABEL_BYTES * lanes
    offsets = Aes128Ecb(key.to_bytes(LABEL_BYTES, "little"))
    doubled_delta = _double(delta, 1)
    shift = _lane_word(doubled_delta, lanes)  # sigma(A1) = sigma(A0) ^ shift
    tables: list[bytes] = []
    folded = 0
    for at, tweaks, inputs in _keyed_batches(labels, lanes):
        n = len(tweaks) * lanes
        e0 = _encrypt(_PI, inputs, size)
        e1 = _encrypt(_PI, [x ^ shift for x in inputs], size)
        b = spread(clear >> at * lanes, n)
        # H(A0, j) ^ H(A1, j) ^ b D
        row = (e0 ^ e1 ^ _lane_word(doubled_delta, n)
               ^ (select(b) & _encrypt(offsets, tweaks, size)))
        tables.append(row.to_bytes(LABEL_BYTES * n, "little"))
        folded ^= e0
    return b"".join(tables), _key_sums(labels, folded, lanes)


def _evaluate(labels: list[int], bits: int, tables: bytes,
              lanes: int) -> int:
    """The lane sums S of the keys ``labels`` unlock under the tables,
    label g being the one of input bit g of ``bits``."""
    size = LABEL_BYTES * lanes
    folded = 0
    for _, _, inputs in _keyed_batches(labels, lanes):
        folded ^= _encrypt(_PI, inputs, size)
    rows = 0  # the row of every gate whose input bit is 1
    for g in range(len(labels)):
        if bits >> g & 1:
            rows ^= int.from_bytes(tables[size * g : size * (g + 1)],
                                   "little")
    return _key_sums(labels, folded, lanes) ^ rows


def garble_steps(circuit, word: int, setup: DealerMaterial, rng):
    """Garbler's (party 1's) side of one run of the template, over the
    lanes ``setup`` was dealt for.

    ``word`` is the holder's clear word, gate g's lanes in field g
    (:meth:`~prelude.circuits.BatchQueryCircuit.word`).  Returns the lane
    sums S0 of the zero-keys, lane i in bits [128 i, 128 i + 128), under
    which :func:`release_steps` releases values.
    """
    setup.check(1, circuit, "yao")
    if rng is None:
        raise ValueError("garbler needs an rng")
    lanes = setup.lanes
    circuit.check_word(1, word, lanes)
    n = 2 * circuit.width
    delta = rng.getrandbits(LABEL_BITS)
    zero = rng.getrandbits(LABEL_BITS * n)  # input g's zero-label in lane g
    tables, sums = _garble(_labels(zero, n), delta,
                           rng.getrandbits(LABEL_BITS), word, lanes)
    yield from send_frame(MSG_GARBLED_TABLES, tables)
    yield from send_steps(zero, zero ^ _lane_word(delta, n), n, LABEL_BYTES,
                          setup.transfer, MSG_LABELS)
    return sums


def evaluate_steps(circuit, word: int, setup: DealerMaterial):
    """Evaluator's (party 0's) side of one run of the template, over the
    lanes ``setup`` was dealt for.

    ``word`` is the querier's word, gate g's bit in bit g
    (:meth:`~prelude.circuits.BatchQueryCircuit.word`), whose masked
    transfer choices the evaluator has sent already
    (:func:`~prelude.smpc.dealer.first_steps`).  Returns the lane sums S of
    its keys, with which :func:`open_steps` opens the released values.
    """
    setup.check(0, circuit, "yao")
    lanes = setup.lanes
    circuit.check_word(0, word, lanes)
    n = 2 * circuit.width
    tables = yield from recv_exact(MSG_GARBLED_TABLES, LABEL_BYTES * lanes * n)
    chosen = yield from choose_steps(word, n, LABEL_BYTES, setup.transfer,
                                     MSG_LABELS)
    return _evaluate(_labels(chosen, n), word, tables, lanes)


# --------------------------------------------------------------------------
# releasing values under the key sums


def _release_pads(sums: int, lanes: int) -> int:
    """H(S_i, release tweak + i) in lane i, for the sum S_i of lane i."""
    ones = _lane_ones(lanes)
    doubled = _double(sums, ones)
    tweaks = _RELEASE_TWEAK * ones + _lane_index(lanes)
    return _encrypt(_PI, [doubled ^ tweaks], LABEL_BYTES * lanes) ^ doubled


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

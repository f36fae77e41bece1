"""Garbled-circuit evaluation with free XOR, point-and-permute and half-gates.

Wire labels are 128-bit integers; the two labels of a wire differ by a global
offset whose low bit is forced to 1, so a label's low bit doubles as its
permute bit.  XOR gates combine labels locally and NOT gates are free as
well: the garbler aliases the output labels to the input pair swapped, and
the evaluator just passes its label through.  Each AND gate is a half-gates
gate (Zahur, Rosulek & Evans, EUROCRYPT 2015): two 16-byte rows, the
garbler half T_G and the evaluator half T_E, and the output zero-label is
derived from the hashes rather than drawn.

Party 1, the holder, garbles and party 0 evaluates.  Party 1's inputs are
clear (see :mod:`prelude.circuits`) and get no labels at all.  A cross
gate, the AND of a secret wire a with a clear bit b the garbler knows, is a
garbler half-gate alone (ZRE15, section 3): one row T = H(A0, j) XOR
H(A1, j) XOR b delta and the zero-label W0 = H(A0, j) XOR p_a T, where p_a
is A0's permute bit; an evaluator holding A with permute bit s takes
H(A, j) XOR s T.  Privacy: the evaluator holds one of A0 and
A1 and never delta, so the hash of the other label is pseudorandom to it
and T hides b, and the label it computes is the label of a AND b without
showing which; the table's size is fixed by the circuit alone.

The hash is the fixed-key construction H(x, i) = pi(sigma(x) XOR i) XOR
sigma(x) of Guo, Katz, Wang & Yu (IEEE S&P 2020), where pi is AES-128 under
a fixed public key and sigma is doubling in GF(2^128).  AES comes from the
OpenSSL that CPython's ``hashlib`` already loads (:mod:`prelude.smpc.aes`).
The tweak i is unique to every hash of a session: ``2 (w x lanes + lane)``
for the garbler half of the AND or cross gate writing wire w, one more for
an AND gate's evaluator half, and release tweaks lie above all of them.

A circuit can be garbled as a template over ``lanes`` independent
instances: every wire then has one label pair per lane, packed in one int,
except party 0's input wires, which are broadcast (see
:mod:`prelude.circuits`): each has one label pair, copied to every lane, as
one querier rule feeds k comparators.
Sigma, the permute bits and the row selections act on every lane of a packed
int at once, so garbling and evaluation walk the circuit's AND layers
(:meth:`Circuit.and_layers`) and hash the gates of one layer over all their
lanes in batches, first the layer's cross gates and then its other AND
gates: as many gates as fit ``_BATCH_BLOCKS`` garbler blocks, one gate at
least, share one AES call.  The tables are exactly as large as those of the
circuit unrolled ``lanes`` times; at one lane this is plain garbling.

The garbled tables depend only on the circuit and the garbler's clear bits,
not on the evaluator's inputs, so they travel during setup, batch by batch:
a cross batch its T words, an AND batch its T_G words and then its T_E
words, each by gate, then lane.  The online phase is a single round trip:
the evaluator receives the label of each of its input wires by a
precomputed transfer (:mod:`prelude.smpc.transfer`), all wires at once.

Outputs leave the garbled circuit one way, in the second online round: the
garbler releases a value of at most 16 bytes per output wire and lane
(:func:`release_steps`).  It encrypts one value under the wire's zero-label
and another under its one-label, each with a pad from the same hash, in
point-and-permute order, and the evaluator, holding exactly one of the two
labels, opens exactly one value per wire and learns nothing of the other
(:func:`open_steps`).  A value that depends on an output bit is thus
released without garbling a multiplexer for it; releasing the bytes 0 and
1 reveals the output bit itself, to the evaluator only.
"""

from __future__ import annotations

from functools import cache
from typing import Mapping, Sequence

from prelude.circuits import Circuit, XOR, input_values
from prelude.smpc.aes import Aes128Ecb
from prelude.smpc.channel import (
    MSG_GARBLED_TABLES,
    MSG_LABELS,
    MSG_OUTPUT_SHARE,
    MSG_SETUP_TRIPLES,
    ProtocolError,
    recv_exact,
    recv_frame,
    send_frame,
)
from prelude.smpc.dealer import DealerMaterial
from prelude.smpc.shares import bits_to_int, join_lanes, split_lanes
from prelude.smpc.transcript import SessionTranscript
from prelude.smpc.transfer import (
    LABEL_BITS,
    LABEL_BYTES,
    choose_steps,
    select,
    send_steps,
    spread,
)

_LABEL_MASK = (1 << LABEL_BITS) - 1

# pi: AES-128 under a fixed, public key
_PI = Aes128Ecb(b"prelude-halfgate")
# Hash blocks per AES call while garbling, four per AND gate and lane: the
# gates of one AND layer fill a call up to this many, one gate at least.
_BATCH_BLOCKS = 1 << 14
# Release tweaks start here, above every garbling tweak of any session.
_RELEASE_TWEAK = 1 << 96
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


def _hash_doubled(doubled: Sequence[int], tweaks: Sequence[int],
                  n: int) -> list[int]:
    """H(x, i) = pi(sigma(x) XOR i) XOR sigma(x), lane by lane, in one AES call.

    Takes each word's sigma(x) in ``doubled``, since sigma is linear and
    callers derive some from others, and its tweak word; every word has
    ``n`` lanes.
    """
    size = LABEL_BYTES * n
    out = memoryview(_PI.encrypt(b"".join(
        [(s ^ t).to_bytes(size, "little") for s, t in zip(doubled, tweaks)])))
    return [int.from_bytes(out[i * size : (i + 1) * size], "little") ^ s
            for i, s in enumerate(doubled)]


def _lane_index(n: int) -> int:
    """Lane i holding i, for each of ``n`` lanes."""
    return int.from_bytes(
        b"".join([i.to_bytes(LABEL_BYTES, "little") for i in range(n)]),
        "little")


def _walk(circuit: Circuit, labels: list[int], lanes: int, cross_batch,
          and_batch, not_flip: int) -> None:
    """Evaluate the circuit on ``labels``, AND layer by AND layer.

    XOR and NOT gates act here; a NOT XORs ``not_flip`` into its label.  The
    cross gates of a layer go to ``cross_batch`` and then its other AND
    gates to ``and_batch``, as ``(gates, tweaks, ones)`` a hash call's worth
    at a time: ``tweaks`` holds the garbler-half tweak 2 (output wire x
    lanes + lane) in each gate's lanes, and ``ones`` is :func:`_lane_ones`
    of the batch's gates x lanes.
    """
    width = LABEL_BITS * lanes
    ands, crosses, locals_ = circuit.and_layers()
    ones_of = cache(_lane_ones)  # a layer's batches share their size
    twice_ones = 2 * _lane_ones(lanes)
    twice_index = 2 * _lane_index(lanes)
    for level in range(len(ands)):
        # a cross gate takes two garbler hash blocks, a full AND four
        for layer, batch, blocks in ((crosses[level], cross_batch, 2),
                                     (ands[level], and_batch, 4)):
            per_call = max(1, _BATCH_BLOCKS // (blocks * lanes))
            for at in range(0, len(layer), per_call):
                gates = layer[at : at + per_call]
                tweaks = join_lanes([g[3] * lanes * twice_ones + twice_index
                                     for g in gates], width)
                batch(gates, tweaks, ones_of(len(gates) * lanes))
        for kind, a, b, out in locals_[level]:
            labels[out] = labels[a] ^ (labels[b] if kind == XOR else not_flip)


def _garble(circuit: Circuit, rng, lanes: int,
            clear: Mapping[int, int]) -> tuple[int, list[int], bytes]:
    """Return (delta, packed zero-labels per wire, concatenated AND tables).

    A wire's labels are one int, lane i's label in bits [128 i, 128 i + 128),
    so every gate acts on all its lanes at once.  ``clear`` maps each clear
    wire to its lane word; clear wires get no labels.
    """
    width = LABEL_BITS * lanes
    ones = _lane_ones(lanes)
    delta = rng.getrandbits(LABEL_BITS) | 1
    label0 = [0] * circuit.n_wires
    for w in _querier_wires(circuit):
        label0[w] = rng.getrandbits(LABEL_BITS) * ones
    tables: list[bytes] = []
    doubled_delta = _double(delta, 1)

    @cache
    def delta_words(n: int) -> tuple[int, int]:
        """delta and sigma(delta) in each of n lanes."""
        return _lane_word(delta, n), _lane_word(doubled_delta, n)

    def garble_cross(gates, t, every) -> None:
        # a garbler half-gate: T = H(A0, j) ^ H(A1, j) ^ b delta, one row
        n = len(gates) * lanes
        _, doubled_r = delta_words(n)
        a0 = join_lanes([label0[g[1]] for g in gates], width)
        da0 = _double(a0, every)
        ha0, ha1 = _hash_doubled((da0, da0 ^ doubled_r), (t, t), n)
        b = spread(join_lanes([clear[g[2]] for g in gates], lanes), n)
        row = ha0 ^ ha1 ^ b * delta
        tables.append(row.to_bytes(LABEL_BYTES * n, "little"))
        w0 = ha0 ^ (select(a0 & every) & row)
        for gate, word in zip(gates, split_lanes(w0, width, len(gates))):
            label0[gate[3]] = word

    def garble_and(gates, t, every) -> None:
        n = len(gates) * lanes
        r, doubled_r = delta_words(n)
        a0 = join_lanes([label0[g[1]] for g in gates], width)
        b0 = join_lanes([label0[g[2]] for g in gates], width)
        da0 = _double(a0, every)
        db0 = _double(b0, every)
        # H(A0, j), H(A1, j), H(B0, j + 1), H(B1, j + 1) in one call
        ha0, ha1, hb0, hb1 = _hash_doubled(
            (da0, da0 ^ doubled_r, db0, db0 ^ doubled_r),
            (t, t, t | every, t | every), n)
        pa = select(a0 & every)
        pb = select(b0 & every)
        t_g = ha0 ^ ha1 ^ (pb & r)
        t_e = hb0 ^ hb1 ^ a0
        w0 = ha0 ^ (pa & t_g) ^ hb0 ^ (pb & (t_e ^ a0))
        size = LABEL_BYTES * n
        tables.append(t_g.to_bytes(size, "little"))
        tables.append(t_e.to_bytes(size, "little"))
        for gate, word in zip(gates, split_lanes(w0, width, len(gates))):
            label0[gate[3]] = word

    _walk(circuit, label0, lanes, garble_cross, garble_and, delta * ones)
    return delta, label0, b"".join(tables)


def _table_size(circuit: Circuit, lanes: int) -> int:
    """Garbled table bytes: one row per cross gate and lane, two per other AND."""
    cross = circuit.cross_count()
    return LABEL_BYTES * lanes * (2 * circuit.and_count() - cross)


def _evaluate(circuit: Circuit, labels: list[int], tables: bytes,
              lanes: int) -> None:
    width = LABEL_BITS * lanes
    rows = memoryview(tables)
    offset = 0

    def take_row(n: int) -> int:
        nonlocal offset
        size = LABEL_BYTES * n
        offset += size
        return int.from_bytes(rows[offset - size : offset], "little")

    def evaluate_cross(gates, t, every) -> None:
        a = join_lanes([labels[g[1]] for g in gates], width)
        n = len(gates) * lanes
        (ha,) = _hash_doubled((_double(a, every),), (t,), n)
        w = ha ^ (select(a & every) & take_row(n))
        for gate, word in zip(gates, split_lanes(w, width, len(gates))):
            labels[gate[3]] = word

    def evaluate_and(gates, t, every) -> None:
        a = join_lanes([labels[g[1]] for g in gates], width)
        b = join_lanes([labels[g[2]] for g in gates], width)
        n = len(gates) * lanes
        ha, hb = _hash_doubled((_double(a, every), _double(b, every)),
                               (t, t | every), n)
        t_g = take_row(n)
        t_e = take_row(n)
        w = (ha ^ (select(a & every) & t_g)
             ^ hb ^ (select(b & every) & (t_e ^ a)))
        for gate, word in zip(gates, split_lanes(w, width, len(gates))):
            labels[gate[3]] = word

    _walk(circuit, labels, lanes, evaluate_cross, evaluate_and, 0)


def _querier_wires(circuit: Circuit) -> list[int]:
    """The labelled input wires, by group: party 0's, since party 1's are
    clear.  Each takes one label transfer, whose label every lane reads."""
    return [w for g in circuit.input_groups if g.party == 0 for w in g.wires]


def garble_steps(
    circuit: Circuit,
    my_inputs: Mapping[str, Sequence[int]],
    setup: DealerMaterial,
    rng,
    transcript: SessionTranscript | None = None,
    lanes: int = 1,
):
    """Garbler's (party 1's) side of one execution.

    Returns (delta, the zero-labels of the output wires by wire, then
    lane), from which :func:`release_steps` releases values.
    """
    if setup.party != 1:
        raise ValueError("setup material belongs to the other party")
    if transcript is not None:
        transcript.record_receive(MSG_SETUP_TRIPLES, setup.serialized_size())
    wires = _querier_wires(circuit)
    n = len(wires)
    if rng is None:
        raise ValueError("garbler needs an rng")
    pads = setup.take_transfers(n)
    clear = input_values(circuit, 1, my_inputs, lanes)
    delta, label0, tables = _garble(circuit, rng, lanes, clear)
    yield from send_frame(MSG_GARBLED_TABLES, tables, transcript)
    if transcript is not None:
        transcript.begin_online()
        transcript.next_round()
    # the querier's labels are the same in every lane: send lane 0's
    zero = join_lanes([label0[w] & _LABEL_MASK for w in wires], LABEL_BITS)
    yield from send_steps(zero, zero ^ _lane_word(delta, n), n, LABEL_BYTES,
                          pads, MSG_LABELS, transcript)
    return delta, [label for w in circuit.output_wires
                   for label in split_lanes(label0[w], LABEL_BITS, lanes)]


def evaluate_steps(
    circuit: Circuit,
    my_inputs: Mapping[str, Sequence[int]],
    setup: DealerMaterial,
    transcript: SessionTranscript | None = None,
    lanes: int = 1,
):
    """Evaluator's (party 0's) side of one execution.

    Returns the labels of the output wires, by wire, then lane, with which
    :func:`open_steps` opens the released values.
    """
    if setup.party != 0:
        raise ValueError("setup material belongs to the other party")
    if transcript is not None:
        transcript.record_receive(MSG_SETUP_TRIPLES, setup.serialized_size())
    wires = _querier_wires(circuit)
    n = len(wires)
    material = setup.take_transfers(n)
    bits = input_values(circuit, 0, my_inputs, lanes)
    tables = yield from recv_frame(MSG_GARBLED_TABLES, transcript)
    if len(tables) != _table_size(circuit, lanes):
        raise ProtocolError("garbled table payload has wrong size")
    if transcript is not None:
        transcript.begin_online()
        transcript.next_round()
    chosen = yield from choose_steps(bits_to_int([bits[w] for w in wires]), n,
                                     LABEL_BYTES, material, MSG_LABELS,
                                     transcript)
    labels = [0] * circuit.n_wires
    ones = _lane_ones(lanes)
    for w, label in zip(wires, split_lanes(chosen, LABEL_BITS, n)):
        labels[w] = label * ones
    _evaluate(circuit, labels, tables, lanes)
    return [label for w in circuit.output_wires
            for label in split_lanes(labels[w], LABEL_BITS, lanes)]


# --------------------------------------------------------------------------
# releasing values under output labels


def _release_pads(labels: Sequence[int], copies: int = 1) -> bytes:
    """H(label, release tweak + i), 16 bytes each, for the labels of outputs
    i = 0, 1, ... listed in output order, the list ``copies`` times over."""
    n = len(labels) // copies
    tweak = _RELEASE_TWEAK * _lane_ones(n) + _lane_index(n)
    ones = _lane_ones(len(labels))
    (pads,) = _hash_doubled(
        [_double(join_lanes(labels, LABEL_BITS), ones)],
        [join_lanes([tweak] * copies, LABEL_BITS * n)], len(labels))
    return pads.to_bytes(LABEL_BYTES * len(labels), "little")


def release_steps(
    delta: int,
    zero_labels: Sequence[int],
    values: Sequence[tuple[bytes, bytes]],
    transcript: SessionTranscript | None = None,
):
    """Garbler: release ``values[i][bit]`` to whoever holds output i's label for ``bit``.

    One frame in the release round carries two ciphertexts per output, the
    value for 0 under the zero-label and the value for 1 under the
    one-label, ordered by each label's point-and-permute bit.  Every value
    must have the same length, at most 16 bytes; a value is masked with the
    first bytes of its label's hash, and one hash call covers every label.
    """
    size = len(values[0][0]) if values else 0
    if size > LABEL_BYTES:
        raise ValueError(f"released values are at most {LABEL_BYTES} bytes")
    n = len(zero_labels)
    pads = _release_pads(list(zero_labels) + [z ^ delta for z in zero_labels],
                         copies=2)
    parts: list[bytes] = []
    for i, (label0, pair) in enumerate(zip(zero_labels, values)):
        rows = [b"", b""]
        for bit, value in enumerate(pair):
            if len(value) != size:
                raise ValueError("released values must have equal length")
            at = LABEL_BYTES * (bit * n + i)
            pad = int.from_bytes(pads[at : at + size], "little")
            # delta is odd: the one-label's permute bit is the zero-label's flipped
            rows[(label0 & 1) ^ bit] = (
                pad ^ int.from_bytes(value, "little")).to_bytes(size, "little")
        parts += rows
    if transcript is not None:
        transcript.next_round()
    yield from send_frame(MSG_OUTPUT_SHARE, b"".join(parts), transcript)
    if transcript is not None:
        transcript.finish()


def open_steps(
    labels: Sequence[int],
    size: int,
    transcript: SessionTranscript | None = None,
):
    """Evaluator: open the one value per output its labels unlock; returns them."""
    if size > LABEL_BYTES:
        raise ValueError(f"released values are at most {LABEL_BYTES} bytes")
    if transcript is not None:
        transcript.next_round()
    payload = yield from recv_exact(MSG_OUTPUT_SHARE, 2 * size * len(labels),
                                    transcript)
    pads = _release_pads(labels)
    opened: list[bytes] = []
    for i, label in enumerate(labels):
        at = size * (2 * i + (label & 1))
        row = int.from_bytes(payload[at : at + size], "little")
        pad = int.from_bytes(pads[LABEL_BYTES * i : LABEL_BYTES * i + size],
                             "little")
        opened.append((pad ^ row).to_bytes(size, "little"))
    if transcript is not None:
        transcript.finish()
    return opened

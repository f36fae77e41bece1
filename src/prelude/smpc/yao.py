"""Garbled-circuit evaluation with free XOR and point-and-permute.

Wire labels are 128-bit integers; the two labels of a wire differ by a global
offset whose low bit is forced to 1, so a label's low bit doubles as the row
select bit.  XOR gates combine labels locally and NOT gates are free as well:
the garbler aliases the output labels to the input pair swapped, and the
evaluator just passes its label through.  Each AND gate costs four 16-byte
rows, keyed by a blake2s PRF over both input labels and the gate index.

A circuit can be garbled as a template over ``lanes`` independent
instances: every wire then has one label pair per lane, except the wires of
a shared input group (:attr:`InputGroup.shared`), whose single label pair
every lane reads, as one querier rule feeds k comparators.  Garbling and
evaluation walk the template's gates and, within each gate, its lanes; the
PRF tweak ``gate index x lanes + lane`` is unique to each garbled gate, and
the tables are exactly as large as those of the circuit unrolled ``lanes``
times.  At one lane this is plain garbling.

The garbled tables depend only on the circuit, so they travel during setup.
The online phase is a single round trip: the evaluator sends masked choice
bits for its input wires, the garbler answers with its own input labels plus
pad-masked label pairs from which the evaluator unlocks exactly one each.

Outputs leave the garbled circuit in one of two ways, each costing the
second online round.  :func:`yao_execute` leaves them XOR-shared between the
low bit of the garbler's zero-labels and the low bit of the labels the
evaluator computed, and reveal_output() joins them.  Alternatively the
garbler releases a value per output wire and lane (:func:`release_steps`): it
encrypts one value under the wire's zero-label and another under its
one-label, in point-and-permute order, and the evaluator, holding exactly
one of the two labels, opens exactly one value per wire and learns nothing
of the other (:func:`open_steps`).  A value that depends on an output bit is
thus released without garbling a multiplexer for it.
"""

from __future__ import annotations

import hashlib
from typing import Mapping, Sequence

from prelude.circuits import Circuit, InputGroup, NOT, XOR
from prelude.smpc.channel import (
    MSG_GARBLED_TABLES,
    MSG_INPUT_SHARE,
    MSG_LABELS,
    MSG_OUTPUT_SHARE,
    MSG_SETUP_TRIPLES,
    ProtocolError,
    drive,
    recv_frame,
    send_frame,
)
from prelude.smpc.dealer import (
    LABEL_BITS,
    LABEL_BYTES,
    DealerMaterial,
    SetupUnderprovisioned,
)
from prelude.smpc.shares import (
    BitShares,
    int_to_bits,
    join_lanes,
    pack_bits,
    split_lanes,
    unpack_bits,
)
from prelude.smpc.transcript import SessionTranscript

# Online rounds per execution, counting the final share reveal.
YAO_ROUNDS_WITH_REVEAL = 2

_ROW_BYTES = LABEL_BYTES
_TABLE_BYTES = 4 * _ROW_BYTES
_LABEL_MASK = (1 << LABEL_BITS) - 1

# Keyed once; every call continues a copy, which skips re-hashing the key.
_GARBLE_PRF = hashlib.blake2s(key=b"prelude-garble", digest_size=16)
_RELEASE_KEY = b"prelude-release"


def _prf(data: bytes) -> bytes:
    h = _GARBLE_PRF.copy()
    h.update(data)
    return h.digest()


def _label_bytes(label: int) -> bytes:
    return label.to_bytes(LABEL_BYTES, "little")


def _lane_ones(lanes: int) -> int:
    """The int whose every lane holds 1: multiplying by it copies a label."""
    return int.from_bytes((b"\x01" + bytes(LABEL_BYTES - 1)) * lanes, "little")


def _garble(circuit: Circuit, rng, lanes: int) -> tuple[int, list[int], bytes]:
    """Return (delta, packed zero-labels per wire, concatenated AND tables).

    A wire's labels are one int, lane i's label in bits [128 i, 128 i + 128),
    so XOR and NOT gates act on every lane at once.  Tables follow the gates
    in order and, within a gate, the lanes.
    """
    size = LABEL_BYTES * lanes
    ones = _lane_ones(lanes)
    delta = rng.getrandbits(LABEL_BITS) | 1
    delta_all = delta * ones
    label0 = [0] * circuit.n_wires
    for group in circuit.input_groups:
        for w in group.wires:
            label0[w] = (rng.getrandbits(LABEL_BITS) * ones if group.shared
                         else rng.getrandbits(LABEL_BITS * lanes))
    tables: list[bytes] = []
    for gate_index, (kind, a, b, out) in enumerate(circuit.gates):
        if kind == XOR:
            label0[out] = label0[a] ^ label0[b]
            continue
        if kind == NOT:
            label0[out] = label0[a] ^ delta_all
            continue
        zero = rng.getrandbits(LABEL_BITS * lanes)
        label0[out] = zero
        a0 = label0[a].to_bytes(size, "little")
        a1 = (label0[a] ^ delta_all).to_bytes(size, "little")
        b0 = label0[b].to_bytes(size, "little")
        b1 = (label0[b] ^ delta_all).to_bytes(size, "little")
        z0 = zero.to_bytes(size, "little")
        z1 = (zero ^ delta_all).to_bytes(size, "little")
        pads: list[bytes] = []
        masks: list[bytes] = []
        tweak = gate_index * lanes
        for at in range(0, size, LABEL_BYTES):
            end = at + LABEL_BYTES
            t = tweak.to_bytes(4, "little")
            tweak += 1
            # point and permute: row 2i + j is keyed by the input labels
            # whose low bits are i and j, and only both one-labels give
            # the output's one-label
            x0, x1 = a0[at:end], a1[at:end]
            y0, y1 = b0[at:end], b1[at:end]
            z = z0[at:end]
            row = [z, z, z, z]
            row[((x1[0] & 1) << 1) | (y1[0] & 1)] = z1[at:end]
            if x0[0] & 1:
                x0, x1 = x1, x0
            if y0[0] & 1:
                y0, y1 = y1, y0
            pads += (_prf(x0 + y0 + t), _prf(x0 + y1 + t),
                     _prf(x1 + y0 + t), _prf(x1 + y1 + t))
            masks += row
        tables.append((int.from_bytes(b"".join(pads), "little")
                       ^ int.from_bytes(b"".join(masks), "little")
                       ).to_bytes(4 * size, "little"))
    return delta, label0, b"".join(tables)


def _evaluate(circuit: Circuit, labels: list[int], tables: bytes,
              lanes: int) -> None:
    size = LABEL_BYTES * lanes
    offset = 0
    for gate_index, (kind, a, b, out) in enumerate(circuit.gates):
        if kind == XOR:
            labels[out] = labels[a] ^ labels[b]
            continue
        if kind == NOT:
            labels[out] = labels[a]
            continue
        a_bytes = labels[a].to_bytes(size, "little")
        b_bytes = labels[b].to_bytes(size, "little")
        pads: list[bytes] = []
        rows: list[bytes] = []
        tweak = gate_index * lanes
        for at in range(0, size, LABEL_BYTES):
            end = at + LABEL_BYTES
            la = a_bytes[at:end]
            lb = b_bytes[at:end]
            row = offset + _ROW_BYTES * (((la[0] & 1) << 1) | (lb[0] & 1))
            rows.append(tables[row : row + _ROW_BYTES])
            pads.append(_prf(la + lb + tweak.to_bytes(4, "little")))
            tweak += 1
            offset += _TABLE_BYTES
        pad = int.from_bytes(b"".join(pads), "little")
        labels[out] = pad ^ int.from_bytes(b"".join(rows), "little")


def _groups(circuit: Circuit, party: int):
    return [g for g in circuit.input_groups if g.party == party]


def _group_slots(group: InputGroup, lanes: int) -> int:
    """Input labels a group needs: one per wire and lane, except that a
    shared wire's one label serves every lane."""
    return len(group.wires) * (1 if group.shared else lanes)


def _slot_count(circuit: Circuit, party: int, lanes: int) -> int:
    return sum(_group_slots(g, lanes) for g in _groups(circuit, party))


def _slot_labels(labels: list[int], group: InputGroup,
                 lanes: int) -> tuple[int, int]:
    """A group's labels packed in one int by slot (wire, then lane); slot count."""
    if group.shared:
        fields = [labels[w] & _LABEL_MASK for w in group.wires]
        return join_lanes(fields, LABEL_BITS), len(fields)
    fields = [labels[w] for w in group.wires]
    return join_lanes(fields, LABEL_BITS * lanes), _group_slots(group, lanes)


def _place_slot_labels(labels: list[int], group: InputGroup, lanes: int,
                       packed: int) -> None:
    """Inverse of :func:`_slot_labels`: a shared wire's label fills every lane."""
    n = 1 if group.shared else lanes
    fields = split_lanes(packed, LABEL_BITS * n, len(group.wires))
    ones = _lane_ones(lanes) if group.shared else 1
    for w, label in zip(group.wires, fields):
        labels[w] = label * ones


def _flatten_inputs(
    circuit: Circuit, party: int, my_inputs: Mapping[str, Sequence[int]],
    lanes: int,
) -> list[int]:
    """The party's input bits, one per input label: by group, wire, then lane."""
    groups = _groups(circuit, party)
    if set(my_inputs) != {g.name for g in groups}:
        raise ValueError(f"party {party} must supply exactly groups "
                         f"{sorted(g.name for g in groups)}")
    bits: list[int] = []
    for group in groups:
        got = my_inputs[group.name]
        if len(got) != len(group.wires):
            raise ValueError(f"group {group.name!r} has wrong length")
        width = 1 if group.shared else lanes
        if got and (min(got) < 0 or max(got) >> width):
            raise ValueError("inputs must be bits, one per lane")
        bits += int_to_bits(join_lanes(got, width), width * len(got))
    return bits


def yao_execute(
    circuit: Circuit,
    party: int,
    my_inputs: Mapping[str, Sequence[int]],
    channel,
    setup: DealerMaterial,
    rng=None,
    transcript: SessionTranscript | None = None,
    garbler: int = 1,
    lanes: int = 1,
) -> BitShares:
    """Run one garbled execution; returns this party's shares of the outputs.

    ``rng`` is required on the garbler side only.  Call reveal_output()
    afterwards to reconstruct (it costs the second online round).  Over
    several lanes the shares are ordered by output wire, then lane.
    """
    return drive(yao_steps(circuit, party, my_inputs, setup, rng, transcript,
                           garbler, lanes), channel)


def yao_steps(
    circuit: Circuit,
    party: int,
    my_inputs: Mapping[str, Sequence[int]],
    setup: DealerMaterial,
    rng=None,
    transcript: SessionTranscript | None = None,
    garbler: int = 1,
    lanes: int = 1,
):
    """Step generator of :func:`yao_execute`; returns the output shares."""
    if party == garbler:
        _, outputs = yield from garble_steps(circuit, my_inputs, setup, rng,
                                             transcript, garbler, lanes)
    else:
        outputs = yield from evaluate_steps(circuit, my_inputs, setup,
                                            transcript, garbler, lanes)
    return BitShares(tuple(label & 1 for label in outputs))


def garble_steps(
    circuit: Circuit,
    my_inputs: Mapping[str, Sequence[int]],
    setup: DealerMaterial,
    rng,
    transcript: SessionTranscript | None = None,
    garbler: int = 1,
    lanes: int = 1,
):
    """Garbler's side of one execution.

    Returns (delta, the zero-labels of the output wires by wire, then lane).
    """
    if garbler != setup.party:
        raise ValueError("setup material belongs to the other party")
    if transcript is not None:
        transcript.record_receive(
            MSG_SETUP_TRIPLES, setup.serialized_size(), setup.digest_bytes()
        )
    n_transfers = _slot_count(circuit, 1 - garbler, lanes)
    if rng is None:
        raise ValueError("garbler needs an rng")
    pads = setup.transfer_pads
    if pads is None or len(pads) < n_transfers:
        raise SetupUnderprovisioned(f"needed {n_transfers} label transfers")
    my_bits = _flatten_inputs(circuit, garbler, my_inputs, lanes)
    delta, label0, tables = _garble(circuit, rng, lanes)
    yield from send_frame(MSG_GARBLED_TABLES, tables, transcript)
    if transcript is not None:
        transcript.begin_online()
        transcript.next_round()
    e_bits = unpack_bits(
        (yield from recv_frame(MSG_INPUT_SHARE, transcript)), n_transfers
    )
    parts: list[bytes] = []
    no_flip = bytes(LABEL_BYTES)
    flip = _label_bytes(delta)
    pos = 0
    for group in _groups(circuit, garbler):
        zero, count = _slot_labels(label0, group, lanes)
        # a one-label is its zero-label XOR delta
        flips = b"".join([flip if bit else no_flip
                          for bit in my_bits[pos : pos + count]])
        parts.append((zero ^ int.from_bytes(flips, "little")).to_bytes(
            LABEL_BYTES * count, "little"))
        pos += count
    j = 0
    for group in _groups(circuit, 1 - garbler):
        zero, count = _slot_labels(label0, group, lanes)
        for z in split_lanes(zero, LABEL_BITS, count):
            r0, r1 = pads[j]
            one = z ^ delta
            if e_bits[j]:
                parts += (_label_bytes(z ^ r1), _label_bytes(one ^ r0))
            else:
                parts += (_label_bytes(z ^ r0), _label_bytes(one ^ r1))
            j += 1
    yield from send_frame(MSG_LABELS, b"".join(parts), transcript)
    return delta, [label for w in circuit.output_wires
                   for label in split_lanes(label0[w], LABEL_BITS, lanes)]


def evaluate_steps(
    circuit: Circuit,
    my_inputs: Mapping[str, Sequence[int]],
    setup: DealerMaterial,
    transcript: SessionTranscript | None = None,
    garbler: int = 1,
    lanes: int = 1,
):
    """Evaluator's side of one execution.

    Returns the labels of the output wires, by wire, then lane.
    """
    party = 1 - garbler
    if party != setup.party:
        raise ValueError("setup material belongs to the other party")
    if transcript is not None:
        transcript.record_receive(
            MSG_SETUP_TRIPLES, setup.serialized_size(), setup.digest_bytes()
        )
    n_transfers = _slot_count(circuit, party, lanes)
    choices = setup.transfer_choices
    if choices is None or len(choices) < n_transfers:
        raise SetupUnderprovisioned(f"needed {n_transfers} label transfers")
    my_bits = _flatten_inputs(circuit, party, my_inputs, lanes)
    tables = yield from recv_frame(MSG_GARBLED_TABLES, transcript)
    if len(tables) != _TABLE_BYTES * circuit.and_count() * lanes:
        raise ProtocolError("garbled table payload has wrong size")
    if transcript is not None:
        transcript.begin_online()
        transcript.next_round()
    e_bits = [bit ^ choices[j][0] for j, bit in enumerate(my_bits)]
    yield from send_frame(MSG_INPUT_SHARE, pack_bits(e_bits), transcript)
    payload = yield from recv_frame(MSG_LABELS, transcript)
    expected = LABEL_BYTES * (_slot_count(circuit, garbler, lanes)
                              + 2 * n_transfers)
    if len(payload) != expected:
        raise ProtocolError("label payload has wrong size")
    labels = [0] * circuit.n_wires
    pos = 0
    for group in _groups(circuit, garbler):
        size = LABEL_BYTES * _group_slots(group, lanes)
        _place_slot_labels(labels, group, lanes, int.from_bytes(
            payload[pos : pos + size], "little"))
        pos += size
    j = 0
    for group in _groups(circuit, party):
        count = _group_slots(group, lanes)
        chosen = []
        for bit in my_bits[j : j + count]:
            at = pos + LABEL_BYTES * bit
            chosen.append(payload[at : at + LABEL_BYTES])
            pos += 2 * LABEL_BYTES
        pads = join_lanes([pad for _, pad in choices[j : j + count]], LABEL_BITS)
        _place_slot_labels(labels, group, lanes,
                           int.from_bytes(b"".join(chosen), "little") ^ pads)
        j += count
    _evaluate(circuit, labels, tables, lanes)
    return [label for w in circuit.output_wires
            for label in split_lanes(labels[w], LABEL_BITS, lanes)]


# --------------------------------------------------------------------------
# releasing values under output labels


def _release_pad(label: int, index: int, size: int) -> int:
    h = hashlib.blake2s(_label_bytes(label) + index.to_bytes(4, "little"),
                        key=_RELEASE_KEY, digest_size=size)
    return int.from_bytes(h.digest(), "little")


def release_steps(
    delta: int,
    zero_labels: Sequence[int],
    values: Sequence[tuple[bytes, bytes]],
    transcript: SessionTranscript | None = None,
):
    """Garbler: release ``values[i][bit]`` to whoever holds output i's label for ``bit``.

    One frame in the reveal round carries two ciphertexts per output, the
    value for 0 under the zero-label and the value for 1 under the
    one-label, ordered by each label's point-and-permute bit.  Every value
    must have the same length.
    """
    size = len(values[0][0]) if values else 0
    parts: list[bytes] = []
    for i, (label0, pair) in enumerate(zip(zero_labels, values)):
        rows = [b"", b""]
        for bit, value in enumerate(pair):
            if len(value) != size:
                raise ValueError("released values must have equal length")
            label = label0 ^ delta if bit else label0
            pad = _release_pad(label, i, size)
            rows[label & 1] = (pad ^ int.from_bytes(value, "little")).to_bytes(
                size, "little")
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
    if transcript is not None:
        transcript.next_round()
    payload = yield from recv_frame(MSG_OUTPUT_SHARE, transcript)
    if len(payload) != 2 * size * len(labels):
        raise ProtocolError("release payload has wrong size")
    opened: list[bytes] = []
    for i, label in enumerate(labels):
        at = size * (2 * i + (label & 1))
        row = int.from_bytes(payload[at : at + size], "little")
        opened.append((_release_pad(label, i, size) ^ row).to_bytes(size, "little"))
    if transcript is not None:
        transcript.finish()
    return opened

"""GMW evaluation over XOR shares, on one lane or many.

XOR and NOT gates are evaluated locally (NOT by party 0 flipping its share).
Each AND layer consumes one Beaver triple per gate and costs exactly one
exchange of masked openings, so the online round count equals the circuit's
AND depth; the release afterwards adds one more round.  A party runs as two
step generators over frames: :func:`gmw_steps` leaves the outputs
XOR-shared and :func:`reveal_steps` releases to the querier one of two
values per output, chosen by the output bit.

A circuit can be evaluated as a template over ``lanes`` independent
instances at once, the SIMD gates of ABY (Demmler, Schneider & Zohner,
NDSS 2015): each wire's share is one Python int whose bit i belongs to lane
i, XOR and NOT act on whole ints, and an AND layer of n gates takes n x lanes
triples and opens them in one frame of the size n x lanes separate gates
would need.  Party 0's inputs are broadcast (see :mod:`prelude.circuits`):
the querier supplies one bit per wire, which every lane reads.  At one lane
this is plain bit-level GMW.

Input wires never touch the channel, and only party 0's are XOR-shared:
both parties expand the dealer's joint mask seed into one mask bit per
querier input wire, copied to every lane; the querier takes ``value XOR
mask`` as its share and the holder takes the mask, which is a valid fresh
sharing.  Every wire of AND depth 0 is then shared the same way in every
lane.

Party 1's inputs are clear (see :mod:`prelude.circuits`): the holder keeps
their bits as they are, and they feed only cross gates.  A cross gate s AND
b, s shared as s0 XOR s1 and b the holder's clear bit, is a one-sided
product over dealer material: the querier holds a random a, the holder a
random y, and each a share of a AND y.  The querier opens s0 XOR a: at
AND level 1, where s0 is the same in every lane and so is the dealer's a,
a single bit per gate, and at every later level one bit per lane.  The
holder opens b XOR y, one bit per lane.  Both openings ride in the frame
of that AND level, beside its Beaver openings.  With d = s0 XOR a and
e = b XOR y, the querier takes s0 e XOR its product share and the holder
d y XOR its product share XOR s1 b; these XOR to s b.  Each opening is
one-time padded by dealer randomness the receiver never sees, so neither
party learns anything.

The release is one precomputed transfer per output and lane
(:mod:`prelude.smpc.transfer`), the gmw twin of yao's label release.  The
querier's choice bit is its share s0 of the output; the holder offers the
pair of values ordered by its own share s1, value s0 XOR s1 in slot s0, so
the querier opens the value of the output bit.  The holder sees s0 only
XORed with a dealer bit it never learns, and the querier holds the pad of
one slot only, so the other value reaches it one-time padded: it learns
one value per output and not the holder's share.  A query releases the
entry's identifier where the output says the rules overlap and the dummy
where they are distinct, so the querier learns an identifier only where
the entry overlaps its rule.
"""

from __future__ import annotations

import random
from typing import Mapping, Sequence

from prelude.circuits import Circuit, XOR, input_values
from prelude.smpc.channel import (
    MSG_AND_OPENING,
    MSG_OUTPUT_SHARE,
    MSG_SETUP_TRIPLES,
    recv_exact,
    send_frame,
)
from prelude.smpc.dealer import DealerMaterial
from prelude.smpc.shares import (
    BitShares,
    int_to_bits,
    join_lanes,
    split_lanes,
)
from prelude.smpc.transcript import SessionTranscript
from prelude.smpc.transfer import (
    choose_steps,
    from_lanes,
    select,
    send_steps,
    spread,
    to_lanes,
)


def _input_shares(circuit: Circuit, party: int,
                  my_inputs: Mapping[str, Sequence[int]], mask_seed: bytes,
                  lanes: int) -> list[int]:
    """This party's share of every wire, input wires filled in.

    A querier wire's share is one bit, copied to every lane; party 1's
    wires hold its clear bits on its side and 0 on the other.
    """
    values = [0] * circuit.n_wires
    for w, value in input_values(circuit, party, my_inputs, lanes).items():
        values[w] = value
    rng = random.Random(int.from_bytes(mask_seed, "little"))
    every_lane = (1 << lanes) - 1
    for group in circuit.input_groups:
        if group.party == 0:
            n = len(group.wires)
            masks = int_to_bits(rng.getrandbits(n), n)
            for w, mask in zip(group.wires, masks):
                values[w] = (values[w] ^ mask) * every_lane
    return values


def gmw_steps(
    circuit: Circuit,
    party: int,
    my_inputs: Mapping[str, Sequence[int]],
    setup: DealerMaterial,
    transcript: SessionTranscript | None = None,
    lanes: int = 1,
):
    """One party's online phase; returns its shares of the output wires.

    Outputs stay shared: :func:`reveal_steps` releases values by them.
    Over several lanes the shares are ordered by output wire, then lane.
    """
    if party != setup.party:
        raise ValueError("setup material belongs to the other party")
    if lanes < 1:
        raise ValueError("lanes must be at least 1")
    if transcript is not None:
        transcript.record_receive(MSG_SETUP_TRIPLES, setup.serialized_size())
        transcript.begin_online()

    values = _input_shares(circuit, party, my_inputs, setup.input_mask_seed,
                           lanes)
    every_lane = (1 << lanes) - 1
    flip = every_lane if party == 0 else 0  # NOT: only party 0 flips

    def run_local(gates) -> None:
        for kind, a, b, out in gates:
            if kind == XOR:
                values[out] = values[a] ^ values[b]
            else:
                values[out] = values[a] ^ flip

    ands, crosses, locals_ = circuit.and_layers()
    run_local(locals_[0])
    for level in range(1, len(ands)):
        gates = ands[level]
        nb = len(gates) * lanes
        ta, tb, tc = setup.triples.take(nb)
        # gate g's lanes occupy bits [g * lanes, (g + 1) * lanes) of a layer word
        d_mine = join_lanes([values[g[1]] for g in gates], lanes) ^ ta
        e_mine = join_lanes([values[g[2]] for g in gates], lanes) ^ tb
        # Cross gates: at level 1 the querier's opening is the same in
        # every lane, and it opens one bit per gate.
        cross = crosses[level]
        nc = len(cross) * lanes
        n_d = len(cross) if level == 1 else nc  # bits of the querier's opening
        xa, xy, xc = setup.cross.take(nc)
        s_mine = join_lanes([values[g[1]] for g in cross], lanes)
        if party == 0:
            opened = s_mine ^ xa
            if level == 1:
                opened = join_lanes([v & 1 for v in split_lanes(
                    opened, lanes, len(cross))], 1)
            n_mine, n_theirs = n_d, nc
        else:
            clear = join_lanes([values[g[2]] for g in cross], lanes)
            opened = clear ^ xy
            n_mine, n_theirs = nc, n_d
        word = d_mine | (e_mine << nb) | (opened << 2 * nb)
        payload = word.to_bytes((2 * nb + n_mine + 7) // 8, "little")
        if transcript is not None:
            transcript.next_round()
        yield from send_frame(MSG_AND_OPENING, payload, transcript)
        theirs = int.from_bytes((yield from recv_exact(
            MSG_AND_OPENING, (2 * nb + n_theirs + 7) // 8, transcript)),
            "little")
        mask = (1 << nb) - 1
        d_pub = d_mine ^ (theirs & mask)
        e_pub = e_mine ^ ((theirs >> nb) & mask)
        z = tc ^ (d_pub & tb) ^ (e_pub & ta)
        if party == 0:
            z ^= d_pub & e_pub
        for gate, share in zip(gates, split_lanes(z, lanes, len(gates))):
            values[gate[3]] = share
        if cross:
            theirs_cross = (theirs >> 2 * nb) & ((1 << n_theirs) - 1)
            if party == 0:
                zc = (s_mine & theirs_cross) ^ xc
            else:
                d_cross = theirs_cross
                if level == 1:
                    d_cross = join_lanes(int_to_bits(d_cross, len(cross)),
                                         lanes) * every_lane
                zc = (d_cross & xy) ^ xc ^ (s_mine & clear)
            for gate, share in zip(cross, split_lanes(zc, lanes, len(cross))):
                values[gate[3]] = share
        run_local(locals_[level])

    outputs = [values[w] for w in circuit.output_wires]
    return BitShares(join_lanes(outputs, lanes), lanes * len(outputs))


def reveal_steps(
    my_share: BitShares,
    setup: DealerMaterial,
    size: int,
    transcript: SessionTranscript | None = None,
    *,
    receive: bool,
    values: Sequence[tuple[bytes, bytes]] = (),
):
    """Release to the receiving side ``values[i][b]`` for output i of bit b.

    One online round.  The side that does not ``receive``, party 1, gives
    ``values``, a pair of ``size``-byte values per output in output order,
    and returns None; party 0 returns the value of each output.
    """
    n = my_share.n
    material = setup.take_transfers(n)
    if transcript is not None:
        transcript.next_round()
    if receive:
        chosen = yield from choose_steps(my_share.value, n, size, material,
                                         MSG_OUTPUT_SHARE, transcript)
        opened = from_lanes(chosen, n, size)
        released = [opened[i * size : (i + 1) * size] for i in range(n)]
    else:
        if len(values) != n or any(len(v) != size for pair in values
                                   for v in pair):
            raise ValueError(f"release needs {n} pairs of {size}-byte values")
        v0, v1 = (to_lanes(b"".join([pair[bit] for pair in values]), n, size)
                  for bit in (0, 1))
        # slot c holds the value for c XOR my share
        swap = select(spread(my_share.value, n)) & (v0 ^ v1)
        yield from send_steps(v0 ^ swap, v1 ^ swap, n, size, material,
                              MSG_OUTPUT_SHARE, transcript)
        released = None
    if transcript is not None:
        transcript.finish()
    return released

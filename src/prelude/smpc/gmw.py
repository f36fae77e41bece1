"""GMW evaluation over XOR shares, on one lane or many.

XOR and NOT gates are evaluated locally (NOT by party 0 flipping its share).
Each AND layer consumes one Beaver triple per gate and costs exactly one
exchange of masked openings, so the online round count equals the circuit's
AND depth; revealing the output afterwards adds one more round.  A party
runs as two step generators over frames: :func:`gmw_steps` leaves the
outputs XOR-shared and :func:`reveal_steps` opens them, to both parties or
to one.

A circuit can be evaluated as a template over ``lanes`` independent
instances at once, the SIMD gates of ABY (Demmler, Schneider & Zohner,
NDSS 2015): each wire's share is one Python int whose bit i belongs to lane
i, XOR and NOT act on whole ints, and an AND layer of n gates takes n x lanes
triples and opens them in one frame of the size n x lanes separate gates
would need.  A per-lane input group supplies one int of lane bits per wire;
a shared group (:attr:`InputGroup.shared`) supplies one bit per wire, which
is broadcast to every lane.  At one lane this is plain bit-level GMW.

Input wires never touch the channel: both parties expand the dealer's joint
mask seed into one mask per input wire, one bit wide for a shared wire and
``lanes`` bits otherwise.  The owner takes ``value XOR mask`` as its share
and the peer takes the mask, which is a valid fresh sharing.

The holder's clear groups (:attr:`InputGroup.clear`) are never shared: it
keeps their bits as they are.  A cross gate s AND b, s shared as s0 XOR s1
and b the holder's clear bit, is a one-sided product over dealer material:
the querier holds a random a, the holder a random y, and each a share of a
AND y.  The querier opens s0 XOR a, a single bit per gate when s belongs to
a shared group and so is the same in every lane; the holder opens b XOR y,
one bit per lane.  Both openings ride in the frame of that AND level,
beside its Beaver openings.  With d = s0 XOR a and e = b XOR y, the querier
takes s0 e XOR its product share and the holder d y XOR its product share
XOR s1 b; these XOR to s b.  Each opening is one-time padded by dealer
randomness the receiver never sees, so neither party learns anything.
"""

from __future__ import annotations

import random
from typing import Mapping, Sequence

from prelude.circuits import Circuit, XOR
from prelude.smpc.channel import (
    MSG_AND_OPENING,
    MSG_OUTPUT_SHARE,
    MSG_SETUP_TRIPLES,
    recv_frame,
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


def _input_shares(circuit: Circuit, party: int,
                  my_inputs: Mapping[str, Sequence[int]], mask_seed: bytes,
                  lanes: int) -> list[int]:
    """This party's share of every wire, input wires filled in.

    A clear wire holds the holder's bits on its side and 0 on the other.
    """
    mine = {g.name for g in circuit.input_groups if g.party == party}
    if set(my_inputs) != mine:
        raise ValueError(f"party {party} must supply exactly groups {sorted(mine)}")
    rng = random.Random(int.from_bytes(mask_seed, "little"))
    every_lane = (1 << lanes) - 1
    values = [0] * circuit.n_wires
    for group in circuit.input_groups:
        width = 1 if group.shared else lanes
        n = len(group.wires)
        own = my_inputs.get(group.name) if group.party == party else None
        if own is not None:
            if len(own) != n:
                raise ValueError(f"group {group.name!r} has wrong length")
            if own and (min(own) < 0 or max(own) >> width):
                raise ValueError("inputs must be bits, one per lane")
        if group.clear:
            for w, value in zip(group.wires, own or ()):
                values[w] = value
            continue
        shares = split_lanes(rng.getrandbits(n * width), width, n)
        if own is not None:
            shares = [m ^ v for m, v in zip(shares, own)]
        if group.shared:
            shares = [m * every_lane for m in shares]
        for w, share in zip(group.wires, shares):
            values[w] = share
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

    Outputs stay shared: :func:`reveal_steps` reconstructs them.  Over
    several lanes the shares are ordered by output wire, then lane.
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
    shared_counts = circuit.shared_cross_counts()
    run_local(locals_[0])
    for level in range(1, len(ands)):
        gates = ands[level]
        nb = len(gates) * lanes
        ta, tb, tc = setup.triples.take(nb)
        # gate g's lanes occupy bits [g * lanes, (g + 1) * lanes) of a layer word
        d_mine = join_lanes([values[g[1]] for g in gates], lanes) ^ ta
        e_mine = join_lanes([values[g[2]] for g in gates], lanes) ^ tb
        # Cross gates: those whose secret wire is the same in every lane
        # come first, and the querier opens one bit for each of them.
        cross = crosses[level]
        n_uniform = shared_counts[level]
        uniform_bits = n_uniform * lanes
        nc = len(cross) * lanes
        n_d = nc - uniform_bits + n_uniform  # bits of the querier's opening
        xa, xy, xc = setup.cross.take(nc)
        s_mine = join_lanes([values[g[1]] for g in cross], lanes)
        if party == 0:
            d_cross = s_mine ^ xa
            opened = (join_lanes([v & 1 for v in split_lanes(
                d_cross, lanes, n_uniform)], 1)
                | (d_cross >> uniform_bits) << n_uniform)
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
        theirs = int.from_bytes(
            (yield from recv_frame(MSG_AND_OPENING, transcript)), "little")
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
                d_cross = (join_lanes(int_to_bits(theirs_cross, n_uniform),
                                      lanes) * every_lane
                           | (theirs_cross >> n_uniform) << uniform_bits)
                zc = (d_cross & xy) ^ xc ^ (s_mine & clear)
            for gate, share in zip(cross, split_lanes(zc, lanes, len(cross))):
                values[gate[3]] = share
        run_local(locals_[level])

    outputs = [values[w] for w in circuit.output_wires]
    return BitShares(join_lanes(outputs, lanes), lanes * len(outputs))


def reveal_steps(
    my_share: BitShares,
    transcript: SessionTranscript | None = None,
    send: bool = True,
    receive: bool = True,
):
    """Reconstruct shared outputs; one online round.

    With ``send`` or ``receive`` disabled the reveal is one-sided: only the
    receiving party learns the plaintext.  Returns the plaintext packed in
    one int, bit i being output i, or None where this side does not receive.
    """
    if transcript is not None:
        transcript.next_round()
    n = my_share.n
    if send:
        yield from send_frame(MSG_OUTPUT_SHARE,
                              my_share.value.to_bytes((n + 7) // 8, "little"),
                              transcript)
    if not receive:
        if transcript is not None:
            transcript.finish()
        return None
    payload = yield from recv_frame(MSG_OUTPUT_SHARE, transcript)
    # bits beyond n pad the last byte
    theirs = int.from_bytes(payload, "little") & ((1 << n) - 1)
    if transcript is not None:
        transcript.finish()
    return my_share.value ^ theirs

"""GMW evaluation of the comparator template over XOR shares.

The template (:class:`prelude.circuits.BatchQueryCircuit`) runs level by
level over ``lanes`` entries at once, the SIMD gates of ABY (Demmler,
Schneider & Zohner, NDSS 2015): each party's state is one level word whose
field g holds gate g's lanes, every level is a handful of operations on
that word, and a level of n gates opens all of them in one frame of the
size n x lanes separate gates would need.  Each level is one online round,
an opening sent and the peer's received, so the online round count that a
transcript reads from the frames equals the template's AND depth; the
release afterwards adds one more round.  A party runs as two step
generators over frames: :func:`gmw_steps` leaves the output XOR-shared and
:func:`reveal_steps` releases to the querier one of two values per lane,
chosen by the output bit.

Rounds are not flights.  Each party sends its opening of a level as soon
as it has finished the level before, so the two parties' frames cross,
and a one-way flight moves the session on by a level.  The querier's
level-1 opening needs no k and goes out with its envelope
(:func:`~prelude.smpc.dealer.first_steps`), and the holder's travels with
its ack.  Flight f then carries the openings of levels f - 1 and f one
way: the holder receives in the odd flights and the querier in the even
ones, and each finishes level L in the first of its flights not before L.
The querier's choice bits and the release take two flights more, so a
session of AND depth D takes 2 ceil(D / 2) + 2 flights: 10 at rule width
104 and 6 at width 4.

Each party's input is its level-1 word, which
:meth:`~prelude.circuits.BatchQueryCircuit.word` builds from its rules.
Inputs are never shared: each party keeps its word, and the words feed
only the level-1 cross gates.  A cross gate q AND b, q the querier's bit
and b the holder's, is a one-sided product over dealer material: the
querier holds a random a, one bit per gate, the holder a random y, and
each a share of a AND y.  The querier opens d = q XOR a, one bit per gate
for all lanes, since one querier rule feeds every lane, and the holder
opens e = b XOR y, one bit per gate and lane, in the frame of level 1.
The querier's opening is its first online frame, which it sends before
it calls :func:`gmw_steps`; the holder's goes out from it.
The querier takes q e XOR its product share and the holder d y XOR its
product share; these XOR to q b.  Each opening is one-time padded by
dealer randomness its receiver never sees, and each share by the dealer's
fresh product share, so neither party learns anything.

The cells are the low half of the level-1 word XOR its high half, and the
OR tree is NOT of an AND-reduction of the NOT cells, NOT being party 0
flipping its share.  Each tree level takes one Beaver triple per AND and
lane and opens the masked operands of all of them in one frame.

The dealer (:func:`~prelude.smpc.dealer.dealer_for_circuit`) deals each
party one piece of material per level of the plan it runs: level 1's pad
word and product share, then one triple word each (a, b, c) per tree
level, which the tree loop takes in step with its levels, and the
release's transfers, one per lane.

The release is one precomputed transfer per lane
(:mod:`prelude.smpc.transfer`), which also carries yao's input labels.  The
querier's choice bit is its share s0 of the output; the holder offers the
pair of values ordered by its own share s1, value s0 XOR s1 in slot s0, so
the querier opens the value of the output bit.  The holder sees s0 only
XORed with a dealer bit it never learns, and the querier holds the pad of
one slot only, so the other value reaches it one-time padded: it learns
one value per lane and not the holder's share.  A query releases the
entry's identifier where the output says the rules overlap and the dummy
where they are distinct, so the querier learns an identifier only where
the entry overlaps its rule.
"""

from __future__ import annotations

from typing import Sequence

from prelude.smpc.channel import (
    MSG_AND_OPENING,
    MSG_INPUT_SHARE,
    MSG_OUTPUT_SHARE,
    recv_exact,
    send_frame,
)
from prelude.smpc.dealer import DealerMaterial
from prelude.smpc.shares import broadcast
from prelude.smpc.transfer import (
    choose_steps,
    from_lanes,
    select,
    send_steps,
    spread,
    to_lanes,
)


def _open_steps(mine: int, n_mine: int, n_theirs: int):
    """One AND level's round: send ``n_mine`` opened bits, receive the
    peer's ``n_theirs``."""
    yield from send_frame(MSG_AND_OPENING,
                          mine.to_bytes((n_mine + 7) // 8, "little"))
    theirs = yield from recv_exact(MSG_AND_OPENING, (n_theirs + 7) // 8)
    return int.from_bytes(theirs, "little")


def gmw_steps(
    circuit,
    party: int,
    word: int,
    setup: DealerMaterial,
    lanes: int = 1,
):
    """One party's online phase over the template; returns its share of
    the output as an int, bit i for lane i.

    ``word`` is the party's level-1 operand word
    (:meth:`~prelude.circuits.BatchQueryCircuit.word`) and ``setup`` its
    dealer material for this plan, one piece per level.  The querier
    (party 0) must have sent its level-1 opening already
    (:func:`~prelude.smpc.dealer.first_steps`).  The output stays shared:
    :func:`reveal_steps` releases values by it.
    """
    setup.check(party, circuit, lanes, "gmw")
    circuit.check_word(party, word, lanes)

    # Level 1: the cross gates, one-sided products on each party's word.
    n = circuit.levels[0]
    pad, share = setup.cross
    if party == 0:
        theirs = int.from_bytes((yield from recv_exact(
            MSG_AND_OPENING, (n * lanes + 7) // 8)), "little")
        z = (broadcast(word, n, lanes) & theirs) ^ share
    else:
        theirs = yield from _open_steps(word ^ pad, n * lanes, n)
        z = (broadcast(theirs, n, lanes) & pad) ^ share

    # The cells, negated: NOT is party 0 flipping its share.
    half = n // 2 * lanes
    flip = (1 << half) - 1 if party == 0 else 0
    z = (z & ((1 << half) - 1)) ^ (z >> half) ^ flip

    # The tree: AND the low fields with the next as many, carry an odd one.
    for ands, (ta, tb, tc) in zip(circuit.levels[1:], setup.triples,
                                  strict=True):
        nb = ands * lanes
        low = (1 << nb) - 1
        d = (z & low) ^ ta
        e = ((z >> nb) & low) ^ tb
        theirs = yield from _open_steps(d | (e << nb), 2 * nb, 2 * nb)
        d ^= theirs & low
        e ^= theirs >> nb
        product = tc ^ (d & tb) ^ (e & ta) ^ (d & e if party == 0 else 0)
        z = product | ((z >> 2 * nb) << nb)

    return z ^ ((1 << lanes) - 1 if party == 0 else 0)


def reveal_steps(
    my_share: int,
    setup: DealerMaterial,
    size: int,
    *,
    receive: bool,
    values: Sequence[tuple[bytes, bytes]] = (),
):
    """Release to the receiving side ``values[i][b]`` for lane i of output b.

    One online round over the transfers of ``setup``, one per lane of its
    plan.  ``my_share`` is this party's output share from :func:`gmw_steps`.
    The side that does not ``receive``, party 1, gives ``values``, a pair
    of ``size``-byte values per lane, and returns None; party 0 returns the
    value of each lane.
    """
    n = setup.lanes
    if receive:
        yield from send_frame(MSG_INPUT_SHARE, (my_share ^ setup.transfer[0])
                              .to_bytes((n + 7) // 8, "little"))
        chosen = yield from choose_steps(my_share, n, size, setup.transfer,
                                         MSG_OUTPUT_SHARE)
        opened = from_lanes(chosen, n, size)
        return [opened[i * size : (i + 1) * size] for i in range(n)]
    if len(values) != n or any(len(v) != size for pair in values
                               for v in pair):
        raise ValueError(f"release needs {n} pairs of {size}-byte values")
    v0, v1 = (to_lanes(b"".join([pair[bit] for pair in values]), n, size)
              for bit in (0, 1))
    # slot c holds the value for c XOR my share
    swap = select(spread(my_share, n)) & (v0 ^ v1)
    yield from send_steps(v0 ^ swap, v1 ^ swap, n, size, setup.transfer,
                          MSG_OUTPUT_SHARE)
    return None

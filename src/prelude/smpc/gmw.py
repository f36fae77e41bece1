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
session of AND depth D takes 2 ceil(D / 2) + 2 flights: 8 at rule width
104, where D is 5, and 4 at width 4, where D is 2.

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
flipping its share.  A tree level's gates take n inputs each, n up to 4,
and input i of every gate is slice i of the level word.  The level opens
all n slices in one frame, slice i under a dealer mask m_i, one bit per
gate input and lane, as ABY2.0's multi-input gates do (Patra, Schneider,
Suresh & Yalame, USENIX Security 2021).  With both openings each party
holds the opened slices o_i = x_i XOR m_i, and the AND of the x_i is the
sum over the subsets S of the n inputs of m_S, the AND of the masks in S,
times the AND of the o_i outside S.  The dealer shares every m_S but the
empty one, which is 1, so each party sums its shares of the m_S times the
public ANDs of the o_i, and party 0 adds the AND of all the o_i.  This is
Beaver's circuit randomization (CRYPTO 1991) for n inputs, and with
n = 2 it is the Beaver triple.  Each tree level is one round whatever n
is, so four-input gates take the width-104 tree from depth 7 to depth 4.

Neither party learns anything in the tree.  Every bit it opens or
receives is an input bit under a fresh mask bit m_i that the dealer draws
for that gate input and lane alone and of which it holds only a share, so
both openings are one-time padded.  Each party's output share holds its
share of the product of all n masks, a fresh dealer share the other party
never sees, so the output shares are re-randomized as well.

The dealer (:func:`~prelude.smpc.dealer.dealer_for_circuit`) deals each
party one piece of material per level of the plan it runs: level 1's pad
word and product share, then one word of mask-product shares per tree
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

from itertools import chain
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
from prelude.smpc.transfer import choose_steps, select, send_steps, spread


def _open_steps(mine: int, n_mine: int, n_theirs: int):
    """One AND level's round: send ``n_mine`` opened bits, receive the
    peer's ``n_theirs``."""
    yield from send_frame(MSG_AND_OPENING,
                          mine.to_bytes((n_mine + 7) // 8, "little"))
    theirs = yield from recv_exact(MSG_AND_OPENING, (n_theirs + 7) // 8)
    return int.from_bytes(theirs, "little")


def _and_steps(party: int, inputs: int, arity: int, nb: int, products: int):
    """One tree level's round: AND the low ``arity`` slices of ``nb`` bits
    of this party's share ``inputs``; returns its share of the AND.

    ``products`` is the party's word of the level's mask products, m_S in
    slice S and 0 in slice 0.  The party opens its inputs under the masks,
    slice i under m_i in slice 2^i, and with the peer's opening holds the
    opened slices o_i = x_i XOR m_i.  The AND of the x_i = o_i XOR m_i is
    the sum over subsets S of m_S times the AND of the o_i outside S, which
    is linear in the shares of m_S; for the empty S, m_S is 1, and party 0
    alone adds the public AND of all opened slices.
    """
    low = (1 << nb) - 1
    masks = 0
    for i in range(arity):
        masks |= ((products >> (nb << i)) & low) << i * nb
    mine = (inputs & ((1 << arity * nb) - 1)) ^ masks
    opened = mine ^ (yield from _open_steps(mine, arity * nb, arity * nb))
    # The sum, one slice index at a time from the top: the slices S
    # without i take o_i, and the slices with i are added to them.
    terms = products | (low if party == 0 else 0)
    for i in reversed(range(arity)):
        factor = (opened >> i * nb) & low
        for j in range(i):  # o_i in each of the 2^i low slices
            factor |= factor << (nb << j)
        terms = (terms & factor) ^ (terms >> (nb << i))
    return terms


def gmw_steps(circuit, party: int, word: int, setup: DealerMaterial):
    """One party's online phase over the template; returns its share of
    the output as an int, bit i for lane i.

    ``word`` is the party's level-1 operand word
    (:meth:`~prelude.circuits.BatchQueryCircuit.word`) and ``setup`` its
    dealer material for this plan, one piece per level, dealt over the
    lanes the run takes.  The querier
    (party 0) must have sent its level-1 opening already
    (:func:`~prelude.smpc.dealer.first_steps`).  The output stays shared:
    :func:`reveal_steps` releases values by it.
    """
    setup.check(party, circuit, "gmw")
    lanes = setup.lanes
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

    # The tree: each gate ANDs one field of each of the level's first
    # ``arity`` slices; the fields past them are carried.
    for gates, arity, products in zip(circuit.levels[1:], circuit.arities,
                                      setup.tree, strict=True):
        nb = gates * lanes
        share = yield from _and_steps(party, z, arity, nb, products)
        z = share | (z >> arity * nb) << nb

    return z ^ ((1 << lanes) - 1 if party == 0 else 0)


def reveal_steps(
    my_share: int,
    setup: DealerMaterial,
    *,
    receive: bool,
    values: Sequence[tuple[bytes, bytes]] = (),
):
    """Release to the receiving side ``values[i][b]`` for lane i of output b.

    One online round over the transfers of ``setup``, one per lane of its
    plan, whose pads are as long as the values.  ``my_share`` is this
    party's output share from :func:`gmw_steps`.  The side that does not
    ``receive``, party 1, gives ``values``, a pair of values of the pads'
    size per lane, and returns None; party 0 returns the value of each
    lane.
    """
    n, size = setup.lanes, setup.transfer_bytes
    if receive:
        yield from send_frame(MSG_INPUT_SHARE, (my_share ^ setup.transfer[0])
                              .to_bytes((n + 7) // 8, "little"))
        chosen = yield from choose_steps(my_share, n, size, setup.transfer,
                                         MSG_OUTPUT_SHARE)
        opened = chosen.to_bytes(size * n, "little")
        return [opened[i * size : (i + 1) * size] for i in range(n)]
    # the values for output 0 and those for output 1
    columns = tuple(zip(*values)) or ((), ())
    if len(values) != n or set(map(len, chain(*columns))) - {size}:
        raise ValueError(f"release needs {n} pairs of {size}-byte values")
    v0, v1 = (int.from_bytes(b"".join(column), "little")
              for column in columns)
    # slot c holds the value for c XOR my share
    swap = select(spread(my_share, n, size), size) & (v0 ^ v1)
    yield from send_steps(v0 ^ swap, v1 ^ swap, n, size, setup.transfer,
                          MSG_OUTPUT_SHARE)
    return None

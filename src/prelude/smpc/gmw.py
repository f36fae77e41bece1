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

Rounds are not flights.  Each party sends its part of a level as soon as
it has finished the level before, so the two parties' frames cross, and a
one-way flight moves the session on by a level.  The querier's part of
level 1, its shifts, needs no k and goes out with its envelope
(:func:`~prelude.smpc.dealer.first_steps`), and the holder's lookup
tables travel with its ack.  The holder's share of level 1 comes from the
dealer, so its opening of level 2 rides in that flight too.  Flight f then
carries the frames of levels f - 1 and f one way: the holder receives in
the odd flights and the querier in the even ones, and each finishes level
L in the first of its flights not before L.  The querier's choice bits and
the release take two flights more, so a session of AND depth D takes
2 ceil(D / 2) + 2 flights: 6 at rule width 104, where D is 4, and 4 at
width 4, where D is 2.

Each party's input is its word, which
:meth:`~prelude.circuits.BatchQueryCircuit.word` builds from its rules.
Inputs are never shared: each party keeps its word, and the words feed
only level 1, the lookup level.  A comparator cell j depends on the
querier's symbol x_j, bit j of its word plus twice bit w + j, and on the
holder's clear bits: NOT cell j is 1 where x_j is 0 (``*``), NOT the
holder's pinned-zero bit where it is 1 and NOT its pinned-one bit where it
is 2.  Lookup gate g pairs cell g with cell g + ceil(w / 2), a phantom
``*`` cell padding an odd width, and its output is the AND of the pair's
NOT cells, the entry [x_a, x_b] of a 9-entry table A[i] AND B[j] whose
halves are slices of the holder's word.  Every lane reads the querier's
symbols, so one dealer-assisted 1-out-of-9 transfer per pair reads the
table in every lane at once: a one-time truth table (Ishai, Kushilevitz,
Meldgaard, Orlandi & Paskin-Cherniavsky, TCC 2013), as in the lookup-table
secure computation of Dessouky et al. (NDSS 2017), on Beaver's
precomputed transfer (CRYPTO 1995).  The dealer gives the querier a
shift u, a uniform symbol of Z3 per cell, and the pad p[u_a, u_b] per pair
and lane, and the holder all nine pads, with its share r XORed in, and r.
The querier sends s = x - u mod 3, two bit planes of one bit per cell
(:func:`~prelude.smpc.dealer.first_steps`).  The holder rotates its
halves by the shifts, three masks each, and answers with T'[i, j] =
A[i + s_a] AND B[j + s_b] XOR r XOR p[i, j] for all nine (i, j), 9 bits
per pair and lane.  The querier takes T'[u_a, u_b] XOR p[u_a, u_b], which
is A[x_a] AND B[x_b] XOR r, and the holder keeps r: the two XOR to the
gate's output.

Neither party learns anything at the lookup level.  s is uniform over
Z3 whatever x is, since u is uniform and the querier's alone.  Every
entry of T' but the querier's is padded by a pad it never sees, and its
own entry by r, which it never sees either, so the frame is uniform and
its share one-time padded.  The holder's share r is the dealer's.

The lookup level's output is already the NOT cells ANDed in pairs, and
the OR tree is NOT of an AND-reduction of them, NOT being party 0
flipping its share of the output.  A tree level's gates take n inputs
each, n up to 4, and input i of every gate is slice i of the level word.
The level opens all n slices in one frame, slice i under a dealer mask
m_i, one bit per gate input and lane, as ABY2.0's multi-input gates do
(Patra, Schneider, Suresh & Yalame, USENIX Security 2021).  With both
openings each party holds the opened slices o_i = x_i XOR m_i, and the
AND of the x_i is the sum over the subsets S of the n inputs of m_S, the
AND of the masks in S, times the AND of the o_i outside S.  The dealer
shares every m_S but the empty one, which is 1, so each party sums its
shares of the m_S times the public ANDs of the o_i, and party 0 adds the
AND of all the o_i.  This is Beaver's circuit randomization (CRYPTO 1991)
for n inputs, and with n = 2 it is the Beaver triple.  Each tree level is
one round whatever n is, so at width 104 the 52 lookup gates take three
tree levels, of 13, 3 and 1 gates.

Neither party learns anything in the tree.  Every bit it opens or
receives is an input bit under a fresh mask bit m_i that the dealer draws
for that gate input and lane alone and of which it holds only a share, so
both openings are one-time padded.  Each party's output share holds its
share of the product of all n masks, a fresh dealer share the other party
never sees, so the output shares are re-randomized as well.

The dealer (:func:`~prelude.smpc.dealer.dealer_for_circuit`) deals each
party one piece of material per level of the plan it runs: the lookup
level's shifts and pads, then one word of mask-product shares per tree
level, which the tree loop takes in step with its levels, and the
release's transfers, one per lane.

The release is one precomputed transfer per lane
(:mod:`prelude.smpc.transfer`), whose 1-out-of-3 form carries yao's input
labels.  The querier's choice bit is its share s0 of the output; the
holder offers the pair of values ordered by its own share s1, value s0
XOR s1 in slot s0, so the querier opens the value of the output bit.  The
holder gives one column of values and one value for every lane where the
output reads 1, and the querier cuts the opened values apart in one pass
of :func:`struct.unpack`.  The holder sees s0 only XORed with a dealer
bit it never learns, and the querier holds the pad of one slot only, so
the other value reaches it one-time padded: it learns one value per lane
and not the holder's share.  A query releases the entry's identifier
where the output says the rules overlap and the dummy where they are
distinct, so the querier learns an identifier only where the entry
overlaps its rule.
"""

from __future__ import annotations

import struct
from typing import Sequence

from prelude.smpc.channel import (
    MSG_AND_OPENING,
    MSG_INPUT_SHARE,
    MSG_OUTPUT_SHARE,
    RECV,
    expect,
)
from prelude.smpc.dealer import DealerMaterial, read_shift
from prelude.smpc.shares import pair_indicators, table_entries
from prelude.smpc.transfer import choose, lane_mask, offer


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
    size = (arity * nb + 7) // 8  # both openings
    yield MSG_AND_OPENING, mine.to_bytes(size, "little")
    opened = mine ^ int.from_bytes(
        expect((yield RECV), MSG_AND_OPENING, size), "little")
    # The sum, one slice index at a time from the top: the slices S
    # without i take o_i, and the slices with i are added to them.
    terms = products | (low if party == 0 else 0)
    for i in reversed(range(arity)):
        factor = (opened >> i * nb) & low
        for j in range(i):  # o_i in each of the 2^i low slices
            factor |= factor << (nb << j)
        terms = (terms & factor) ^ (terms >> (nb << i))
    return terms


def _lookup_table(word: int, shift: int, width: int, lanes: int,
                  padded: int) -> int:
    """Holder: the nine entries T'[i, j] of every pair and lane, entry
    (i, j) in slice 3 i + j, under the pads ``padded``.

    ``word`` is the holder's word and ``shift`` the querier's shifts s.
    The pair's tables A and B over a cell's symbol hold its NOT cell: all
    ones for ``*``, NOT the holder's pinned-zero field for a pinned one
    and NOT its pinned-one field for a pinned zero, each a slice of the
    word.  Rotated by the shifts, A'[i] = A[i + s_a] and B'[j] = B[j +
    s_b], and T'[i, j] = A'[i] AND B'[j] XOR the pad of entry (i, j).
    """
    nb = (width + 1) // 2 * lanes
    every = (1 << nb) - 1
    zero, one = word & ((1 << width * lanes) - 1), word >> width * lanes
    tables = ((every, every ^ (zero & every), every ^ (one & every)),
              (every, every ^ (zero >> nb), every ^ (one >> nb)))
    rotated = [[t0 & v[i] | t1 & v[(i + 1) % 3] | t2 & v[(i + 2) % 3]
                for i in range(3)]
               for (t0, t1, t2), v in zip(
                   pair_indicators(shift, width, lanes), tables)]
    table = 0
    for a in reversed(rotated[0]):
        for b in reversed(rotated[1]):
            table = table << nb | a & b
    return table ^ padded


def gmw_steps(circuit, party: int, word: int, setup: DealerMaterial):
    """One party's online phase over the template; returns its share of
    the output as an int, bit i for lane i.

    ``word`` is the party's word
    (:meth:`~prelude.circuits.BatchQueryCircuit.word`) and ``setup`` its
    dealer material for this plan, one piece per level, dealt over the
    lanes the run takes.  The querier (party 0) must have sent its shifts
    already (:func:`~prelude.smpc.dealer.first_steps`).  The holder
    raises ProtocolError for shifts of which a cell reads 3.  The output
    stays shared: :func:`reveal_steps` releases values by it.
    """
    setup.check(party, circuit, "gmw")
    lanes = setup.lanes
    circuit.check_word(party, word, lanes)

    # Level 1: the lookup tables, one per pair of cells.
    w = circuit.width
    nb = circuit.pairs * lanes
    if party == 0:
        chosen, indicators = setup.lookup
        table = int.from_bytes(expect(
            (yield RECV), MSG_AND_OPENING, (9 * nb + 7) // 8), "little")
        z = table_entries(table, *indicators, nb) ^ chosen
    else:
        shift = read_shift((yield RECV), w)
        padded, z = setup.lookup
        yield MSG_AND_OPENING, _lookup_table(
            word, shift, w, lanes, padded).to_bytes((9 * nb + 7) // 8,
                                                    "little")

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
    values: Sequence[bytes] = (),
    dummy: bytes = b"",
):
    """Release to the receiving side ``values[i]`` for lane i where the
    output reads 0 and ``dummy`` where it reads 1.

    One online round over the transfers of ``setup``, one per lane of its
    plan, whose pads are as long as the values.  ``my_share`` is this
    party's output share from :func:`gmw_steps`.  The side that does not
    ``receive``, party 1, gives ``values``, one value of the pads' size
    per lane, and ``dummy``, of that size too, and returns None; party 0
    returns the value of each lane, in a tuple.
    """
    n, size = setup.lanes, setup.transfer_bytes
    if receive:
        yield MSG_INPUT_SHARE, (my_share ^ setup.transfer[0]).to_bytes(
            (n + 7) // 8, "little")
        chosen = choose(expect((yield RECV), MSG_OUTPUT_SHARE, 2 * size * n),
                        my_share, n, size, setup.transfer)
        # one C-level pass cuts the values apart
        return struct.unpack(f"{size}s" * n, chosen.to_bytes(size * n,
                                                              "little"))
    if len(values) != n or len(dummy) != size or set(map(len, values)) - {
            size}:
        raise ValueError(
            f"release needs {n} values and a dummy of {size} bytes each")
    v0 = int.from_bytes(b"".join(values), "little")
    v1 = int.from_bytes(dummy * n, "little")
    # slot c holds the value for c XOR my share
    swap = lane_mask(my_share, n, size) & (v0 ^ v1)
    e = int.from_bytes(expect((yield RECV), MSG_INPUT_SHARE, (n + 7) // 8),
                       "little")
    yield MSG_OUTPUT_SHARE, offer(v0 ^ swap, v1 ^ swap, e, n, size,
                                  setup.transfer)
    return None

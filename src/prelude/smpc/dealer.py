"""Trusted setup dealer.

The dealer stands in for an offline phase in this simulation: it hands both
parties correlated randomness before the online phase starts.  It deals for
one level plan, the template's plan for the backend
(:meth:`~prelude.circuits.BatchQueryCircuit.plan`) over ``lanes`` entries,
and each party's material holds that plan and one piece per level of it:

- gmw's lookup level, one-time truth tables over pairs of cells (Ishai,
  Kushilevitz, Meldgaard, Orlandi & Paskin-Cherniavsky, TCC 2013): the
  querier (party 0) gets a shift u, a uniform symbol of Z3 per cell, as
  two bit planes of w bits, since every lane reads the querier's symbols;
  the holder (party 1) gets nine pads per pair and lane, entry (i, j) in
  slice 3 i + j of one word, and its share r of the level; and the
  querier gets the pad its shifts select, p[u_a, u_b], per pair and lane.
  The holder's pads come with r already XORed in, p[i, j] XOR r, which
  are as uniform and as independent of r as the p[i, j] themselves (see
  :mod:`prelude.smpc.gmw`);
- each OR-tree level, whose gates take n inputs each, n = 2 to 4: random
  masks m_1 ... m_n per gate and lane, one slice of ``gates x lanes``
  bits each, and an XOR share of the AND m_S of every non-empty subset S
  of them, 2^n - 1 products in all.  The singletons are the masks
  themselves, which pad the inputs a gate opens (see
  :mod:`prelude.smpc.gmw`).  A level's shares are one word of 2^n slices,
  the product m_S in slice S, built by doubling
  (:func:`~prelude.smpc.shares.subset_products`), and 0 in slice 0, which
  is not dealt.  This is the multi-input AND of ABY2.0 (Patra, Schneider,
  Suresh & Yalame, USENIX Security 2021), Beaver's triple when n = 2;
- precomputed-transfer material (:mod:`prelude.smpc.transfer`): gmw
  releases each lane's value by a 1-out-of-2 transfer, for which the
  sender, party 1, gets a pair of random pads per lane, and the receiver,
  party 0, a random choice bit and the pad matching it, as long as the
  value, such as a 6-byte identifier.  Yao's level takes one 1-out-of-3
  transfer of a 16-byte label per cell, which every lane reads: the
  holder gets three random pads per cell, and the querier the pad its
  shift u selects.

Yao takes its transfers alone.  A backend refuses material dealt for the
other party, for the other backend or for another plan with a
:class:`ValueError`, and takes the run's lane count from it, as gmw's
release takes its value size.

The querier's first online frame does not depend on the lane count or on
the backend: its word as symbols of Z3 shifted by u, s = x - u mod 3, one
symbol per cell as two bit planes, 2w bits (:func:`first_steps`).  u is
the one piece of its material that no lane count changes
(:func:`first_piece`), the shift of gmw's lookup level and of yao's label
transfer alike.  The dealer draws that piece first, so the querier takes
it and sends the frame with its envelope, before it learns k, and the
deal over k lanes then takes the same piece on the same stream.  The
holder sees only shifted symbols, uniform whatever the querier's word is
(:func:`read_shift`); an aborted session wastes them.

All material is simulation-grade randomness, not hardened cryptography.
"""

from __future__ import annotations

from dataclasses import dataclass

from prelude.smpc.channel import MSG_AND_OPENING, ProtocolError, expect
from prelude.smpc.shares import (
    draw_symbols,
    pair_indicators,
    subset_products,
    symbol_difference,
    table_entries,
)
from prelude.smpc.transfer import (
    LABEL_BYTES,
    symbol_transfer_material,
    transfer_material,
)


@dataclass(frozen=True)
class DealerMaterial:
    """Everything the dealer hands one party for one run of the template."""

    backend: str
    party: int
    # the rule width and the backend's level plan dealt for
    width: int
    levels: tuple[int, ...]
    lanes: int
    # party 0's shifts u, :func:`first_piece`, under either backend; None
    # for party 1
    shift: int | None
    # gmw's lookup level: the pads party 0's shifts select and where each
    # pair of cells reads each symbol of u over the lanes
    # (:func:`~prelude.smpc.shares.pair_indicators`), or party 1's nine
    # pads with its share r XORed in, and r
    lookup: tuple
    # per OR-tree level: this party's word of product shares, m_S in
    # slice S for the non-empty subsets S of the level's masks, 0 in slice 0
    tree: tuple[int, ...]
    # party 1's pad words, (r0, r1) under gmw or (p0, p1, p2) under yao,
    # or party 0's choice bits and pad word, (d, r_d), or the pad word its
    # shifts select, (p_u,), one lane of ``transfer_bytes`` per transfer
    transfer: tuple[int, ...]
    # the bytes of each pad and of each value a transfer carries
    transfer_bytes: int
    # its size, had it been sent, for the setup bytes
    serialized_size: int

    def check(self, party: int, circuit, backend: str) -> None:
        """Refuse this material unless it is ``party``'s for ``circuit``
        under ``backend``.

        The backend is part of the plan: the two deal different pads, and a
        run on the other's material could open a bit or a label unpadded.
        So is the width, which two of gmw's plans may share, as 3 and 4
        do: the shifts are dealt per cell.  The lane count is not checked,
        since a run takes it from here.
        """
        mine = (self.backend, self.party, self.width, self.levels)
        theirs = (backend, party, circuit.width, circuit.plan(backend))
        if mine != theirs:
            raise ValueError(
                "dealer material for {} party {}, width {}, levels {}, does "
                "not fit {} party {}, width {}, levels {}".format(
                    *mine, *theirs))


def first_piece(circuit, rng) -> int:
    """Party 0's piece of a deal that no lane count changes: its shifts u,
    a uniform symbol of Z3 per cell of ``circuit`` as two bit planes,
    drawn from ``rng``."""
    return draw_symbols(rng, circuit.width)


def dealer_for_circuit(
    circuit, backend: str, rng, lanes: int = 1, first: int | None = None,
    size: int = LABEL_BYTES,
) -> tuple[DealerMaterial, DealerMaterial]:
    """Deal one run of the template over ``lanes`` to parties 0 and 1.

    GMW takes one 9-entry lookup table per pair of cells and lane, the
    mask products of every OR-tree gate and lane, and one transfer of a
    ``size``-byte value per lane for the release.  Yao transfers one
    16-byte label per cell, which every lane reads; the holder's inputs
    are clear and take none.

    The lookup level costs the querier two bits per cell and one per pair
    and lane, and the holder ten bits per pair and lane.  A tree gate of n
    inputs costs each party 2^n - 1 bits per lane.  A 1-out-of-2 transfer
    costs the sender two pads and the receiver one pad and its choice bit,
    and a 1-out-of-3 transfer the sender three pads and the receiver one
    pad and the two bits of its shift.

    The querier's shifts u, :func:`first_piece`, are drawn first.
    ``first`` is that piece, drawn already from ``rng`` for the same
    circuit, which this deal then takes instead of drawing it again, so
    that both draws together hand out what one deal would have.
    """
    plan = circuit.plan(backend)
    if lanes < 1:
        raise ValueError("lanes must be positive")
    w = circuit.width
    u = first_piece(circuit, rng) if first is None else first
    if backend == "yao":
        chosen, pads = symbol_transfer_material(u, w, rng)
        size0 = (2 * w + 7) // 8 + LABEL_BYTES * w
        return (
            DealerMaterial(backend, 0, w, plan, lanes, u, (), (), (chosen,),
                           LABEL_BYTES, size0),
            DealerMaterial(backend, 1, w, plan, lanes, None, (), (), pads,
                           LABEL_BYTES, 3 * LABEL_BYTES * w),
        )

    shares0, shares1 = [], []
    bits = 0
    for gates, arity in zip(plan[1:], circuit.arities, strict=True):
        slice_bits = gates * lanes
        masks = rng.getrandbits(arity * slice_bits)
        # the empty product, all ones, is not dealt
        products = subset_products(masks, arity, slice_bits) ^ (
            (1 << slice_bits) - 1)
        share = rng.getrandbits(((1 << arity) - 1) * slice_bits) << slice_bits
        shares0.append(share)
        shares1.append(share ^ products)
        bits += ((1 << arity) - 1) * slice_bits
    choices, pads = transfer_material(rng.getrandbits(lanes), lanes, rng,
                                      size)
    nb = (w + 1) // 2 * lanes
    padded = rng.getrandbits(9 * nb)  # p[i, j] XOR r in slice 3 i + j
    r = rng.getrandbits(nb)
    indicators = pair_indicators(u, w, lanes)
    chosen = table_entries(padded, *indicators, nb) ^ r

    size0 = (bits + 2 * w + nb + 7) // 8 + size * lanes + (lanes + 7) // 8
    size1 = (bits + 10 * nb + 7) // 8 + 2 * size * lanes
    return (
        DealerMaterial(backend, 0, w, plan, lanes, u, (chosen, indicators),
                       tuple(shares0), choices, size, size0),
        DealerMaterial(backend, 1, w, plan, lanes, None, (padded, r),
                       tuple(shares1), pads, size, size1),
    )


def first_steps(circuit, word: int, piece: int):
    """Querier: send its first online frame, its shift s = x - u mod 3 of
    its symbols x under ``piece``, its :func:`first_piece` u for
    ``circuit``.

    Symbol x_j is bit j of ``word`` plus twice bit w + j, and the frame
    holds s as two bit planes, 2w bits, under either backend.  ValueError
    is raised for a word whose cell reads 3, pinned both ways.
    """
    circuit.check_word(0, word, 1)
    w = circuit.width
    both = word & word >> w
    if both:
        raise ValueError(f"the querier's word reads symbol 3 at cell "
                         f"{both.bit_length() - 1}")
    yield MSG_AND_OPENING, symbol_difference(word, piece, w).to_bytes(
        (2 * w + 7) // 8, "little")


def read_shift(frame, width: int) -> int:
    """Holder: the shifts for ``width`` cells, as two bit planes, that
    ``frame``, the querier's first frame, holds.

    Raises ProtocolError for a frame of another kind or size
    (:func:`~prelude.smpc.channel.expect`), or of which a cell reads the
    unused symbol 3, naming the cell.
    """
    shift = int.from_bytes(expect(frame, MSG_AND_OPENING,
                                  (2 * width + 7) // 8), "little")
    both = shift & shift >> width & ((1 << width) - 1)
    if both:
        raise ProtocolError(f"shift frame reads the unused symbol 3 at "
                            f"cell {both.bit_length() - 1}")
    return shift

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

Seeds.  When it deals over k lanes the dealer draws one 16-byte seed per
party, the querier's only under gmw, and each party expands its own by
AES-128-CTR keyed by it, from counter block 0, in one call, its pieces
side by side from the lowest bit up (:func:`expand`).  Every piece of
the holder's material is uniform, so all of it is its seed's expansion,
in this order: under gmw its nine padded pads, its r, each tree level's
2^n - 1 shares, slices 1 to 2^n - 1, and the pads r0 and r1; under yao
the pads p0, p1 and p2.  The querier's expansion gives the gmw pieces
of its own that are uniform and drawn with k, in this order: per tree
level its shares of the n masks side by side, which its word holds in
slices 2^0 to 2^(n-1), and its choice bits d.  Every other piece of the
querier's is a correction word, which the dealer computes from both
expansions by the formulas above: the pads p[u_a, u_b] XOR r its shifts
select, its shares m_S XOR h_S of the 2^n - 1 - n products that are not
singletons, h_S being the holder's, and the pad r_d; under yao the pads
p_u.  The holder is sent its seed, and the querier its shifts u, its
seed and its corrections, and nothing else, which is what
:attr:`DealerMaterial.serialized_size` counts.

Seeding changes no one's view.  The holder's material is a function of
its seed alone, uniform piece by piece as when it was drawn so, and
independent of the querier's.  Each correction is one of the holder's
uniform pieces, which the querier holds nowhere else, XORed with what
the querier's own pieces fix: p[u_a, u_b] is one of nine pads, m_S XOR
h_S is padded by h_S, r_d is one of two pads, and p_u one of three.  So
each is uniform given the rest of the querier's material, as its share
or pad was when the dealer drew it fresh, and the correlations between
the parties are the ones above.  The expansion is simulation-grade, as
the Mersenne Twister it replaces was; a seed and its correction words
are the form that pseudorandom correlation generators (Boyle, Couteau,
Gilboa, Ishai, Kohl & Scholl, CRYPTO 2019) compress further.

The querier's first online frame does not depend on the lane count or on
the backend: its word as symbols of Z3 shifted by u, s = x - u mod 3, one
symbol per cell as two bit planes, 2w bits (:func:`first_steps`).  u is
the one piece of its material that no lane count changes
(:func:`first_piece`), the shift of gmw's lookup level and of yao's label
transfer alike.  The dealer draws that piece first, from its stream and
not from a seed, so the querier takes it and sends the frame with its
envelope, before it learns k, and the deal over k lanes then takes the
same piece on the same stream.  A seed expanded for u alone would cost
every session an OpenSSL call, about half of which end after the ack.
The holder sees only shifted symbols, uniform whatever the querier's word
is (:func:`read_shift`); an aborted session wastes them.

All material is simulation-grade randomness, not hardened cryptography.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from prelude.smpc.aes import BLOCK_BYTES, Aes128, pinned
from prelude.smpc.channel import MSG_AND_OPENING, ProtocolError, expect
from prelude.smpc.shares import (
    draw_symbols,
    pair_indicators,
    subset_products,
    symbol_difference,
    table_entries,
)
from prelude.smpc.transfer import (
    LABEL_BITS,
    LABEL_BYTES,
    choice_pad,
    symbol_pad,
)

SEED_BYTES = 16
# One CTR context serves every expansion, behind a lock: an OpenSSL context
# is not reentrant, and a new one costs 5 to 7 us.
_CTR, _CTR_LOCK = Aes128("ctr"), threading.Lock()


def expand(seed: bytes, sizes) -> list[int]:
    """The fields of ``sizes`` bits, in order, that ``seed`` expands into.

    The expansion is the AES-128-CTR keystream keyed by the 16-byte seed
    from counter block 0, just the whole blocks the fields take, made by
    one OpenSSL call and read as one little-endian int: the first field
    is its lowest bits, and each next field the bits above.
    """
    n = -(-sum(sizes) // (8 * BLOCK_BYTES)) * BLOCK_BYTES
    # zeros encrypted in place, then the key, above every field's bits
    buf = bytearray(n + SEED_BYTES)
    buf[n:] = seed
    pin, at = pinned(buf)
    with _CTR_LOCK:
        _CTR.encrypt(at + n, at, at, n)
    stream, out = int.from_bytes(buf, "little"), []
    for bits in sizes:
        out.append(stream & (1 << bits) - 1)
        stream >>= bits
    return out


def _draw_seed(rng) -> bytes:
    """A 16-byte seed from ``rng``, as ``rng.randbytes`` would draw it."""
    return rng.getrandbits(8 * SEED_BYTES).to_bytes(SEED_BYTES, "little")


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
    # the seed of this party's expansion; None for party 0 under yao
    seed: bytes | None
    # what the dealer sends it, for the setup bytes: its seed, and party
    # 0's shifts and correction words
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


def holder_material(circuit, backend: str, lanes: int, seed: bytes,
                    size: int = LABEL_BYTES) -> DealerMaterial:
    """Party 1's material for ``circuit`` under ``backend`` over ``lanes``,
    all of it the expansion of its ``seed``; ``size`` as for
    :func:`dealer_for_circuit`."""
    plan, w = circuit.plan(backend), circuit.width
    if backend == "yao":
        return DealerMaterial(backend, 1, w, plan, lanes, None, (), (), tuple(
            expand(seed, [LABEL_BITS * w] * 3)), LABEL_BYTES, seed,
            SEED_BYTES)
    nb = (w + 1) // 2 * lanes
    slices = [gates * lanes for gates in plan[1:]]
    padded, r, *tree, r0, r1 = expand(seed, [
        9 * nb, nb, *[((1 << arity) - 1) * bits
                      for bits, arity in zip(slices, circuit.arities)],
        8 * size * lanes, 8 * size * lanes])
    return DealerMaterial(backend, 1, w, plan, lanes, None, (padded, r), tuple(
        [word << bits for word, bits in zip(tree, slices)]), (r0, r1), size,
        seed, SEED_BYTES)


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

    The holder is sent its 16-byte seed.  The querier is sent its shifts
    u, 2w bits, and its correction words: under gmw its 16-byte seed
    first, then one bit per pair of cells and lane for the lookup level,
    2^n - 1 - n bits per tree gate of n inputs and lane, and the pad of
    each 1-out-of-2 transfer, as long as the value; under yao one 16-byte
    pad per cell.

    The querier's shifts u, :func:`first_piece`, are drawn first.
    ``first`` is that piece, drawn already from ``rng`` for the same
    circuit, which this deal then takes instead of drawing it again, so
    that both draws together hand out what one deal would have.  The
    querier's seed, under gmw, and the holder's are drawn next.
    """
    plan, w = circuit.plan(backend), circuit.width
    if lanes < 1:
        raise ValueError("lanes must be positive")
    u = first_piece(circuit, rng) if first is None else first
    if backend == "yao":
        holder = holder_material(circuit, backend, lanes, _draw_seed(rng))
        return DealerMaterial(
            backend, 0, w, plan, lanes, u, (), (),
            (symbol_pad(u, w, holder.transfer),), LABEL_BYTES, None,
            (2 * w + 7) // 8 + LABEL_BYTES * w), holder
    mine = _draw_seed(rng)
    holder = holder_material(circuit, backend, lanes, _draw_seed(rng), size)

    levels = [(gates * lanes, arity)
              for gates, arity in zip(plan[1:], circuit.arities)]
    # the querier's shares of each tree level's n masks, side by side, then
    # its choice bits
    *masks, d = expand(mine, [arity * bits for bits, arity in levels]
                       + [lanes])
    nb = (w + 1) // 2 * lanes
    tree, corrections = [], nb
    for (bits, arity), share, mask in zip(levels, holder.tree, masks):
        # mask i is the holder's share in slice 2^i XOR the querier's in
        # field i, and the querier's word is m_S XOR h_S in each non-empty
        # slice S, so its share of mask i in slice 2^i
        tree.append(share ^ subset_products(share, mask, arity, bits))
        corrections += ((1 << arity) - 1 - arity) * bits
    padded, r = holder.lookup
    indicators = pair_indicators(u, w, lanes)
    return DealerMaterial(
        backend, 0, w, plan, lanes, u,
        (table_entries(padded, *indicators, nb) ^ r, indicators), tuple(tree),
        (d, choice_pad(d, lanes, size, holder.transfer)), size, mine,
        SEED_BYTES + (2 * w + 7) // 8 + (corrections + 7) // 8
        + size * lanes), holder


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

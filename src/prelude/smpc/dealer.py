"""Trusted setup dealer.

The dealer stands in for an offline phase in this simulation: it hands both
parties correlated randomness before the online phase starts.  It deals for
one level plan, the template's ``levels`` over ``lanes`` entries, and each
party's material holds that plan and one piece per level of it:

- level 1, the cross gates, ANDs of a querier bit with a holder (party 1)
  bit, each in its owner's clear: the querier gets a random pad a, one bit
  per gate, since every cross gate reads a querier input that every lane
  shares (see :mod:`prelude.circuits`); the holder gets a random pad y, one
  bit per gate and lane; and each party an XOR share of a AND y, with a
  copied to every lane.  Each party's pad pads the bits it opens, so no
  input is shared or masked otherwise;
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
- precomputed-transfer material (:mod:`prelude.smpc.transfer`), one kind
  for both backends: the sender, party 1, gets a pair of random pads per
  transfer, and the receiver, party 0, a random choice bit and the pad
  matching it.  Yao spends one transfer per querier input on a 16-byte
  label, gmw one per lane on a released value, such as a 6-byte
  identifier, and its pads are as long as the value.

Yao takes the transfers alone.  A backend refuses material dealt for the
other party, for the other backend or for another plan with a
:class:`ValueError`, and takes the run's lane count from it, as gmw's
release takes its value size.

The querier's first online frame does not depend on the lane count: its
level-1 word under the pad that no lane count changes, gmw's cross pad a
or yao's transfer choice bits d, one bit per cross gate either way.  The
dealer draws that piece first, and dealt over zero lanes a party's
material is that piece alone: yao's pads come with the deal over k lanes,
as gmw's other material does.  So the querier takes it and sends the
frame (:func:`first_steps`) with its envelope, before it learns k, and the
deal over k lanes then extends the same piece on the same stream.  The
holder sees only padded bits, as before; an aborted session wastes them.

All material is simulation-grade randomness, not hardened cryptography.
"""

from __future__ import annotations

from dataclasses import dataclass

from prelude.smpc.channel import MSG_AND_OPENING, MSG_INPUT_SHARE, send_frame
from prelude.smpc.shares import broadcast, subset_products
from prelude.smpc.transfer import LABEL_BYTES, transfer_material


@dataclass(frozen=True)
class DealerMaterial:
    """Everything the dealer hands one party for one run of the template."""

    backend: str
    party: int
    levels: tuple[int, ...]
    lanes: int
    # level 1: this party's pad word and its share of the products
    cross: tuple[int, int]
    # per OR-tree level: this party's word of product shares, m_S in
    # slice S for the non-empty subsets S of the level's masks, 0 in slice 0
    tree: tuple[int, ...]
    # party 1's pad words (r0, r1), or party 0's choice bits and pad word
    # (d, r_d), one lane of ``transfer_bytes`` per transfer
    transfer: tuple[int, int]
    # the bytes of each pad and of each value a transfer carries
    transfer_bytes: int
    # its size, had it been sent, for the setup bytes
    serialized_size: int

    def check(self, party: int, circuit, backend: str) -> None:
        """Refuse this material unless it is ``party``'s for ``circuit``
        under ``backend``.

        The backend is part of the plan: the two deal different pads, and a
        run on the other's material could open a bit or a label unpadded.
        The lane count is not checked, since a run takes it from here.
        """
        if (self.backend, self.party, self.levels) != (
                backend, party, circuit.levels):
            raise ValueError(
                f"dealer material for {self.backend} party {self.party}, "
                f"levels {self.levels}, does not fit {backend} party "
                f"{party}, levels {circuit.levels}")


def dealer_for_circuit(
    circuit, backend: str, rng, lanes: int = 1, first=None,
    size: int = LABEL_BYTES,
) -> tuple[DealerMaterial, DealerMaterial]:
    """Deal one run of the template over ``lanes`` to parties 0 and 1.

    GMW takes one cross product per level-1 cross gate and lane, the mask
    products of every OR-tree gate and lane, and one transfer of a
    ``size``-byte value per lane for the release.  Yao transfers one
    16-byte label per querier input, which every lane reads; the holder's
    inputs are clear and take none.

    A cross product costs the querier its pad bit per gate and its share
    bit per gate and lane, and the holder two bits per gate and lane.  A
    tree gate of n inputs costs each party 2^n - 1 bits per lane, and a
    transfer the sender two pads and the receiver one pad and its choice
    bit.

    The material no lane count changes is drawn first: gmw's pad a, then
    yao's choice bits d.  Over zero lanes the deal is that alone.
    ``first`` is such a zero-lane deal from ``rng`` for the same plan,
    which this deal then extends instead of drawing it again, so that both
    deals together hand out what one deal over ``lanes`` would have.
    """
    if backend == "gmw":
        n, fixed = circuit.levels[0], 0
        tree = tuple(zip(circuit.levels[1:], circuit.arities, strict=True))
    elif backend == "yao":
        n, tree, fixed, size = 0, (), circuit.levels[0], LABEL_BYTES
    else:
        raise ValueError(f"unknown backend {backend!r}")
    if lanes < 0:
        raise ValueError("lanes must not be negative")
    if first is None:
        x = rng.getrandbits(n)
        d = rng.getrandbits(fixed)
    else:
        first[0].check(0, circuit, backend)
        x, d = first[0].cross[0], first[0].transfer[0]
    if not lanes:
        return (DealerMaterial(backend, 0, circuit.levels, 0, (x, 0), (),
                               (d, 0), size, (n + fixed + 7) // 8),
                DealerMaterial(backend, 1, circuit.levels, 0, (0, 0), (),
                               (0, 0), size, 0))

    shares0, shares1 = [], []
    bits = 0
    for gates, arity in tree:
        slice_bits = gates * lanes
        masks = rng.getrandbits(arity * slice_bits)
        # the empty product, all ones, is not dealt
        products = subset_products(masks, arity, slice_bits) ^ (
            (1 << slice_bits) - 1)
        share = rng.getrandbits(((1 << arity) - 1) * slice_bits) << slice_bits
        shares0.append(share)
        shares1.append(share ^ products)
        bits += ((1 << arity) - 1) * slice_bits
    transfers = fixed or lanes
    if not fixed:
        d = rng.getrandbits(lanes)  # gmw's transfers, one per lane
    choices, pads = transfer_material(d, transfers, rng, size)
    y = rng.getrandbits(n * lanes)
    z0 = rng.getrandbits(n * lanes)
    z1 = (broadcast(x, n, lanes) & y) ^ z0

    size0 = ((bits + n + n * lanes + 7) // 8 + size * transfers
             + (transfers + 7) // 8)
    size1 = (bits + 2 * n * lanes + 7) // 8 + 2 * size * transfers
    return (
        DealerMaterial(backend, 0, circuit.levels, lanes, (x, z0),
                       tuple(shares0), choices, size, size0),
        DealerMaterial(backend, 1, circuit.levels, lanes, (y, z1),
                       tuple(shares1), pads, size, size1),
    )


def first_steps(circuit, word: int, material: DealerMaterial):
    """Querier: send its first online frame, its level-1 ``word`` under the
    pad of ``material`` that no lane count changes.

    Under gmw the frame is the querier's level-1 opening d = q XOR a, under
    yao its transfer choice bits masked by d; either is one bit per cross
    gate.  ``material`` is party 0's, dealt over any lane count, zero
    included.
    """
    material.check(0, circuit, material.backend)
    circuit.check_word(0, word, 1)
    if material.backend == "gmw":
        kind, pad = MSG_AND_OPENING, material.cross[0]
    else:
        kind, pad = MSG_INPUT_SHARE, material.transfer[0]
    yield from send_frame(kind, (word ^ pad).to_bytes(
        (circuit.levels[0] + 7) // 8, "little"))

"""Trusted setup dealer.

The dealer stands in for an offline phase in this simulation: it hands both
parties correlated randomness before the online phase starts.

Per session it produces:

- Beaver triple shares for every AND of the OR tree, on every lane a GMW
  run takes;
- cross-product material for every cross gate, an AND of a querier bit
  with a holder (party 1) bit, each in its owner's clear, on every lane:
  the holder gets a random word y, and each party an XOR share of a AND y,
  where a holds one random bit per gate copied to every lane.  Every cross
  gate reads a querier input, which every lane shares (see
  :mod:`prelude.circuits`), so the querier gets a as drawn, one bit per
  gate.  The querier's a pads the bits it opens and the holder's y those
  the holder opens, so no input is shared or masked otherwise;
- precomputed-transfer material (:mod:`prelude.smpc.transfer`), one kind
  for both backends: the sender, party 1, gets a pair of random 128-bit
  pads per transfer, and the receiver, party 0, a random choice bit and the
  pad matching it.  Yao spends one transfer per querier input on a
  16-byte label, gmw one per lane on a released value; its pads
  are 16 bytes too, though a query releases 6-byte values.

All material is simulation-grade randomness, not hardened cryptography.
"""

from __future__ import annotations

from dataclasses import dataclass

from prelude.smpc.shares import broadcast
from prelude.smpc.transfer import LABEL_BITS, LABEL_BYTES, transfer_material


class SetupUnderprovisioned(Exception):
    """The online phase needed more dealer material than was generated."""


@dataclass
class TripleStream:
    """One party's triple shares, bit-packed; consumed layer by layer.

    Cross-product material uses the same shape: the querier's stream holds
    (a, 0, its share of a AND y), with a one bit per gate rather than per
    gate and lane, and the holder's (0, y, its share).  ``name``
    says which material the stream holds, for the error when it runs short.
    """

    a: int
    b: int
    c: int
    n: int
    pos: int = 0
    name: str = "beaver triples"

    def take(self, count: int) -> tuple[int, int, int]:
        """Return packed shares (a, b, c) for the next ``count`` triples."""
        if self.pos + count > self.n:
            raise SetupUnderprovisioned(
                f"needed {self.pos + count} {self.name}, dealer provided "
                f"{self.n}"
            )
        mask = (1 << count) - 1
        out = (
            (self.a >> self.pos) & mask,
            (self.b >> self.pos) & mask,
            (self.c >> self.pos) & mask,
        )
        self.pos += count
        return out


@dataclass
class DealerMaterial:
    """Everything the dealer hands one party for one session."""

    party: int
    triples: TripleStream
    cross: TripleStream  # cross-product material, see TripleStream
    transfers: int = 0
    # party 1's pad words (r0, r1), or party 0's choice bits and pad word
    # (d, r_d), one 128-bit lane per transfer
    transfer: tuple[int, int] = (0, 0)

    def take_transfers(self, n: int) -> tuple[int, int]:
        """This party's material for the first ``n`` transfers."""
        if n > self.transfers:
            raise SetupUnderprovisioned(
                f"needed {n} transfers, dealer provided {self.transfers}")
        first, pads = self.transfer
        lanes = (1 << LABEL_BITS * n) - 1
        # party 0's first word holds one choice bit per transfer
        return first & (lanes if self.party == 1 else (1 << n) - 1), pads & lanes

    def serialized_size(self) -> int:
        """On-wire size of this material, for setup-phase byte accounting.

        A cross product costs each party two bits per lane: its random word
        and its share of the product.  A transfer costs the sender two pads
        and the receiver one pad and its choice bit.
        """
        size = (3 * self.triples.n + 2 * self.cross.n + 7) // 8
        if self.party == 1:
            return size + 2 * LABEL_BYTES * self.transfers
        return size + LABEL_BYTES * self.transfers + (self.transfers + 7) // 8


def dealer_gen(
    n_triples: int,
    n_transfers: int,
    rng,
    n_cross: int = 0,
    lanes: int = 1,
) -> tuple[DealerMaterial, DealerMaterial]:
    """Generate one session's setup material for parties 0 and 1.

    Party 1 receives the transfers' pad pairs; party 0 receives choice bits
    and matching pads.  ``n_cross`` cross gates each take a cross product
    in each of ``lanes`` lanes; the querier's random bit of a gate fills
    all of its lanes.
    """
    a = rng.getrandbits(n_triples)
    b = rng.getrandbits(n_triples)
    c = a & b
    a0 = rng.getrandbits(n_triples)
    b0 = rng.getrandbits(n_triples)
    c0 = rng.getrandbits(n_triples)
    stream0 = TripleStream(a0, b0, c0, n_triples)
    stream1 = TripleStream(a ^ a0, b ^ b0, c ^ c0, n_triples)

    choices, pads = transfer_material(n_transfers, rng)

    n = n_cross * lanes
    x = rng.getrandbits(n_cross)
    y = rng.getrandbits(n)
    z0 = rng.getrandbits(n)
    cross0 = TripleStream(x, 0, z0, n, name="cross products")
    cross1 = TripleStream(0, y, (broadcast(x, n_cross, lanes) & y) ^ z0, n,
                          name="cross products")

    return (DealerMaterial(0, stream0, cross0, n_transfers, choices),
            DealerMaterial(1, stream1, cross1, n_transfers, pads))


def dealer_for_circuit(
    circuit, backend: str, rng, lanes: int = 1
) -> tuple[DealerMaterial, DealerMaterial]:
    """Size the dealer material for one run of the template over ``lanes``.

    GMW takes one cross product per level-1 cross gate and lane, one triple
    per OR-tree AND and lane, and one transfer per lane for the release.
    Yao transfers one label per querier input, which every lane reads; the
    holder's inputs are clear and take none.
    """
    n_cross, *tree = circuit.levels
    if backend == "gmw":
        return dealer_gen(lanes * sum(tree), lanes, rng, n_cross=n_cross,
                          lanes=lanes)
    if backend == "yao":
        return dealer_gen(0, n_cross, rng)
    raise ValueError(f"unknown backend {backend!r}")

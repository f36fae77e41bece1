"""Trusted setup dealer.

The dealer stands in for an offline phase in this simulation: it hands both
parties correlated randomness before the online phase starts.

Per session it produces:

- Beaver triple shares for every AND gate a GMW run will evaluate between
  two secret wires, on every lane it runs;
- cross-product material for every cross gate, an AND of a secret wire
  with a wire the holder (party 1) knows in the clear, on every lane: the
  querier (party 0) gets a random word a, the holder a random word y, and
  each an XOR share of a AND y.  For a cross gate at AND level 1, whose
  secret wire is the same in every lane (see :mod:`prelude.circuits`), a
  is one bit copied to every lane;
- a joint input-mask seed, from which both parties derive identical masks for
  every input wire.  The wire's owner sets its share to ``bit XOR mask`` and
  the other party uses the mask itself, so input sharing costs no messages;
- precomputed-transfer material (:mod:`prelude.smpc.transfer`), one kind
  for both backends: the sender, party 1, gets a pair of random 128-bit
  pads per transfer, and the receiver, party 0, a random choice bit and the
  pad matching it.  Yao spends one transfer per querier input wire on a
  16-byte label, gmw one per output and lane on a released value; its pads
  are 16 bytes too, though a query releases 6-byte values.

All material is simulation-grade randomness, not hardened cryptography.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from prelude.smpc.shares import int_to_bits, join_lanes
from prelude.smpc.transfer import LABEL_BITS, LABEL_BYTES, transfer_material

MASK_SEED_BYTES = 16


class SetupUnderprovisioned(Exception):
    """The online phase needed more dealer material than was generated."""


@dataclass
class TripleStream:
    """One party's triple shares, bit-packed; consumed layer by layer.

    Cross-product material uses the same shape: the querier's stream holds
    (a, 0, its share of a AND y), the holder's (0, y, its share).  ``name``
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
    input_mask_seed: bytes
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
        size = ((3 * self.triples.n + 2 * self.cross.n + 7) // 8
                + MASK_SEED_BYTES)
        if self.party == 1:
            return size + 2 * LABEL_BYTES * self.transfers
        return size + LABEL_BYTES * self.transfers + (self.transfers + 7) // 8


def dealer_gen(
    n_triples: int,
    n_transfers: int,
    rng,
    cross: Sequence[int] = (),
    lanes: int = 1,
) -> tuple[DealerMaterial, DealerMaterial]:
    """Generate one session's setup material for parties 0 and 1.

    Party 1 receives the transfers' pad pairs; party 0 receives choice bits
    and matching pads.
    ``cross`` gives the number of cross gates at each AND level from 0, in
    the order GMW consumes them, over ``lanes``; the querier's random bit of
    a level-1 gate fills all of its lanes.
    """
    a = rng.getrandbits(n_triples)
    b = rng.getrandbits(n_triples)
    c = a & b
    a0 = rng.getrandbits(n_triples)
    b0 = rng.getrandbits(n_triples)
    c0 = rng.getrandbits(n_triples)
    stream0 = TripleStream(a0, b0, c0, n_triples)
    stream1 = TripleStream(a ^ a0, b ^ b0, c ^ c0, n_triples)

    mask_seed = rng.getrandbits(8 * MASK_SEED_BYTES).to_bytes(MASK_SEED_BYTES, "little")

    choices, pads = transfer_material(n_transfers, rng)

    every_lane = (1 << lanes) - 1
    x = n_cross = 0
    for level, n in enumerate(cross):
        if level == 1:
            word = join_lanes(int_to_bits(rng.getrandbits(n), n),
                              lanes) * every_lane
        else:
            word = rng.getrandbits(n * lanes)
        x |= word << n_cross
        n_cross += n * lanes
    y = rng.getrandbits(n_cross)
    z0 = rng.getrandbits(n_cross)
    cross0 = TripleStream(x, 0, z0, n_cross, name="cross products")
    cross1 = TripleStream(0, y, (x & y) ^ z0, n_cross, name="cross products")

    return (DealerMaterial(0, stream0, mask_seed, cross0, n_transfers, choices),
            DealerMaterial(1, stream1, mask_seed, cross1, n_transfers, pads))


def dealer_for_circuit(
    circuit, backend: str, rng, lanes: int = 1
) -> tuple[DealerMaterial, DealerMaterial]:
    """Size the dealer material for one execution of ``circuit`` over ``lanes``.

    GMW takes one triple per AND gate between secret wires and lane, one
    cross product per cross gate and lane, and one transfer per output and
    lane for the release.  Yao transfers one label per input wire of the
    evaluator (party 0), whose inputs every lane reads; party 1's inputs
    are clear and take none.
    """
    if backend == "gmw":
        _, crosses, _ = circuit.and_layers()
        return dealer_gen(lanes * (circuit.and_count() - circuit.cross_count()),
                          lanes * len(circuit.output_wires), rng,
                          cross=[len(layer) for layer in crosses], lanes=lanes)
    if backend == "yao":
        n_transfers = sum(len(g.wires) for g in circuit.input_groups
                          if g.party == 0)
        return dealer_gen(0, n_transfers, rng)
    raise ValueError(f"unknown backend {backend!r}")

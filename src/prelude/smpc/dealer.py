"""Trusted setup dealer.

The dealer replaces oblivious transfer in this simulation: it hands both
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
- precomputed-transfer material for garbled-circuit input labels: the label
  sender gets one random 128-bit pad pair per transfer, the receiver gets a
  random choice bit and the pad matching it.

All material is simulation-grade randomness, not hardened cryptography.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from prelude.smpc.shares import int_to_bits, join_lanes

LABEL_BITS = 128
LABEL_BYTES = LABEL_BITS // 8
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

    @property
    def remaining(self) -> int:
        return self.n - self.pos


@dataclass
class DealerMaterial:
    """Everything the dealer hands one party for one session."""

    party: int
    triples: TripleStream
    input_mask_seed: bytes
    cross: TripleStream  # cross-product material, see TripleStream
    transfer_pads: Optional[list[tuple[int, int]]] = None  # label sender side
    transfer_choices: Optional[list[tuple[int, int]]] = None  # (choice bit, pad)

    def serialized_size(self) -> int:
        """On-wire size of this material, for setup-phase byte accounting.

        A cross product costs each party two bits per lane: its random word
        and its share of the product.
        """
        size = ((3 * self.triples.n + 2 * self.cross.n + 7) // 8
                + MASK_SEED_BYTES)
        if self.transfer_pads is not None:
            size += 2 * LABEL_BYTES * len(self.transfer_pads)
        if self.transfer_choices is not None:
            size += LABEL_BYTES * len(self.transfer_choices)
            size += (len(self.transfer_choices) + 7) // 8
        return size


def dealer_gen(
    n_triples: int,
    n_label_transfers: int,
    rng,
    cross: Sequence[tuple[int, int]] = (),
    lanes: int = 1,
) -> tuple[DealerMaterial, DealerMaterial]:
    """Generate one session's setup material for parties 0 and 1.

    Party 1, the garbler, receives the label-transfer pad pairs; party 0
    receives choice bits and matching pads.
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

    pads: list[tuple[int, int]] = []
    choices: list[tuple[int, int]] = []
    for _ in range(n_label_transfers):
        r0 = rng.getrandbits(LABEL_BITS)
        r1 = rng.getrandbits(LABEL_BITS)
        d = rng.getrandbits(1)
        pads.append((r0, r1))
        choices.append((d, r1 if d else r0))

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

    return (DealerMaterial(0, stream0, mask_seed, cross0,
                           transfer_choices=choices),
            DealerMaterial(1, stream1, mask_seed, cross1, transfer_pads=pads))


def dealer_for_circuit(
    circuit, backend: str, rng, lanes: int = 1
) -> tuple[DealerMaterial, DealerMaterial]:
    """Size the dealer material for one execution of ``circuit`` over ``lanes``.

    GMW takes one triple per AND gate between secret wires and lane, and
    one cross product per cross gate and lane.  Yao transfers one label per
    input wire of the evaluator (party 0), whose inputs every lane reads;
    party 1's inputs are clear and take none.
    """
    if backend == "gmw":
        _, crosses, _ = circuit.and_layers()
        return dealer_gen(lanes * (circuit.and_count() - circuit.cross_count()),
                          0, rng, cross=[len(layer) for layer in crosses],
                          lanes=lanes)
    if backend == "yao":
        n_transfers = sum(len(g.wires) for g in circuit.input_groups
                          if g.party == 0)
        return dealer_gen(0, n_transfers, rng)
    raise ValueError(f"unknown backend {backend!r}")

"""Trusted setup dealer.

The dealer replaces oblivious transfer in this simulation: it hands both
parties correlated randomness before the online phase starts.

Per session it produces:

- Beaver triple shares for every AND gate a GMW run will evaluate, on
  every lane it runs;
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
from typing import Optional

LABEL_BITS = 128
LABEL_BYTES = LABEL_BITS // 8
MASK_SEED_BYTES = 16


class SetupUnderprovisioned(Exception):
    """The online phase needed more dealer material than was generated."""


@dataclass
class TripleStream:
    """One party's triple shares, bit-packed; consumed layer by layer."""

    a: int
    b: int
    c: int
    n: int
    pos: int = 0

    def take(self, count: int) -> tuple[int, int, int]:
        """Return packed shares (a, b, c) for the next ``count`` triples."""
        if self.pos + count > self.n:
            raise SetupUnderprovisioned(
                f"needed {self.pos + count} beaver triples, dealer provided {self.n}"
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
    transfer_pads: Optional[list[tuple[int, int]]] = None  # label sender side
    transfer_choices: Optional[list[tuple[int, int]]] = None  # (choice bit, pad)

    def serialized_size(self) -> int:
        """On-wire size of this material, for setup-phase byte accounting."""
        size = (3 * self.triples.n + 7) // 8 + MASK_SEED_BYTES
        if self.transfer_pads is not None:
            size += 2 * LABEL_BYTES * len(self.transfer_pads)
        if self.transfer_choices is not None:
            size += LABEL_BYTES * len(self.transfer_choices)
            size += (len(self.transfer_choices) + 7) // 8
        return size

    def digest_bytes(self) -> bytes:
        """Deterministic serialization fed to transcript fingerprints."""
        nb = (self.triples.n + 7) // 8
        parts = [
            bytes([self.party]),
            self.input_mask_seed,
            self.triples.a.to_bytes(nb, "little"),
            self.triples.b.to_bytes(nb, "little"),
            self.triples.c.to_bytes(nb, "little"),
        ]
        for pair in self.transfer_pads or ():
            parts.append(pair[0].to_bytes(LABEL_BYTES, "little"))
            parts.append(pair[1].to_bytes(LABEL_BYTES, "little"))
        for d, pad in self.transfer_choices or ():
            parts.append(bytes([d]) + pad.to_bytes(LABEL_BYTES, "little"))
        return b"".join(parts)


def dealer_gen(
    n_triples: int,
    n_label_transfers: int,
    rng,
    label_sender: int = 1,
) -> tuple[DealerMaterial, DealerMaterial]:
    """Generate one session's setup material for parties 0 and 1.

    ``label_sender`` is the party that will garble (it receives the pad
    pairs); the other party receives choice bits and matching pads.
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

    mat0 = DealerMaterial(0, stream0, mask_seed)
    mat1 = DealerMaterial(1, stream1, mask_seed)
    sender = mat1 if label_sender == 1 else mat0
    receiver = mat0 if label_sender == 1 else mat1
    sender.transfer_pads = pads
    receiver.transfer_choices = choices
    return mat0, mat1


def dealer_for_circuit(
    circuit, backend: str, rng, garbler: int = 1, lanes: int = 1
) -> tuple[DealerMaterial, DealerMaterial]:
    """Size the dealer material for one execution of ``circuit`` over ``lanes``.

    GMW takes one triple per AND gate and lane.  Yao transfers one label
    per evaluator input wire of a shared group and one per wire and lane
    of any other group.
    """
    if backend == "gmw":
        return dealer_gen(lanes * circuit.and_count(), 0, rng)
    if backend == "yao":
        evaluator = 1 - garbler
        n_transfers = sum(
            len(g.wires) * (1 if g.shared else lanes)
            for g in circuit.input_groups if g.party == evaluator
        )
        return dealer_gen(0, n_transfers, rng, label_sender=garbler)
    raise ValueError(f"unknown backend {backend!r}")

"""XOR shares of bit vectors, and the bit packings gmw uses.

No packing here shifts one bit at a time, which is quadratic in the length
of a Python int.  A bit vector leaves an int as a '0'/'1' string, whose
conversion in base 2 is linear, and a broadcast word is joined by halving,
which touches each bit once per level.  A :class:`BitShares` holds its
vector packed in one int, so shares travel without tuples.
"""

from __future__ import annotations

from dataclasses import dataclass

# ASCII '0'/'1' -> bytes of 0/1 values, for linear-time bit conversions
_FROM_ASCII = bytes(i & 1 for i in range(256))


@dataclass(frozen=True)
class BitShares:
    """One party's additive (XOR) share of an ``n``-bit vector.

    Held packed: bit i of ``value`` is bit i of the vector, so a share never
    has to pass through a tuple.
    """

    value: int
    n: int

    def __post_init__(self) -> None:
        if self.value < 0 or self.value >> self.n:
            raise ValueError(f"a share of {self.n} bits must fit in {self.n} bits")


def int_to_bits(value: int, n: int) -> tuple[int, ...]:
    """The low ``n`` bits of ``value``, bit 0 first."""
    if n <= 0:
        return ()
    text = format(value & ((1 << n) - 1), f"0{n}b")
    return tuple(text[::-1].encode().translate(_FROM_ASCII))


def broadcast(bits: int, n: int, lanes: int) -> int:
    """Bit i of ``bits`` copied to every bit of field i: ``n`` fields of
    ``lanes`` bits, field 0 in the lowest bits."""
    # put bit i at field i's bottom, merging neighbour fields pairwise so
    # that every bit moves once per level
    fields = int_to_bits(bits, n)
    width = lanes
    while len(fields) > 1:
        merged = [lo | (hi << width)
                  for lo, hi in zip(fields[::2], fields[1::2])]
        if len(fields) % 2:
            merged.append(fields[-1])
        fields = merged
        width *= 2
    low = fields[0] if fields else 0
    return (low << lanes) - low

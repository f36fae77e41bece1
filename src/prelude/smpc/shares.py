"""XOR shares of bit vectors, and the bit packings the protocols use.

No packing here shifts one bit at a time, which is quadratic in the length
of a Python int.  Bit vectors move between ints and '0'/'1' strings, whose
conversions in base 2 are linear; lane words are joined and split by
halving, which touches each bit once per level, until a value is short
enough to shift its fields out directly.  A :class:`BitShares` holds its
vector packed in one int, so shares travel without tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

# bytes of 0/1 values <-> ASCII '0'/'1', for linear-time bit conversions
_TO_ASCII = bytes(0x30 | (i & 1) for i in range(256))
_FROM_ASCII = bytes(i & 1 for i in range(256))
# split_lanes shifts fields out of values up to this long instead of halving
_SHIFT_SPLIT_BITS = 1 << 13


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


def bits_to_int(bits: Sequence[int]) -> int:
    """Bit i of the vector becomes bit i of the integer; only ``b & 1`` counts."""
    if not bits:
        return 0
    return int(bytes(bits)[::-1].translate(_TO_ASCII), 2)


def int_to_bits(value: int, n: int) -> tuple[int, ...]:
    """The low ``n`` bits of ``value``, bit 0 first."""
    if n <= 0:
        return ()
    text = format(value & ((1 << n) - 1), f"0{n}b")
    return tuple(text[::-1].encode().translate(_FROM_ASCII))


def broadcast(bits: int, n: int, lanes: int) -> int:
    """Bit i of ``bits`` copied to every bit of field i: ``n`` fields of
    ``lanes`` bits, field 0 in the lowest bits."""
    low = join_lanes(int_to_bits(bits, n), lanes)  # bit i at field i's bottom
    return (low << lanes) - low


def join_lanes(values: Sequence[int], width: int) -> int:
    """Concatenate fields below ``2**width``, ``values[0]`` in the lowest bits."""
    if width == 1:
        return bits_to_int(values)
    # merging neighbours pairwise touches every bit once per level
    fields = list(values)
    while len(fields) > 1:
        merged = [lo | (hi << width)
                  for lo, hi in zip(fields[::2], fields[1::2])]
        if len(fields) % 2:
            merged.append(fields[-1])
        fields = merged
        width *= 2
    return fields[0] if fields else 0


def split_lanes(value: int, width: int, count: int) -> list[int]:
    """Inverse of :func:`join_lanes`: ``count`` fields of ``width`` bits."""
    if count <= 0:
        return []
    if width == 1:
        return list(int_to_bits(value, count))
    if count == 1 or count * width <= _SHIFT_SPLIT_BITS:
        # short values: shifting each field out is cheaper than recursing
        mask = (1 << width) - 1
        return [(value >> (i * width)) & mask for i in range(count)]
    half = count // 2
    low = value & ((1 << (half * width)) - 1)
    return (split_lanes(low, width, half)
            + split_lanes(value >> (half * width), width, count - half))


def rows_to_lanes(rows: Sequence[int], width: int) -> list[int]:
    """Transpose ``width``-bit rows into ``width`` lane words.

    Bit j of a row counts from its most significant end, as rule bits do;
    bit i of lane word j is bit j of ``rows[i]``.
    """
    text = "".join([format(row, f"0{width}b") for row in reversed(rows)])
    if not text:
        return [0] * width
    return [int(text[j::width], 2) for j in range(width)]


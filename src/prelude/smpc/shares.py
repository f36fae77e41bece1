"""XOR secret sharing of bit vectors, and the bit packings the protocols use.

No packing here shifts one bit at a time, which is quadratic in the length
of a Python int.  Bit vectors move between ints and '0'/'1' strings, whose
conversions in base 2 are linear; lane words are joined and split by
halving, which touches each bit once per level, until a value is short
enough to shift its fields out directly.  A :class:`BitShares` holds its
vector packed in one int, so shares combine and travel without tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

# bytes of 0/1 values <-> ASCII '0'/'1', for linear-time bit conversions
_TO_ASCII = bytes(0x30 | (i & 1) for i in range(256))
_FROM_ASCII = bytes(i & 1 for i in range(256))
# split_lanes shifts fields out of values up to this long instead of halving
_SHIFT_SPLIT_BITS = 1 << 13


@dataclass(frozen=True, init=False)
class BitShares:
    """One party's additive (XOR) share of a bit vector.

    Held packed: bit i of ``value`` is bit i of the ``n``-bit vector.
    ``BitShares(bits)`` checks a bit sequence; :meth:`packed` takes the int
    as it is, so a share never has to pass through a tuple.
    """

    value: int
    n: int

    def __init__(self, bits: Sequence[int]) -> None:
        if not set(bits) <= {0, 1}:
            raise ValueError("shares are bit vectors")
        object.__setattr__(self, "value", bits_to_int(bits))
        object.__setattr__(self, "n", len(bits))

    @classmethod
    def packed(cls, value: int, n: int) -> "BitShares":
        if value < 0 or value >> n:
            raise ValueError(f"a share of {n} bits must fit in {n} bits")
        shares = object.__new__(cls)
        object.__setattr__(shares, "value", value)
        object.__setattr__(shares, "n", n)
        return shares

    @property
    def bits(self) -> tuple[int, ...]:
        return int_to_bits(self.value, self.n)

    def __len__(self) -> int:
        return self.n

    def __xor__(self, other: "BitShares") -> "BitShares":
        if len(self) != len(other):
            raise ValueError("share lengths differ")
        return BitShares.packed(self.value ^ other.value, self.n)


def share(value: Sequence[int], rng) -> tuple[BitShares, BitShares]:
    """Split a bit vector in two; the first share is the drawn nonce."""
    nonce = tuple(rng.getrandbits(1) for _ in value)
    other = tuple(n ^ v for n, v in zip(nonce, value))
    if any(v not in (0, 1) for v in value):
        raise ValueError("value must be a bit vector")
    return BitShares(nonce), BitShares(other)


def reconstruct(a: BitShares, b: BitShares) -> tuple[int, ...]:
    """XOR the two shares back into the plaintext bits."""
    return (a ^ b).bits


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


def pack_bits(bits: Sequence[int]) -> bytes:
    """Little-endian bit packing: bit i of the vector is bit i of the integer."""
    return bits_to_int(bits).to_bytes((len(bits) + 7) // 8, "little")


def unpack_bits(data: bytes, n: int) -> tuple[int, ...]:
    return int_to_bits(int.from_bytes(data, "little"), n)


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

    Bit j of a row counts from its most significant end, as rule and
    identifier bits do; bit i of lane word j is bit j of ``rows[i]``.
    """
    text = "".join([format(row, f"0{width}b") for row in reversed(rows)])
    if not text:
        return [0] * width
    return [int(text[j::width], 2) for j in range(width)]


def lanes_to_rows(lanes: Sequence[int], count: int) -> list[int]:
    """Inverse of :func:`rows_to_lanes` for ``count`` rows."""
    if count <= 0:
        return []
    text = "".join([format(word, f"0{count}b") for word in lanes])
    if not text:
        return [0] * count
    return [int(text[count - 1 - i :: count], 2) for i in range(count)]

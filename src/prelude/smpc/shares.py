"""The bit packings gmw and the transfers use.

No packing here shifts one bit at a time, which is quadratic in the length
of a Python int.  A bit vector leaves an int as a '0'/'1' string, whose
conversion in base 2 is linear, and a broadcast word is joined by halving,
which touches each bit once per level.  A share of a bit vector is a plain
int, bit i of the vector in bit i.
"""

from __future__ import annotations

# ASCII '0'/'1' -> bytes of 0/1 values, for linear-time bit conversions
_FROM_ASCII = bytes(i & 1 for i in range(256))


def int_to_bits(value: int, n: int) -> tuple[int, ...]:
    """The low ``n`` bits of ``value``, bit 0 first."""
    if n <= 0:
        return ()
    text = format(value & ((1 << n) - 1), f"0{n}b")
    return tuple(text[::-1].encode().translate(_FROM_ASCII))


def broadcast(bits: int, n: int, lanes: int) -> int:
    """Bit i of ``bits`` copied to every bit of field i: ``n`` fields of
    ``lanes`` bits, field 0 in the lowest bits."""
    if not lanes:
        return 0
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

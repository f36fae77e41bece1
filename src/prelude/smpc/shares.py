"""The bit packings gmw, the dealer and the transfers use.

No packing here shifts one bit at a time, which is quadratic in the length
of a Python int.  A bit vector leaves an int as a '0'/'1' string, whose
conversion in base 2 is linear.  A broadcast word over few lanes is parsed
from such a string with the lanes' zeros between its bits, and over many
lanes joined by halving, which touches each bit once per level.  A table of
products doubles once per factor.  A share of a bit vector is a plain int,
bit i of the vector in bit i.
"""

from __future__ import annotations

# ASCII '0'/'1' -> bytes of 0/1 values, for linear-time bit conversions
_FROM_ASCII = bytes(i & 1 for i in range(256))

# From this many lanes on, :func:`broadcast` joins its fields by halving
# rather than parsing them from one string.  At 208 fields the string takes
# 10 us at 5 lanes against the halving's 41, the two meet at about 56
# lanes, and at 500 the string takes 275 us against 60 (timeit, CPython
# 3.11 on a 2-core x86-64 VM).
_HALVING_LANES = 56


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
    if lanes < _HALVING_LANES:
        # bit i at field i's bottom, the lanes' other zeros between bits
        low = int(("0" * (lanes - 1)).join(
            format(bits & ((1 << n) - 1), f"0{n}b")), 2)
        return (low << lanes) - low
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


def subset_products(slices: int, count: int, size: int) -> int:
    """The AND of every subset of ``count`` slices of ``size`` bits, slice
    i in bits ``[i size, (i + 1) size)``: ``2 ** count`` fields of ``size``
    bits, field S holding the AND of the slices i in bit set S, the empty
    AND all ones.

    The table doubles once per slice, so it takes ``count`` steps on words
    of at most ``2 ** count`` fields.
    """
    low = (1 << size) - 1
    table = low
    for i in range(count):
        # slice i in each of the table's 2 ** i fields
        factor = (slices >> i * size) & low
        for j in range(i):
            factor |= factor << (size << j)
        table |= (table & factor) << (size << i)
    return table

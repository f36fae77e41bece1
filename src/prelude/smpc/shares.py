"""The bit packings gmw, the dealer and the transfers use.

No packing here shifts one bit at a time, which is quadratic in the length
of a Python int.  A bit vector leaves an int as a '0'/'1' string, whose
conversion in a base of a power of 2 is linear.  A broadcast word over few
lanes is parsed from such a string, and over many lanes its bits are
placed in a byte array by strided slices.  A table of products doubles
once per factor.  A share of a bit vector is a plain int,
bit i of the vector in bit i.

gmw's lookup level reads symbols of Z3, one per comparator cell, held as
two bit planes of n bits: symbol j is bit j plus twice bit n + j, and no
symbol is 3.  Drawing, subtracting and reading them are word operations
on the planes, and a 9-entry table over a pair of symbols is nine slices
of one int, entry (i, j) in slice 3 i + j.
"""

from __future__ import annotations

# ASCII '0'/'1' -> bytes of 0/1 values, for linear-time bit conversions
_FROM_ASCII = bytes(i & 1 for i in range(256))
# The longest numeral :func:`broadcast` parses.  The eight slice
# assignments that replace it cost about as much as parsing 1100 digits:
# at 208 fields, 8 or 16 lanes parse faster and 14 or 18 place faster.
_STRING_DIGITS = 1024
# byte values 0/1 -> 0 and 1 << offset, for each bit offset in a byte
_BIT_AT = [bytes((i & 1) << offset for i in range(256)) for offset in range(8)]


def int_to_bits(value: int, n: int) -> bytes:
    """The low ``n`` bits of ``value``, bit 0 first, one byte of 0 or 1
    each."""
    if n <= 0:
        return b""
    text = format(value & ((1 << n) - 1), f"0{n}b")
    return text[::-1].encode().translate(_FROM_ASCII)


def broadcast(bits: int, n: int, lanes: int) -> int:
    """Bit i of ``bits`` copied to every bit of field i: ``n`` fields of
    ``lanes`` bits, field 0 in the lowest bits.

    Bit i goes to bit i x lanes first.  The numeral of the bits read in
    base 2^b, b the largest of 1 to 5 that divides the lane count, with
    lanes / b - 1 zero digits between two bits, puts it there.  From 8
    lanes on, bits i, i + 8, ... lie ``lanes`` bytes apart at one offset
    within their bytes, so eight strided slice assignments place them
    instead once the numeral would be longer than ``_STRING_DIGITS``.
    Either is linear in the size of the word, and at 208 fields over 5
    lanes, or over 500, takes about half of what parsing the numeral in
    base 2 with lanes - 1 zeros between bits took (timeit, CPython 3.11 on
    a 2-core x86-64 VM).
    """
    if not lanes or n <= 0:
        return 0
    text = format(bits & ((1 << n) - 1), f"0{n}b")
    digit = next(b for b in (5, 4, 3, 2, 1) if lanes % b == 0)
    if lanes < 8 or n * lanes // digit <= _STRING_DIGITS:
        if lanes > digit:
            text = ("0" * (lanes // digit - 1)).join(text)
        low = int(text, 1 << digit)
    else:
        values = text[::-1].encode().translate(_FROM_ASCII)
        out = bytearray((n * lanes + 7) // 8)
        for c in range(min(8, n)):
            chunk = values[c::8]
            at = c * lanes
            out[at // 8 : at // 8 + (len(chunk) - 1) * lanes + 1 : lanes] = (
                chunk.translate(_BIT_AT[at % 8]))
        low = int.from_bytes(out, "little")
    return (low << lanes) - low


def subset_products(word: int, masks: int, count: int, size: int) -> int:
    """The AND of every non-empty subset of ``count`` masks of ``size``
    bits, mask i being slice 2^i of ``word`` XOR slice i of ``masks``, a
    slice being ``size`` bits: ``2 ** count`` fields of ``size`` bits,
    field S holding the AND of the masks i in bit set S, and field 0 zero.
    So two parties' shares of the masks give them, one party's in slices
    2^i and the other's side by side.

    The table doubles once per mask, so it takes ``count`` steps on words
    of at most ``2 ** count`` fields.
    """
    low = (1 << size) - 1
    table = low  # the empty AND, all ones
    for i in range(count):
        # mask i in each of the table's 2 ** i fields
        factor = (word >> (size << i) ^ masks >> i * size) & low
        for j in range(i):
            factor |= factor << (size << j)
        table |= (table & factor) << (size << i)
    return table ^ low


def draw_symbols(rng, n: int) -> int:
    """``n`` uniform symbols of Z3 as two bit planes.

    Both planes are drawn at once, and the positions that read 3 are
    drawn again until none does, so each symbol is its first draw that is
    not 3.
    """
    low, high = rng.getrandbits(n), rng.getrandbits(n)
    bad = low & high
    while bad:
        low ^= (low ^ rng.getrandbits(n)) & bad
        high ^= (high ^ rng.getrandbits(n)) & bad
        bad = low & high
    return low | high << n


def symbol_difference(x: int, u: int, n: int) -> int:
    """x - u mod 3 at each of ``n`` positions, for symbols as two bit
    planes."""
    every = (1 << n) - 1
    x1, x2, u1, u2 = x & every, x >> n, u & every, u >> n
    x0, u0 = every ^ (x1 | x2), every ^ (u1 | u2)
    return (x1 & u0 | x0 & u2 | x2 & u1) | (x1 & u2 | x0 & u1 | x2 & u0) << n


def pair_indicators(symbols: int, width: int, lanes: int):
    """Where each pair of cells reads each symbol, over ``lanes``.

    ``symbols`` holds one symbol per cell of ``width`` as two bit planes.
    Cell g pairs with cell g + ceil(width / 2), and an odd width's last
    pair takes a phantom cell that reads 0.  Returns (a, b): a[v] holds,
    in field g of ``lanes`` bits, all ones where pair g's first cell reads
    v and zeros elsewhere, and b[v] the same of its second cell.
    """
    nb = (width + 1) // 2 * lanes
    every = (1 << nb) - 1
    spread = broadcast(symbols, 2 * width, lanes)
    low, high = spread & ((1 << width * lanes) - 1), spread >> width * lanes
    return tuple((every ^ (one | two), one, two) for one, two in (
        (low & every, high & every), (low >> nb, high >> nb)))


def table_entries(table: int, rows, columns, size: int) -> int:
    """Of each bit of ``size``, the entry of the 9-entry ``table`` that
    its row and its column select: entry (i, j) where bit is set in
    ``rows[i]`` and ``columns[j]``."""
    out = 0
    for row in rows:
        part = 0
        for column in columns:
            part ^= table & column
            table >>= size
        out ^= part & row
    return out

"""The rule comparator, the one circuit the secure backends run.

A query asks, for each entry of the holder's table, whether the entry and
the querier's rule pin some bit to opposite values.  Each side turns its
rule into pinned-one bits (mask AND pattern) and pinned-zero bits (mask
AND NOT pattern).  Bit j proves two rules distinct when its cell
``q_one[j]·h_zero[j] XOR q_zero[j]·h_one[j]`` is 1; the two products are
never both 1, so XOR serves as OR.  The entry is distinct from the rule
when any cell is 1.

:class:`BatchQueryCircuit` is that computation as a template defined by
its width w alone, run over k lanes, lane i being the i-th entry, and
level by level rather than gate by gate.  The two backends share its
words and its output, and each runs its own first level:

- yao's is the w *cells*, each read whole: cell j takes the querier's
  symbol x_j, ``*``, pinned one or pinned zero, 0, 1 or 2 in Z3, against
  the two bits the holder knows in the clear, and garbles its two *cross
  gates*, ``q_one[j]·h_zero[j]`` and ``q_zero[j]·h_one[j]``, gates j and
  w + j of the word, as one row each.  A cell reads 1 exactly when the
  gate its symbol selects does, and every cell reads 0 when the rules
  overlap;
- gmw's is the *lookup level* of ``ceil(w / 2)`` gates over the same
  symbols: NOT cell j is 1 for ``*``, NOT h_zero[j] for a pinned one and
  NOT h_one[j] for a pinned zero.  Gate g pairs cell g with cell
  ``g + ceil(w / 2)``, an odd width's last gate pairing its cell with a
  phantom ``*`` cell, and outputs the AND of the pair's NOT cells: a
  9-entry table over the pair's two symbols, A[x_a] AND B[x_b], which the
  holder builds from its word per lane and the querier reads at its own
  symbols (see :mod:`prelude.smpc.gmw`).  A lookup gate counts as one AND
  and one level, as a gate of four inputs does;
- the OR over the cells is NOT of the AND-reduction of the NOT cells, by
  a tree over the lookup level's fields of gates of up to four inputs.  A
  tree level of n fields has arity ``a = min(4, n)``: its ``n // a``
  gates each AND a fields, gate g reading fields g, g + n // a, ..., and
  the last ``n % a`` fields are carried to the next level.  At w = 104 the
  52 lookup gates feed tree levels of 13, 3 and 1 gates, of arities 4, 4
  and 4, so gmw's plan has AND depth 4; at w = 4 two lookup gates feed one
  gate, depth 2.  Yao never runs the tree.

A level's word holds one field of k bits per gate, gate g's lanes in bits
``[g k, (g + 1) k)``, so every level is a fixed handful of operations on
whole ints, whatever w is: input i of a tree level's gates is one slice of
the word, its fields ``[i n // a, (i + 1) n // a)``.

:meth:`BatchQueryCircuit.row` formats each rule's 2w gate bits as text,
the querier's once per session and the holder's once per entry when it
registers it.  The querier enters the template as one int, its operand
word (:meth:`BatchQueryCircuit.word`), which both backends range-check
with :meth:`BatchQueryCircuit.check_word`.  The holder hands its rows to
the backend, which lays them out itself: gmw as a word of the same form,
field g holding gate g's lanes (:meth:`BatchQueryCircuit.word_from_rows`),
and yao's garbler as bytes of their bits, lane by lane
(:func:`lane_bits`) or gate by gate (:func:`gate_bits`), with no word
between (:mod:`prelude.smpc.yao`), once :meth:`BatchQueryCircuit.check_rows`
has checked their count and length; both read only the digits 0 and 1.  The querier's bits are *broadcast*: one bit per gate, which every
lane reads, as one querier rule is checked against every entry; its bits
j and w + j are the two bit planes of its symbol x_j.  The holder's are
*clear*, one bit per gate and lane: it knows them, and no backend labels,
masks or shares them.  Under yao they feed only the cells, one garbled
row per cross gate; under gmw only the lookup tables, whose two halves A
and B are slices of the holder's word.  Either level's output is secret
like any other; the holder's bits leave the holder only under a one-time
pad or inside a garbled row, so the querier learns no more than from the
same bits as secret inputs (see :mod:`prelude.smpc.yao` and
:mod:`prelude.smpc.gmw`).

The output leaves the template only as a released value: the querier
receives an entry's identifier where the output reads 0, where the entry
overlaps the queried rule, and the dummy where it reads 1.  Under gmw the
holder offers both by a precomputed transfer.  Yao garbles only its
cells and releases the identifier under a sum of their keys that matches
only where none reads 1, so it never garbles the OR tree.
"""

from __future__ import annotations

from typing import Sequence

from prelude.rules import TernaryRule

# the most inputs of an OR-tree gate
MAX_ARITY = 4
# the digits 0 and 1 of a row to the bytes 0 and 1, every other byte to 255
_ROW_BITS = bytes(0 if b == 0x30 else 1 if b == 0x31 else 255
                  for b in range(256))


class BatchQueryCircuit:
    """The per-entry query template at one rule width.

    ``levels`` is gmw's level plan: the ``pairs`` lookup gates of level 1,
    then the gates of each OR-tree level, and ``arities`` the inputs of
    each tree level's gates.  :meth:`plan` gives each backend's.  Its one
    output is 1 iff the entry is distinct from the queried rule.
    """

    def __init__(self, width: int) -> None:
        if width < 1:
            raise ValueError("rule width must be positive")
        self.width = width
        self.pairs = (width + 1) // 2
        levels, arities = [self.pairs], []
        fields = self.pairs
        while fields > 1:
            arity = min(MAX_ARITY, fields)
            levels.append(fields // arity)
            arities.append(arity)
            fields = fields // arity + fields % arity
        self.levels = tuple(levels)
        self.arities = tuple(arities)
        # The shape a traced run keys its cache by: the level plan, the
        # input wires and the one output.
        self.gates = self.levels
        self.n_wires = 4 * width
        self.output_wires = (0,)

    def plan(self, backend: str) -> tuple[int, ...]:
        """The level plan ``backend`` runs: gmw's :attr:`levels`, or yao's
        one level of w cells."""
        if backend == "gmw":
            return self.levels
        if backend == "yao":
            return (self.width,)
        raise ValueError(f"unknown backend {backend!r}")

    def and_count(self) -> int:
        """AND gates per entry of gmw's plan, the lookup gates included; a
        gate of several inputs counts once."""
        return sum(self.levels)

    def and_depth(self) -> int:
        """The levels of gmw's plan."""
        return len(self.levels)

    def row(self, party: int, rule: TernaryRule) -> str:
        """One rule's 2w gate bits of one party as '0'/'1' text: the
        binary numeral of its one-lane word, gate g in bit g, so the text
        starts at gate 2w - 1.

        Bit j of a rule counts from its most significant end.  Gate j < w
        reads the querier's pinned-one bit j and the holder's pinned-zero
        bit j, gate w + j the querier's pinned-zero bit and the holder's
        pinned-one bit.  The querier (party 0) builds its one rule's row
        per session; the holder (party 1) builds each entry's row once,
        when it registers the entry.  Raises ValueError for a rule of
        another width.
        """
        w = self.width
        if rule.width != w:
            raise ValueError(f"the template compares rules of width {w}")
        # Formatted, the row starts at gate 0, gates 0..w-1 being the high
        # half; reversed, gate g is bit g.  A canonical rule's pattern
        # holds its pinned-one bits, mask XOR pattern the zeros.
        one_at = w if party == 0 else 0
        return format(rule.pattern << one_at
                      | (rule.mask ^ rule.pattern) << (w - one_at),
                      f"0{2 * w}b")[::-1]

    def word_from_rows(self, rows: Sequence[str]) -> int:
        """The word of :meth:`row` texts, row i in lane i: field g of the
        word holds gate g's lanes.  gmw's holder lays its rows out here.

        As a numeral the word reads from gate 2w - 1 of lane k - 1 down,
        lane by lane within a gate, and character s of each row is gate
        2w - 1 - s, so a single row, such as the querier's, is its own
        numeral.  Below 2w lanes each row is copied once, into a
        bytearray of ASCII digits at a stride of k; from 2w lanes on, the
        rows are joined from the last and each of the 2w strided slices of
        that text holds one gate's lanes.  Either way one ``int(..., 2)``
        reads the numeral, so min(k, 2w) strided copies are made.  At
        w = 104 (``timeit``, 2-CPU x86-64) the copies per lane take about
        3 us at k = 3 and 4 us at k = 5, against 18 and 19 us for the 2w
        slices, which take about 250 us at k = 500, most of it the parse.
        Byte rows reversed and read through a translation instead of the
        wide path's slices made a whole k = 500 gmw session slower, 1.10
        against 1.25 ms, in a scratch variant.  The rows are not checked,
        which would cost the wide path about a quarter more: the holder's
        come from :meth:`row`, and gmw range-checks the word
        (:meth:`check_word`).
        """
        lanes, n = len(rows), 2 * self.width
        if lanes == 1:
            return int(rows[0], 2)
        if lanes < n:
            digits = bytearray(n * lanes)
            for i, row in enumerate(rows):
                digits[lanes - 1 - i :: lanes] = row.encode()
            return int(digits, 2)
        text = "".join(reversed(rows))
        return int("".join([text[s :: n] for s in range(n)]), 2)

    def word(self, party: int, rules: Sequence[TernaryRule]) -> int:
        """One party's operand word, rule i in lane i: the querier gives
        its one rule, so its word holds gate g's bit in bit g.  Raises
        ValueError for a rule of another width."""
        return self.word_from_rows([self.row(party, rule) for rule in rules])

    def check_word(self, party: int, word: int, lanes: int) -> None:
        """Raise ValueError unless ``word`` fits the party's word: one bit
        per gate for the querier, which every lane reads, and one per gate
        and lane for the holder.  gmw checks both parties' words here,
        yao's evaluator the querier's; yao's garbler takes rows
        (:meth:`check_rows`)."""
        size = 2 * self.width * (lanes if party == 1 else 1)
        if not 0 <= word < 1 << size:
            raise ValueError(f"party {party}'s word must fit {size} bits")

    def check_rows(self, rows: Sequence[str], lanes: int) -> None:
        """Raise ValueError unless ``rows`` are the holder's rows over
        ``lanes`` lanes: one per lane, each of 2w characters.  Yao's
        garbler checks its rows here; :func:`lane_bits` and
        :func:`gate_bits` check their characters as they read them."""
        if len(rows) != lanes:
            raise ValueError(f"{len(rows)} holder rows for {lanes} lanes")
        size = 2 * self.width
        if {*map(len, rows)} != {size}:
            raise ValueError(f"holder rows must be {size} characters long")

    def distinct_stage(self) -> BatchQueryCircuit:
        """The comparator stage, which is the whole template.

        Kept for the benchmark's traced run, which wraps it by name; no
        session calls it.
        """
        return self


def _row_bits(text: str) -> bytes:
    """The characters of ``text``, rows or slices of them, as bytes of 0
    or 1.  Raises ValueError for a character that is not a binary
    digit."""
    bits = text.encode().translate(_ROW_BITS)
    if 255 in bits:
        raise ValueError("holder rows must hold only the digits 0 and 1")
    return bits


def lane_bits(rows: Sequence[str]) -> int:
    """The bits of :meth:`BatchQueryCircuit.row` texts lane by lane, one
    byte each, read as a little-endian int: gate g of lane i, row i, in
    byte 2w i + g.  Raises ValueError for a character other than 0 and 1.

    Row i holds its gates from the last, so the rows joined from the last,
    read from the end, are in that order already: no transpose.
    """
    return int.from_bytes(_row_bits("".join(reversed(rows))), "big")


def gate_bits(rows: Sequence[str], width: int,
              gates: Sequence[int]) -> bytes:
    """The bits of :meth:`BatchQueryCircuit.row` texts of rule width
    ``width`` gate by gate, one byte each: the lanes of each of ``gates``
    in turn, lane i being row i.  Raises ValueError for a character other
    than 0 and 1.

    Gate g is character 2w - 1 - g of each row, so one strided slice of
    the joined rows holds its lanes.  At w = 104 and 500 lanes, all 2w
    gates take about 0.17 ms (``timeit``, 2-CPU x86-64), where the rows'
    word, its bits and their reordering took about 0.51 ms.
    """
    text, n = "".join(rows), 2 * width
    return _row_bits("".join([text[n - 1 - g :: n] for g in gates]))


def build_batch_query(rule_width: int) -> BatchQueryCircuit:
    """The template deciding whether a querier rule and a holder entry are
    distinct, at ``rule_width`` bits per rule."""
    return BatchQueryCircuit(rule_width)

"""Boolean circuits over AND/XOR/NOT gates, specialised for rule comparison.

Circuits here are two-party objects: every input wire belongs to a named
group supplied by party 0 (the querier) or party 1 (the holder).  Gates
are appended in topological order and each wire is driven exactly once,
which keeps plaintext and secure evaluation order-independent.

The interesting cost metric is AND gates: XOR and NOT are free in both
secure backends, while each AND costs communication.  OR is therefore
built from AND/NOT via De Morgan as a balanced tree.

A circuit is evaluated over one or more lanes, one per table entry.  Party
0's inputs are *broadcast*: one value per wire, which every lane reads, as
one querier rule is checked against every entry.  Party 1's inputs are
*clear*, one value per wire and lane: the holder knows those bits, and no
backend labels, masks or shares them.  Its wires
(:attr:`Circuit.clear_wires`) feed only AND gates, each of which then reads
one clear wire and one secret wire; such a *cross gate* is cheaper than a
full AND in both backends (a one-row garbler half-gate under yao, a
one-sided product under gmw).  The rule comparator is built from them.  A
cross gate's output is a secret wire like any other; the holder's bit
leaves the holder only under a one-time pad or inside a garbled row, so
the querier learns no more than from the same bit as a secret input (see
:mod:`prelude.smpc.yao` and :mod:`prelude.smpc.gmw`).

Outputs leave a circuit only as released values: for each output the
holder offers two values, and the querier receives the one the output bit
selects, by a precomputed transfer under gmw and under the output labels
under yao.  A query releases an entry's identifier where the entry
overlaps the queried rule and the dummy where it does not, so no circuit
computes identifiers.

Since clear wires feed only AND gates, every secret wire of AND depth 0 is
an XOR or NOT of broadcast inputs and holds the same value in every lane.
A cross gate at AND level 1 therefore reads a secret bit common to all
lanes, and the backends exploit this; a cross gate at a later level reads
one bit per lane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

AND = 0
XOR = 1
NOT = 2


@dataclass(frozen=True)
class InputGroup:
    """Input wires one party supplies.

    Party 0's groups carry one value per wire, which every lane reads;
    party 1's are clear, carry one value per wire and lane, and their wires
    may feed only AND gates.
    """

    party: int
    name: str
    wires: tuple[int, ...]


class Circuit:
    """A mutable gate list plus wire bookkeeping; build once, evaluate many times."""

    def __init__(self) -> None:
        self.n_wires = 0
        self.gates: list[tuple[int, int, int, int]] = []  # (kind, a, b, out); b=-1 for NOT
        self.input_groups: list[InputGroup] = []
        self.output_wires: list[int] = []
        self.clear_wires: set[int] = set()
        self._depth_cache: list[int] | None = None
        self._layers_cache: tuple[list, list, list] | None = None

    # -------------------------------------------------- construction

    def add_input_group(self, party: int, name: str,
                        width: int) -> tuple[int, ...]:
        if self.gates:
            raise ValueError("input groups must be declared before gates")
        if party not in (0, 1):
            raise ValueError("party must be 0 or 1")
        if any(g.name == name for g in self.input_groups):
            raise ValueError(f"duplicate input group {name!r}")
        wires = tuple(range(self.n_wires, self.n_wires + width))
        self.n_wires += width
        self.input_groups.append(InputGroup(party, name, wires))
        if party == 1:
            self.clear_wires.update(wires)
        return wires

    def _new_wire(self) -> int:
        w = self.n_wires
        self.n_wires += 1
        return w

    def _check_wire(self, w: int, clear_ok: bool = False) -> None:
        if not 0 <= w < self.n_wires:
            raise ValueError(f"wire {w} does not exist yet")
        if not clear_ok and w in self.clear_wires:
            raise ValueError(f"clear wire {w} may feed only AND gates")

    def _add_gate(self, kind: int, a: int, b: int) -> int:
        out = self._new_wire()
        self.gates.append((kind, a, b, out))
        self._depth_cache = None
        self._layers_cache = None
        return out

    def and_(self, a: int, b: int) -> int:
        """AND of two wires; a cross gate keeps its clear wire as ``b``."""
        self._check_wire(a, clear_ok=True)
        self._check_wire(b, clear_ok=True)
        if a in self.clear_wires:
            a, b = b, a
        if a in self.clear_wires:
            raise ValueError("an AND gate reads at most one clear wire")
        return self._add_gate(AND, a, b)

    def xor(self, a: int, b: int) -> int:
        self._check_wire(a)
        self._check_wire(b)
        return self._add_gate(XOR, a, b)

    def not_(self, a: int) -> int:
        self._check_wire(a)
        return self._add_gate(NOT, a, -1)

    def or_(self, a: int, b: int) -> int:
        # De Morgan: a OR b = NOT(NOT a AND NOT b).  One AND, three NOTs.
        return self.not_(self.and_(self.not_(a), self.not_(b)))

    def mark_output(self, w: int) -> None:
        self._check_wire(w)  # a clear wire has no secret value to output
        self.output_wires.append(w)

    # -------------------------------------------------- metrics

    def and_count(self) -> int:
        """AND gates, cross gates included."""
        return sum(1 for g in self.gates if g[0] == AND)

    def cross_count(self) -> int:
        """AND gates that read a clear wire."""
        return sum(map(len, self.and_layers()[1]))

    def wire_and_depths(self) -> list[int]:
        """Per-wire count of AND gates on the deepest path from any input."""
        if self._depth_cache is None:
            depth = [0] * self.n_wires
            for kind, a, b, out in self.gates:
                d = depth[a] if b < 0 else max(depth[a], depth[b])
                depth[out] = d + 1 if kind == AND else d
            self._depth_cache = depth
        return self._depth_cache

    def and_depth(self) -> int:
        depths = self.wire_and_depths()
        return max((depths[g[3]] for g in self.gates if g[0] == AND), default=0)

    def and_layers(self) -> tuple[list[list[tuple]], list[list[tuple]],
                                  list[list[tuple]]]:
        """Gates by AND level, for layer-by-layer evaluation.

        Returns (ands, crosses, locals) with one list per level
        0..and_depth(): ``ands[L]`` holds the AND gates at level L that read
        two secret wires and ``crosses[L]`` the cross gates, both of which
        only read wires of lower levels, and ``locals[L]`` the XOR and NOT
        gates at level L, which may read them.  Every list keeps gate
        order.  The cross gates of level 1 read secret wires that hold the
        same value in every lane (see the module docstring).
        """
        if self._layers_cache is None:
            depth = self.wire_and_depths()
            n_levels = self.and_depth() + 1
            ands: list[list[tuple]] = [[] for _ in range(n_levels)]
            crosses: list[list[tuple]] = [[] for _ in range(n_levels)]
            locals_: list[list[tuple]] = [[] for _ in range(n_levels)]
            for gate in self.gates:
                if gate[0] != AND:
                    layers = locals_
                elif gate[2] in self.clear_wires:
                    layers = crosses
                else:
                    layers = ands
                layers[depth[gate[3]]].append(gate)
            self._layers_cache = (ands, crosses, locals_)
        return self._layers_cache


def input_values(circuit: Circuit, party: int,
                 my_inputs: Mapping[str, Sequence[int]],
                 lanes: int) -> dict[int, int]:
    """Each of ``party``'s input wires mapped to its value, by group.

    ``my_inputs`` must give exactly the party's groups, each with one value
    per wire: a bit for party 0, whose inputs every lane reads, and a word
    of ``lanes`` bits for party 1.  Raises ValueError otherwise.  Both
    secure backends check their inputs here.
    """
    groups = [g for g in circuit.input_groups if g.party == party]
    if set(my_inputs) != {g.name for g in groups}:
        raise ValueError(f"party {party} must supply exactly groups "
                         f"{sorted(g.name for g in groups)}")
    width = lanes if party == 1 else 1
    values: dict[int, int] = {}
    for group in groups:
        got = my_inputs[group.name]
        if len(got) != len(group.wires):
            raise ValueError(f"group {group.name!r} has wrong length")
        if got and (min(got) < 0 or max(got) >> width):
            raise ValueError("inputs must be bits, one per lane")
        values.update(zip(group.wires, got))
    return values


def evaluate_plaintext(
    circuit: Circuit, inputs: Mapping[str, Sequence[int]]
) -> tuple[int, ...]:
    """Evaluate in the clear.  ``inputs`` maps every group name to its bit list."""
    values = [0] * circuit.n_wires
    seen = set()
    for group in circuit.input_groups:
        try:
            bits = inputs[group.name]
        except KeyError:
            raise ValueError(f"missing input group {group.name!r}") from None
        if len(bits) != len(group.wires):
            raise ValueError(
                f"group {group.name!r} expects {len(group.wires)} bits, got {len(bits)}"
            )
        seen.add(group.name)
        for w, bit in zip(group.wires, bits):
            if bit not in (0, 1):
                raise ValueError("input bits must be 0 or 1")
            values[w] = bit
    extra = set(inputs) - seen
    if extra:
        raise ValueError(f"unknown input groups {sorted(extra)}")
    for kind, a, b, out in circuit.gates:
        if kind == AND:
            values[out] = values[a] & values[b]
        elif kind == XOR:
            values[out] = values[a] ^ values[b]
        else:
            values[out] = values[a] ^ 1
    return tuple(values[w] for w in circuit.output_wires)


# ------------------------------------------------------------------ builders


def _bit_distinct(c: Circuit, q_one: int, q_zero: int, h_one: int,
                  h_zero: int) -> int:
    """One comparator cell: (q_one AND h_zero) XOR (q_zero AND h_one).

    ``*_one`` is 1 where a rule pins the bit to 1 (mask AND pattern),
    ``*_zero`` where it pins it to 0 (mask AND NOT pattern).  The cell is 1
    iff both rules pin this bit and pin it to opposite values, i.e. the bit
    alone proves no packet can match both rules; the two products are never
    both 1, so XOR serves as OR.  The holder's bits are clear: two cross
    gates and one XOR gate, AND depth 1.
    """
    return c.xor(c.and_(q_one, h_zero), c.and_(q_zero, h_one))


def _or_tree(c: Circuit, wires: Sequence[int]) -> int:
    """Balanced OR reduction; AND-depth ceil(log2 n) above the inputs."""
    level = list(wires)
    if not level:
        raise ValueError("cannot OR-reduce zero wires")
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            nxt.append(c.or_(level[i], level[i + 1]))
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


class BatchQueryCircuit(Circuit):
    """The per-entry query template: the rule comparator alone.

    The backends evaluate this one circuit over k lanes, lane i being the
    i-th entry: the querier's rule is broadcast to every lane, and the
    holder's groups are clear, one value per lane.  Its one output is 1 iff
    the entry is distinct from the queried rule.
    """

    def distinct_stage(self) -> Circuit:
        """The comparator stage, which is the whole template.

        Kept for the benchmark's traced run, which wraps it by name; no
        session calls it.
        """
        return self


def build_batch_query(rule_width: int) -> BatchQueryCircuit:
    """Decide whether a querier rule and a holder entry are distinct.

    The querier supplies q_one/q_zero, the holder the clear groups
    h_one/h_zero, ``rule_width`` bits each: a rule's pinned-one and
    pinned-zero bits.  Single output bit: 1 iff the rules share no matching
    packet.  Uses exactly 2 * rule_width cross gates for the comparator
    cells plus rule_width - 1 ANDs for the OR tree.
    """
    if rule_width < 1:
        raise ValueError("rule width must be positive")
    c = BatchQueryCircuit()
    q_one = c.add_input_group(0, "q_one", rule_width)
    q_zero = c.add_input_group(0, "q_zero", rule_width)
    h_one = c.add_input_group(1, "h_one", rule_width)
    h_zero = c.add_input_group(1, "h_zero", rule_width)
    c.mark_output(_or_tree(c, [
        _bit_distinct(c, q_one[j], q_zero[j], h_one[j], h_zero[j])
        for j in range(rule_width)
    ]))
    return c


def batch_query_and_count(rule_width: int) -> int:
    """2 cross gates per comparator cell, then rule_width - 1 ANDs in the OR tree."""
    return 2 * rule_width + (rule_width - 1)


def expected_and_depth(rule_width: int) -> int:
    """1 for the comparator cells' cross gates, ceil(log2 w) for the OR tree."""
    tree = math.ceil(math.log2(rule_width)) if rule_width > 1 else 0
    return 1 + tree

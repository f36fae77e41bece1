"""Boolean circuits over AND/XOR/NOT gates, specialised for rule comparison.

Circuits here are two-party objects: every input wire belongs to a named
group supplied by party 0 (the querier) or party 1 (the holder).  Gates
are appended in topological order and each wire is driven exactly once,
which keeps plaintext and secure evaluation order-independent.

The interesting cost metric is AND gates: XOR and NOT are free in both
secure backends, while each AND costs communication.  OR is therefore
built from AND/NOT via De Morgan as a balanced tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

AND = 0
XOR = 1
NOT = 2

_KIND_NAMES = {AND: "AND", XOR: "XOR", NOT: "NOT"}


@dataclass(frozen=True)
class InputGroup:
    """Input wires one party supplies.

    When the circuit is evaluated over several lanes, a ``shared`` group
    carries one value per wire for every lane; any other group carries one
    value per wire and lane.
    """

    party: int
    name: str
    wires: tuple[int, ...]
    shared: bool = False


@dataclass(frozen=True)
class CircuitLayout:
    """Shape of a batch query: one querier rule against k holder entries."""

    k: int
    rule_width: int
    id_width: int = 48

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("batch size k must be at least 1")
        if self.rule_width < 1 or self.id_width < 1:
            raise ValueError("widths must be positive")


class Circuit:
    """A mutable gate list plus wire bookkeeping; build once, evaluate many times."""

    def __init__(self) -> None:
        self.n_wires = 0
        self.gates: list[tuple[int, int, int, int]] = []  # (kind, a, b, out); b=-1 for NOT
        self.input_groups: list[InputGroup] = []
        self.output_wires: list[int] = []
        self._input_wire_count = 0
        self._depth_cache: list[int] | None = None
        self._layers_cache: tuple[list, list] | None = None

    # -------------------------------------------------- construction

    def add_input_group(self, party: int, name: str, width: int,
                        shared: bool = False) -> tuple[int, ...]:
        if self.gates:
            raise ValueError("input groups must be declared before gates")
        if party not in (0, 1):
            raise ValueError("party must be 0 or 1")
        if any(g.name == name for g in self.input_groups):
            raise ValueError(f"duplicate input group {name!r}")
        wires = tuple(range(self.n_wires, self.n_wires + width))
        self.n_wires += width
        self._input_wire_count = self.n_wires
        self.input_groups.append(InputGroup(party, name, wires, shared))
        return wires

    def _new_wire(self) -> int:
        w = self.n_wires
        self.n_wires += 1
        return w

    def _check_wire(self, w: int) -> None:
        if not 0 <= w < self.n_wires:
            raise ValueError(f"wire {w} does not exist yet")

    def _add_gate(self, kind: int, a: int, b: int) -> int:
        out = self._new_wire()
        self.gates.append((kind, a, b, out))
        self._depth_cache = None
        self._layers_cache = None
        return out

    def and_(self, a: int, b: int) -> int:
        self._check_wire(a)
        self._check_wire(b)
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
        self._check_wire(w)
        self.output_wires.append(w)

    # -------------------------------------------------- metrics

    def and_count(self) -> int:
        return sum(1 for g in self.gates if g[0] == AND)

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

    def and_layers(self) -> tuple[list[list[tuple]], list[list[tuple]]]:
        """Gates by AND level, for layer-by-layer evaluation.

        Returns (ands, locals) with one list per level 0..and_depth():
        ``ands[L]`` holds the AND gates at level L, which only read wires of
        lower levels, and ``locals[L]`` the XOR and NOT gates at level L,
        which may read them; both keep gate order.
        """
        if self._layers_cache is None:
            depth = self.wire_and_depths()
            n_levels = self.and_depth() + 1
            ands: list[list[tuple]] = [[] for _ in range(n_levels)]
            locals_: list[list[tuple]] = [[] for _ in range(n_levels)]
            for gate in self.gates:
                (ands if gate[0] == AND else locals_)[depth[gate[3]]].append(gate)
            self._layers_cache = (ands, locals_)
        return self._layers_cache

    # -------------------------------------------------- dump

    def dump(self) -> str:
        """One gate per line, e.g. ``AND w3 <- w1 w2``."""
        lines = []
        for kind, a, b, out in self.gates:
            if kind == NOT:
                lines.append(f"NOT w{out} <- w{a}")
            else:
                lines.append(f"{_KIND_NAMES[kind]} w{out} <- w{a} w{b}")
        return "\n".join(lines)


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


def _bit_distinct(c: Circuit, m1: int, p1: int, m2: int, p2: int) -> int:
    """One comparator cell: (m1 AND m2) AND (p1 XOR p2).

    The cell is 1 iff both rules pin this bit and pin it to opposite values,
    i.e. the bit alone proves no packet can match both rules.  Exactly two
    AND gates and one XOR gate.
    """
    both_pinned = c.and_(m1, m2)
    differ = c.xor(p1, p2)
    return c.and_(both_pinned, differ)


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


def _mux_bits(
    c: Circuit, select: int, zero_branch: Sequence[int], one_branch: Sequence[int]
) -> list[int]:
    """Per output bit: u = a XOR (select AND (a XOR b)); select 0 -> a, 1 -> b."""
    out = []
    for a, b in zip(zero_branch, one_branch):
        out.append(c.xor(a, c.and_(select, c.xor(a, b))))
    return out


def build_distinct_pair(width: int) -> Circuit:
    """Decide whether two rules are distinct (share no matching packet).

    Querier supplies q_mask/q_pattern, holder h_mask/h_pattern, ``width`` bits
    each.  Single output bit: 1 iff the rules are distinct.  Uses exactly
    2*width ANDs for the comparator cells plus width-1 ANDs for the OR tree.
    """
    if width < 1:
        raise ValueError("width must be positive")
    c = Circuit()
    qm = c.add_input_group(0, "q_mask", width)
    qp = c.add_input_group(0, "q_pattern", width)
    hm = c.add_input_group(1, "h_mask", width)
    hp = c.add_input_group(1, "h_pattern", width)
    cells = [_bit_distinct(c, qm[i], qp[i], hm[i], hp[i]) for i in range(width)]
    c.mark_output(_or_tree(c, cells))
    return c


class BatchQueryCircuit(Circuit):
    """The batch-query circuit, with its comparator stage marked.

    The first ``distinct_gate_count`` gates are the k comparator-and-OR-tree
    blocks; they read only the rule inputs and drive ``distinct_wires``,
    entry i's wire being 1 iff that entry is distinct from the queried rule.
    The identifier multiplexers follow them.

    The querier's rule and the dummy identifier are the same for every
    entry, so their groups are ``shared``: the k = 1 circuit is the
    per-entry template that the secure backends evaluate over k lanes.
    """

    RULE_GROUPS = ("q_mask", "q_pattern", "h_masks", "h_patterns")

    def __init__(self) -> None:
        super().__init__()
        self.distinct_wires: tuple[int, ...] = ()
        self.distinct_gate_count = 0

    def distinct_stage(self) -> Circuit:
        """The comparator stage alone: rule inputs in, the k distinct bits out.

        Built afresh on each call; it shares gate tuples and wire numbers
        with this circuit.
        """
        stage = Circuit()
        stage.gates = self.gates[: self.distinct_gate_count]
        stage.n_wires = stage.gates[-1][3] + 1
        stage.input_groups = [g for g in self.input_groups
                              if g.name in self.RULE_GROUPS]
        stage.output_wires = list(self.distinct_wires)
        return stage


def build_batch_query(layout: CircuitLayout) -> BatchQueryCircuit:
    """One querier rule against k holder entries, with identifier mapping.

    Holder inputs are k rules (h_masks/h_patterns, flattened k*rule_width),
    k next-hop identifiers (h_ids, flattened k*id_width) and one dummy
    identifier (h_dummy).  Output is k identifiers in holder entry order:
    entry i's identifier where the rules overlap, the dummy where distinct.

    AND-depth is independent of k: comparator cells (2) + OR tree
    (ceil(log2 rule_width)) + one multiplexer level.
    """
    k, w, idw = layout.k, layout.rule_width, layout.id_width
    c = BatchQueryCircuit()
    qm = c.add_input_group(0, "q_mask", w, shared=True)
    qp = c.add_input_group(0, "q_pattern", w, shared=True)
    hm = c.add_input_group(1, "h_masks", k * w)
    hp = c.add_input_group(1, "h_patterns", k * w)
    hid = c.add_input_group(1, "h_ids", k * idw)
    hdummy = c.add_input_group(1, "h_dummy", idw, shared=True)
    c.distinct_wires = tuple(
        _or_tree(c, [
            _bit_distinct(c, qm[j], qp[j], hm[i * w + j], hp[i * w + j])
            for j in range(w)
        ])
        for i in range(k)
    )
    c.distinct_gate_count = len(c.gates)
    for i, distinct_bit in enumerate(c.distinct_wires):
        entry_id = hid[i * idw : (i + 1) * idw]
        for u in _mux_bits(c, distinct_bit, entry_id, hdummy):
            c.mark_output(u)
    return c


def distinct_pair_and_count(width: int) -> int:
    return 2 * width + (width - 1)


def batch_query_and_count(layout: CircuitLayout) -> int:
    return layout.k * (distinct_pair_and_count(layout.rule_width) + layout.id_width)


def expected_and_depth(rule_width: int, with_mapper: bool = False) -> int:
    tree = math.ceil(math.log2(rule_width)) if rule_width > 1 else 0
    return 2 + tree + (1 if with_mapper else 0)


def rule_input_bits(rule) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Mask and pattern bit tuples in wire order (bit 0 first)."""
    return rule.mask_bits(), rule.pattern_bits()

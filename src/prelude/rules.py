"""Ternary match rules over a fixed packet-header bit layout.

A rule is a pair (pattern, mask) over ``width`` bits.  Mask bit 1 means the
rule pins that bit to the pattern value; mask bit 0 means don't-care.  Rules
are kept canonical: pattern bits under a 0 mask bit are forced to 0, so equal
match sets compare equal as values.

The concrete header layout is 104 bits in fixed field order

    src_ip(32) | dst_ip(32) | src_port(16) | dst_port(16) | ip_proto(8)

with every field big-endian.  Bit 0 of a rule or packet is the most
significant bit of src_ip; bit 103 is the least significant bit of ip_proto.
``_FIELDS`` is the one statement of this layout: FlowSpec's range checks,
``encode``, ``decode``, ``encode_packet``, ``parse_rule`` and
``format_rule`` all loop over it.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from typing import Optional

RULE_WIDTH = 104

PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17

# (shift, field width) of each FlowSpec field inside the 104-bit integer
# encoding, in header order.
_FIELDS = {
    "src_ip": (72, 32),
    "dst_ip": (40, 32),
    "src_port": (24, 16),
    "dst_port": (8, 16),
    "ip_proto": (0, 8),
}
# Each field's key in rule text and in messages: proto for ip_proto.
_KEYS = {name: "proto" if name == "ip_proto" else name for name in _FIELDS}
_NAMES = {key: name for name, key in _KEYS.items()}

_PROTO_NAMES = {"icmp": PROTO_ICMP, "tcp": PROTO_TCP, "udp": PROTO_UDP}
_PROTO_BY_VALUE = {v: k for k, v in _PROTO_NAMES.items()}


class RuleFormatError(ValueError):
    """Raised for rule text or field values that cannot be parsed or encoded."""


@dataclass(frozen=True)
class FlowSpec:
    """A 5-tuple match where each field is either a concrete value or None (wildcard).

    Port fields are only meaningful for TCP/UDP, so a concrete ip_proto other
    than those two forbids concrete ports.
    """

    src_ip: Optional[int] = None
    dst_ip: Optional[int] = None
    src_port: Optional[int] = None
    dst_port: Optional[int] = None
    ip_proto: Optional[int] = None

    def __post_init__(self) -> None:
        for name, (_, bits) in _FIELDS.items():
            value = getattr(self, name)
            if value is not None and not 0 <= value < 1 << bits:
                raise RuleFormatError(f"{name}={value!r} out of range")
        if self.ip_proto is not None and self.ip_proto not in (PROTO_TCP, PROTO_UDP):
            if self.src_port is not None or self.dst_port is not None:
                raise RuleFormatError(
                    "port match requires ip_proto tcp, udp, or wildcard"
                )


@dataclass(frozen=True)
class TernaryRule:
    """Canonical ternary rule: ``mask`` selects pinned bits, ``pattern`` their values."""

    width: int
    pattern: int
    mask: int

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError("rule width must be positive")
        limit = 1 << self.width
        if not 0 <= self.mask < limit:
            raise ValueError("mask out of range for width")
        if not 0 <= self.pattern < limit:
            raise ValueError("pattern out of range for width")
        object.__setattr__(self, "pattern", self.pattern & self.mask)

    @classmethod
    def wildcard(cls, width: int) -> "TernaryRule":
        return cls(width, 0, 0)


@dataclass(frozen=True)
class Packet:
    """A fully concrete header of ``width`` bits."""

    width: int
    bits: int

    def __post_init__(self) -> None:
        if not 0 <= self.bits < (1 << self.width):
            raise ValueError("packet bits out of range for width")


def matches(rule: TernaryRule, packet: Packet) -> bool:
    """True iff every mask-pinned bit of the packet equals the pattern bit."""
    if rule.width != packet.width:
        raise ValueError("rule and packet widths differ")
    return (packet.bits ^ rule.pattern) & rule.mask == 0


def distinct(r1: TernaryRule, r2: TernaryRule) -> bool:
    """True iff some bit position is pinned to 1 by one rule and 0 by the other.

    Equivalent to: no packet matches both rules.
    """
    if r1.width != r2.width:
        raise ValueError("rule widths differ")
    return (r1.mask & r2.mask & (r1.pattern ^ r2.pattern)) != 0


def overlaps(r1: TernaryRule, r2: TernaryRule) -> bool:
    """True iff at least one packet matches both rules."""
    return not distinct(r1, r2)


def intersect(r1: TernaryRule, r2: TernaryRule) -> Optional[TernaryRule]:
    """The rule matching exactly the packets matched by both, or None if disjoint."""
    if distinct(r1, r2):
        return None
    return TernaryRule(r1.width, r1.pattern | r2.pattern, r1.mask | r2.mask)


def encode(spec: FlowSpec) -> TernaryRule:
    """Encode a FlowSpec into the canonical 104-bit ternary rule."""
    pattern = 0
    mask = 0
    for name, (shift, bits) in _FIELDS.items():
        value = getattr(spec, name)
        if value is not None:
            mask |= ((1 << bits) - 1) << shift
            pattern |= value << shift
    return TernaryRule(RULE_WIDTH, pattern, mask)


def decode(rule: TernaryRule) -> FlowSpec:
    """Recover a FlowSpec from a field-aligned 104-bit rule.

    Raises RuleFormatError if any field is partially masked, since such a rule
    has no 5-tuple equivalent.
    """
    if rule.width != RULE_WIDTH:
        raise RuleFormatError(f"expected width {RULE_WIDTH}, got {rule.width}")
    out: dict[str, Optional[int]] = {}
    for name, (shift, bits) in _FIELDS.items():
        field_mask = (1 << bits) - 1
        got = (rule.mask >> shift) & field_mask
        if got == 0:
            out[name] = None
        elif got == field_mask:
            out[name] = (rule.pattern >> shift) & field_mask
        else:
            raise RuleFormatError(f"field {_KEYS[name]} is partially masked")
    return FlowSpec(**out)


def encode_packet(
    src_ip: int, dst_ip: int, src_port: int, dst_port: int, proto: int
) -> Packet:
    """Build a concrete 104-bit header from 5-tuple values."""
    bits = 0
    for (name, (shift, width)), value in zip(
            _FIELDS.items(), (src_ip, dst_ip, src_port, dst_port, proto)):
        if not 0 <= value < (1 << width):
            raise RuleFormatError(f"{_KEYS[name]}={value!r} out of range")
        bits |= value << shift
    return Packet(RULE_WIDTH, bits)


def parse_rule(text: str) -> FlowSpec:
    """Parse a rule literal like ``proto=tcp,dst_port=80``.

    Fields omitted or given as ``*`` are wildcards; ``*`` alone is the
    all-wildcard rule.  IPs accept dotted-quad or integer form; proto accepts
    tcp/udp/icmp or an integer.
    """
    text = text.strip()
    fields: dict[str, Optional[int]] = {}
    if text != "*" and text != "":
        for part in text.split(","):
            if "=" not in part:
                raise RuleFormatError(f"bad field assignment {part!r}")
            key, raw = (s.strip() for s in part.split("=", 1))
            if key not in _NAMES:
                raise RuleFormatError(f"unknown field {key!r}")
            name = _NAMES[key]
            if name in fields:
                raise RuleFormatError(f"field {key!r} given twice")
            fields[name] = None if raw == "*" else _parse_value(name, raw)
    return FlowSpec(**fields)


def _parse_value(name: str, raw: str) -> int:
    if name in ("src_ip", "dst_ip"):
        try:
            if "." in raw:
                return int(ipaddress.IPv4Address(raw))
            return int(raw, 0)
        except (ValueError, ipaddress.AddressValueError) as exc:
            raise RuleFormatError(f"bad IP value {raw!r}") from exc
    if name == "ip_proto" and raw.lower() in _PROTO_NAMES:
        return _PROTO_NAMES[raw.lower()]
    try:
        return int(raw, 0)
    except ValueError as exc:
        raise RuleFormatError(f"bad value {raw!r} for {_KEYS[name]}") from exc


def _format_value(name: str, value: int) -> str:
    if name in ("src_ip", "dst_ip"):
        return str(ipaddress.IPv4Address(value))
    if name == "ip_proto":
        return _PROTO_BY_VALUE.get(value, str(value))
    return str(value)


def format_rule(spec: FlowSpec) -> str:
    """Inverse of parse_rule; concrete fields only, ``*`` for the full wildcard."""
    parts = [f"{_KEYS[name]}={_format_value(name, getattr(spec, name))}"
             for name in _FIELDS if getattr(spec, name) is not None]
    return ",".join(parts) if parts else "*"


WILDCARD_BIAS = 0.4


def random_rule(width: int, rng) -> TernaryRule:
    """Draw a random rule; each bit is a don't-care with probability
    :data:`WILDCARD_BIAS`."""
    mask = 0
    pattern = 0
    for _ in range(width):
        mask <<= 1
        pattern <<= 1
        if rng.random() >= WILDCARD_BIAS:
            mask |= 1
            pattern |= rng.getrandbits(1)
    return TernaryRule(width, pattern, mask)

"""Privacy-preserving rule matching between two exchange points.

One side (the querier) holds a single ternary rule; the other (the holder)
keeps a table of installed rules partitioned by BGP prefix, each tagged with
the identifier of the next deflection on its path.  A query reveals to the
querier exactly the set of next-hop identifiers whose rules overlap the
queried rule, and nothing else: not which table positions matched, not how
the non-matching rules look, and the holder learns nothing about the queried
rule beyond its arrival and target prefix.

Session flow, all on one framed channel:

1. querier sends a cleartext envelope {prefix, rule width, backend, nonce};
   the holder aborts with a ProtocolError naming the fault if it is not a
   JSON object with those fields, a positive integer width and a known
   backend, or if the width differs from its table's;
2. holder answers with {k, id width} where k is its entry count for the
   prefix; the querier aborts with a ProtocolError naming the fault if the
   answer is not a JSON object with a non-negative integer k of at most
   ``MAX_ENTRIES`` and its own identifier width; k == 0 ends the session
   with an empty result and no circuit work;
3. otherwise the holder freshly permutes its entries, so positions carry no
   information, and both sides compute entry by entry whether the queried
   rule is distinct from the stored one under the chosen secure backend.
   Each side first turns its rules into pinned-one bits (mask AND pattern)
   and pinned-zero bits (mask AND NOT pattern); a bit proves two rules
   distinct when one pins it to 1 and the other to 0.  The querier's bits
   are secret inputs, while the holder's stay in its clear and feed only
   cross gates (see :mod:`prelude.circuits`), so the holder's rules are
   never labelled, masked or shared.
   Every entry runs the same per-entry template, the comparator
   (:func:`build_batch_query`), and the backends evaluate it over k lanes,
   lane i being the i-th shuffled entry; the querier's rule feeds every
   lane.  Lane i's output, the distinct bit, ends up XOR-shared under gmw,
   and under yao the querier ends up holding one of its two labels;
4. in the release round the holder offers, per entry, the entry's
   identifier and the dummy, and the querier receives the one its distinct
   bit selects: the identifier where the rules overlap, the dummy where
   they are distinct.  Under gmw this is one precomputed transfer per entry
   whose choice bit is the querier's share and whose pair the holder orders
   by its own; under yao the two values go encrypted under the two labels
   of the entry's output wire.  Either way the querier opens exactly one
   value per entry and learns nothing of the other, and the holder learns
   nothing back.  The querier drops the dummy placeholders and
   deduplicates.

One template is built per rule width and kept for the life of the
process; nothing is built per k.

Both parties exist only as step generators over frames:
:meth:`SdxMatchService.serve_steps` and the querier's ``_querier_steps``.
:meth:`SdxMatchService.serve_query` drives the holder's side over a
blocking channel, and :class:`LoopbackEndpoint` hands it an
:class:`~prelude.smpc.InlineLoopback` whose peer is the querier's side, so
a session runs in the calling thread and starts no thread.
"""

from __future__ import annotations

import json
import logging
import random
import threading
from dataclasses import dataclass

from prelude.circuits import BatchQueryCircuit, build_batch_query
from prelude.rules import TernaryRule
from prelude.smpc import (
    ChannelClosed,
    ChannelTimeout,
    InlineLoopback,
    MSG_ENVELOPE,
    MSG_ENVELOPE_ACK,
    ProtocolError,
    SessionTranscript,
    SetupUnderprovisioned,
    dealer_for_circuit,
    drive,
    evaluate_steps,
    garble_steps,
    gmw_steps,
    open_steps,
    recv_frame,
    release_steps,
    reveal_steps,
    send_frame,
)
from prelude.smpc.shares import int_to_bits, rows_to_lanes

log = logging.getLogger(__name__)

SDX_ID_BITS = 16
AS_ID_BITS = 32
HOP_ID_BITS = SDX_ID_BITS + AS_ID_BITS
HOP_ID_BYTES = HOP_ID_BITS // 8

BACKENDS = ("gmw", "yao")

# The largest k a querier accepts in the envelope ack, which it sizes its
# dealer material from before anything else checks it.  This is about 8x the
# largest table any test or workload runs; at rule width 104 a yao session
# of this size already moves about 27 MB of garbled tables.
MAX_ENTRIES = 4096


@dataclass(frozen=True, order=True)
class NextHopId:
    """Where a deflected packet goes next: an AS reached at an SDX."""

    sdx_id: int
    as_id: int

    def __post_init__(self) -> None:
        if not 0 <= self.sdx_id < (1 << SDX_ID_BITS):
            raise ValueError("sdx_id out of range")
        if not 0 <= self.as_id < (1 << AS_ID_BITS):
            raise ValueError("as_id out of range")

    @property
    def value(self) -> int:
        """The identifier as one 48-bit integer, the exchange in the top bits."""
        return (self.sdx_id << AS_ID_BITS) | self.as_id

    @classmethod
    def from_value(cls, value: int) -> "NextHopId":
        return cls(value >> AS_ID_BITS, value & ((1 << AS_ID_BITS) - 1))

    def to_bytes(self) -> bytes:
        return self.value.to_bytes(HOP_ID_BYTES, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "NextHopId":
        return cls.from_value(int.from_bytes(data, "big"))


DUMMY_HOP = NextHopId((1 << SDX_ID_BITS) - 1, (1 << AS_ID_BITS) - 1)


@dataclass(frozen=True)
class RuleEntry:
    """One installed rule as the holder stores it."""

    rule: TernaryRule
    next_hop: NextHopId
    owner: int
    prefix: str

    def __post_init__(self) -> None:
        if self.next_hop == DUMMY_HOP:
            raise ValueError("the dummy identifier cannot be a real next hop")


@dataclass(frozen=True)
class QueryResult:
    """Deduplicated next-hop identifiers of the overlapping remote rules."""

    hops: frozenset[NextHopId]

    def __contains__(self, hop: NextHopId) -> bool:
        return hop in self.hops

    def __len__(self) -> int:
        return len(self.hops)

    def sorted_hops(self) -> list[NextHopId]:
        return sorted(self.hops)


class QueryAborted(Exception):
    """The session failed before a result was reconstructed."""


@dataclass
class SessionStats:
    """Counters one completed query session leaves behind."""

    backend: str
    prefix: str
    k: int
    and_depth: int
    online_rounds: int
    setup_bytes: int
    online_bytes: int
    online_wall_time: float


# --------------------------------------------------------------------------
# per-entry template


_template_lock = threading.Lock()
_templates: dict[int, BatchQueryCircuit] = {}


def query_template(rule_width: int) -> BatchQueryCircuit:
    """The template for a rule width, built on first use and then kept."""
    with _template_lock:
        template = _templates.get(rule_width)
        if template is None:
            template = _templates[rule_width] = build_batch_query(rule_width)
    return template


def _pinned(rule: TernaryRule) -> tuple[int, int]:
    """A rule's pinned-one bits (mask AND pattern) and pinned-zero bits
    (mask AND NOT pattern), as ints."""
    return rule.mask & rule.pattern, rule.mask & ~rule.pattern


def _json_fields(payload: bytes, what: str, names: tuple[str, ...]) -> list:
    """The named fields of a frame that must hold a JSON object.

    Raises ProtocolError naming the fault, calling the frame ``what``, for
    bad UTF-8 or JSON, a JSON value that is not an object, or a missing
    field.
    """
    try:
        found = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"{what} is not JSON: {exc}") from None
    if not isinstance(found, dict):
        raise ProtocolError(
            f"{what} is a JSON {type(found).__name__}, not an object")
    for name in names:
        if name not in found:
            raise ProtocolError(f"{what} has no {name!r} field")
    return [found[name] for name in names]


def _parse_envelope(payload: bytes) -> tuple[str, int, str]:
    """(prefix, rule width, backend) of a querier's envelope.

    Raises ProtocolError naming the fault for anything but a JSON object
    with a string prefix, a positive integer rule width and a known backend.
    """
    prefix, width, backend = _json_fields(
        payload, "envelope", ("prefix", "rule_width", "backend"))
    if not isinstance(prefix, str):
        raise ProtocolError(f"envelope prefix {prefix!r} is not a string")
    if type(width) is not int or width < 1:
        raise ProtocolError(
            f"envelope rule_width {width!r} is not a positive integer")
    if backend not in BACKENDS:
        raise ProtocolError(f"unknown backend {backend!r}")
    return prefix, width, backend


def _parse_ack(payload: bytes) -> int:
    """The entry count k of a holder's envelope ack.

    Raises ProtocolError naming the fault for anything but a JSON object
    with a non-negative integer k of at most :data:`MAX_ENTRIES` and this
    side's identifier width.
    """
    k, id_width = _json_fields(payload, "envelope ack", ("k", "id_width"))
    if type(k) is not int or k < 0:
        raise ProtocolError(
            f"envelope ack k {k!r} is not a non-negative integer")
    if k > MAX_ENTRIES:
        raise ProtocolError(
            f"envelope ack k {k} exceeds the cap of {MAX_ENTRIES} entries")
    if type(id_width) is not int or id_width != HOP_ID_BITS:
        raise ProtocolError(
            f"holder uses an incompatible identifier width {id_width!r}")
    return k


# --------------------------------------------------------------------------
# holder


class SdxMatchService:
    """One exchange point's rule table and its query-serving side.

    Registrations are serialized behind a lock; queries snapshot the table
    and then run without holding it, so a slow session never blocks writers
    or other queries.
    """

    def __init__(self, sdx_id: int) -> None:
        self.sdx_id = sdx_id
        self._lock = threading.RLock()
        self._tables: dict[str, dict[RuleEntry, None]] = {}

    # -------------------------------------------------------- table writes

    def register(self, entry: RuleEntry) -> None:
        """Add an entry; every rule under one prefix must have the same width.

        Raises ValueError, leaving the table as it was, for an entry whose
        width differs from the rules already registered under its prefix.
        """
        with self._lock:
            table = self._tables.setdefault(entry.prefix, {})
            if table:
                width = next(iter(table)).rule.width
                if entry.rule.width != width:
                    raise ValueError(
                        f"rule width {entry.rule.width} does not match rule "
                        f"width {width} of the entries under {entry.prefix}")
            table[entry] = None

    def deregister(self, entry: RuleEntry) -> None:
        with self._lock:
            table = self._tables.get(entry.prefix, {})
            if entry not in table:
                log.warning("deregister of unknown entry for %s", entry.prefix)
                return
            del table[entry]

    def entries_for(self, prefix: str) -> list[RuleEntry]:
        with self._lock:
            return list(self._tables.get(prefix, {}))

    # -------------------------------------------------------- query serving

    def serve_query(self, channel, dealer, shuffle_rng: random.Random,
                    garble_rng: random.Random,
                    transcript: SessionTranscript | None = None) -> None:
        """Run the holder side of one query session to completion."""
        drive(self.serve_steps(dealer, shuffle_rng, garble_rng, transcript),
              channel)

    def serve_steps(self, dealer, shuffle_rng: random.Random,
                    garble_rng: random.Random,
                    transcript: SessionTranscript | None = None):
        """Step generator of :meth:`serve_query`."""
        payload = yield from recv_frame(MSG_ENVELOPE, transcript)
        prefix, width, backend = _parse_envelope(payload)

        entries = self.entries_for(prefix)
        if entries and entries[0].rule.width != width:
            raise ProtocolError(
                f"query rule width {width} does not match the table's rule "
                f"width {entries[0].rule.width}")
        k = len(entries)
        ack = json.dumps({"k": k, "id_width": HOP_ID_BITS}).encode("utf-8")
        yield from send_frame(MSG_ENVELOPE_ACK, ack, transcript)
        if k == 0:
            return

        shuffle_rng.shuffle(entries)
        template = query_template(width)
        # one lane per shuffled entry: bit i of a wire's word is entry i's bit
        ones, zeros = zip(*(_pinned(e.rule) for e in entries))
        inputs = {"h_one": rows_to_lanes(ones, width),
                  "h_zero": rows_to_lanes(zeros, width)}
        # A distinct bit reads 0 where the rules overlap: release the
        # entry's identifier there, the dummy where it reads 1.
        dummy = DUMMY_HOP.to_bytes()
        values = [(entry.next_hop.to_bytes(), dummy) for entry in entries]
        material = dealer.material(template, backend, 1, k)
        if backend == "gmw":
            shares = yield from gmw_steps(template, 1, inputs, material,
                                          transcript, lanes=k)
            yield from reveal_steps(shares, material, HOP_ID_BYTES,
                                    transcript, receive=False, values=values)
            return
        delta, zero_labels = yield from garble_steps(
            template, inputs, material, garble_rng, transcript, lanes=k)
        yield from release_steps(delta, zero_labels, values, transcript)


# --------------------------------------------------------------------------
# querier


def _querier_steps(local: TernaryRule, prefix: str, backend: str, dealer,
                   nonce: str, transcript: SessionTranscript | None):
    """The querier's side of one session; returns the k raw identifiers."""
    envelope = json.dumps({
        "prefix": prefix,
        "rule_width": local.width,
        "id_width": HOP_ID_BITS,
        "backend": backend,
        "nonce": nonce,
    }).encode("utf-8")
    yield from send_frame(MSG_ENVELOPE, envelope, transcript)
    ack = yield from recv_frame(MSG_ENVELOPE_ACK, transcript)
    k = _parse_ack(ack)
    if k == 0:
        return []

    template = query_template(local.width)
    # one bit per wire, the rule's most significant bit first
    one, zero = _pinned(local)
    inputs = {"q_one": int_to_bits(one, local.width)[::-1],
              "q_zero": int_to_bits(zero, local.width)[::-1]}
    material = dealer.material(template, backend, 0, k)
    if backend == "gmw":
        shares = yield from gmw_steps(template, 0, inputs, material,
                                      transcript, lanes=k)
        opened = yield from reveal_steps(shares, material, HOP_ID_BYTES,
                                         transcript, receive=True)
    else:
        labels = yield from evaluate_steps(template, inputs, material,
                                           transcript, lanes=k)
        opened = yield from open_steps(labels, HOP_ID_BYTES, transcript)
    return [NextHopId.from_bytes(value) for value in opened]


class _SessionDealer:
    """Hands both parties of one session their correlated setup material."""

    def __init__(self, seed: int) -> None:
        self._seed = seed
        self._materials = None

    def material(self, circuit, backend: str, party: int, lanes: int):
        if self._materials is None:
            rng = random.Random(self._seed)
            self._materials = dealer_for_circuit(circuit, backend, rng,
                                                 lanes=lanes)
        return self._materials[party]


class LoopbackEndpoint:
    """A holder reachable over in-process channels, one session per query.

    The endpoint plays the trusted dealer for its sessions and owns the
    randomness for nonces, shuffles, and garbling, so a seeded endpoint
    produces reproducible sessions when queries are issued serially.
    """

    def __init__(self, service: SdxMatchService, seed: int = 0,
                 one_way_delay: float = 0.0) -> None:
        self.service = service
        self._rng = random.Random(seed)
        self._delay = one_way_delay
        self._lock = threading.Lock()

    def query(
        self,
        local: TernaryRule,
        prefix: str,
        backend: str = "gmw",
        stats_out: list[SessionStats] | None = None,
        _raw_out: list[NextHopId] | None = None,
    ) -> QueryResult:
        """Run one full query session; see module docstring for the flow."""
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}")
        with self._lock:
            dealer_seed = self._rng.getrandbits(64)
            shuffle_seed = self._rng.getrandbits(64)
            garble_seed = self._rng.getrandbits(64)
            nonce = f"{self._rng.getrandbits(64):016x}"
        dealer = _SessionDealer(dealer_seed)
        t_q = SessionTranscript()
        t_h = SessionTranscript()
        channel = InlineLoopback(
            _querier_steps(local, prefix, backend, dealer, nonce, t_q),
            one_way_delay=self._delay)
        try:
            self.service.serve_query(
                channel, dealer,
                shuffle_rng=random.Random(shuffle_seed),
                garble_rng=random.Random(garble_seed),
                transcript=t_h,
            )
        except Exception as exc:
            # The first real failure is the one reported: the holder's own,
            # unless the holder only saw the querier drop out.
            if channel.peer_error is None:
                raise QueryAborted(str(exc)) from exc
        try:
            raw = channel.finish()
        except (ChannelClosed, ChannelTimeout, ProtocolError,
                SetupUnderprovisioned) as exc:
            raise QueryAborted(str(exc)) from exc

        if _raw_out is not None:
            _raw_out.extend(raw)
        if stats_out is not None:
            k = len(raw)
            stats_out.append(SessionStats(
                backend=backend,
                prefix=prefix,
                k=k,
                and_depth=query_template(local.width).and_depth() if k else 0,
                online_rounds=t_q.online_rounds,
                setup_bytes=t_q.setup_bytes,
                online_bytes=t_q.online_bytes,
                online_wall_time=t_q.online_wall_time,
            ))
        hops = frozenset(h for h in raw if h != DUMMY_HOP)
        return QueryResult(hops)
